package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netobjects"
	"netobjects/internal/obs"
)

// The traced run records spans from the benchmark's own files: a root span
// around every operation, children derived from the events the runtime
// hands to Options.Tracer, and after one operation in 64 a sibling replay
// span whose children time the layer functions on that operation's
// inputs. Spans inside the program are a later change (ROADMAP 1(d)).

// span is one interval of one operation; Parent indexes the span list.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1: no parent
	Op     int64  `json:"op"`     // caller<<32 | operation number; -1: background
	space  int    // emitting space, for parenting
	callID uint64
}

// rootSpan is the harness's span around one operation.
type rootSpan struct{ start, end, op int64 }

// traceEvent is a runtime event that closes a span; its start is the end
// less the duration the event carries.
type traceEvent struct {
	kind     obs.EventKind
	callID   uint64
	end, dur int64
}

// tracer collects the events of every space of the traced instance. The
// runtime's RingTracer keeps only the last n events and cannot be
// drained, and a window emits millions, so the harness installs its own
// obs.Tracer that keeps the four span-closing kinds.
type tracer struct {
	base       time.Time
	on         atomic.Bool
	collectors []*collector
	env        *layerEnv

	mu      sync.Mutex
	replays [][]replaySpan // one slice per replay, enclosing span first
	ops     []int64        // the operation each replay followed
	err     error
}

type collector struct {
	t     *tracer
	space int
	mu    sync.Mutex
	evs   []traceEvent
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.base)) }

// forSpace is the tracerFor of the traced instance.
func (t *tracer) forSpace() netobjects.Tracer {
	c := &collector{t: t, space: len(t.collectors), evs: make([]traceEvent, 0, 1<<16)}
	t.collectors = append(t.collectors, c)
	return c
}

func (c *collector) Emit(e obs.Event) {
	switch e.Kind {
	case obs.EvCallReply, obs.EvCallDone, obs.EvDirtySend, obs.EvCleanSend:
	default:
		return
	}
	if !c.t.on.Load() {
		return
	}
	c.mu.Lock()
	c.evs = append(c.evs, traceEvent{e.Kind, e.CallID, c.t.since(e.Time), int64(e.Dur)})
	c.mu.Unlock()
}

// start opens the layer environment the replays use and begins keeping
// events.
func (t *tracer) start(in *instance) {
	t.env, t.err = newLayerEnv(in)
	t.on.Store(true)
}

func (t *tracer) stop() {
	t.on.Store(false)
	if t.env != nil {
		t.env.close()
	}
}

// replay runs on the caller's goroutine, after the operation whose
// inputs it replays.
func (t *tracer) replay(c *caller) {
	if t.env == nil {
		return
	}
	spans, err := t.env.replay(&c.last, &c.scratch, t.since)
	t.mu.Lock()
	t.replays = append(t.replays, spans)
	t.ops = append(t.ops, c.opID())
	if err != nil && t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

var spanNames = map[obs.EventKind][2]string{
	obs.EvCallReply: {"core.call", "core"},
	obs.EvCallDone:  {"core.serve", "core"},
	obs.EvDirtySend: {"dgc.dirty", "dgc"},
	obs.EvCleanSend: {"dgc.clean", "dgc"},
}

// byStart is a list of span indexes ordered by start time.
type byStart []int

func (l byStart) sort(spans []span) {
	sort.Slice(l, func(i, j int) bool { return spans[l[i]].Start < spans[l[j]].Start })
}

// enclosing appends to into the spans of the list that contain
// [start, end], looking back over at most 64 of those that started before
// it: enough for lists of spans that are short beside their number.
func (l byStart) enclosing(spans []span, start, end int64, into []int) []int {
	i := sort.Search(len(l), func(i int) bool { return spans[l[i]].Start > start })
	for n := 0; i > 0 && n < 64; n++ {
		i--
		if spans[l[i]].End >= end {
			into = append(into, l[i])
		}
	}
	return into
}

// parents hands child spans to the spans that host them. The events
// carry no goroutine, so a child is matched by time: its host contains
// it, and — because one goroutine's spans nest and follow one another —
// hosts no other child at that moment. Where concurrent callers leave
// more than one such host, the one that came free last is taken: a
// goroutine starts its next call within microseconds of the one before.
type parents struct {
	spans []span
	free  []int64 // per host, when its latest child ended; 0: it has had none
}

func (p *parents) adopt(child int, hosts []int) {
	c := &p.spans[child]
	best, bestFree := -1, int64(0)
	for _, h := range hosts {
		free := p.free[h]
		if free == 0 {
			free = p.spans[h].Start
		}
		if free <= c.Start && (best < 0 || free > bestFree) {
			best, bestFree = h, free
		}
	}
	if best >= 0 {
		c.Parent = best
		p.free[best] = c.End
	}
}

// buildSpans turns the roots, the collected events and the replays into
// one span list with parents assigned: a serve span under the call span
// with its call id; a call span under a serve span of its own space (a
// call made by a handler) or else under a caller's root; a dirty span
// under a call or serve span of its space, whichever was unmarshaling;
// clean spans, which the cleaner sends in the background, under nothing.
func (t *tracer) buildSpans(w *window) []span {
	var spans []span
	roots := make([]byStart, len(w.callers)) // one caller's roots follow one another
	for k, c := range w.callers {
		name := "op"
		if c.role == roleProbe {
			name = "probe"
		}
		for _, r := range c.roots {
			roots[k] = append(roots[k], len(spans))
			spans = append(spans, span{Name: name, Layer: "harness", Start: r.start, End: r.end, Parent: -1, Op: r.op, space: -1})
		}
	}
	calls := make([]byStart, len(t.collectors))
	serves := make([]byStart, len(t.collectors))
	callByID := map[uint64]int{}
	var events byStart
	for _, c := range t.collectors {
		for _, e := range c.evs {
			nl := spanNames[e.kind]
			i := len(spans)
			spans = append(spans, span{Name: nl[0], Layer: nl[1], Start: e.end - e.dur, End: e.end, Parent: -1, Op: -1, space: c.space, callID: e.callID})
			events = append(events, i)
			switch e.kind {
			case obs.EvCallReply:
				calls[c.space] = append(calls[c.space], i)
				callByID[e.callID] = i
			case obs.EvCallDone:
				serves[c.space] = append(serves[c.space], i)
			}
		}
	}
	events.sort(spans)
	for _, lists := range [][]byStart{calls, serves} {
		for _, l := range lists {
			l.sort(spans)
		}
	}
	p := parents{spans: spans, free: make([]int64, len(spans))}
	var hosts []int
	for _, i := range events {
		s := &spans[i]
		hosts = hosts[:0]
		switch s.Name {
		case "core.serve":
			if c, ok := callByID[s.callID]; ok && spans[c].Start <= s.Start && spans[c].End >= s.End {
				s.Parent = c
			}
		case "core.call":
			if p.adopt(i, serves[s.space].enclosing(spans, s.Start, s.End, hosts)); s.Parent >= 0 {
				break
			}
			for _, l := range roots {
				hosts = l.enclosing(spans, s.Start, s.End, hosts)
			}
			p.adopt(i, hosts)
		case "dgc.dirty":
			hosts = calls[s.space].enclosing(spans, s.Start, s.End, hosts)
			p.adopt(i, serves[s.space].enclosing(spans, s.Start, s.End, hosts))
		}
	}
	// An operation's number reaches its descendants through the parents.
	var opOf func(i int) int64
	opOf = func(i int) int64 {
		if spans[i].Op < 0 && spans[i].Parent >= 0 {
			spans[i].Op = opOf(spans[i].Parent)
		}
		return spans[i].Op
	}
	for _, i := range events {
		opOf(i)
	}
	for r, rs := range t.replays {
		parent := len(spans)
		for j, s := range rs {
			layer, _, _ := strings.Cut(s.name, ".")
			sp := span{Name: s.name, Layer: layer, Start: s.start, End: s.end, Parent: parent, Op: t.ops[r], space: -1}
			if j == 0 {
				sp.Layer, sp.Parent = "harness", -1
			}
			spans = append(spans, sp)
		}
	}
	return spans
}

// selfTimes returns each span's duration less the part of it its children
// cover, and the children of every span.
func selfTimes(spans []span) (self []int64, children [][]int) {
	children = make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self = make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, upTo), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self, children
}

// traceMetrics builds the spans, writes them out, and derives the latency
// budget of the median operation: the self time of each span name averaged
// over the operations whose latency lies between the 40th and the 60th
// percentile, so that the parts sum to the median and not to a mean the
// tail has pulled up.
func traceMetrics(res *result, t *tracer, traced, untraced *window, cfg config) error {
	m := res.Metrics
	if t.err != nil {
		res.fail("trace replay: %v", t.err)
	}
	spans := t.buildSpans(traced)
	self, children := selfTimes(spans)

	var rootDurs []float64
	for _, s := range spans {
		if s.Name == "op" {
			rootDurs = append(rootDurs, float64(s.End-s.Start))
		}
	}
	sort.Float64s(rootDurs)
	lo, hi := int64(quantile(rootDurs, 0.4)), int64(quantile(rootDurs, 0.6))
	byName := map[string]int64{}
	band := 0
	var walk func(i int)
	walk = func(i int) {
		byName[spans[i].Name] += self[i]
		for _, k := range children[i] {
			walk(k)
		}
	}
	for i, s := range spans {
		if d := s.End - s.Start; s.Name == "op" && d >= lo && d <= hi {
			band++
			walk(i)
		}
	}
	perOp := func(name string) float64 { return float64(byName[name]) / float64(max(band, 1)) / 1e3 }
	m["trace.op_self_us"] = perOp("op")
	m["trace.core_call_self_us"] = perOp("core.call")
	m["trace.core_serve_self_us"] = perOp("core.serve")
	m["trace.dgc_dirty_self_us"] = perOp("dgc.dirty")
	sum := perOp("op") + perOp("core.call") + perOp("core.serve") + perOp("dgc.dirty")
	m["trace.root_p50_us"] = quantile(rootDurs, 0.5) / 1e3

	// The replays split the call span's self time — the client path, both
	// frames' encoding and the two session hops — by layer; what they do
	// not explain is the residual.
	replayed := map[string][]float64{}
	for _, rs := range t.replays {
		for _, s := range rs[1:] {
			replayed[s.name] = append(replayed[s.name], float64(s.end-s.start))
		}
	}
	explained := 0.0
	for _, name := range []string{"pickle.args", "wire.codec", "objtable.lookup", "flow.sched", "transport.stream"} {
		v := 0.0
		if len(replayed[name]) > 0 {
			v = median(replayed[name]) / 1e3
		}
		m["trace.replay."+name+"_us"] = v
		explained += v
	}
	m["trace.residual_us"] = m["trace.core_call_self_us"] - explained
	m["trace.budget_gap_ratio"] = (sum - m["trace.root_p50_us"]) / m["trace.root_p50_us"]
	m["trace_overhead_ratio"] = traced.opsPerSec() / untraced.opsPerSec()
	res.Notes = append(res.Notes, fmt.Sprintf("trace: %d spans, %d operations, %d in the median band, %d replays",
		len(spans), len(rootDurs), band, len(t.replays)))
	return writeTrace(spans, cfg)
}

// traceFileSpans bounds the trace file: it holds the spans that start
// before the 100000th does, which includes the parent of each.
const traceFileSpans = 100000

func writeTrace(spans []span, cfg config) error {
	cutoff := int64(1<<63 - 1)
	if len(spans) > traceFileSpans {
		starts := make([]int64, len(spans))
		for i, s := range spans {
			starts[i] = s.Start
		}
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		cutoff = starts[traceFileSpans]
	}
	renumber := make(map[int]int, traceFileSpans)
	var out []span
	for i, s := range spans {
		if s.Start < cutoff {
			renumber[i] = len(out)
			out = append(out, s)
		}
	}
	for i := range out {
		if p := out[i].Parent; p >= 0 {
			out[i].Parent = renumber[p]
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.outDir, cfg.workload+".trace.json"))
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Total    int    `json:"spans_recorded"`
		Spans    []span `json:"spans"`
	}{cfg.workload, cfg.seed, len(spans), out})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
