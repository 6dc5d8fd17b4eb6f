package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"netobjects/internal/obs"
)

// replayEvery is how often the traced run replays the layer functions on
// an operation's inputs: after each caller's first operation and every
// 64th after it.
const replayEvery = 64

// setupBudget is how long a run spends on repeating a slow set-up, beyond
// the third.
const setupBudget = 1500 * time.Millisecond

// config is what one run of one workload measures.
type config struct {
	workload string
	seed     int64
	trace    bool
	// warmup runs untimed before every window: sessions dialed, pools and
	// dispatch caches filled.
	warmup time.Duration
	// window is the untraced timed window every end-to-end metric comes
	// from; traced is the traced window that follows it when trace is set.
	window, traced time.Duration
	// setups is how many times at most the workload is set up for
	// setup_s (at least once); probe is how long each layer probe measures.
	setups int
	probe  time.Duration
	outDir string // where the trace file goes
}

// window holds what one drive of the callers recorded.
type window struct {
	blockLen          int64 // nanoseconds
	blocks            int
	alternating       bool
	ops, probes, refs []sample
	started           int64 // operations started by the roleOp callers
	attempted, failed int   // every call: operations, probes and reference calls
	payload           int64
	firstErr          error
	callers           []*caller
	counters          counters  // over the window, all spaces summed
	proc              procStats // over the window; over its operation blocks when alternating
}

// opBlock reports whether block b of an alternating window ran the
// workload's operation (even blocks) or the reference call (odd ones).
func (w *window) opBlock(b int) bool { return !w.alternating || b%2 == 0 }

// opsPerSec is the median rate of the blocks that ran the operation, or
// the mean rate over them when they hold fewer than ten operations each
// and a block's count says little.
func (w *window) opsPerSec() float64 {
	rates := blockRates(w.ops, w.blockLen, w.blocks, w.opBlock)
	if len(w.ops) < 10*len(rates) {
		return float64(len(w.ops)) / opSeconds(w)
	}
	return median(rates)
}

// drive runs every caller of the instance closed-loop for d and returns
// what they recorded. With a tracer it also records a root span per
// operation and replays the layer functions after one in 64.
func (in *instance) drive(seed int64, d time.Duration, tr *tracer) *window {
	w := &window{alternating: in.ref != nil}
	// Blocks of at most a second, at least ten per window: ops_per_s is
	// the median block rate, and an alternating window switches between
	// the operation and the reference call at block boundaries.
	w.blockLen = int64(min(time.Second, d/10))
	w.blocks = int(int64(d) / w.blockLen)
	for k, r := range in.roles {
		w.callers = append(w.callers, &caller{id: k, role: r, rng: rand.New(rand.NewSource(seed*1000 + int64(k)))})
	}
	before, procBefore := in.readCounters(), readProc()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range w.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			// An alternating window has one caller, which reads the
			// process figures at every block boundary so that those of
			// the operation's blocks can be told from the reference's.
			block, blockProc := 0, procBefore
			endBlock := func(next int) {
				if !w.alternating {
					return
				}
				now := readProc()
				if w.opBlock(block) {
					w.proc = w.proc.add(now.sub(blockProc))
				}
				block, blockProc = next, now
			}
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					endBlock(block)
					return
				}
				if w.alternating {
					if b := int(int64(t0.Sub(start)) / w.blockLen); b != block {
						endBlock(b)
						t0 = time.Now()
					}
					if !w.opBlock(block) {
						err := in.ref(c)
						c.record(&c.refs, start, t0, time.Now(), err)
						continue
					}
				}
				c.n++
				if c.role == roleProbe {
					err := in.probe(c)
					t1 := time.Now()
					c.record(&c.probes, start, t0, t1, err)
					if tr != nil {
						c.roots = append(c.roots, rootSpan{tr.since(t0), tr.since(t1), c.opID()})
					}
					continue
				}
				alsoProbe, err := in.op(c)
				t1 := time.Now()
				c.record(&c.ops, start, t0, t1, err)
				if alsoProbe && err == nil {
					c.probes = append(c.probes, c.ops[len(c.ops)-1])
				}
				if tr != nil {
					c.roots = append(c.roots, rootSpan{tr.since(t0), tr.since(t1), c.opID()})
					if c.n%replayEvery == 1 {
						tr.replay(c)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	w.counters = in.readCounters().sub(before)
	procAfter := readProc()
	if !w.alternating {
		w.proc = procAfter.sub(procBefore)
	}
	w.proc.peakRSSMB = procAfter.peakRSSMB
	for _, c := range w.callers {
		w.ops = append(w.ops, c.ops...)
		w.probes = append(w.probes, c.probes...)
		w.refs = append(w.refs, c.refs...)
		if c.role == roleOp {
			w.started += c.n
		}
		w.attempted += c.attempted
		w.failed += c.failed
		w.payload += c.payload
		if w.firstErr == nil {
			w.firstErr = c.firstErr
		}
	}
	return w
}

// record counts one attempted call and keeps its latency if it succeeded.
func (c *caller) record(into *[]sample, start, t0, t1 time.Time, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
		return
	}
	*into = append(*into, sample{end: int64(t1.Sub(start)), dur: int64(t1.Sub(t0))})
}

// --- counters and process statistics ------------------------------------

// counters are the runtime counters the per-layer metrics are built from,
// summed over the instance's spaces.
type counters struct {
	n                                 [numCounters]uint64
	serve, dirtyLatency, cleanLatency obs.HistogramSnapshot
}

const (
	bytesSent = iota
	poolMisses
	flowChunks
	flowUpdates
	flowStalls
	fallbacks // pipeline and flow
	dirtySent
	cleanSent
	cleanBatches
	resultAcks
	numCounters
)

func (in *instance) readCounters() counters {
	var c counters
	for _, sp := range in.spaces {
		m := sp.Metrics()
		for i, v := range [numCounters]uint64{
			bytesSent:    m.BytesSent.Load(),
			poolMisses:   m.PoolMisses.Load(),
			flowChunks:   m.FlowChunksSent.Load(),
			flowUpdates:  m.FlowWindowUpdatesSent.Load(),
			flowStalls:   m.FlowWriterStalls.Load(),
			fallbacks:    m.PipelineFallbacks.Load() + m.FlowFallbacks.Load(),
			dirtySent:    m.DirtySent.Load(),
			cleanSent:    m.CleanSent.Load(),
			cleanBatches: m.CleanBatches.Load(),
			resultAcks:   m.ResultAcksSent.Load(),
		} {
			c.n[i] += v
		}
		c.serve = addHist(c.serve, m.ServeLatency.Snapshot(), 1)
		c.dirtyLatency = addHist(c.dirtyLatency, m.DirtyLatency.Snapshot(), 1)
		c.cleanLatency = addHist(c.cleanLatency, m.CleanLatency.Snapshot(), 1)
	}
	return c
}

// addHist returns a + sign*b.
func addHist(a, b obs.HistogramSnapshot, sign int64) obs.HistogramSnapshot {
	a.Count += uint64(sign * int64(b.Count))
	a.Sum += time.Duration(sign) * b.Sum
	for i := range a.Buckets {
		a.Buckets[i] += uint64(sign * int64(b.Buckets[i]))
	}
	return a
}

func (c counters) sub(b counters) counters {
	for i := range c.n {
		c.n[i] -= b.n[i]
	}
	c.serve = addHist(c.serve, b.serve, -1)
	c.dirtyLatency = addHist(c.dirtyLatency, b.dirtyLatency, -1)
	c.cleanLatency = addHist(c.cleanLatency, b.cleanLatency, -1)
	return c
}

// procStats are whole-process figures, read so that a change in
// throughput can be told apart from the processor having been busy.
type procStats struct {
	mallocs, allocBytes uint64
	gcPause             time.Duration
	cpu                 time.Duration
	peakRSSMB           float64
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := procStats{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcPause: time.Duration(ms.PauseTotalNs)}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return p
}

func (p procStats) sub(b procStats) procStats {
	p.mallocs -= b.mallocs
	p.allocBytes -= b.allocBytes
	p.gcPause -= b.gcPause
	p.cpu -= b.cpu
	return p
}

func (p procStats) add(b procStats) procStats {
	p.mallocs += b.mallocs
	p.allocBytes += b.allocBytes
	p.gcPause += b.gcPause
	p.cpu += b.cpu
	return p
}

// --- one run -------------------------------------------------------------

// result is everything one run of one workload produced.
type result struct {
	Workload          string
	Seed              int64
	Trace             bool
	Correct           bool
	Attempted, Failed int
	Checks            []string // the checks that failed
	Metrics           map[string]float64
	Notes             []string // detail lines for the reader
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// firstReply sets the workload up and runs one verified operation per
// caller role, returning the instance and the time both took: setup_s.
func firstReply(w *workload, seed int64, tf tracerFor) (*instance, time.Duration, error) {
	t0 := time.Now()
	in, err := w.setup(seed, tf)
	if err == nil {
		c := &caller{rng: rand.New(rand.NewSource(seed))}
		if _, err = in.op(c); err == nil && in.probe != nil {
			err = in.probe(c)
		}
	}
	d := time.Since(t0)
	if err != nil {
		if in != nil {
			in.close()
		}
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return in, d, nil
}

// run measures one workload: repeated set-up, warm-up, the untraced
// window, and — when cfg.trace is set — the layer probes and the traced
// window. End-to-end metrics always come from the untraced window.
func run(cfg config) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	res := &result{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Correct: true, Metrics: map[string]float64{}}

	// Set up several times and keep the last; setup_s is the median. A
	// set-up of milliseconds is repeated up to cfg.setups times, one of
	// hundreds of milliseconds until the budget is spent.
	var in *instance
	var setups []float64
	for t0 := time.Now(); len(setups) < max(cfg.setups, 1) && (len(setups) < 3 || time.Since(t0) < setupBudget); {
		if in != nil {
			in.close()
		}
		var d time.Duration
		if in, d, err = firstReply(w, cfg.seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() { in.close() }()

	in.drive(cfg.seed, cfg.warmup, nil)
	runtime.GC() // every window starts from a collected heap
	win := in.drive(cfg.seed, cfg.window, nil)
	res.Attempted, res.Failed = win.attempted, win.failed
	if win.failed > 0 {
		res.fail("%d of %d operations failed, first: %v", win.failed, win.attempted, win.firstErr)
	}
	if len(win.ops) == 0 || len(win.probes) == 0 {
		return nil, fmt.Errorf("%s: no operation completed in the window (first error: %v)", w.name, win.firstErr)
	}
	if in.drained != nil {
		if err := in.drained(); err != nil {
			res.fail("drain: %v", err)
		}
	}
	endToEndMetrics(res, win, setups)
	counterMetrics(res, win)
	if !cfg.trace {
		return res, nil
	}

	layerMetrics(res, in, cfg, win)
	in.close()

	// The traced pass: same workload and seed on fresh spaces built with
	// a tracer.
	tr := newTracer()
	if in, _, err = firstReply(w, cfg.seed, tr.forSpace); err != nil {
		return nil, err
	}
	in.drive(cfg.seed, min(cfg.warmup, time.Second), nil)
	tr.start(in)
	traced := in.drive(cfg.seed, cfg.traced, tr)
	tr.stop()
	if traced.failed > 0 {
		res.fail("traced window: %d of %d operations failed, first: %v", traced.failed, traced.attempted, traced.firstErr)
	}
	if in.drained != nil {
		if err := in.drained(); err != nil {
			res.fail("traced window drain: %v", err)
		}
	}
	if err := traceMetrics(res, tr, traced, win, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

func endToEndMetrics(res *result, w *window, setups []float64) {
	m := res.Metrics
	ops, probes := durations(w.ops), durations(w.probes)
	m["setup_s"] = median(setups)
	m["ops_per_s"] = w.opsPerSec()
	m["op_p50_us"] = quantile(ops, 0.5) / 1e3
	m["probe_p50_us"] = quantile(probes, 0.5) / 1e3
	m["fail_ratio"] = float64(w.failed) / float64(max(w.attempted, 1))
	m["op_p99_us"] = quantile(ops, 0.99) / 1e3
	m["probe_p99_us"] = quantile(probes, 0.99) / 1e3
	m["goodput_MBps"] = float64(w.payload) / 1e6 / opSeconds(w)
	// Small frames overtake a bulk payload between its chunks, so beside
	// a bulk stream this should stay below a quarter.
	m["flow.probe_p99_over_op_p50"] = quantile(probes, 0.99) / quantile(ops, 0.5)
	rates := blockRates(w.ops, w.blockLen, w.blocks, w.opBlock)
	sort.Float64s(rates)
	res.Notes = append(res.Notes, fmt.Sprintf("ops/s over %d blocks: min %.0f q1 %.0f median %.0f q3 %.0f max %.0f",
		len(rates), quantile(rates, 0), quantile(rates, 0.25), quantile(rates, 0.5), quantile(rates, 0.75), quantile(rates, 1)))
	for _, s := range []struct {
		name   string
		sorted []float64
	}{{"op", ops}, {"probe", probes}} {
		note := fmt.Sprintf("%s latency: n=%d p50=%.2fus", s.name, len(s.sorted), quantile(s.sorted, 0.5)/1e3)
		if label, v := tail(s.sorted); label == "p99.9" {
			note += fmt.Sprintf(" p99=%.2fus p99.9=%.2fus", quantile(s.sorted, 0.99)/1e3, v/1e3)
		} else {
			note += fmt.Sprintf(" %s=%.2fus", label, v/1e3)
		}
		res.Notes = append(res.Notes, note)
	}
}

// opSeconds is how long the window ran the workload's operation: half of
// an alternating window, all of any other.
func opSeconds(w *window) float64 {
	n := 0
	for b := 0; b < w.blocks; b++ {
		if w.opBlock(b) {
			n++
		}
	}
	return float64(n) * float64(w.blockLen) / 1e9
}

// counterMetrics derives the per-operation counts of the flow, transport,
// core and dgc layers and the process diagnostics from the window.
func counterMetrics(res *result, w *window) {
	m, c := res.Metrics, w.counters
	ops := float64(max(w.started, 1))
	for name, i := range map[string]int{
		"flow.chunks_per_op":          flowChunks,
		"flow.window_updates_per_op":  flowUpdates,
		"flow.writer_stalls_per_op":   flowStalls,
		"transport.bytes_sent_per_op": bytesSent,
		"dgc.dirty_per_op":            dirtySent,
		"dgc.clean_per_op":            cleanSent,
		"dgc.clean_batches_per_op":    cleanBatches,
		"dgc.result_acks_per_op":      resultAcks,
	} {
		m[name] = float64(c.n[i]) / ops
	}
	m["transport.pool_misses"] = float64(c.n[poolMisses])
	m["core.fallbacks"] = float64(c.n[fallbacks])
	m["core.serve_p50_us"] = float64(c.serve.Quantile(0.5)) / 1e3
	m["dgc.dirty_p50_us"] = float64(c.dirtyLatency.Quantile(0.5)) / 1e3
	m["dgc.clean_p50_us"] = float64(c.cleanLatency.Quantile(0.5)) / 1e3

	// Process figures are per operation; where a probe runs beside the
	// operation they include its share.
	m["allocs_per_op"] = float64(w.proc.mallocs) / ops
	m["alloc_bytes_per_op"] = float64(w.proc.allocBytes) / ops
	m["cpu_s_per_kop"] = w.proc.cpu.Seconds() / ops * 1e3
	m["gc_pause_ms"] = float64(w.proc.gcPause) / 1e6
	m["peak_rss_mb"] = w.proc.peakRSSMB
	if c.n[poolMisses] != 0 {
		res.fail("%d sessions dialed during the timed window", c.n[poolMisses])
	}
	if c.n[fallbacks] != 0 {
		res.fail("%d calls left the fast path (pipeline or flow fallback)", c.n[fallbacks])
	}
}
