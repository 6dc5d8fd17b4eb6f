package chaos

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"netobjects/internal/core"
	"netobjects/internal/obs"
	"netobjects/internal/pickle"
	"netobjects/internal/refmodel"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// SoakConfig parameterises one soak run. The zero value gets sensible
// defaults; Seed and Profile are what an experiment varies.
type SoakConfig struct {
	// Spaces is how many spaces participate (default 4, minimum 2).
	Spaces int
	// Ops is how many workload operations to run (default 400).
	Ops int
	// Seed drives both the workload and the fault schedule; the same
	// seed reproduces the same run.
	Seed uint64
	// Profile names the fault mix: "loss" (drop/duplicate/reorder),
	// "partition" (scripted full and asymmetric partitions over light
	// loss), "crash" (scripted crash/restart over light loss), "mixed"
	// (all of the above), "none" (no faults: the baseline), or
	// "distarray" (the bulk data plane; see runDistArraySoak). Anything
	// else is rejected. Empty means "mixed".
	Profile string
	// Transport selects the links the spaces talk over: "inmem" (default,
	// the in-process transport) or "tcp" (real loopback TCP, exercising
	// the framed socket path and the multiplexed sessions over it). TCP
	// nodes reserve a fixed loopback port up front so a crashed node
	// restarts at the same endpoint, as the collector protocol assumes.
	Transport string
	// HealTimeout bounds the post-heal quiescence wait (default 30s).
	HealTimeout time.Duration
	// Metrics, when non-nil, receives the chaos fault counters
	// (netobj_chaos_*) in its registry, for /metrics exposure.
	Metrics *obs.Metrics
	// Tracer, when non-nil, additionally receives every space's events
	// and the harness's crash/restart markers (e.g. an obs.Ring feeding
	// /debug/netobj/trace.jsonl).
	Tracer obs.Tracer
	// Logger receives harness progress; nil discards it.
	Logger *slog.Logger
}

// SoakProfiles lists the fault profiles RunSoak accepts.
var SoakProfiles = []string{"none", "loss", "partition", "crash", "mixed", "distarray"}

// SoakReport is the outcome of one soak run.
type SoakReport struct {
	Spaces    int
	Ops       int
	Seed      uint64
	Profile   string
	Transport string
	Elapsed   time.Duration
	// Faults aggregates the fault counters across every wrapper.
	Faults Stats
	// Crashes is how many scripted crash/restarts ran.
	Crashes int
	// AbandonedCleans counts clean calls given up after retries.
	AbandonedCleans uint64
	// Violations are trace-model safety violations: a withdraw while a
	// live, undropped client still held a surrogate. Must be empty.
	Violations []string
	// Leaks are surrogates still unreleased at non-crashed spaces after
	// heal and quiescence. Must be empty.
	Leaks []string
	// TableLeaks are non-empty import/export tables after quiescence.
	// Must be empty.
	TableLeaks []string

	// Distarray-profile extras (Profile == "distarray"): completed
	// verified sorts, worker-to-worker shuffle volume, completed
	// digest-checked bulk replicas, and the faults injected while the
	// faulted sorts ran.
	DistSorts         int
	DistShuffledBytes uint64
	DistMirrors       int
	DistSortFaults    uint64
}

// Failed reports whether any invariant was violated.
func (r *SoakReport) Failed() bool {
	return len(r.Violations) > 0 || len(r.Leaks) > 0 || len(r.TableLeaks) > 0
}

// String summarises the run for logs and the benchmark harness.
func (r *SoakReport) String() string {
	verdict := "OK"
	if r.Failed() {
		verdict = fmt.Sprintf("FAILED (%d violations, %d leaks, %d table leaks)",
			len(r.Violations), len(r.Leaks), len(r.TableLeaks))
	}
	if r.Profile == "distarray" {
		return fmt.Sprintf(
			"chaos soak %s/%s seed=%d: %d workers, %d verified sorts (%d shuffle bytes), %d replicas, %d crashes, %d faults (%d on sorts; %d resets, %d reorders), %v — %s",
			r.Profile, r.Transport, r.Seed, r.Spaces,
			r.DistSorts, r.DistShuffledBytes, r.DistMirrors, r.Crashes,
			r.Faults.Faults(), r.DistSortFaults, r.Faults.Resets, r.Faults.Reorders,
			r.Elapsed.Round(time.Millisecond), verdict)
	}
	return fmt.Sprintf(
		"chaos soak %s/%s seed=%d: %d spaces, %d ops, %d crashes, %d faults (%d drops, %d resets, %d dups, %d reorders, %d refusals), %d abandoned cleans, %v — %s",
		r.Profile, r.Transport, r.Seed, r.Spaces, r.Ops, r.Crashes,
		r.Faults.Faults(), r.Faults.Drops, r.Faults.Resets, r.Faults.Duplicates,
		r.Faults.Reorders, r.Faults.Refusals, r.AbandonedCleans,
		r.Elapsed.Round(time.Millisecond), verdict)
}

// soakCounter is the workload service.
type soakCounter struct {
	mu sync.Mutex
	n  int64
}

func (c *soakCounter) Incr(d int64) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += d
	return c.n, nil
}

func (c *soakCounter) Value() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n, nil
}

// soakRelay passes references between spaces inside calls — the
// third-party hand-off path with its transient pins and result acks.
type soakRelay struct {
	mu   sync.Mutex
	held *core.Ref
}

func (r *soakRelay) Put(ref *core.Ref) error {
	r.mu.Lock()
	old := r.held
	r.held = ref
	r.mu.Unlock()
	if old != nil && old != ref {
		old.Release()
	}
	return nil
}

// Get hands out the currently held reference (nil when empty) — the
// receiver leg of a pipelined chain: PipeCall("Get").PipeCall("Incr").
// Marshaling it out takes the usual transient pin and result ack.
func (r *soakRelay) Get() (*core.Ref, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.held, nil
}

func (r *soakRelay) Drop() error {
	r.mu.Lock()
	old := r.held
	r.held = nil
	r.mu.Unlock()
	if old != nil {
		old.Release()
	}
	return nil
}

// soakNode is one space slot: the chaos wrapper survives restarts, the
// space and its relay are per-incarnation.
type soakNode struct {
	idx    int
	name   string
	addr   string
	ct     *Transport
	mirror *refmodel.Mirror
	sp     *core.Space
	relay  *core.Ref
	down   bool
}

type harness struct {
	cfg     SoakConfig
	log     *slog.Logger
	inner   transport.Transport
	checker *refmodel.TraceChecker
	nodes   []*soakNode
	crashes int
	// abandoned sums the cleans given up by incarnations crash has
	// aborted; the live ones are read at report time.
	abandoned uint64
}

// reserveLoopbackAddr has the kernel pick a free loopback port, then
// releases it, returning the concrete address. Soak nodes need a FIXED
// address known before the space exists: a crashed node must restart at
// the same endpoint so surviving peers' retried cleans reach the reborn
// space (whose incarnation check then acknowledges them as stale).
func reserveLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr, nil
}

// RunSoak runs N spaces of the real runtime — core, dgc, objtable,
// transport — through a seeded randomized workload under the configured
// fault profile, then heals the network, drives the system to
// quiescence, and checks the collector invariants: no safety violation
// was observed, and nothing leaked.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 400
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.Profile == "" {
		cfg.Profile = "mixed"
	}
	if !slices.Contains(SoakProfiles, cfg.Profile) {
		return nil, fmt.Errorf("chaos: unknown soak profile %q (want one of %s)",
			cfg.Profile, strings.Join(SoakProfiles, ", "))
	}
	if cfg.Profile == "distarray" {
		// The distarray profile soaks the bulk data plane: distributed
		// sorts and bulk array replicas under OpData chunk faults, with
		// a worker crash-restarted mid-shuffle.
		return runDistArraySoak(cfg)
	}
	if cfg.Spaces < 2 {
		if cfg.Spaces != 0 {
			return nil, fmt.Errorf("chaos: soak needs at least 2 spaces, got %d", cfg.Spaces)
		}
		cfg.Spaces = 4
	}
	if cfg.HealTimeout <= 0 {
		cfg.HealTimeout = 30 * time.Second
	}
	var inner transport.Transport
	switch cfg.Transport {
	case "", "inmem":
		cfg.Transport = "inmem"
		inner = transport.NewMem()
	case "tcp":
		inner = transport.NewTCP()
	default:
		return nil, fmt.Errorf("chaos: unknown soak transport %q (want inmem or tcp)", cfg.Transport)
	}

	h := &harness{
		cfg:     cfg,
		log:     cfg.Logger,
		inner:   inner,
		checker: refmodel.NewTraceChecker(),
	}
	for i := 0; i < cfg.Spaces; i++ {
		n := &soakNode{
			idx:  i,
			name: fmt.Sprintf("sp%d", i),
			addr: fmt.Sprintf("sp%d", i),
		}
		if cfg.Transport == "tcp" {
			addr, err := reserveLoopbackAddr()
			if err != nil {
				return nil, fmt.Errorf("chaos: reserving soak port: %w", err)
			}
			n.addr = addr
		}
		n.ct = New(h.inner, n.name, cfg.Seed)
		n.ct.SetObserver(cfg.Tracer)
		if cfg.Metrics != nil {
			n.ct.RegisterMetrics(cfg.Metrics.Registry())
		}
		h.nodes = append(h.nodes, n)
	}
	for _, n := range h.nodes {
		if err := h.startSpace(n); err != nil {
			h.stopAll()
			return nil, err
		}
	}

	rules, episodes := h.schedule()
	for _, n := range h.nodes {
		n.ct.SetRules(rules)
	}

	start := time.Now()
	h.workload(episodes)

	// Heal everything and bring crashed nodes back, then drive the
	// system to quiescence: every reference released, every relay
	// emptied, every table empty.
	for _, n := range h.nodes {
		n.ct.HealAll()
	}
	for _, n := range h.nodes {
		if n.down {
			if err := h.startSpace(n); err != nil {
				h.stopAll()
				return nil, fmt.Errorf("chaos: post-heal restart of %s: %w", n.name, err)
			}
		}
	}

	report := &SoakReport{
		Spaces:    cfg.Spaces,
		Ops:       cfg.Ops,
		Seed:      cfg.Seed,
		Profile:   cfg.Profile,
		Transport: cfg.Transport,
		Crashes:   h.crashes,
	}
	h.quiesce(report)
	report.Elapsed = time.Since(start)
	for _, n := range h.nodes {
		s := n.ct.Stats()
		report.Faults.Messages += s.Messages
		report.Faults.Drops += s.Drops
		report.Faults.Resets += s.Resets
		report.Faults.Duplicates += s.Duplicates
		report.Faults.Reorders += s.Reorders
		report.Faults.Delays += s.Delays
		report.Faults.Throttles += s.Throttles
		report.Faults.Refusals += s.Refusals
	}
	report.AbandonedCleans = h.abandoned
	for _, n := range h.nodes {
		if !n.down {
			report.AbandonedCleans += n.sp.Metrics().CleansAbandoned.Load()
		}
	}
	report.Violations = h.checker.Violations()
	report.Leaks = h.checker.Leaks()
	h.stopAll()
	return report, nil
}

// startSpace creates (or recreates) the space for a node slot, exporting
// a fresh relay. The chaos wrapper is reused so partitions and rules
// installed on it persist across restarts of the space behind it.
func (h *harness) startSpace(n *soakNode) error {
	mirror := h.checker.Mirror()
	tracer := obs.Tracer(mirror)
	if h.cfg.Tracer != nil {
		tracer = obs.MultiTracer(mirror, h.cfg.Tracer)
	}
	sp, err := core.NewSpace(core.Options{
		Name:            n.name,
		Transports:      []transport.Transport{n.ct},
		ListenEndpoints: []string{wire.JoinEndpoint(n.ct.Proto(), n.addr)},
		Registry:        pickle.NewRegistry(),
		// Tight timeouts keep faulted operations from stalling the run;
		// liveness detection is fast enough to notice scripted crashes
		// within the soak. Batched cleans suit the trace checker, since
		// the serve side emits one keyed event per batch member.
		// AutoRelease is load-bearing, not a convenience: a call that
		// times out after its arguments were decoded leaves the decoded
		// surrogates held by nobody, and only the weak-reference design
		// reclaims them — the paper's client-side GC role.
		AutoRelease:     true,
		CallTimeout:     500 * time.Millisecond,
		DrainTimeout:    time.Second,
		RetryAttempts:   2,
		RetryBackoff:    3 * time.Millisecond,
		PingInterval:    150 * time.Millisecond,
		PingTimeout:     300 * time.Millisecond,
		PingMaxFailures: 4,
		// Abandoning a clean is how a client concludes an owner is dead,
		// and it must not happen merely because a fault window outlasted
		// the retry budget: under an asymmetric partition the owner still
		// sees the client answering pings, so a prematurely abandoned
		// clean leaves its dirty-set member behind forever. The budget
		// here (~60 attempts at a backoff capped at 32x the base) spans
		// any schedule's partition plus the heal, and the incarnation
		// check keeps it from stalling on crashed owners: the restarted
		// space acknowledges the stale clean as done.
		CleanMaxAttempts: 60,
		CleanBackoff:     25 * time.Millisecond,
		Tracer:           tracer,
		Logger:           h.log,
	})
	if err != nil {
		return err
	}
	mirror.SetID(sp.ID().String())
	relay, err := sp.Export(&soakRelay{})
	if err != nil {
		_ = sp.Close()
		return err
	}
	n.mirror, n.sp, n.relay, n.down = mirror, sp, relay, false
	return nil
}

// crash aborts a node's space without draining — the paper's terminated
// program instance — and records it so the trace checker excuses the
// node's surrogates.
func (h *harness) crash(n *soakNode) {
	if n.down {
		return
	}
	h.checker.ObserveCrash(n.sp.ID().String())
	if h.cfg.Tracer != nil {
		h.cfg.Tracer.Emit(obs.Event{Kind: obs.EvChaosCrash, Time: time.Now(), Peer: n.name})
	}
	h.log.Info("chaos: crashing space", "space", n.name)
	n.sp.Abort()
	h.abandoned += n.sp.Metrics().CleansAbandoned.Load()
	n.down = true
	h.crashes++
}

// restart brings a crashed node back at the same endpoint with a fresh
// space identity, as a restarted process would.
func (h *harness) restart(n *soakNode) {
	if !n.down {
		return
	}
	if err := h.startSpace(n); err != nil {
		// The endpoint may still be tied up by the dying incarnation;
		// the post-heal pass retries.
		h.log.Warn("chaos: restart failed", "space", n.name, "err", err)
		return
	}
	if h.cfg.Tracer != nil {
		h.cfg.Tracer.Emit(obs.Event{Kind: obs.EvChaosRestart, Time: time.Now(), Peer: n.name})
	}
	h.log.Info("chaos: restarted space", "space", n.name)
}

// episode is one scripted fault action keyed to a workload op index.
type episode struct {
	at     int
	action func()
}

// schedule derives the ambient fault rules and the scripted episodes for
// the configured profile. Episode placement and victims come from the
// seed, so a run is reproducible from (seed, profile, ops, spaces).
func (h *harness) schedule() (Rules, []episode) {
	rng := rand.New(rand.NewSource(int64(h.cfg.Seed) ^ 0x5eed))
	ops := h.cfg.Ops
	pick := func() *soakNode { return h.nodes[rng.Intn(len(h.nodes))] }
	pickPair := func() (*soakNode, *soakNode) {
		a := pick()
		b := pick()
		for b == a {
			b = h.nodes[rng.Intn(len(h.nodes))]
		}
		return a, b
	}

	var rules Rules
	var eps []episode
	addPartition := func(from, to int, full bool) {
		a, b := pickPair()
		eps = append(eps, episode{at: from, action: func() {
			h.log.Info("chaos: partition", "a", a.name, "b", b.name, "full", full)
			a.ct.Partition(b.addr)
			if full {
				b.ct.Partition(a.addr)
			}
		}})
		eps = append(eps, episode{at: to, action: func() {
			a.ct.Heal(b.addr)
			b.ct.Heal(a.addr)
		}})
	}
	addCrash := func(from, to int) {
		v := pick()
		eps = append(eps, episode{at: from, action: func() { h.crash(v) }})
		eps = append(eps, episode{at: to, action: func() { h.restart(v) }})
	}

	switch h.cfg.Profile {
	case "none":
	case "loss":
		rules = Rules{Drop: 0.15, Duplicate: 0.10, Reorder: 0.20, Delay: time.Millisecond, Jitter: 3 * time.Millisecond}
	case "partition":
		rules = Rules{Drop: 0.05, Delay: time.Millisecond}
		addPartition(ops/4, ops/2, true)
		addPartition(ops*13/20, ops*4/5, false)
	case "crash":
		rules = Rules{Drop: 0.05}
		addCrash(ops/3, ops*9/20)
		addCrash(ops*2/3, ops*4/5)
	case "mixed":
		rules = Rules{Drop: 0.10, Duplicate: 0.05, Reorder: 0.10, Reset: 0.05, Jitter: 2 * time.Millisecond}
		addPartition(ops*3/10, ops/2, true)
		addCrash(ops*3/5, ops*3/4)
	}
	return rules, eps
}

// workload runs the randomized mix of exports, imports, calls, one-way
// calls, pipelined chains, third-party hand-offs and releases, firing
// scripted episodes at their op indices.
func (h *harness) workload(episodes []episode) {
	rng := rand.New(rand.NewSource(int64(h.cfg.Seed)))
	type held struct {
		ref  *core.Ref
		node int
	}
	var refs []held

	liveNode := func() *soakNode {
		for tries := 0; tries < len(h.nodes)*2; tries++ {
			n := h.nodes[rng.Intn(len(h.nodes))]
			if !n.down {
				return n
			}
		}
		return nil
	}

	for op := 0; op < h.cfg.Ops; op++ {
		for _, ep := range episodes {
			if ep.at == op {
				ep.action()
			}
		}
		switch rng.Intn(12) {
		case 0, 1: // export a fresh counter somewhere
			n := liveNode()
			if n == nil {
				continue
			}
			r, err := n.sp.Export(&soakCounter{})
			if err != nil {
				continue
			}
			refs = append(refs, held{ref: r, node: n.idx})
		case 2, 3, 4: // import someone's ref elsewhere and call it
			if len(refs) == 0 {
				continue
			}
			hd := refs[rng.Intn(len(refs))]
			n := liveNode()
			if n == nil {
				continue
			}
			w, err := hd.ref.WireRep()
			if err != nil {
				continue // released or its space crashed
			}
			r2, err := n.sp.Import(w)
			if err != nil {
				continue // withdrawn, partitioned or owner down: legal
			}
			refs = append(refs, held{ref: r2, node: n.idx})
			_, _ = r2.Call("Incr", int64(1)) // relays lack Incr: fine
		case 5, 6: // third-party hand-off through a relay
			if len(refs) == 0 {
				continue
			}
			hd := refs[rng.Intn(len(refs))]
			if hd.ref.IsOwner() || h.nodes[hd.node].down {
				continue
			}
			rn := liveNode()
			if rn == nil {
				continue
			}
			relayW, err := rn.relay.WireRep()
			if err != nil {
				continue
			}
			relayRef, err := h.nodes[hd.node].sp.Import(relayW)
			if err != nil {
				continue
			}
			refs = append(refs, held{ref: relayRef, node: hd.node})
			_, _ = relayRef.Call("Put", hd.ref) // may race a release: fine
		case 7, 8, 9: // release something
			if len(refs) == 0 {
				continue
			}
			k := rng.Intn(len(refs))
			hd := refs[k]
			refs[k] = refs[len(refs)-1]
			refs = refs[:len(refs)-1]
			hd.ref.Release()
		case 10: // one-way call: no reply leg, ordered per peer
			if len(refs) == 0 {
				continue
			}
			hd := refs[rng.Intn(len(refs))]
			if h.nodes[hd.node].down {
				continue
			}
			_ = hd.ref.OneWay("Incr", int64(1)) // relays lack Incr: fine
		case 11: // two-deep pipelined chain through a relay: Get().Incr(1)
			n := liveNode()
			src := liveNode()
			if n == nil || src == nil || n == src {
				continue
			}
			relayW, err := n.relay.WireRep()
			if err != nil {
				continue
			}
			relayRef, err := src.sp.Import(relayW)
			if err != nil {
				continue
			}
			refs = append(refs, held{ref: relayRef, node: src.idx})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			p := relayRef.PipeCall(ctx, "Get")
			// An empty relay breaks the chain (nil receiver), a fault may
			// break it harder: both are legal outcomes under chaos.
			_, _ = p.PipeCall(ctx, "Incr", int64(1)).Await(ctx)
			// The intermediate resolve shipped Get's result here anyway
			// (every pipelined call is answered), so this space now owns a
			// surrogate for whatever ref the relay handed out and must
			// release it like any other call result.
			if vals, err := p.Await(ctx); err == nil && len(vals) > 0 {
				if rr, ok := vals[0].(*core.Ref); ok && rr != nil {
					rr.Release()
				}
			}
			cancel()
		}
	}

	// Fire any episodes scheduled at or past the end (heals, restarts).
	for _, ep := range episodes {
		if ep.at >= h.cfg.Ops {
			ep.action()
		}
	}

	// Convergence phase part 1: empty the relays and release every
	// held reference. The quiescence check after heal does the rest.
	for _, n := range h.nodes {
		if !n.down {
			_, _ = n.relay.Call("Drop")
		}
	}
	for _, hd := range refs {
		hd.ref.Release()
	}
}

// quiesce waits for every live space's tables to drain, then records
// invariant results into the report. Relays are re-emptied on every
// iteration: a Put whose client timed out under faults can still be
// executing server-side and store a surrogate after an earlier Drop.
func (h *harness) quiesce(report *SoakReport) {
	deadline := time.Now().Add(h.cfg.HealTimeout)
	for {
		for _, n := range h.nodes {
			if !n.down {
				_, _ = n.relay.Call("Drop")
			}
		}
		// Drive the collector: orphaned surrogates (arguments of calls
		// that timed out before dispatch) are reclaimed by GC cleanups,
		// and an immediate ping round notices crashed incarnations
		// without waiting out the ticker.
		runtime.GC()
		quiet := true
		for _, n := range h.nodes {
			n.sp.PokeLiveness()
			n.sp.Exports().Sweep()
		}
		for _, n := range h.nodes {
			if n.sp.Imports().Len() != 0 || n.sp.Exports().Len() != 0 {
				quiet = false
			}
		}
		if quiet || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, n := range h.nodes {
		if il := n.sp.Imports().Len(); il != 0 {
			var keys []string
			for _, k := range n.sp.Imports().Keys() {
				keys = append(keys, fmt.Sprintf("%v(%v)", k, n.sp.Imports().StateOf(k)))
			}
			report.TableLeaks = append(report.TableLeaks,
				fmt.Sprintf("%s: %d imports leaked: %s", n.name, il, strings.Join(keys, " ")))
		}
		if el := n.sp.Exports().Len(); el != 0 {
			report.TableLeaks = append(report.TableLeaks,
				fmt.Sprintf("%s: %d exports leaked:\n%s", n.name, el, n.sp.Exports().DebugDump()))
		}
	}
}

func (h *harness) stopAll() {
	for _, n := range h.nodes {
		if n.sp != nil && !n.down {
			_ = n.sp.Close()
		}
	}
}
