package chaos

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"netobjects/internal/core"
	"netobjects/internal/distarray"
	"netobjects/internal/obs"
	"netobjects/internal/pickle"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// Distarray soak tuning.
const (
	// daSortDeadline bounds one sort attempt: under faults a sort may
	// fail, but it must fail (or succeed) inside this window — the
	// deadline-bounded-failure half of the profile's contract.
	daSortDeadline = 30 * time.Second
	// daHangSlack is how long past its context deadline a sort may take
	// to return before the harness calls it hung.
	daHangSlack = 10 * time.Second
	// daMinKeysPerWorker keeps every partition above the flow layer's
	// 64KB chunk threshold, so a replica's whole-partition fetch travels
	// as OpData chunks. A shuffle never does: it pulls one (bucket,
	// source) range per call, a few hundred bytes each, so the sort is
	// hundreds of worker-to-worker Call and Result frames per pass.
	daMinKeysPerWorker = 24_000
)

// daFaultRules is the schedule of the faulted rounds. It targets the
// frames a sort really sends — the workers' shuffle pulls to each other
// (Call) and every Result a worker returns, to a peer or to the host —
// with faults that fail or delay at once: a reset fails the pull and
// with it the pass, a reorder holds a frame back. Nothing is swallowed
// silently, which would hold a sort to daSortDeadline.
var daFaultRules = Rules{
	Reset:         0.0002,
	Reorder:       0.05,
	ReorderWindow: 2 * time.Millisecond,
	Ops:           []wire.Op{wire.OpCall, wire.OpResult},
}

// daMirror is the bulk-replica consumer: handed an Array, it pulls every
// byte straight from the partition owners (one fetch per partition, whose
// response rides chunked OpData frames) and digests the keys. The host
// that passed the array never touches the data.
type daMirror struct{}

func (m *daMirror) Mirror(ctx context.Context, a distarray.Array) (int64, uint64, error) {
	defer distarray.ReleaseParts(a)
	b, err := a.Fetch(ctx, 0, a.Len())
	if err != nil {
		return 0, 0, err
	}
	var sum uint64
	n := int64(len(b)) / distarray.KeyBytes
	for i := int64(0); i < n; i++ {
		sum += uint64(binary.LittleEndian.Uint32(b[i*distarray.KeyBytes:]))
	}
	return n, sum, nil
}

// daNode is one worker slot: the chaos wrapper and endpoint survive
// restarts; the space and the services behind it are per-incarnation.
type daNode struct {
	idx    int
	name   string
	addr   string
	ct     *Transport
	sp     *core.Space
	sorter *core.Ref // owner-local export handles
	mirror *core.Ref
	down   bool
}

// daHarness drives the distarray soak: distributed sorts and bulk array
// replicas under call/result resets and reorders, one worker
// crash-restarted mid-shuffle, then heal, a clean verified sort, and a
// leak check.
type daHarness struct {
	cfg    SoakConfig
	inner  transport.Transport
	nodes  []*daNode
	host   *core.Space
	report *SoakReport

	// sorters and mirrors are the host's imported refs, re-imported when
	// a worker restarts.
	sorters []*core.Ref
	mirrors []*core.Ref
}

// runDistArraySoak is RunSoak's "distarray" profile: it soaks the bulk
// data plane instead of the collector workload. Spaces is the worker
// count; Ops scales the key volume. The fault schedule resets and
// reorders the sort's call and result frames, then reorders them while
// one worker crashes in the middle of a shuffle. Invariants: a baseline
// and a post-heal sort complete and verify; every faulted attempt
// terminates inside its deadline; replicas that do complete match the
// sort's digests; and after heal nothing leaks — no surrogates, empty
// tables.
func runDistArraySoak(cfg SoakConfig) (*SoakReport, error) {
	if cfg.Spaces == 0 {
		cfg.Spaces = 3
	}
	if cfg.Spaces < 2 {
		return nil, fmt.Errorf("chaos: distarray soak needs at least 2 workers, got %d", cfg.Spaces)
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

	h := &daHarness{
		cfg:   cfg,
		inner: inner,
		report: &SoakReport{
			Spaces:    cfg.Spaces,
			Ops:       cfg.Ops,
			Seed:      cfg.Seed,
			Profile:   cfg.Profile,
			Transport: cfg.Transport,
		},
		sorters: make([]*core.Ref, cfg.Spaces),
		mirrors: make([]*core.Ref, cfg.Spaces),
	}
	defer h.stop()
	for i := 0; i < cfg.Spaces; i++ {
		n := &daNode{idx: i, name: fmt.Sprintf("da%d", i), addr: fmt.Sprintf("da%d", i)}
		if cfg.Transport == "tcp" {
			addr, err := reserveLoopbackAddr()
			if err != nil {
				return nil, fmt.Errorf("chaos: reserving worker port: %w", err)
			}
			n.addr = addr
		}
		n.ct = New(inner, n.name, cfg.Seed)
		// Bulk pull responses leave the serving worker over the puller's
		// accepted connection; without this the schedule could never
		// touch them.
		n.ct.WrapAccepts(true)
		n.ct.SetObserver(cfg.Tracer)
		if cfg.Metrics != nil {
			n.ct.RegisterMetrics(cfg.Metrics.Registry())
		}
		h.nodes = append(h.nodes, n)
	}
	for _, n := range h.nodes {
		if err := firstStart(cfg.Transport == "tcp", &n.addr, func() error { return h.startWorker(n) }); err != nil {
			return nil, err
		}
	}
	if err := h.startHost(); err != nil {
		return nil, err
	}

	start := time.Now()
	h.run()
	h.quiesce()
	h.report.Elapsed = time.Since(start)
	for _, n := range h.nodes {
		s := n.ct.Stats()
		h.report.Faults.Messages += s.Messages
		h.report.Faults.Drops += s.Drops
		h.report.Faults.Resets += s.Resets
		h.report.Faults.Duplicates += s.Duplicates
		h.report.Faults.Reorders += s.Reorders
		h.report.Faults.Delays += s.Delays
		h.report.Faults.Throttles += s.Throttles
		h.report.Faults.Refusals += s.Refusals
	}
	return h.report, nil
}

func (h *daHarness) spaceOptions(name string, ts transport.Transport, eps []string) core.Options {
	return core.Options{
		Name:            name,
		Transports:      []transport.Transport{ts},
		ListenEndpoints: eps,
		Registry:        pickle.NewRegistry(),
		AutoRelease:     true,
		CallTimeout:     2 * time.Second,
		DrainTimeout:    time.Second,
		RetryAttempts:   2,
		RetryBackoff:    3 * time.Millisecond,
		PingInterval:    150 * time.Millisecond,
		PingTimeout:     300 * time.Millisecond,
		PingMaxFailures: 4,
		// A clean retried against a crashed worker must survive the
		// restart window; the reborn incarnation acknowledges it as stale.
		CleanMaxAttempts: 60,
		CleanBackoff:     25 * time.Millisecond,
		Tracer:           h.cfg.Tracer,
		Logger:           h.cfg.Logger,
	}
}

func (h *daHarness) startWorker(n *daNode) error {
	sp, err := core.NewSpace(h.spaceOptions(n.name, n.ct, []string{wire.JoinEndpoint(n.ct.Proto(), n.addr)}))
	if err != nil {
		return err
	}
	if err := distarray.Register(sp); err != nil {
		_ = sp.Close()
		return err
	}
	store := distarray.NewStore(sp.Metrics())
	sorter, err := sp.Export(distarray.NewSortWorker(store, 0))
	if err != nil {
		_ = sp.Close()
		return err
	}
	mirror, err := sp.Export(&daMirror{})
	if err != nil {
		_ = sp.Close()
		return err
	}
	n.sp, n.sorter, n.mirror, n.down = sp, sorter, mirror, false
	if h.host != nil {
		return h.importWorker(n)
	}
	return nil
}

func (h *daHarness) startHost() error {
	addr := "da-host"
	if h.cfg.Transport == "tcp" {
		var err error
		if addr, err = reserveLoopbackAddr(); err != nil {
			return err
		}
	}
	var sp *core.Space
	err := firstStart(h.cfg.Transport == "tcp", &addr, func() (err error) {
		sp, err = core.NewSpace(h.spaceOptions("da-host", h.inner, []string{wire.JoinEndpoint(h.inner.Proto(), addr)}))
		return err
	})
	if err != nil {
		return err
	}
	if err := distarray.Register(sp); err != nil {
		_ = sp.Close()
		return err
	}
	h.host = sp
	for _, n := range h.nodes {
		if err := h.importWorker(n); err != nil {
			return err
		}
	}
	return nil
}

// importWorker (re)imports a worker's services into the host, replacing
// any refs held against a previous incarnation.
func (h *daHarness) importWorker(n *daNode) error {
	for _, old := range []*core.Ref{h.sorters[n.idx], h.mirrors[n.idx]} {
		if old != nil {
			old.Release()
		}
	}
	sw, err := n.sorter.WireRep()
	if err != nil {
		return err
	}
	if h.sorters[n.idx], err = h.host.Import(sw); err != nil {
		return fmt.Errorf("chaos: importing sorter of %s: %w", n.name, err)
	}
	mw, err := n.mirror.WireRep()
	if err != nil {
		return err
	}
	if h.mirrors[n.idx], err = h.host.Import(mw); err != nil {
		return fmt.Errorf("chaos: importing mirror of %s: %w", n.name, err)
	}
	return nil
}

func (h *daHarness) violation(format string, args ...any) {
	h.report.Violations = append(h.report.Violations, fmt.Sprintf(format, args...))
}

// sortOnce runs one bounded sort attempt and enforces the termination
// contract. mustSucceed marks the fault-free attempts (baseline and
// post-heal) whose failure is itself a violation.
func (h *daHarness) sortOnce(keys int64, seed uint64, mustSucceed bool) *distarray.SortResult {
	ctx, cancel := context.WithTimeout(context.Background(), daSortDeadline)
	defer cancel()
	start := time.Now()
	type outcome struct {
		res *distarray.SortResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := distarray.Sort(ctx, distarray.SortConfig{
			Workers: h.sorters,
			Keys:    keys,
			Seed:    seed,
			Metrics: h.host.Metrics(),
		})
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(daSortDeadline + daHangSlack):
		h.violation("sort (seed %d) hung past its deadline plus slack", seed)
		return nil
	}
	if out.err != nil {
		h.cfg.Logger.Info("chaos: sort attempt failed", "seed", seed, "elapsed", time.Since(start), "err", out.err)
		if mustSucceed {
			h.violation("fault-free sort (seed %d) failed: %v", seed, out.err)
		}
		return nil
	}
	h.report.DistSorts++
	h.report.DistShuffledBytes += uint64(out.res.ShuffledBytes)
	return out.res
}

// faultedSort runs one sort attempt under the fault schedule and counts
// the faults that landed while it ran: faults on sort traffic, since the
// schedule matches only call and result frames and nothing else calls
// during a sort.
func (h *daHarness) faultedSort(keys int64, seed uint64) *distarray.SortResult {
	faults := func() (n uint64) {
		for _, nd := range h.nodes {
			n += nd.ct.Stats().Faults()
		}
		return n
	}
	before := faults()
	res := h.sortOnce(keys, seed, false)
	h.report.DistSortFaults += faults() - before
	return res
}

// mirrorOnce passes res's data array to one worker's replica service and
// checks the pulled copy against the sort's digests. Failures under
// faults are tolerated; a wrong answer never is.
func (h *daHarness) mirrorOnce(res *distarray.SortResult, worker int) {
	var wantSum uint64
	var wantN int64
	for _, d := range res.Digests {
		wantSum += d.Sum
		wantN += d.Count
	}
	ctx, cancel := context.WithTimeout(context.Background(), daSortDeadline)
	defer cancel()
	outs, err := h.mirrors[worker].CallCtx(ctx, "Mirror", res.Data)
	if err != nil {
		h.cfg.Logger.Info("chaos: mirror attempt failed", "worker", worker, "err", err)
		return
	}
	n, _ := outs[0].(int64)
	sum, _ := outs[1].(uint64)
	if n != wantN || sum != wantSum {
		h.violation("mirror on worker %d pulled %d keys (sum %d), sort digests say %d (sum %d)",
			worker, n, sum, wantN, wantSum)
		return
	}
	h.report.DistMirrors++
}

// release drops the host's references to a finished sort's partitions.
func release(res *distarray.SortResult) {
	if res != nil {
		distarray.ReleaseParts(res.Data)
		distarray.ReleaseParts(res.Stages)
	}
}

func (h *daHarness) run() {
	keys := int64(h.cfg.Ops) * 200
	if min := int64(h.cfg.Spaces) * daMinKeysPerWorker; keys < min {
		keys = min
	}

	// Round 0 — fault-free baseline: must complete, verify, and replicate.
	res := h.sortOnce(keys, h.cfg.Seed, true)
	if res != nil {
		h.mirrorOnce(res, 0)
		release(res)
	}

	// Round 1 — call/result resets and reorders on every worker link:
	// the sort and the replica may fail, but only inside their deadlines,
	// and any completed sort is still digest-verified by Sort itself.
	for _, n := range h.nodes {
		n.ct.SetRules(daFaultRules)
	}
	res = h.faultedSort(keys, h.cfg.Seed+1)
	if res != nil {
		h.mirrorOnce(res, 1%len(h.nodes))
		release(res)
	}

	// Round 2 — reorders only (a reset of a result the host awaits
	// before the shuffle would end the sort before the crash), and one
	// worker crashes mid-shuffle. The crash is keyed to a protocol event,
	// not a timer: the victim's first call to a peer worker, which is its
	// first Gather pull of the shuffle (the host makes every other call of
	// a sort). The sort must terminate (almost always with an error); the
	// host's cleanup releases whatever references the dead pass left
	// behind.
	reorders := daFaultRules
	reorders.Reset = 0
	for _, n := range h.nodes {
		n.ct.SetRules(reorders)
	}
	victim := h.nodes[int(h.cfg.Seed)%len(h.nodes)]
	peers := make(map[string]bool)
	for _, n := range h.nodes {
		if n != victim {
			peers[n.addr] = true
		}
	}
	var armed atomic.Bool
	armed.Store(true)
	crashed := make(chan struct{})
	victim.ct.OnSend(func(addr string, op wire.Op) {
		if op != wire.OpCall || !peers[addr] || !armed.CompareAndSwap(true, false) {
			return
		}
		// Abort closes the sessions this frame is being sent on, so it
		// runs off the sending goroutine.
		go func() {
			h.cfg.Logger.Info("chaos: crashing worker mid-shuffle", "worker", victim.name)
			if h.cfg.Tracer != nil {
				h.cfg.Tracer.Emit(obs.Event{Kind: obs.EvChaosCrash, Time: time.Now(), Peer: victim.name})
			}
			victim.sp.Abort()
			close(crashed)
		}()
	})
	res = h.faultedSort(keys, h.cfg.Seed+2)
	victim.ct.OnSend(nil)
	// A failed disarm means the hook fired; waiting on the channel
	// publishes the Abort before we touch the victim again.
	if !armed.CompareAndSwap(true, false) {
		<-crashed
		victim.down = true
		h.report.Crashes++
	}
	release(res)

	// Heal: lift the fault schedule, restart the victim, re-import its
	// services, and prove the plane recovered end to end with a clean
	// verified sort plus a replica.
	for _, n := range h.nodes {
		n.ct.SetRules(Rules{})
		n.ct.HealAll()
	}
	if victim.down {
		if err := h.startWorker(victim); err != nil {
			h.violation("post-heal restart of %s failed: %v", victim.name, err)
			return
		}
	}
	res = h.sortOnce(keys, h.cfg.Seed+3, true)
	if res != nil {
		h.mirrorOnce(res, victim.idx)
		release(res)
	}
}

// quiesce releases the harness's own imports and waits for every table
// to drain: zero surrogates held anywhere, empty import and export
// tables at the host and every worker.
func (h *daHarness) quiesce() {
	for i := range h.sorters {
		if h.sorters[i] != nil {
			h.sorters[i].Release()
			h.sorters[i] = nil
		}
		if h.mirrors[i] != nil {
			h.mirrors[i].Release()
			h.mirrors[i] = nil
		}
	}
	type table struct {
		name string
		sp   *core.Space
	}
	var tables []table
	if h.host != nil {
		tables = append(tables, table{"da-host", h.host})
	}
	for _, n := range h.nodes {
		if !n.down {
			tables = append(tables, table{n.name, n.sp})
		}
	}
	deadline := time.Now().Add(h.cfg.HealTimeout)
	for {
		runtime.GC()
		quiet := true
		for _, t := range tables {
			t.sp.PokeLiveness()
			t.sp.Exports().Sweep()
		}
		for _, t := range tables {
			if t.sp.Imports().Len() != 0 || t.sp.Exports().Len() != 0 {
				quiet = false
			}
		}
		if quiet || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, t := range tables {
		if il := t.sp.Imports().Len(); il != 0 {
			var keys []string
			for _, k := range t.sp.Imports().Keys() {
				keys = append(keys, fmt.Sprintf("%v(%v)", k, t.sp.Imports().StateOf(k)))
			}
			h.report.TableLeaks = append(h.report.TableLeaks,
				fmt.Sprintf("%s: %d imports leaked: %s", t.name, il, strings.Join(keys, " ")))
		}
		if el := t.sp.Exports().Len(); el != 0 {
			h.report.TableLeaks = append(h.report.TableLeaks,
				fmt.Sprintf("%s: %d exports leaked:\n%s", t.name, el, t.sp.Exports().DebugDump()))
		}
	}
}

func (h *daHarness) stop() {
	if h.host != nil {
		_ = h.host.Close()
	}
	for _, n := range h.nodes {
		if n.sp != nil && !n.down {
			_ = n.sp.Close()
		}
	}
}
