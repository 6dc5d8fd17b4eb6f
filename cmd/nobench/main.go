// Nobench regenerates the evaluation tables that no `go test -bench`
// benchmark or bench/ workload measures (see EXPERIMENTS.md): collector
// protocol costs (T3), model-checking results (T4), the variant ablation
// (T5), fault-tolerance behaviour (T6), pipelining under a simulated
// round trip (E3), object tables at a million exports (E4), liveness
// traffic against importer count (E6) and the distributed sort (E7).
//
// Usage:
//
//	nobench [-t t3,t4,t5,t6,e3,e4,e6,e7|all] [-quick] [-obs] [-http addr]
//	nobench -chaos [-chaos-profile loss|partition|crash|mixed|distarray|none]
//	        [-chaos-transport inmem|tcp] [-chaos-seed N] [-chaos-spaces N]
//	        [-chaos-ops N] [-obs] [-http addr]
//
// An unknown -t name exits non-zero before any experiment runs.
//
// With -obs every space the experiments create shares one metrics set and
// the aggregate digest is printed after the run; -http additionally serves
// the live /metrics and /debug/netobj endpoint for the duration (and
// implies -obs).
//
// With -chaos, instead of the benchmark tables, nobench runs the
// fault-injection soak (internal/chaos): N spaces of the real stack under
// a seeded fault schedule, with the collector invariants checked after
// heal. The same seed reproduces the same run. Exit status is non-zero on
// any invariant violation.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"netobjects"
	"netobjects/internal/chaos"
	"netobjects/internal/distarray"
	"netobjects/internal/refmodel"
)

var (
	quick = flag.Bool("quick", false, "fewer iterations, for smoke runs")

	// obsMetrics, when non-nil, is shared by every space the experiments
	// create, so the digest aggregates the whole run.
	obsMetrics *netobjects.Metrics
	// obsRing backs the -http trace views (and the chaos soak's event
	// stream when -chaos -http are combined).
	obsRing *netobjects.RingTracer
)

// experiment is one table -t can name.
type experiment struct {
	name string
	run  func() error
}

// experiments lists every experiment, in the order a run prints them.
var experiments = []experiment{
	{"t3", runT3}, {"t4", runT4}, {"t5", runT5}, {"t6", runT6},
	{"e3", runE3}, {"e4", runE4}, {"e6", runE6}, {"e7", runE7},
}

// experimentNames is the comma-separated list of names -t accepts,
// besides "all".
func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ",")
}

// selectExperiments resolves a -t list to the experiments it names, in
// run order. Any name that is neither an experiment nor "all" is an
// error that lists the valid names.
func selectExperiments(list string) ([]experiment, error) {
	want := map[string]bool{}
	for _, t := range strings.Split(list, ",") {
		t = strings.TrimSpace(t)
		if t != "all" && !slices.ContainsFunc(experiments, func(e experiment) bool { return e.name == t }) {
			return nil, fmt.Errorf("unknown experiment %q (want all or some of %s)", t, experimentNames())
		}
		want[t] = true
	}
	var out []experiment
	for _, e := range experiments {
		if want["all"] || want[e.name] {
			out = append(out, e)
		}
	}
	return out, nil
}

// withObs installs the shared metrics set on a space's options.
func withObs(o *netobjects.Options) {
	if obsMetrics != nil {
		o.Metrics = obsMetrics
	}
}

func main() {
	which := flag.String("t", "all", "comma-separated experiments ("+experimentNames()+") or all")
	obsFlag := flag.Bool("obs", false, "aggregate runtime metrics across experiments and print the digest")
	httpAddr := flag.String("http", "", "serve live /metrics and /debug/netobj on this address during the run (implies -obs)")
	chaosFlag := flag.Bool("chaos", false, "run the fault-injection soak instead of the benchmark tables")
	chaosProfile := flag.String("chaos-profile", "mixed", "fault profile: "+strings.Join(chaos.SoakProfiles, ", "))
	chaosTransport := flag.String("chaos-transport", "inmem", "transport under the soak: inmem or tcp")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for the workload and fault schedule (same seed, same run)")
	chaosSpaces := flag.Int("chaos-spaces", 4, "number of spaces in the soak")
	chaosOps := flag.Int("chaos-ops", 400, "workload operations to run")
	flag.Parse()

	var selected []experiment
	if !*chaosFlag {
		var err error
		if selected, err = selectExperiments(*which); err != nil {
			fmt.Fprintln(os.Stderr, "nobench:", err)
			os.Exit(2)
		}
	}
	if *obsFlag || *httpAddr != "" {
		obsMetrics = netobjects.NewMetrics()
	}
	if *httpAddr != "" {
		obsRing = netobjects.NewRingTracer(1024)
		o := &netobjects.Observability{Metrics: obsMetrics, Tracer: obsRing}
		srv := &http.Server{Addr: *httpAddr, Handler: o.Handler(), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			fmt.Printf("nobench: telemetry at http://%s/metrics\n", *httpAddr)
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "nobench: http:", err)
			}
		}()
		defer srv.Close()
	}

	if *chaosFlag {
		if err := runChaos(*chaosProfile, *chaosTransport, *chaosSeed, *chaosSpaces, *chaosOps); err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
	}
	for _, e := range selected {
		fmt.Printf("\n========== %s ==========\n", strings.ToUpper(e.name))
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
	if obsMetrics != nil {
		fmt.Printf("\n========== METRICS DIGEST ==========\n%s", obsMetrics.Registry().Summary())
	}
}

func iters(n int) int {
	if *quick {
		return max(n/10, 10)
	}
	return n
}

// measure runs op repeatedly and returns the median latency.
func measure(n int, op func() error) (time.Duration, error) {
	// Warm up connections and codec caches.
	for i := 0; i < 3; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	samples := make([]time.Duration, n)
	for i := range samples {
		start := time.Now()
		if err := op(); err != nil {
			return 0, err
		}
		samples[i] = time.Since(start)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2], nil
}

// nullObj is the object every experiment exports. The field keeps
// instances distinct: zero-size values share one address and would
// collide in the export table's identity map.
type nullObj struct{ id int64 }

func (o *nullObj) Null() error { return nil }

// env is a connected owner/client pair: the client holds a surrogate for
// one of the owner's objects.
type env struct {
	owner, client *netobjects.Space
	ref           *netobjects.Ref
}

func (e *env) close() {
	_ = e.client.Close()
	_ = e.owner.Close()
}

func newEnv(proto string) (*env, error) {
	var tr netobjects.Transport
	switch proto {
	case "inmem":
		tr = netobjects.NewMem()
	case "tcp":
		tr = netobjects.NewTCP()
	}
	mk := func(name string) (*netobjects.Space, error) {
		opts := netobjects.Options{
			Name:         name,
			Transports:   []netobjects.Transport{tr},
			PingInterval: time.Hour,
		}
		withObs(&opts)
		return netobjects.New(opts)
	}
	e := &env{}
	var err error
	if e.owner, err = mk("owner"); err != nil {
		return nil, err
	}
	if e.client, err = mk("client"); err != nil {
		_ = e.owner.Close()
		return nil, err
	}
	ref, err := e.owner.Export(&nullObj{})
	var w netobjects.WireRep
	if err == nil {
		w, err = ref.WireRep()
	}
	if err == nil {
		e.ref, err = e.client.Import(w)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// --- T3 ------------------------------------------------------------------

func runT3() error {
	fmt.Println("T3: collector protocol costs")
	n := iters(500)
	for _, proto := range []string{"inmem", "tcp"} {
		e, err := newEnv(proto)
		if err != nil {
			return err
		}
		// Full life cycle: export, import (dirty call), release (clean).
		cycle, err := measure(n, func() error {
			obj := &nullObj{}
			r, err := e.owner.Export(obj)
			if err != nil {
				return err
			}
			w, err := r.WireRep()
			if err != nil {
				return err
			}
			cref, err := e.client.Import(w)
			if err != nil {
				return err
			}
			cref.Release()
			return nil
		})
		if err != nil {
			e.close()
			return err
		}
		w, _ := e.ref.WireRep()
		hit, err := measure(n, func() error {
			_, err := e.client.Import(w)
			return err
		})
		if err != nil {
			e.close()
			return err
		}
		// Let stragglers from the life-cycle measurements (async clean
		// calls) drain before counting steady-state traffic.
		settle := time.Now()
		for time.Since(settle) < 2*time.Second {
			s1 := e.client.Stats()
			time.Sleep(50 * time.Millisecond)
			s2 := e.client.Stats()
			if s1.CleanSent == s2.CleanSent && s1.DirtySent == s2.DirtySent {
				break
			}
		}
		before := e.client.Stats()
		if _, err := e.ref.Call("Null"); err != nil {
			e.close()
			return err
		}
		after := e.client.Stats()
		fmt.Printf("  [%s] import+release life cycle: %v; re-import (table hit): %v; GC msgs per steady call: %d\n",
			proto, cycle, hit,
			(after.DirtySent-before.DirtySent)+(after.CleanSent-before.CleanSent))
		e.close()
	}
	fmt.Println("shape check: the table hit is ~free; a steady call costs zero collector messages;")
	fmt.Println("the first import pays one dirty round trip (plus one clean at release).")

	// Clean-call batching: N releases coalesce into few exchanges.
	// (Batching is always on; this cell verifies the coalescing shows up.)
	mem := netobjects.NewMem()
	mem.Latency = 2 * time.Millisecond
	mkB := func(name string) (*netobjects.Space, error) {
		opts := netobjects.Options{
			Name:         name,
			Transports:   []netobjects.Transport{mem},
			PingInterval: time.Hour,
		}
		withObs(&opts)
		return netobjects.New(opts)
	}
	owner, err := mkB("owner")
	if err != nil {
		return err
	}
	defer owner.Close()
	clientB, err := mkB("client")
	if err != nil {
		return err
	}
	defer clientB.Close()
	const nRefs = 32
	refs := make([]*netobjects.Ref, nRefs)
	for i := range refs {
		r, err := owner.Export(&nullObj{})
		if err != nil {
			return err
		}
		w, err := r.WireRep()
		if err != nil {
			return err
		}
		if refs[i], err = clientB.Import(w); err != nil {
			return err
		}
	}
	// Deltas, not totals: under -obs every space of the run counts into
	// one shared metrics set.
	before := clientB.Stats()
	for _, r := range refs {
		r.Release()
	}
	deadline := time.Now().Add(10 * time.Second)
	for owner.Exports().Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	after := clientB.Stats()
	fmt.Printf("  clean batching: %d cleans delivered via %d batched exchanges\n",
		after.CleanSent-before.CleanSent, after.CleanBatches-before.CleanBatches)
	return nil
}

// --- T4 ------------------------------------------------------------------

func runT4() error {
	fmt.Println("T4: model checking the collector (safety and liveness)")
	budget := 2
	if *quick {
		budget = 1
	}
	start := time.Now()
	cfg := refmodel.NewConfig(3, []refmodel.Proc{0}, budget)
	res := refmodel.Explore(cfg, refmodel.ExploreOptions{CheckInvariants: true, CheckMeasure: true})
	if res.Violation != nil {
		return fmt.Errorf("invariant violation: %v", res.Violation.Err)
	}
	fmt.Printf("  Birrell machine: %d states, %d transitions explored in %v — all invariants hold\n",
		res.States, res.Transitions, time.Since(start).Round(time.Millisecond))

	if trace := refmodel.FindNaiveRace(3, 1, 0); trace != nil {
		fmt.Printf("  naive RC baseline: premature free in %d steps: %s\n",
			len(trace), strings.Join(trace, " → "))
	} else {
		return fmt.Errorf("naive race not found")
	}
	states, violation, _ := refmodel.FExplore(refmodel.NewFConfig(3, []refmodel.Proc{0}, budget), 0)
	if violation != nil {
		return fmt.Errorf("fifo variant violation: %v", violation)
	}
	fmt.Printf("  FIFO variant: %d states — safety holds\n", states)
	return nil
}

// --- T5 ------------------------------------------------------------------

func runT5() error {
	fmt.Println("T5: protocol variant ablation (messages / blocking per scenario)")
	rows, err := refmodel.CompareVariants()
	if err != nil {
		return err
	}
	fmt.Printf("  %-14s %-16s %9s %9s\n", "variant", "scenario", "messages", "blocking")
	for _, r := range rows {
		fmt.Printf("  %-14s %-16s %9d %9d\n", r.Variant, r.Scenario, r.Messages, r.BlockingEvents)
	}
	fmt.Println("shape check: fifo saves the clean ack and all blocking; owner optimisations")
	fmt.Println("remove the dirty/copy-ack pair on legs that touch the owner.")

	// Related protocols (measured on their executable machines): the
	// forward-and-drop scenario.
	prows, err := refmodel.CompareProtocols()
	if err != nil {
		return err
	}
	fmt.Println("\nrelated protocols (forward-and-drop, measured on the machines):")
	fmt.Printf("  %-16s %9s %18s\n", "protocol", "messages", "owner round trips")
	for _, r := range prows {
		fmt.Printf("  %-16s %9d %18d\n", r.Protocol, r.Messages, r.OwnerRoundTrips)
	}
	return nil
}

// --- T6 ------------------------------------------------------------------

func runT6() error {
	fmt.Println("T6: fault tolerance")
	mem := netobjects.NewMem()
	mk := func(name string, opt func(*netobjects.Options)) (*netobjects.Space, error) {
		opts := netobjects.Options{
			Name:         name,
			Transports:   []netobjects.Transport{mem},
			PingInterval: time.Hour,
			CallTimeout:  2 * time.Second,
		}
		if opt != nil {
			opt(&opts)
		}
		withObs(&opts)
		return netobjects.New(opts)
	}

	// (a) Client crash: reclaimed by pings.
	owner, err := mk("owner", func(o *netobjects.Options) {
		o.PingInterval = 50 * time.Millisecond
		o.PingTimeout = 100 * time.Millisecond
		o.PingMaxFailures = 2
	})
	if err != nil {
		return err
	}
	defer owner.Close()
	doomed, err := mk("doomed", nil)
	if err != nil {
		return err
	}
	ref, err := owner.Export(&nullObj{})
	if err != nil {
		return err
	}
	w, _ := ref.WireRep()
	if _, err := doomed.Import(w); err != nil {
		return err
	}
	doomed.Abort()
	start := time.Now()
	for owner.Exports().Len() > 0 && time.Since(start) < 10*time.Second {
		time.Sleep(5 * time.Millisecond)
	}
	if owner.Exports().Len() != 0 {
		return fmt.Errorf("dead client never reclaimed")
	}
	fmt.Printf("  client crash -> reclaimed by pings in %v (interval 50ms, 2 failures)\n",
		time.Since(start).Round(time.Millisecond))

	// (b) Dirty call failure: import fails cleanly, strong clean queued.
	o2, err := mk("owner2", nil)
	if err != nil {
		return err
	}
	defer o2.Close()
	c2, err := mk("client2", func(o *netobjects.Options) {
		o.CallTimeout = 300 * time.Millisecond
		o.CleanBackoff = 10 * time.Millisecond
		o.CleanMaxAttempts = 20
	})
	if err != nil {
		return err
	}
	defer c2.Close()
	ref2, err := o2.Export(&nullObj{})
	if err != nil {
		return err
	}
	w2, _ := ref2.WireRep()
	addr := strings.TrimPrefix(o2.Endpoints()[0], "inmem:")
	mem.SetUnreachable(addr, true)
	start = time.Now()
	_, impErr := c2.Import(w2)
	if impErr == nil {
		return fmt.Errorf("import through a partition succeeded")
	}
	fmt.Printf("  dirty call through partition -> failed cleanly in %v (no surrogate, strong clean queued)\n",
		time.Since(start).Round(time.Microsecond))

	// (c) Clean call retry: the partition heals and the queued clean
	// (retried by the cleaning daemon) eventually reaches the owner.
	mem.SetUnreachable(addr, false)
	if _, err := c2.Import(w2); err != nil {
		return fmt.Errorf("import after heal: %w", err)
	}
	mem.SetUnreachable(addr, true)
	surrogate, _ := c2.Import(w2)
	surrogate.Release()
	time.Sleep(50 * time.Millisecond) // first clean attempts fail
	mem.SetUnreachable(addr, false)
	start = time.Now()
	for o2.Exports().Len() > 0 && time.Since(start) < 10*time.Second {
		time.Sleep(5 * time.Millisecond)
	}
	if o2.Exports().Len() != 0 {
		return fmt.Errorf("retried clean never landed")
	}
	fmt.Printf("  clean call retried across partition -> owner reclaimed %v after heal\n",
		time.Since(start).Round(time.Microsecond))

	return nil
}

// --- chaos ---------------------------------------------------------------

// runChaos runs the fault-injection soak (internal/chaos) and prints the
// report; invariant violations are an error.
func runChaos(profile, trans string, seed uint64, spaces, ops int) error {
	fmt.Printf("chaos soak: profile=%s transport=%s seed=%d spaces=%d ops=%d\n", profile, trans, seed, spaces, ops)
	cfg := chaos.SoakConfig{
		Spaces:    spaces,
		Ops:       ops,
		Seed:      seed,
		Profile:   profile,
		Transport: trans,
		Metrics:   obsMetrics,
	}
	if obsRing != nil {
		cfg.Tracer = obsRing
	}
	rep, err := chaos.RunSoak(cfg)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if rep.Failed() {
		for _, v := range rep.Violations {
			fmt.Printf("  SAFETY: %s\n", v)
		}
		for _, l := range rep.Leaks {
			fmt.Printf("  LEAK: %s\n", l)
		}
		for _, l := range rep.TableLeaks {
			fmt.Printf("  TABLE: %s\n", l)
		}
		return fmt.Errorf("invariants violated (profile=%s seed=%d: rerun with the same flags to reproduce)", profile, seed)
	}
	fmt.Println("invariants hold: no premature collection, no leaks, tables empty after heal.")
	return nil
}

// --- E3 ------------------------------------------------------------------

// e3Node is one link of a server-side chain: Next hops toward the tail,
// Name reads the current node.
type e3Node struct {
	next *netobjects.Ref
	name string
}

func (n *e3Node) Next() (*netobjects.Ref, error) {
	if n.next == nil {
		return nil, fmt.Errorf("end of chain")
	}
	return n.next, nil
}

func (n *e3Node) Name() (string, error) { return n.name, nil }

// e3Sink absorbs one-way notifications.
type e3Sink struct {
	mu sync.Mutex
	n  int64
}

func (s *e3Sink) Note(d int64) error {
	s.mu.Lock()
	s.n += d
	s.mu.Unlock()
	return nil
}

func (s *e3Sink) Total() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n, nil
}

// runE3 measures promise pipelining against sequential invocation on a
// K-deep dependent chain with a simulated 25ms round trip (in-memory
// transport, 12.5ms per message leg). Sequentially, each hop awaits its
// result ref before issuing the next call, so a K-hop walk plus the
// final read costs (K+1) round trips — plus the dirty registration of
// every intermediate surrogate. Pipelined, every hop targets the
// previous call's promise and the owner chains locally, so the whole
// walk streams out back-to-back and costs about one round trip
// regardless of K. The acceptance bound is >= 3x at K=8. The second
// table measures one-way notification: N fire-and-forget calls followed
// by one ordered read, against N sequential two-way calls.
func runE3() error {
	fmt.Println("E3: dependent-chain latency, pipelined vs sequential (inmem, 25ms simulated RTT, median)")
	rtt := 25 * time.Millisecond
	mem := netobjects.NewMem()
	mem.Latency = rtt / 2
	mk := func(name string) (*netobjects.Space, error) {
		opts := netobjects.Options{
			Name:         name,
			Transports:   []netobjects.Transport{mem},
			PingInterval: time.Hour,
			CallTimeout:  30 * time.Second,
		}
		withObs(&opts)
		return netobjects.New(opts)
	}
	owner, err := mk("e3-owner")
	if err != nil {
		return err
	}
	defer owner.Close()
	client, err := mk("e3-client")
	if err != nil {
		return err
	}
	defer client.Close()

	// Export a 16-deep chain ending in "tail"; each K walks its suffix.
	const maxK = 16
	tail := &e3Node{name: "tail"}
	tailRef, err := owner.Export(tail)
	if err != nil {
		return err
	}
	heads := map[int]*netobjects.Ref{0: tailRef}
	prev := tailRef
	for i := 1; i <= maxK; i++ {
		ref, err := owner.Export(&e3Node{next: prev, name: fmt.Sprintf("node-%d", i)})
		if err != nil {
			return err
		}
		heads[i] = ref
		prev = ref
	}
	importHead := func(k int) (*netobjects.Ref, error) {
		w, err := heads[k].WireRep()
		if err != nil {
			return nil, err
		}
		return client.Import(w)
	}

	ctx := context.Background()
	n := iters(20)
	fmt.Printf("%6s %14s %14s %10s %12s\n", "K", "sequential", "pipelined", "speedup", "ideal (RTTs)")
	var speedup8 float64
	for _, k := range []int{2, 4, 8} {
		head, err := importHead(k)
		if err != nil {
			return err
		}
		seq, err := measure(n, func() error {
			cur := head
			for i := 0; i < k; i++ {
				res, err := cur.Call("Next")
				if err != nil {
					return err
				}
				cur = res[0].(*netobjects.Ref)
			}
			res, err := cur.Call("Name")
			if err != nil {
				return err
			}
			if res[0] != "tail" {
				return fmt.Errorf("sequential walk ended at %v", res[0])
			}
			return nil
		})
		if err != nil {
			return err
		}
		piped, err := measure(n, func() error {
			p := head.PipeCall(ctx, "Next")
			for i := 1; i < k; i++ {
				p = p.PipeCall(ctx, "Next")
			}
			res, err := p.PipeCall(ctx, "Name").Await(ctx)
			if err != nil {
				return err
			}
			if res[0] != "tail" {
				return fmt.Errorf("pipelined walk ended at %v", res[0])
			}
			return nil
		})
		if err != nil {
			return err
		}
		sp := float64(seq) / float64(piped)
		if k == 8 {
			speedup8 = sp
		}
		fmt.Printf("%6d %14s %14s %9.1fx %6.1f vs %.1f\n", k,
			seq.Round(time.Millisecond), piped.Round(time.Millisecond), sp,
			float64(seq)/float64(rtt), float64(piped)/float64(rtt))
	}
	fmt.Printf("K=8 speedup %.1fx (acceptance bound: >= 3x)\n", speedup8)

	// One-way notification: N notes then one ordered read, vs N two-way
	// calls. The one-way batch rides out back-to-back; the closing Total
	// is fenced behind them, so the whole burst costs about one round
	// trip.
	const notes = 16
	sinkRef, err := owner.Export(&e3Sink{})
	if err != nil {
		return err
	}
	w, err := sinkRef.WireRep()
	if err != nil {
		return err
	}
	sink, err := client.Import(w)
	if err != nil {
		return err
	}
	twoWay, err := measure(n, func() error {
		for i := 0; i < notes; i++ {
			if _, err := sink.Call("Note", int64(1)); err != nil {
				return err
			}
		}
		_, err := sink.Call("Total")
		return err
	})
	if err != nil {
		return err
	}
	oneWay, err := measure(n, func() error {
		for i := 0; i < notes; i++ {
			if err := sink.OneWay("Note", int64(1)); err != nil {
				return err
			}
		}
		// The ordered read must ride the pipeline barrier: a plain Call
		// does not fence behind one-ways, only PipeCall carries Barrier.
		_, err := sink.PipeCall(ctx, "Total").Await(ctx)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("%d notifications + 1 read: two-way %v, one-way %v (%.1fx)\n",
		notes, twoWay.Round(time.Millisecond), oneWay.Round(time.Millisecond),
		float64(twoWay)/float64(oneWay))
	if speedup8 < 3 {
		return fmt.Errorf("E3 acceptance failed: K=8 speedup %.1fx < 3x", speedup8)
	}
	return nil
}

// --- E4 ------------------------------------------------------------------

// runE4 measures the striped object tables at a scale no bench workload
// reaches: one million exports (64k with -quick) in one owner, and 8
// client spaces x 32 goroutines calling Null() on refs spread across the
// whole index space, over the in-memory transport. It reports calls/sec,
// p99 and the owner's export-table contention counter, so the table's
// share of a real call is visible next to the marshaling, dispatch and
// transport costs around it.
func runE4() error {
	nObjs := 1 << 20
	if *quick {
		nObjs = 1 << 16
	}
	const (
		clientSpaces = 8
		perClient    = 32 // callers per client space
		importsPer   = 128
	)
	callsPer := iters(500) // per caller
	fmt.Printf("E4: object tables at %d exports, %d client spaces x %d callers (inmem)\n",
		nObjs, clientSpaces, perClient)
	fmt.Printf("host: NumCPU=%d GOMAXPROCS=%d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))

	tr := netobjects.NewMem()
	mk := func(name string) (*netobjects.Space, error) {
		opts := netobjects.Options{
			Name:         name,
			Transports:   []netobjects.Transport{tr},
			PingInterval: time.Hour,
			CallTimeout:  30 * time.Second,
		}
		withObs(&opts)
		return netobjects.New(opts)
	}
	owner, err := mk("e4-owner")
	if err != nil {
		return err
	}
	defer owner.Close()
	t0 := time.Now()
	refs := make([]*netobjects.Ref, nObjs)
	for i := range refs {
		if refs[i], err = owner.Export(&nullObj{id: int64(i)}); err != nil {
			return err
		}
	}
	fmt.Printf("fill: %v\n", time.Since(t0).Round(time.Millisecond))
	// Each client imports its own slice of refs, spread evenly across the
	// index space so the callers exercise every stripe.
	stride := nObjs / (clientSpaces * importsPer)
	imported := make([][]*netobjects.Ref, clientSpaces)
	for c := range imported {
		cl, err := mk(fmt.Sprintf("e4-client-%d", c))
		if err != nil {
			return err
		}
		defer cl.Close()
		for k := 0; k < importsPer; k++ {
			w, err := refs[(c*importsPer+k)*stride].WireRep()
			if err != nil {
				return err
			}
			r, err := cl.Import(w)
			if err != nil {
				return err
			}
			imported[c] = append(imported[c], r)
		}
	}
	lats := make([][]time.Duration, clientSpaces*perClient)
	errc := make(chan error, clientSpaces*perClient)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clientSpaces; c++ {
		for g := 0; g < perClient; g++ {
			wg.Add(1)
			go func(c, g int) {
				defer wg.Done()
				mine := imported[c]
				ls := make([]time.Duration, 0, callsPer)
				for i := 0; i < callsPer; i++ {
					t0 := time.Now()
					if _, err := mine[(g+i)%len(mine)].Call("Null"); err != nil {
						errc <- err
						return
					}
					ls = append(ls, time.Since(t0))
				}
				lats[c*perClient+g] = ls
			}(c, g)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return err
	default:
	}
	var all []time.Duration
	for _, ls := range lats {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := all[min(int(float64(len(all))*0.99), len(all)-1)]
	fmt.Printf("%d calls each: %.0f calls/sec, p99 %v, owner contention %d\n",
		callsPer, float64(len(all))/elapsed.Seconds(), p99.Round(time.Microsecond),
		owner.Exports().Contention())
	return nil
}

// runE6 measures what the collector's liveness traffic costs as importers
// multiply, with explicit pings (the paper's design) and with
// session-subsumed liveness (healthy mux keepalives stand in for the
// ping). Each cell builds one owner and N importer spaces all holding the
// same export, lets the daemons run over a fixed window counting explicit
// pings (each one request and one ack), and then crashes one importer and
// times how long the owner takes to drop its registration — the
// control-cost vs reclamation-latency trade the two differ on.
func runE6() error {
	counts := []int{1, 64, 1024}
	window := 4 * time.Second
	if *quick {
		counts = []int{1, 16, 64}
		window = 2 * time.Second
	}
	const (
		pingInterval = 200 * time.Millisecond
		pingFailures = 3
		keepalive    = time.Second
	)
	fmt.Printf("E6: liveness traffic and reclamation latency vs importer count (inmem)\n")
	fmt.Printf("host: NumCPU=%d GOMAXPROCS=%d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("ping %v x%d failures | keepalive %v\n\n", pingInterval, pingFailures, keepalive)

	type mode struct {
		name  string
		setup func(o *netobjects.Options)
	}
	modes := []mode{
		// Without keepalives no session counts as healthy, so the ping
		// cell measures the fallback, not the subsumption.
		{"pings", func(o *netobjects.Options) {
			o.KeepaliveInterval = -1
		}},
		{"session", func(o *netobjects.Options) {
			// Ping fallback underneath, but the healthy keepalive-bearing
			// sessions subsume it while importers live.
		}},
	}

	cell := func(md mode, n int) error {
		tr := netobjects.NewMem()
		m := netobjects.NewMetrics()
		mk := func(name string) (*netobjects.Space, error) {
			opts := netobjects.Options{
				Name:              name,
				Transports:        []netobjects.Transport{tr},
				CallTimeout:       10 * time.Second,
				PingInterval:      pingInterval,
				PingTimeout:       time.Second,
				PingMaxFailures:   pingFailures,
				KeepaliveInterval: keepalive,
				Metrics:           m,
			}
			md.setup(&opts)
			return netobjects.New(opts)
		}
		owner, err := mk("e6-owner")
		if err != nil {
			return err
		}
		defer owner.Close()
		ref, err := owner.Export(&nullObj{})
		if err != nil {
			return err
		}
		w, err := ref.WireRep()
		if err != nil {
			return err
		}
		clients := make([]*netobjects.Space, n)
		defer func() {
			for _, c := range clients {
				if c != nil {
					_ = c.Close()
				}
			}
		}()
		for i := range clients {
			if clients[i], err = mk(fmt.Sprintf("e6-c%d", i)); err != nil {
				return err
			}
			r, err := clients[i].Import(w)
			if err != nil {
				return err
			}
			// One call establishes the identified mux session the
			// subsumed mode rides on.
			if _, err := r.Call("Null"); err != nil {
				return err
			}
		}
		// Let registration traffic settle out of the window.
		time.Sleep(500 * time.Millisecond)
		before := m.PingsSent.Load()
		time.Sleep(window)
		exchanges := m.PingsSent.Load() - before
		rate := float64(exchanges) / window.Seconds()

		// Reclamation: crash the last importer (no parting cleans) and
		// time the owner noticing.
		victim := clients[n-1]
		vid := victim.ID()
		victim.Abort()
		clients[n-1] = nil
		t0 := time.Now()
		reclaim := time.Duration(0)
		for {
			if !owner.Exports().HoldsDirty(w.Index, vid) {
				reclaim = time.Since(t0)
				break
			}
			if time.Since(t0) > 30*time.Second {
				return fmt.Errorf("e6 %s n=%d: crashed importer never reclaimed", md.name, n)
			}
			time.Sleep(5 * time.Millisecond)
		}
		fmt.Printf("  %-8s n=%-5d %10.1f liveness exchanges/sec  (%6.3f /sec/importer)   reclaim %v\n",
			md.name, n, rate, rate/float64(n), reclaim.Round(time.Millisecond))
		return nil
	}

	for _, n := range counts {
		for _, md := range modes {
			if err := cell(md, n); err != nil {
				return err
			}
		}
		fmt.Println()
	}
	fmt.Printf("reading: pings pay per importer per interval forever; the subsumed mode pays\n")
	fmt.Printf("nothing explicit while sessions stay healthy — its cost rides on keepalives the\n")
	fmt.Printf("transport already sends — and falls back to pings on session loss.\n")
	return nil
}

// --- E7 ------------------------------------------------------------------

// runE7 measures the bulk data plane (internal/distarray): a distributed
// LSD radix sort at 1/2/4/8 workers over the in-memory transport. The
// host space runs on its own metrics set, so its wire traffic is
// separable from the workers': the table's last two columns are the
// host's total bytes on the wire and their share of the data sorted,
// which is the reference-passing claim made measurable — handing the
// workers the staged array each pass is a third-party transfer of every
// partition reference, the host's plans are O(workers x buckets) counts,
// and the shuffle is pure worker-to-worker traffic (exactly passes x
// data bytes, none of it through the host). On a single-vCPU host the
// keys/sec column does not scale with workers — every worker shares one
// CPU — so the acceptance check is on the host-bytes bound, not the
// throughput curve.
func runE7() error {
	keys := int64(240_000)
	if *quick {
		keys = 60_000
	}
	dataBytes := keys * distarray.KeyBytes
	fmt.Printf("E7: distributed radix sort, host-as-coordinator (inmem, %d keys, %d bytes, %d passes)\n",
		keys, dataBytes, distarray.SortKeyPasses)
	fmt.Printf("host: NumCPU=%d GOMAXPROCS=%d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("%8s %12s %12s %14s %12s %10s\n",
		"workers", "sort time", "keys/sec", "shuffle bytes", "host bytes", "host/data")

	var worstShare float64
	for _, nw := range []int{1, 2, 4, 8} {
		tr := netobjects.NewMem()
		hostM := netobjects.NewMetrics()
		workM := netobjects.NewMetrics()
		if obsMetrics != nil {
			workM = obsMetrics
		}
		mk := func(name string, m *netobjects.Metrics) (*netobjects.Space, error) {
			sp, err := netobjects.New(netobjects.Options{
				Name:         name,
				Transports:   []netobjects.Transport{tr},
				PingInterval: time.Hour,
				CallTimeout:  2 * time.Minute,
				Metrics:      m,
			})
			if err != nil {
				return nil, err
			}
			return sp, distarray.Register(sp)
		}
		host, err := mk("e7-host", hostM)
		if err != nil {
			return err
		}
		var workers []*netobjects.Space
		closeAll := func() {
			for i := len(workers) - 1; i >= 0; i-- {
				_ = workers[i].Close()
			}
			_ = host.Close()
		}
		sorters := make([]*netobjects.Ref, nw)
		for i := 0; i < nw; i++ {
			sp, err := mk(fmt.Sprintf("e7-w%d", i), workM)
			if err != nil {
				closeAll()
				return err
			}
			workers = append(workers, sp)
			store := distarray.NewStore(sp.Metrics())
			ref, err := sp.Export(distarray.NewSortWorker(store, 0))
			if err != nil {
				closeAll()
				return err
			}
			w, err := ref.WireRep()
			if err != nil {
				closeAll()
				return err
			}
			if sorters[i], err = host.Import(w); err != nil {
				closeAll()
				return err
			}
		}
		hostBefore := hostM.BytesSent.Load() + hostM.BytesRecv.Load()
		res, err := distarray.Sort(context.Background(), distarray.SortConfig{
			Workers: sorters,
			Keys:    keys,
			Seed:    42,
			Metrics: hostM,
		})
		if err != nil {
			closeAll()
			return fmt.Errorf("e7: sort with %d workers: %w", nw, err)
		}
		hostMoved := hostM.BytesSent.Load() + hostM.BytesRecv.Load() - hostBefore
		share := float64(hostMoved) / float64(dataBytes)
		if share > worstShare {
			worstShare = share
		}
		fmt.Printf("%8d %12s %12.0f %14d %12d %9.1f%%\n",
			nw, res.Elapsed.Round(time.Millisecond),
			float64(keys)/res.Elapsed.Seconds(),
			res.ShuffledBytes, hostMoved, 100*share)
		distarray.ReleaseParts(res.Data)
		distarray.ReleaseParts(res.Stages)
		for _, r := range sorters {
			r.Release()
		}
		closeAll()
	}
	fmt.Println("shape check: shuffle bytes == passes x data bytes at every width (the data plane")
	fmt.Println("moves O(data) worker-to-worker); host bytes stay O(workers x buckets) per pass —")
	fmt.Println("counts and plans — so the host/data share shrinks as the data grows and never")
	fmt.Println("approaches the volume a store-and-forward coordinator would carry.")
	if worstShare > 0.5 {
		return fmt.Errorf("E7 acceptance failed: host moved %.0f%% of the data; the plan path is not O(histogram)", 100*worstShare)
	}
	return nil
}
