// Command bench is the repository's benchmark: four call-path workloads
// over real spaces with default Options, end-to-end metrics from an
// untraced timed window, per-layer metrics measured from outside the
// runtime, and a traced pass that yields a latency budget. See README.md
// in this directory for the definitions.
//
//	go run ./bench -workload null_inmem -seed 1
//	go run ./bench -workload bulk_tcp -seed 1 -trace 1
//	go run ./bench -all -out new.json
//	go run ./bench -workload refs_tcp -repeat 10 -out refs.json
//	go run ./bench -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef declares one metric: its unit, which direction is better,
// and for an end-to-end metric the share of the base's median by which
// it may worsen before a change counts as a regression. BENCHMARK.json
// carries the same table; the smoke test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"probe_p50_us", "us", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "wire.codec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.codec_allocs", Unit: "count", Better: "lower"},
	{Name: "pickle.args_ns", Unit: "ns", Better: "lower"},
	{Name: "pickle.args_bytes", Unit: "B", Better: "lower"},
	{Name: "objtable.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "objtable.acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "flow.sched_ns_per_chunk", Unit: "ns", Better: "lower"},
	{Name: "flow.chunks_per_op", Unit: "count", Better: "lower"},
	{Name: "flow.window_updates_per_op", Unit: "count", Better: "lower"},
	{Name: "flow.writer_stalls_per_op", Unit: "count", Better: "lower"},
	{Name: "flow.probe_p99_over_op_p50", Unit: "ratio", Better: "lower"},
	{Name: "transport.stream_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.stream_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_sent_per_op", Unit: "B", Better: "lower"},
	{Name: "transport.pool_misses", Unit: "count", Better: "lower"},
	{Name: "rawrpc_p50_us", Unit: "us", Better: "lower"},
	{Name: "object_overhead_us", Unit: "us", Better: "lower"},
	{Name: "core.serve_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.client_residual_us", Unit: "us", Better: "lower"},
	{Name: "core.fallbacks", Unit: "count", Better: "lower"},
	{Name: "dgc.dirty_per_op", Unit: "count", Better: "lower"},
	{Name: "dgc.clean_per_op", Unit: "count", Better: "lower"},
	{Name: "dgc.clean_batches_per_op", Unit: "count", Better: "lower"},
	{Name: "dgc.result_acks_per_op", Unit: "count", Better: "lower"},
	{Name: "dgc.dirty_p50_us", Unit: "us", Better: "lower"},
	{Name: "dgc.clean_p50_us", Unit: "us", Better: "lower"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "cpu_s_per_kop", Unit: "s", Better: "lower"},
	{Name: "gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "goodput_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "op_p99_us", Unit: "us", Better: "lower"},
	{Name: "probe_p99_us", Unit: "us", Better: "lower"},
	{Name: "trace.root_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.op_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.core_call_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.core_serve_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.dgc_dirty_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.replay.pickle.args_us", Unit: "us", Better: "lower"},
	{Name: "trace.replay.wire.codec_us", Unit: "us", Better: "lower"},
	{Name: "trace.replay.objtable.lookup_us", Unit: "us", Better: "lower"},
	{Name: "trace.replay.flow.sched_us", Unit: "us", Better: "lower"},
	{Name: "trace.replay.transport.stream_us", Unit: "us", Better: "lower"},
	{Name: "trace.residual_us", Unit: "us", Better: "lower"},
	{Name: "trace.budget_gap_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "higher"},
}

// The constants of every run, identical on both sides of any comparison.
const (
	warmup        = 3 * time.Second
	defaultWindow = 20 // seconds
	setupRepeats  = 15
	probeTime     = 200 * time.Millisecond
)

// windowsFor splits the seconds a run measures: all of them untraced, or
// three quarters untraced and the last quarter traced.
func windowsFor(seconds int, trace bool) (window, traced time.Duration) {
	d := time.Duration(seconds) * time.Second
	if trace {
		return d * 3 / 4, d / 4
	}
	return d, 0
}

// host records the shape of the machine a document was measured on.
type host struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	WindowS    int    `json:"window_s"`
	WarmupS    int    `json:"warmup_s"`
	Network    string `json:"network"`
}

func hostShape(seconds int) host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: min(runtime.NumCPU(), 4), Go: runtime.Version(),
		Kernel: "unknown", Commit: "unknown", WindowS: seconds, WarmupS: int(warmup / time.Second),
		Network: "loopback, not a link"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// The commit of this checkout, if it is one: git does not look above it.
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// stat is one metric of one workload in a document: a single run's value,
// or the median and quartiles of several.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// entry is one workload's row of a document.
type entry struct {
	Workload  string          `json:"workload"`
	Seeds     []int64         `json:"seeds"`
	Trace     bool            `json:"trace"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Checks    []string        `json:"checks,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
}

// document is what -out writes and -compare reads.
type document struct {
	Host host    `json:"host"`
	Runs []entry `json:"runs"`
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// summarize folds the results of one workload's runs into an entry.
func summarize(results []*result) entry {
	e := entry{Workload: results[0].Workload, Trace: results[0].Trace, Correct: true, Metrics: map[string]stat{}}
	for _, r := range results {
		e.Seeds = append(e.Seeds, r.Seed)
		e.Correct = e.Correct && r.Correct
		e.Attempted += r.Attempted
		e.Failed += r.Failed
		e.Checks = append(e.Checks, r.Checks...)
	}
	for name := range results[0].Metrics {
		var vals []float64
		for _, r := range results {
			vals = append(vals, r.Metrics[name])
		}
		q1, q2, q3 := quartiles(vals)
		e.Metrics[name] = stat{Value: q2, Unit: unitOf(name), Q1: q1, Q3: q3, N: len(vals)}
	}
	return e
}

// printEntry prints every metric as "name value unit", with quartiles
// when the entry folds several runs.
func printEntry(e entry) {
	fmt.Printf("# %s seeds=%v trace=%v attempted=%d failed=%d\n", e.Workload, e.Seeds, e.Trace, e.Attempted, e.Failed)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			s, ok := e.Metrics[d.Name]
			if !ok {
				continue
			}
			if s.N > 1 {
				fmt.Printf("%s %.6g %s  (q1 %.6g, q3 %.6g, spread %.1f%%, n=%d)\n", d.Name, s.Value, s.Unit, s.Q1, s.Q3, 100*spread(s), s.N)
			} else {
				fmt.Printf("%s %.6g %s\n", d.Name, s.Value, s.Unit)
			}
		}
	}
	for _, c := range e.Checks {
		fmt.Printf("check failed: %s\n", c)
	}
}

// spread is the distance between the quartiles as a share of the median.
func spread(s stat) float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}

// contractLine is the last line of a single run's output: one JSON
// object with the end-to-end metrics of an untraced run or the per-layer
// metrics of a traced one.
func contractLine(r *result) string {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(b)
}

func writeDocument(path string, doc document) error {
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readDocument(path string) (document, error) {
	var doc document
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &doc)
	}
	if err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compare prints one row per workload and end-to-end metric of two
// documents and reports whether any metric got worse beyond its bound.
// A metric whose spread on either side exceeds its bound is unresolved,
// not unchanged.
func compare(base, next document) (worse bool) {
	fmt.Printf("%-11s %-13s %12s %12s %7s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	for _, b := range base.Runs {
		for _, n := range next.Runs {
			if n.Workload != b.Workload {
				continue
			}
			for _, d := range endToEnd {
				bs, ns := b.Metrics[d.Name], n.Metrics[d.Name]
				if bs.Value == 0 {
					continue
				}
				ratio := ns.Value / bs.Value
				loss := ratio - 1
				if d.Better == "higher" {
					loss = 1 - ratio
				}
				verdict := "ok"
				switch {
				case max(spread(bs), spread(ns)) > d.Bound:
					verdict = "unresolved"
				case loss > d.Bound:
					verdict, worse = "worse", true
				}
				fmt.Printf("%-11s %-13s %12.6g %12.6g %7.3f %6.2f  %s\n", b.Workload, d.Name, bs.Value, ns.Value, ratio, d.Bound, verdict)
			}
		}
	}
	return worse
}

var (
	name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds = flag.Int("seconds", defaultWindow, "seconds one run measures")
	trace   = flag.Int("trace", 0, "1: also probe the layers and run the traced pass, reporting per-layer metrics")
	all     = flag.Bool("all", false, "run the four workloads in sequence")
	repeat  = flag.Int("repeat", 1, "run each workload this many times, on seeds seed, seed+1, ..., and report medians and quartiles")
	out     = flag.String("out", "", "write the results as a JSON document to this file")
	cmp     = flag.Bool("compare", false, "compare two documents written by -out: bench -compare old.json new.json")
)

func main() {
	flag.Parse()
	do := runWorkloads
	if *cmp {
		do = compareDocuments
	}
	if err := do(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func compareDocuments() error {
	if flag.NArg() != 2 {
		return errors.New("-compare needs two documents")
	}
	base, err := readDocument(flag.Arg(0))
	if err != nil {
		return err
	}
	next, err := readDocument(flag.Arg(1))
	if err != nil {
		return err
	}
	if compare(base, next) {
		return errors.New("an end-to-end metric is worse than its bound allows")
	}
	return nil
}

func runWorkloads() error {
	names := []string{*name}
	if *all {
		names = workloadNames()
	} else if _, err := findWorkload(*name); err != nil {
		return fmt.Errorf("%w (have %s)", err, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || *repeat < 1 {
		return errors.New("-seconds and -repeat must be at least 1")
	}
	doc := document{Host: hostShape(*seconds)}
	var last *result
	correct := true
	for _, n := range names {
		var results []*result
		for i := 0; i < *repeat; i++ {
			cfg := config{workload: n, seed: *seed + int64(i), trace: *trace != 0, warmup: warmup,
				setups: setupRepeats, probe: probeTime, outDir: "bench/out"}
			cfg.window, cfg.traced = windowsFor(*seconds, cfg.trace)
			r, err := run(cfg)
			if err != nil {
				return err
			}
			for _, note := range r.Notes {
				fmt.Printf("# %s\n", note)
			}
			results, last = append(results, r), r
		}
		e := summarize(results)
		printEntry(e)
		correct = correct && e.Correct
		doc.Runs = append(doc.Runs, e)
	}
	hb, _ := json.Marshal(doc.Host)
	fmt.Printf("host %s\n", hb)
	if *out != "" {
		if err := writeDocument(*out, doc); err != nil {
			return err
		}
	}
	if len(names) == 1 && *repeat == 1 {
		fmt.Println(contractLine(last))
	}
	if !correct {
		return errors.New("a check failed")
	}
	return nil
}
