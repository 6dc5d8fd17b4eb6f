package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// declared is BENCHMARK.json, which the driver of the benchmark reads.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarations holds the program's metric and workload tables to
// BENCHMARK.json: names, units, directions, bounds and reasons.
func TestDeclarations(t *testing.T) {
	d := readDeclared(t)
	for _, c := range []struct {
		key       string
		file, own []metricDef
	}{{"end_to_end", d.EndToEnd, endToEnd}, {"per_layer", d.PerLayer, perLayer}} {
		if len(c.file) != len(c.own) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.key, len(c.file), len(c.own))
		}
		for i := 0; i < min(len(c.file), len(c.own)); i++ {
			if c.file[i] != c.own[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", c.key, i, c.file[i], c.own[i])
			}
		}
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %v, the program {%s %s}", i, d.Workloads[i], w.name, w.why)
		}
	}
}

// TestWorkloadsSmoke runs every workload with a 300 ms window and a 1 s
// traced pass, so that a change to an API the benchmark uses fails
// tier-1. It asserts what does not depend on the machine's speed: the
// output checks pass, every declared metric is reported under its name,
// the counts predicted to be zero are zero, and the trace file parses
// with every child inside its parent.
func TestWorkloadsSmoke(t *testing.T) {
	zero := map[string][]string{
		"null_inmem": {"flow.chunks_per_op", "flow.window_updates_per_op", "flow.writer_stalls_per_op", "dgc.dirty_per_op", "dgc.clean_per_op"},
		"mixed_tcp":  {"dgc.dirty_per_op", "dgc.clean_per_op"},
		"bulk_tcp":   {"dgc.dirty_per_op", "dgc.clean_per_op"},
		"refs_tcp":   {"flow.chunks_per_op", "flow.window_updates_per_op", "flow.writer_stalls_per_op"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{workload: w.name, seed: 7, trace: true, warmup: 100 * time.Millisecond,
				window: 300 * time.Millisecond, traced: time.Second, setups: 1, probe: 5 * time.Millisecond, outDir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d checks=%v", res.Correct, res.Attempted, res.Failed, res.Checks)
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				for _, d := range defs {
					if _, ok := res.Metrics[d.Name]; !ok {
						t.Errorf("metric %s is declared but was not reported", d.Name)
					}
				}
			}
			for name := range res.Metrics {
				if unitOf(name) == "" {
					t.Errorf("metric %s is reported but not declared", name)
				}
			}
			for _, d := range endToEnd {
				if res.Metrics[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want above 0", d.Name, res.Metrics[d.Name])
				}
			}
			for _, name := range zero[w.name] {
				if v := res.Metrics[name]; v != 0 {
					t.Errorf("%s = %v, want 0", name, v)
				}
			}
			if w.name == "refs_tcp" && res.Metrics["dgc.dirty_per_op"] != 2 {
				t.Errorf("dgc.dirty_per_op = %v, want exactly 2", res.Metrics["dgc.dirty_per_op"])
			}
			checkTraceFile(t, filepath.Join(cfg.outDir, w.name+".trace.json"))
		})
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	names := map[string]int{}
	for i, s := range doc.Spans {
		names[s.Name]++
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= len(doc.Spans) {
			t.Fatalf("span %d (%s) has parent %d of %d spans", i, s.Name, s.Parent, len(doc.Spans))
		}
		if p := doc.Spans[s.Parent]; s.Start < p.Start || s.End > p.End || s.Op != p.Op {
			t.Fatalf("span %d (%s, op %d) [%d,%d] is not inside its parent %s (op %d) [%d,%d]",
				i, s.Name, s.Op, s.Start, s.End, p.Name, p.Op, p.Start, p.End)
		}
	}
	for _, name := range []string{"op", "core.call", "core.serve", "replay", "wire.codec", "transport.stream"} {
		if names[name] == 0 {
			t.Errorf("%s: no %s span", path, name)
		}
	}
}

// TestContractLine checks the last line a single run prints: the
// end-to-end metrics of an untraced run, the per-layer ones of a traced.
func TestContractLine(t *testing.T) {
	for _, trace := range []bool{false, true} {
		var got struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		line := contractLine(&result{Trace: trace, Correct: true, Attempted: 3, Metrics: map[string]float64{"ops_per_s": 5}})
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if !got.Correct || got.Attempted != 3 || len(got.Metrics) != len(want) {
			t.Errorf("trace=%v: got %+v", trace, got)
		}
		for _, d := range want {
			if got.Metrics[d.Name].Unit != d.Unit {
				t.Errorf("trace=%v: metric %s has unit %q, want %q", trace, d.Name, got.Metrics[d.Name].Unit, d.Unit)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
