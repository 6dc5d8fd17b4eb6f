package obs

import (
	"bytes"
	"flag"
	"os"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.prom from the current output")

// TestMetricsExposition pins what /metrics renders for a metrics set —
// every name, help text, type line and bucket, in order — including a
// settable gauge set negative, a gauge function registered after
// construction the way a space registers
// its table sizes, and one registered after the first scrape. Regenerate
// with -update only for a deliberate change to the exposition.
func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.CallsSent.Add(3)
	m.CallLatency.Observe(1500 * time.Nanosecond)
	m.DialLatency.Observe(3 * time.Millisecond)
	m.Methods.Get("Ping").Calls.Inc()
	r := m.Registry()
	r.Gauge("netobj_test_gauge", "A settable gauge holding a negative value.").Set(-2)
	r.GaugeFunc("netobj_export_entries", "Live export table entries.", func() int64 { return 7 })
	r.GaugeFunc("netobj_export_entries", "Live export table entries.", func() int64 { return 5 })
	var first bytes.Buffer
	r.WritePrometheus(&first)
	r.GaugeFunc("netobj_late_gauge", "Registered after the first scrape.", func() int64 { return 1 })

	var b bytes.Buffer
	b.Write(first.Bytes())
	r.WritePrometheus(&b)
	m.Methods.WritePrometheus(&b)
	const golden = "testdata/metrics.prom"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		got, wantLines := bytes.Split(b.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(wantLines); i++ {
			if !bytes.Equal(got[i], wantLines[i]) {
				t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("exposition has %d lines, want %d", len(got), len(wantLines))
	}
}
