package obs

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Load() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil histogram should be empty")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("got %d, want 8000", c.Load())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations spread uniformly over [1µs, 1000µs]; quantiles
	// should land within one log bucket (2×) of the exact values.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count=%d", s.Count)
	}
	checks := []struct {
		q     float64
		exact time.Duration
	}{
		{0.5, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if got < c.exact/2 || got > c.exact*2 {
			t.Errorf("q=%v: got %v, want within 2x of %v", c.q, got, c.exact)
		}
	}
	if s.Mean() < 250*time.Microsecond || s.Mean() > time.Millisecond {
		t.Errorf("mean=%v out of range", s.Mean())
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if h.Snapshot().Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Observe(0)
	h.Observe(-time.Second) // clamped to 0
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count=%d", s.Count)
	}
	if q := s.Quantile(1.0); q > time.Nanosecond {
		t.Fatalf("all-zero quantile=%v", q)
	}
	// Out-of-range q values are clamped, not panics.
	_ = s.Quantile(-1)
	_ = s.Quantile(2)
}

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Ops.")
	g := r.Gauge("test_depth", "Depth.")
	h := r.Histogram("test_latency_seconds", "Latency.")
	r.GaugeFunc("test_live", "Live.", func() int64 { return 7 })
	r.GaugeFunc("test_live", "Live.", func() int64 { return 5 }) // sums
	c.Add(42)
	g.Set(-3)
	h.Observe(time.Millisecond)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE test_ops_total counter",
		"test_ops_total 42",
		"# TYPE test_depth gauge",
		"test_depth -3",
		"# TYPE test_live gauge",
		"test_live 12",
		"# TYPE test_latency_seconds histogram",
		// 1ms sits below the 2^20 ns (~1.05ms) bound and above 2^18
		// (~262µs): the cumulative counts must flip between them.
		`test_latency_seconds_bucket{le="0.000262144"} 0`,
		`test_latency_seconds_bucket{le="0.001048576"} 1`,
		`test_latency_seconds_bucket{le="+Inf"} 1`,
		"test_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE test_live gauge") != 1 {
		t.Error("summed gauge func rendered more than once")
	}
	if strings.Contains(out, "quantile=") {
		t.Error("histograms must render native buckets, not summary quantiles")
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	var b strings.Builder
	writeHistogram(&b, "lat", "", h.Snapshot())
	out := b.String()
	// Cumulative: every bucket count must be >= the previous one, and the
	// +Inf bucket must equal the total count.
	prev := -1
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, ln := range lines {
		if !strings.Contains(ln, "_bucket") {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(ln[strings.LastIndex(ln, " ")+1:], "%d", &n); err != nil {
			t.Fatalf("unparseable bucket line %q", ln)
		}
		if n < prev {
			t.Fatalf("buckets not cumulative at %q", ln)
		}
		prev = n
	}
	if !strings.Contains(out, `lat_bucket{le="+Inf"} 1000`) {
		t.Fatalf("+Inf bucket should hold the total:\n%s", out)
	}
	if !strings.Contains(out, "lat_count 1000") {
		t.Fatalf("missing count:\n%s", out)
	}
}

func TestRegistrySummary(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total", "")
	r.Counter("zero_total", "") // zero: omitted
	h := r.Histogram("lat_seconds", "")
	c.Inc()
	h.Observe(time.Millisecond)
	s := r.Summary()
	if !strings.Contains(s, "a_total") || !strings.Contains(s, "lat_seconds") {
		t.Fatalf("summary missing entries:\n%s", s)
	}
	if strings.Contains(s, "zero_total") {
		t.Fatalf("summary should omit zero counters:\n%s", s)
	}
}

func TestRingTracer(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 40; i++ {
		r.Emit(Event{Kind: EvCallSend, CallID: uint64(i + 1)})
	}
	events := r.Events()
	if len(events) != 16 {
		t.Fatalf("buffered %d, want 16", len(events))
	}
	if events[0].CallID != 25 || events[15].CallID != 40 {
		t.Fatalf("ring order wrong: first=%d last=%d", events[0].CallID, events[15].CallID)
	}
	if r.Total() != 40 {
		t.Fatalf("total=%d", r.Total())
	}
	if r.CountKind(EvCallSend) != 16 || r.CountKind(EvCleanSend) != 0 {
		t.Fatal("CountKind wrong")
	}
}

func TestMultiTracer(t *testing.T) {
	a, b := NewRing(16), NewRing(16)
	mt := MultiTracer(a, nil, b)
	mt.Emit(Event{Kind: EvDirtySend})
	if a.Total() != 1 || b.Total() != 1 {
		t.Fatal("multi tracer did not fan out")
	}
	var got Event
	TracerFunc(func(e Event) { got = e }).Emit(Event{Kind: EvPoolHit})
	if got.Kind != EvPoolHit {
		t.Fatal("TracerFunc did not deliver")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: EvCallReply, CallID: 9, Method: "Null", Dur: 120 * time.Microsecond, Bytes: 33, Err: "boom"}
	s := e.String()
	for _, want := range []string{"call.reply", "id=9", "method=Null", "bytes=33", `err="boom"`} {
		if !strings.Contains(s, want) {
			t.Errorf("event string missing %q: %s", want, s)
		}
	}
	if EventKind(999).String() != "event(999)" {
		t.Error("unknown kind string")
	}
}

func TestMetricsRegistered(t *testing.T) {
	m := NewMetrics()
	m.CallsSent.Inc()
	m.CallLatency.Observe(time.Millisecond)
	var b strings.Builder
	m.Registry().WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{"netobj_calls_sent_total 1", "netobj_call_latency_seconds_count 1",
		"netobj_dirty_sent_total 0", "netobj_pool_reaps_total 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if NextCallID() == NextCallID() {
		t.Fatal("call ids must be distinct")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	m := NewMetrics()
	m.CallsServed.Add(3)
	ring := NewRing(16)
	ring.Emit(Event{Kind: EvDirtyRecv, Key: "abcd/7", Time: time.Now()})
	o := &Observability{
		Metrics: m,
		Tracer:  ring,
		Debug: func() DebugData {
			return DebugData{
				Name: "testspace", ID: "deadbeef", Liveness: "ping",
				Endpoints: []string{"tcp:127.0.0.1:1"},
				Exports: []ExportInfo{{
					Index: 7, Type: "*main.Thing<script>", Pins: 1,
					Dirty: []DirtyInfo{{Client: "cafe", Seq: 3, Endpoints: []string{"tcp:127.0.0.1:2"}}},
				}},
				Imports: []ImportInfo{{Owner: "cafe", Index: 9, State: "OK", Pins: 0}},
				Sessions: []SessionInfo{{
					Endpoint: "tcp:127.0.0.1:2", Dir: "out", InFlight: 1, Hello: "v1 cafe",
				}},
			}
		},
	}
	o.SetDebugSection("agent", func() string { return "3 names bound" })

	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		if _, err := fmt.Fprint(&b, readAll(t, resp.Body)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "netobj_calls_served_total 3") {
		t.Fatalf("/metrics missing counter:\n%s", metrics)
	}
	for _, want := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing process metric %q", want)
		}
	}

	jsonl := get("/debug/netobj/trace.jsonl")
	if !strings.Contains(jsonl, `"kind":"dirty.recv"`) || !strings.Contains(jsonl, `"key":"abcd/7"`) {
		t.Fatalf("trace.jsonl missing event fields:\n%s", jsonl)
	}

	debug := get("/debug/netobj")
	for _, want := range []string{
		"testspace", "export table", "import table", "dirty set",
		"cafe (seq 3", "peer sessions", "<th>hello</th>", "v1 cafe", "agent", "3 names bound",
		"recent events", "dirty.recv", "metrics digest",
		"&lt;script&gt;", // HTML-escaped type name
	} {
		if !strings.Contains(debug, want) {
			t.Errorf("/debug/netobj missing %q", want)
		}
	}
	if strings.Contains(debug, "<script>") {
		t.Error("debug page did not escape HTML")
	}

	// Root redirects to the debug page; unknown paths 404.
	resp, err := srv.Client().Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown path: status %d", resp.StatusCode)
	}
}

func readAll(t *testing.T, r interface{ Read([]byte) (int, error) }) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}
