// End-to-end check of the observability subsystem: two spaces run a full
// reference life cycle (export, import with its dirty call, remote calls,
// release with its clean call) while metrics, the legacy Stats view, ring
// tracers and the HTTP exporter watch; all four views must agree.
package netobjects_test

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netobjects"
	"netobjects/internal/obs"
)

type obsService struct{ calls int64 }

func (s *obsService) Incr(n int64) (int64, error) {
	s.calls += n
	return s.calls, nil
}

func TestObservabilityEndToEnd(t *testing.T) {
	mem := netobjects.NewMem()
	ownerRing := netobjects.NewRingTracer(128)
	clientRing := netobjects.NewRingTracer(128)
	mk := func(name string, tr netobjects.Tracer) *netobjects.Space {
		sp, err := netobjects.New(netobjects.Options{
			Name:         name,
			Transports:   []netobjects.Transport{mem},
			PingInterval: time.Hour,
			Tracer:       tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sp.Close() })
		return sp
	}
	owner := mk("owner", ownerRing)
	client := mk("client", clientRing)

	ref, err := owner.Export(&obsService{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := ref.WireRep()
	if err != nil {
		t.Fatal(err)
	}
	sur, err := client.Import(w) // dirty call registers the surrogate
	if err != nil {
		t.Fatal(err)
	}
	const nCalls = 5
	for i := 1; i <= nCalls; i++ {
		out, err := sur.Call("Incr", int64(1))
		if err != nil {
			t.Fatal(err)
		}
		if got := out[0].(int64); got != int64(i) {
			t.Fatalf("call %d returned %d", i, got)
		}
	}

	// The three client-side views — metrics, legacy Stats, trace ring —
	// must count the same traffic.
	cm := client.Metrics()
	if cm != client.Observability().Metrics {
		t.Fatal("Observability().Metrics is not the space's metrics set")
	}
	cs := client.Stats()
	if cs.CallsSent != nCalls || cm.CallsSent.Load() != nCalls {
		t.Fatalf("calls sent: stats=%d metrics=%d, want %d", cs.CallsSent, cm.CallsSent.Load(), nCalls)
	}
	if cs.DirtySent != 1 || cs.SurrogatesMade != 1 {
		t.Fatalf("dirty=%d surrogates=%d, want 1/1", cs.DirtySent, cs.SurrogatesMade)
	}
	if n := clientRing.CountKind(obs.EvCallSend); n != nCalls {
		t.Fatalf("EvCallSend=%d, want %d", n, nCalls)
	}
	if n := clientRing.CountKind(obs.EvCallReply); n != nCalls {
		t.Fatalf("EvCallReply=%d, want %d", n, nCalls)
	}
	if n := clientRing.CountKind(obs.EvDirtySend); n != 1 {
		t.Fatalf("EvDirtySend=%d, want 1", n)
	}
	if cm.CallErrors.Load() != 0 {
		t.Fatalf("call errors=%d", cm.CallErrors.Load())
	}
	if h := cm.CallLatency.Snapshot(); h.Count != nCalls || h.Quantile(0.5) <= 0 {
		t.Fatalf("call latency histogram: count=%d p50=%v", h.Count, h.Quantile(0.5))
	}
	if cm.BytesSent.Load() == 0 || cm.BytesRecv.Load() == 0 {
		t.Fatal("byte counters stayed zero")
	}

	// Owner side: served counts and trace mirror the client's sends.
	os_, om := owner.Stats(), owner.Metrics()
	if os_.CallsServed != nCalls || om.ServeLatency.Snapshot().Count != nCalls {
		t.Fatalf("calls served: stats=%d histo=%d", os_.CallsServed, om.ServeLatency.Snapshot().Count)
	}
	if os_.DirtyServed != 1 {
		t.Fatalf("dirty served=%d", os_.DirtyServed)
	}
	if n := ownerRing.CountKind(obs.EvCallServe); n != nCalls {
		t.Fatalf("EvCallServe=%d, want %d", n, nCalls)
	}
	if n := ownerRing.CountKind(obs.EvDirtyRecv); n != 1 {
		t.Fatalf("EvDirtyRecv=%d, want 1", n)
	}

	// While the surrogate lives, the owner's debug page must show the
	// export with the client in its dirty set.
	body := fetch(t, owner, "/debug/netobj")
	if !strings.Contains(body, "export table (1 entries)") {
		t.Fatalf("debug page missing export table:\n%s", body)
	}
	if !strings.Contains(body, client.ID().String()) {
		t.Fatalf("dirty set does not list the client %v:\n%s", client.ID(), body)
	}
	if !strings.Contains(body, fmt.Sprintf("space %s", "owner")) {
		t.Fatalf("debug page missing space header:\n%s", body)
	}

	// The client's /metrics exposition carries the nonzero counters and
	// native histogram buckets.
	text := fetch(t, client, "/metrics")
	for _, want := range []string{
		fmt.Sprintf("netobj_calls_sent_total %d", nCalls),
		"netobj_dirty_sent_total 1",
		"# TYPE netobj_call_latency_seconds histogram",
		`netobj_call_latency_seconds_bucket{le="+Inf"} 5`,
		"netobj_call_latency_seconds_count 5",
		"netobj_import_entries 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	// Release: the clean call must land, empty the owner's table, and be
	// visible in every view.
	sur.Release()
	deadline := time.Now().Add(10 * time.Second)
	for owner.Exports().Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if owner.Exports().Len() != 0 {
		t.Fatal("clean call never reclaimed the export")
	}
	cs = client.Stats()
	if cs.CleanSent != 1 || cm.SurrogatesReleased.Load() != 1 {
		t.Fatalf("clean sent=%d released=%d, want 1/1", cs.CleanSent, cm.SurrogatesReleased.Load())
	}
	if n := clientRing.CountKind(obs.EvCleanSend); n != 1 {
		t.Fatalf("EvCleanSend=%d, want 1", n)
	}
	if n := clientRing.CountKind(obs.EvSurrogateReleased); n != 1 {
		t.Fatalf("EvSurrogateReleased=%d, want 1", n)
	}
	if owner.Stats().CleanServed != 1 {
		t.Fatalf("clean served=%d", owner.Stats().CleanServed)
	}
	if n := ownerRing.CountKind(obs.EvCleanRecv); n != 1 {
		t.Fatalf("EvCleanRecv=%d, want 1", n)
	}

	// After the cycle the debug page shows empty tables and the buffered
	// events.
	body = fetch(t, owner, "/debug/netobj")
	if !strings.Contains(body, "export table (0 entries)") {
		t.Fatalf("export table not empty after clean:\n%s", body)
	}
	if !strings.Contains(body, "recent events") || !strings.Contains(body, "call.serve") {
		t.Fatalf("debug page missing trace ring:\n%s", body)
	}

	// Every legacy Stats field must equal its backing metric — the two
	// views may never drift.
	for _, pair := range []struct {
		name   string
		legacy uint64
		metric uint64
	}{
		{"CallsSent", cs.CallsSent, cm.CallsSent.Load()},
		{"CallsServed", cs.CallsServed, cm.CallsServed.Load()},
		{"DirtySent", cs.DirtySent, cm.DirtySent.Load()},
		{"DirtyServed", cs.DirtyServed, cm.DirtyServed.Load()},
		{"CleanSent", cs.CleanSent, cm.CleanSent.Load()},
		{"CleanBatches", cs.CleanBatches, cm.CleanBatches.Load()},
		{"CleanServed", cs.CleanServed, cm.CleanServed.Load()},
		{"PingsSent", cs.PingsSent, cm.PingsSent.Load()},
		{"ResultAcksSent", cs.ResultAcksSent, cm.ResultAcksSent.Load()},
		{"ResultAcksWaited", cs.ResultAcksWaited, cm.ResultAcksWaited.Load()},
		{"SurrogatesMade", cs.SurrogatesMade, cm.SurrogatesMade.Load()},
		{"AutoReleases", cs.AutoReleases, cm.AutoReleases.Load()},
		{"Withdrawn", cs.Withdrawn, cm.Withdrawn.Load()},
		{"ClientsDropped", cs.ClientsDropped, cm.ClientsDropped.Load()},
	} {
		if pair.legacy != pair.metric {
			t.Fatalf("%s: Stats()=%d metrics=%d", pair.name, pair.legacy, pair.metric)
		}
	}
}

// TestObservabilitySharedMetrics exercises Options.Metrics aggregation:
// two spaces reporting into one set, as nobench -obs does.
func TestObservabilitySharedMetrics(t *testing.T) {
	mem := netobjects.NewMem()
	shared := netobjects.NewMetrics()
	mk := func(name string) *netobjects.Space {
		sp, err := netobjects.New(netobjects.Options{
			Name:         name,
			Transports:   []netobjects.Transport{mem},
			PingInterval: time.Hour,
			Metrics:      shared,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sp.Close() })
		return sp
	}
	owner := mk("owner")
	client := mk("client")
	if owner.Metrics() != shared || client.Metrics() != shared {
		t.Fatal("Options.Metrics was not adopted")
	}
	ref, err := owner.Export(&obsService{})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := ref.WireRep()
	sur, err := client.Import(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sur.Call("Incr", int64(1)); err != nil {
		t.Fatal(err)
	}
	// One set sees both halves of the exchange.
	if shared.CallsSent.Load() != 1 || shared.CallsServed.Load() != 1 {
		t.Fatalf("shared counters: sent=%d served=%d", shared.CallsSent.Load(), shared.CallsServed.Load())
	}
	// The export/import gauges of both spaces register under one name and
	// sum in the exposition.
	text := fetch(t, client, "/metrics")
	if !strings.Contains(text, "netobj_import_entries 1") {
		t.Fatalf("/metrics missing summed import gauge:\n%s", text)
	}
}

// fetch serves one request against the space's observability handler.
func fetch(t *testing.T, sp *netobjects.Space, path string) string {
	t.Helper()
	srv := httptest.NewServer(sp.Observability().Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	return string(b)
}
