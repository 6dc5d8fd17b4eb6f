package obs

import (
	"fmt"
	"html"
	"net/http"
	"runtime"
	"strings"
	"time"
)

// Handler returns the HTTP mux of the observability endpoint:
//
//	/metrics                  Prometheus text exposition of every
//	                          registered metric plus process metrics
//	/debug/netobj             live dump of the space's export/import
//	                          tables, dirty sets, pool occupancy, recent
//	                          trace events and a metrics digest
//	/debug/netobj/trace.jsonl the ring tracer's buffered events as JSON
//	                          lines (machine-readable timeline)
//
// The netobjd daemon mounts it behind its -http flag; embedders can mount
// it on any server of their own.
func (o *Observability) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", o.serveMetrics)
	mux.HandleFunc("/debug/netobj", o.serveDebug)
	mux.HandleFunc("/debug/netobj/trace.jsonl", o.serveTraceJSONL)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		http.Redirect(w, r, "/debug/netobj", http.StatusFound)
	})
	return mux
}

// Serve listens on addr and serves the observability endpoint until the
// listener fails; it runs the server in the calling goroutine. Callers
// wanting lifecycle control should mount Handler on their own server.
func (o *Observability) Serve(addr string) error {
	srv := &http.Server{Addr: addr, Handler: o.Handler(), ReadHeaderTimeout: 5 * time.Second}
	return srv.ListenAndServe()
}

func (o *Observability) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if o.Metrics != nil {
		o.Metrics.Registry().WritePrometheus(w)
		o.Metrics.Methods.WritePrometheus(w)
	}
	writeProcessMetrics(w)
}

// writeProcessMetrics renders scrape-friendly process health gauges
// (goroutines, heap) alongside the runtime's own series, so a dashboard
// needs no separate exporter for the basics.
func writeProcessMetrics(w http.ResponseWriter) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# HELP go_goroutines Number of goroutines that currently exist.\n"+
		"# TYPE go_goroutines gauge\ngo_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# HELP go_memstats_heap_alloc_bytes Number of heap bytes allocated and in use.\n"+
		"# TYPE go_memstats_heap_alloc_bytes gauge\ngo_memstats_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# HELP go_memstats_heap_sys_bytes Number of heap bytes obtained from the system.\n"+
		"# TYPE go_memstats_heap_sys_bytes gauge\ngo_memstats_heap_sys_bytes %d\n", ms.HeapSys)
	fmt.Fprintf(w, "# HELP go_memstats_heap_objects Number of currently allocated heap objects.\n"+
		"# TYPE go_memstats_heap_objects gauge\ngo_memstats_heap_objects %d\n", ms.HeapObjects)
	fmt.Fprintf(w, "# HELP go_gc_cycles_total Number of completed GC cycles.\n"+
		"# TYPE go_gc_cycles_total counter\ngo_gc_cycles_total %d\n", ms.NumGC)
}

// serveTraceJSONL dumps the ring tracer's buffered events as JSON lines.
// Without a ring tracer installed there is no buffered timeline; the
// endpoint answers 404 so scrapers can tell "no tracer" from "no events".
func (o *Observability) serveTraceJSONL(w http.ResponseWriter, _ *http.Request) {
	r := o.ring()
	if r == nil {
		http.Error(w, "no ring tracer installed", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	_ = r.WriteJSONL(w)
}

func (o *Observability) serveDebug(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<!DOCTYPE html><html><head><title>netobj debug</title>"+
		"<style>body{font-family:monospace;margin:1.5em}table{border-collapse:collapse;margin:.5em 0}"+
		"td,th{border:1px solid #999;padding:2px 8px;text-align:left}h2{margin:1em 0 .2em}"+
		"pre{background:#f4f4f4;padding:.5em}</style></head><body>\n")

	var d DebugData
	if o.Debug != nil {
		d = o.Debug()
	}
	fmt.Fprintf(w, "<h1>space %s</h1>\n", esc(d.Name))
	fmt.Fprintf(w, "<p>id %s · endpoints %s · <a href=\"/metrics\">/metrics</a></p>\n",
		esc(d.ID), esc(strings.Join(d.Endpoints, ", ")))

	fmt.Fprintf(w, "<h2>export table (%d entries)</h2>\n", len(d.Exports))
	fmt.Fprint(w, "<table><tr><th>index</th><th>type</th><th>pins</th><th>pinned</th><th>dirty set</th></tr>\n")
	for _, e := range d.Exports {
		var members []string
		for _, m := range e.Dirty {
			members = append(members, fmt.Sprintf("%s (seq %d, %s)",
				esc(m.Client), m.Seq, esc(strings.Join(m.Endpoints, " "))))
		}
		fmt.Fprintf(w, "<tr><td>%d</td><td>%s</td><td>%d</td><td>%v</td><td>%s</td></tr>\n",
			e.Index, esc(e.Type), e.Pins, e.Pinned, strings.Join(members, "<br>"))
	}
	fmt.Fprint(w, "</table>\n")

	fmt.Fprintf(w, "<h2>import table (%d surrogates)</h2>\n", len(d.Imports))
	fmt.Fprint(w, "<table><tr><th>owner</th><th>index</th><th>state</th><th>pins</th><th>endpoints</th></tr>\n")
	for _, e := range d.Imports {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td>%s</td><td>%d</td><td>%s</td></tr>\n",
			esc(e.Owner), e.Index, esc(e.State), e.Pins, esc(strings.Join(e.Endpoints, " ")))
	}
	fmt.Fprint(w, "</table>\n")

	fmt.Fprintf(w, "<h2>peer sessions (%d links)</h2>\n", len(d.Sessions))
	fmt.Fprint(w, "<table><tr><th>peer</th><th>dir</th><th>in-flight</th>"+
		"<th>queue</th><th>bytes sent</th><th>bytes recv</th>"+
		"<th>hello</th><th>send window</th><th>queued</th><th>stalls</th></tr>\n")
	for _, s := range d.Sessions {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td>"+
			"<td>%s</td><td>%d</td><td>%d</td><td>%d</td></tr>\n",
			esc(s.Endpoint), esc(s.Dir), s.InFlight, s.QueueDepth, s.BytesSent, s.BytesRecv,
			esc(s.Hello), s.SendWindow, s.QueuedBytes, s.Stalls)
	}
	fmt.Fprint(w, "</table>\n")

	if o.Metrics != nil {
		if snaps := o.Metrics.Methods.Snapshot(); len(snaps) != 0 {
			fmt.Fprintf(w, "<h2>per-method calls (%d methods)</h2>\n", len(snaps))
			fmt.Fprint(w, "<table><tr><th>method</th><th>calls</th><th>errors</th>"+
				"<th>cancelled</th><th>deadline</th><th>p50</th><th>p95</th><th>p99</th></tr>\n")
			for _, s := range snaps {
				fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td>"+
					"<td>%v</td><td>%v</td><td>%v</td></tr>\n",
					esc(s.Method), s.Calls, s.Errors, s.Cancelled, s.DeadlineExceeded,
					s.Latency.Quantile(0.5).Round(time.Microsecond),
					s.Latency.Quantile(0.95).Round(time.Microsecond),
					s.Latency.Quantile(0.99).Round(time.Microsecond))
			}
			fmt.Fprint(w, "</table>\n")
		}
	}

	for _, s := range o.debugSections() {
		fmt.Fprintf(w, "<h2>%s</h2>\n<pre>%s</pre>\n", esc(s.Name), esc(s.Body))
	}

	if r := o.ring(); r != nil {
		events := r.Events()
		fmt.Fprintf(w, "<h2>recent events (%d buffered, %d total)</h2>\n<pre>", len(events), r.Total())
		for _, e := range events {
			fmt.Fprintf(w, "%s %s\n", e.Time.Format("15:04:05.000000"), esc(e.String()))
		}
		fmt.Fprint(w, "</pre>\n")
	}

	if o.Metrics != nil {
		fmt.Fprintf(w, "<h2>metrics digest</h2>\n<pre>%s</pre>\n", esc(o.Metrics.Registry().Summary()))
	}
	fmt.Fprint(w, "</body></html>\n")
}

func esc(s string) string { return html.EscapeString(s) }
