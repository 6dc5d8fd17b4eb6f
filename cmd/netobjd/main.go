// Netobjd is the network objects agent daemon: it runs a space that
// serves a name directory at the well-known agent index, through which
// other processes publish and import objects by name — the bootstrap of
// the system, as in the original design of one agent per machine.
//
// Usage:
//
//	netobjd [-listen tcp:127.0.0.1:7707] [-http 127.0.0.1:7708]
//	        [-trace-out trace.jsonl] [-v]
//
// The daemon prints its endpoints on startup; pass one to naming.Lookup /
// naming.Bind from other processes. With -http it also serves the
// observability endpoint: /metrics (Prometheus text) and /debug/netobj
// (live export/import tables, dirty sets, pool occupancy, recent trace
// events). With -trace-out the buffered trace events are written to the
// given file as JSON lines on shutdown (the live equivalent is
// /debug/netobj/trace.jsonl). The agent is not replicated: restarting
// the daemon empties the directory, and owners bind their objects again.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netobjects"
	"netobjects/internal/naming"
)

func main() {
	listen := flag.String("listen", "tcp:127.0.0.1:7707", "endpoint to listen on")
	httpAddr := flag.String("http", "", "address for the /metrics and /debug/netobj endpoint (disabled when empty)")
	traceOut := flag.String("trace-out", "", "write buffered trace events to this file as JSON lines on shutdown")
	verbose := flag.Bool("v", false, "log runtime events")
	flag.Parse()

	var logger *slog.Logger
	if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}
	opts := netobjects.Options{
		Name:            "netobjd",
		ListenEndpoints: []string{*listen},
		Logger:          logger,
	}
	var ring *netobjects.RingTracer
	if *httpAddr != "" || *traceOut != "" {
		// The debug page and the trace dump show recent events only when
		// a ring tracer is installed; otherwise call paths stay untraced.
		ring = netobjects.NewRingTracer(256)
		opts.Tracer = ring
	}
	sp, err := netobjects.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netobjd:", err)
		os.Exit(1)
	}
	agent, err := naming.Serve(sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netobjd:", err)
		os.Exit(1)
	}
	eps := sp.Endpoints()
	if len(eps) == 0 {
		fmt.Fprintln(os.Stderr, "netobjd: no listening endpoints")
		os.Exit(1)
	}
	fmt.Printf("netobjd: serving agent at %s (space %v)\n", strings.Join(eps, ", "), sp.ID())

	if *httpAddr != "" {
		o := sp.Observability()
		o.SetDebugSection("agent", func() string {
			names, err := agent.List()
			if err != nil {
				return fmt.Sprintf("%d names bound", agent.Len())
			}
			return fmt.Sprintf("%d names bound: %s", len(names), strings.Join(names, ", "))
		})
		srv := &http.Server{Addr: *httpAddr, Handler: o.Handler(), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			fmt.Printf("netobjd: telemetry at http://%s/debug/netobj\n", *httpAddr)
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "netobjd: http:", err)
			}
		}()
		defer srv.Close()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("netobjd: shutting down")
	_ = sp.Close()

	if *traceOut != "" && ring != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "netobjd: trace-out:", err)
			os.Exit(1)
		}
		err = ring.WriteJSONL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "netobjd: trace-out:", err)
			os.Exit(1)
		}
		fmt.Printf("netobjd: trace written to %s\n", *traceOut)
	}
}
