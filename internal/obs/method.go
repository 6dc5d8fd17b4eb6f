package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// MethodStat is the serve-side metric bundle for one method name. Calls
// counts every dispatch; Cancelled and DeadlineExceeded count dispatches
// whose context was alerted or expired before completion; Errors counts
// every other non-OK outcome (application errors, marshaling failures,
// missing objects). Latency observes dispatch time regardless of outcome.
type MethodStat struct {
	Calls            Counter
	Errors           Counter
	Cancelled        Counter
	DeadlineExceeded Counter
	Latency          Histogram
}

// discardStat absorbs observations when metrics are disabled.
var discardStat = &MethodStat{}

// MethodMetrics keys MethodStats by method name. Unlike the fixed metric
// set, method names are open-ended, so the lookup goes through a map — a
// read-locked fast path once a method has been seen, made when the first
// one is. The zero value is ready to use; nil receivers degrade to no-ops
// like the rest of the package.
type MethodMetrics struct {
	mu sync.RWMutex
	m  map[string]*MethodStat
}

// Get returns (creating on first use) the stat bundle for method.
func (mm *MethodMetrics) Get(method string) *MethodStat {
	if mm == nil {
		return discardStat
	}
	mm.mu.RLock()
	s, ok := mm.m[method]
	mm.mu.RUnlock()
	if ok {
		return s
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if s, ok = mm.m[method]; ok {
		return s
	}
	if mm.m == nil {
		mm.m = make(map[string]*MethodStat)
	}
	s = &MethodStat{}
	mm.m[method] = s
	return s
}

// MethodSnapshot is one method's metrics at a point in time.
type MethodSnapshot struct {
	Method           string
	Calls            uint64
	Errors           uint64
	Cancelled        uint64
	DeadlineExceeded uint64
	Latency          HistogramSnapshot
}

// Snapshot copies every method's metrics, sorted by method name.
func (mm *MethodMetrics) Snapshot() []MethodSnapshot {
	if mm == nil {
		return nil
	}
	mm.mu.RLock()
	stats := make(map[string]*MethodStat, len(mm.m))
	for k, v := range mm.m {
		stats[k] = v
	}
	mm.mu.RUnlock()
	out := make([]MethodSnapshot, 0, len(stats))
	for name, s := range stats {
		out = append(out, MethodSnapshot{
			Method:           name,
			Calls:            s.Calls.Load(),
			Errors:           s.Errors.Load(),
			Cancelled:        s.Cancelled.Load(),
			DeadlineExceeded: s.DeadlineExceeded.Load(),
			Latency:          s.Latency.Snapshot(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Method < out[j].Method })
	return out
}

// WritePrometheus renders the per-method metrics as labeled families in
// the Prometheus text exposition format, one series per method name.
func (mm *MethodMetrics) WritePrometheus(w io.Writer) {
	snaps := mm.Snapshot()
	if len(snaps) == 0 {
		return
	}
	writeFamily := func(name, help string, v func(MethodSnapshot) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, s := range snaps {
			fmt.Fprintf(w, "%s{method=%q} %d\n", name, s.Method, v(s))
		}
	}
	writeFamily("netobj_method_calls_total", "Dispatches served, by method name.",
		func(s MethodSnapshot) uint64 { return s.Calls })
	writeFamily("netobj_method_errors_total", "Non-OK dispatches other than cancellations and deadline expiries, by method name.",
		func(s MethodSnapshot) uint64 { return s.Errors })
	writeFamily("netobj_method_cancelled_total", "Dispatches cancelled by the caller's alert, by method name.",
		func(s MethodSnapshot) uint64 { return s.Cancelled })
	writeFamily("netobj_method_deadline_exceeded_total", "Dispatches whose deadline expired at the owner, by method name.",
		func(s MethodSnapshot) uint64 { return s.DeadlineExceeded })
	name := "netobj_method_latency_seconds"
	fmt.Fprintf(w, "# HELP %s Server-side dispatch latency, by method name.\n# TYPE %s histogram\n", name, name)
	for _, s := range snaps {
		writeHistogram(w, name, fmt.Sprintf("method=%q", s.Method), s.Latency)
	}
}

// ObserveLatency is a convenience for recording one dispatch.
func (s *MethodStat) ObserveLatency(d time.Duration) {
	if s != nil {
		s.Latency.Observe(d)
	}
}
