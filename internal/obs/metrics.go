// Package obs is the observability layer of the network objects runtime:
// a low-overhead metrics core (atomic counters, gauges and log-bucketed
// latency histograms), a pluggable call/collector trace hook (Tracer), and
// an HTTP exporter serving Prometheus text metrics and a live debug dump
// of a space's object tables.
//
// The design constraint is that the hot path — a remote invocation —
// must cost only a handful of uncontended atomic operations when no
// tracer is installed. Counters and histograms are therefore plain
// atomics with no labels and no allocation per observation; naming and
// rendering happen only at scrape time through the Registry. Tracing is
// strictly opt-in: a nil Tracer costs one predicted branch per event
// site.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; methods are safe on a nil receiver (no-ops), so optional
// instrumentation needs no guards.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use;
// methods are safe on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of a Histogram: bucket i holds
// observations whose nanosecond value has bit length i, i.e. durations in
// [2^(i-1), 2^i) ns. 64 buckets cover every possible time.Duration.
const histBuckets = 64

// Histogram is a log-bucketed latency histogram: Observe costs two atomic
// adds and one atomic increment, with no allocation and no lock. Bucket
// boundaries are successive powers of two nanoseconds, giving ≤ 2×
// resolution error on quantiles — plenty for latency telemetry. The zero
// value is ready to use; methods are safe on a nil receiver.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // total nanoseconds
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations count in the lowest
// bucket.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// HistogramSnapshot is a consistent-enough copy of a Histogram for
// rendering: buckets are loaded one by one, so a snapshot taken during
// concurrent observation may be off by in-flight observations, which is
// acceptable for telemetry.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count uint64
	// Sum is the total of all observed durations.
	Sum time.Duration
	// Buckets[i] counts observations with nanosecond bit length i
	// (durations in [2^(i-1), 2^i) ns).
	Buckets [histBuckets]uint64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// bucketBounds returns the [lo, hi) nanosecond range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 1
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, math.MaxInt64
	}
	return lo, int64(1) << i
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear
// interpolation within the log bucket the target observation falls in.
// It returns 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	cum := uint64(0)
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= target {
			lo, hi := bucketBounds(i)
			frac := (target - float64(cum)) / float64(n)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += n
	}
	// All buckets consumed (rounding): the maximum bucket's upper bound.
	for i := histBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			_, hi := bucketBounds(i)
			return time.Duration(hi)
		}
	}
	return 0
}

// Mean returns the average observed duration, or 0 when empty.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// metricEntry is one named metric in a Registry.
type metricEntry struct {
	name string
	help string
	kind metricKind

	counter   *Counter
	gauge     *Gauge
	gaugeFunc func() int64
	hist      *Histogram
}

// Registry names metrics for rendering. Registration happens at space
// construction, never on the hot path; rendering walks the entries in
// registration order. Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	entries []*metricEntry
	// lazy is the Metrics set this registry belongs to until its first
	// rendering, which makes the set's entries, ahead of every entry added
	// since.
	lazy *metricsStore
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter registers and returns a named counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&metricEntry{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(&metricEntry{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// GaugeFunc registers a gauge computed at scrape time — live table sizes
// and pool occupancy are sampled this way rather than maintained on the
// hot path. Multiple functions registered under one name are summed,
// so a Metrics handle shared by several spaces aggregates naturally.
func (r *Registry) GaugeFunc(name, help string, f func() int64) {
	r.add(&metricEntry{name: name, help: help, kind: kindGaugeFunc, gaugeFunc: f})
}

// Histogram registers and returns a named latency histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.add(&metricEntry{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

func (r *Registry) add(e *metricEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, e)
}

// snapshot returns the entry list; entries themselves are immutable after
// registration (the values inside are atomics).
func (r *Registry) snapshot() []*metricEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lazy != nil {
		r.entries = append(r.lazy.entries(), r.entries...)
		r.lazy = nil
	}
	return append([]*metricEntry(nil), r.entries...)
}

// exportBucketBits lists the upper bounds rendered as explicit
// Prometheus buckets, as nanosecond bit positions: bound k is 2^k ns.
// Powers of four from ~1µs to ~17s keep the series compact (13 buckets
// plus +Inf) while aligning exactly with the internal log2 buckets, so
// the cumulative counts are exact (up to the usual open/closed boundary
// hair: an observation of exactly 2^k ns lands above the 2^k bound).
var exportBucketBits = []int{10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34}

// writeHistogram renders one histogram series in the native Prometheus
// histogram exposition: cumulative _bucket lines with explicit le bounds
// in seconds, then _sum and _count. labels, when non-empty, is a
// rendered label pair list ("method=\"Incr\"") spliced before le.
func writeHistogram(w io.Writer, name, labels string, s HistogramSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := uint64(0)
	idx := 0
	for _, k := range exportBucketBits {
		// Internal bucket i holds durations in [2^(i-1), 2^i) ns, so
		// everything below the 2^k bound sits in buckets 0..k.
		for idx <= k && idx < histBuckets {
			cum += s.Buckets[idx]
			idx++
		}
		le := float64(uint64(1)<<uint(k)) / 1e9
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, trimFloat(le), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.Count)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, s.Sum.Seconds(), name, s.Count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, s.Sum.Seconds(), name, labels, s.Count)
	}
}

// trimFloat renders a bucket bound without trailing zero noise.
func trimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format. Counters and gauges render as their families;
// histograms render as native Prometheus histograms with explicit
// buckets (_bucket lines with le bounds in seconds, plus _sum and
// _count), which Prometheus can aggregate across instances and feed to
// histogram_quantile.
func (r *Registry) WritePrometheus(w io.Writer) {
	entries := r.snapshot()
	// Gauge functions registered under one name sum (shared handles).
	funcTotals := make(map[string]int64)
	funcSeen := make(map[string]bool)
	for _, e := range entries {
		if e.kind == kindGaugeFunc {
			funcTotals[e.name] += e.gaugeFunc()
		}
	}
	for _, e := range entries {
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
				e.name, e.help, e.name, e.name, e.counter.Load())
		case kindGauge:
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
				e.name, e.help, e.name, e.name, e.gauge.Load())
		case kindGaugeFunc:
			if funcSeen[e.name] {
				continue
			}
			funcSeen[e.name] = true
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
				e.name, e.help, e.name, e.name, funcTotals[e.name])
		case kindHistogram:
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", e.name, e.help, e.name)
			writeHistogram(w, e.name, "", e.hist.Snapshot())
		}
	}
}

// Summary renders a compact human-readable digest of the registry —
// nonzero counters and nonempty histograms with their quantiles — for
// benchmark harnesses and the debug page.
func (r *Registry) Summary() string {
	entries := r.snapshot()
	var b strings.Builder
	var names []string
	lines := make(map[string]string)
	for _, e := range entries {
		switch e.kind {
		case kindCounter:
			if v := e.counter.Load(); v != 0 {
				lines[e.name] = fmt.Sprintf("%-34s %d", e.name, v)
				names = append(names, e.name)
			}
		case kindHistogram:
			s := e.hist.Snapshot()
			if s.Count != 0 {
				lines[e.name] = fmt.Sprintf("%-34s n=%d p50=%v p95=%v p99=%v",
					e.name, s.Count,
					s.Quantile(0.5).Round(time.Microsecond),
					s.Quantile(0.95).Round(time.Microsecond),
					s.Quantile(0.99).Round(time.Microsecond))
				names = append(names, e.name)
			}
		}
	}
	sort.Strings(names)
	for _, n := range names {
		b.WriteString(lines[n])
		b.WriteByte('\n')
	}
	return b.String()
}
