package obs

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// Metrics is the fixed set of runtime metrics every space maintains. The
// hot path touches these directly as struct fields — no map lookups, no
// label hashing — while the embedded Registry carries the names the HTTP
// exporter renders. A Metrics handle may be shared by several spaces
// (counters then aggregate), or left per-space, the default.
type Metrics struct {
	reg *Registry

	// Remote invocation, client side.
	CallsSent             *Counter
	CallErrors            *Counter
	CallsCancelled        *Counter
	CallsDeadlineExceeded *Counter
	CancelsSent           *Counter
	CallLatency           *Histogram

	// Remote invocation, server side.
	CallsServed   *Counter
	CancelsServed *Counter
	ServeLatency  *Histogram

	// Per-method serve-side metrics (latency and outcome by method name).
	Methods *MethodMetrics

	// Collector RPC retry layer.
	RPCRetries *Counter

	// Collector protocol traffic.
	DirtySent        *Counter
	DirtyServed      *Counter
	DirtyLatency     *Histogram
	CleanSent        *Counter
	CleanServed      *Counter
	CleanBatches     *Counter
	CleanRetries     *Counter
	CleansAbandoned  *Counter
	CleanLatency     *Histogram
	PingsSent        *Counter
	PingsServed      *Counter
	PingFailures     *Counter
	PingsSubsumed    *Counter
	ResultAcksSent   *Counter
	ResultAcksWaited *Counter
	StaleRejected    *Counter

	// Reference life cycle.
	SurrogatesMade     *Counter
	SurrogatesReleased *Counter
	AutoReleases       *Counter
	Withdrawn          *Counter
	ClientsDropped     *Counter

	// Transport: session cache and wire volume.
	PoolHits     *Counter
	PoolMisses   *Counter
	PoolReaps    *Counter
	PoolDialLate *Counter
	DialLatency  *Histogram
	BytesSent    *Counter
	BytesRecv    *Counter

	// Promise pipelining, one-way calls and batching (internal/promise).
	PipelineCalls     *Counter
	PipelineResolved  *Counter
	PipelineBroken    *Counter
	PipelineChained   *Counter
	PipelineFallbacks *Counter // retained for bench; removed with core.fallbacks by a benchmark issue
	OneWaysSent       *Counter
	OneWaysServed     *Counter

	// Session flow control and keepalives (internal/flow).
	FlowChunksSent        *Counter
	FlowWindowUpdatesSent *Counter
	FlowWindowUpdatesRecv *Counter
	FlowWriterStalls      *Counter
	FlowFallbacks         *Counter // retained for bench; removed with core.fallbacks by a benchmark issue
	SessionHelloRejected  *Counter
	KeepalivePingsSent    *Counter
	KeepalivePongsRecv    *Counter
	KeepaliveFailures     *Counter

	// Bulk data plane (internal/distarray).
	DistPartitions    *Counter
	DistAllocBytes    *Counter
	DistFetchBytes    *Counter
	DistPutBytes      *Counter
	DistShuffleRanges *Counter
	DistShuffleBytes  *Counter
	DistPhases        *Counter
}

// NewMetrics returns a fresh metrics set with every metric registered
// under its canonical netobj_* name. It costs one allocation: the metrics
// live in one block with the set itself, and the registry makes its
// entries for them when something first renders it.
func NewMetrics() *Metrics {
	builtinOnce.Do(recordBuiltins)
	s := new(metricsStore)
	s.build(nil)
	return &s.m
}

// metricsStore is a Metrics set together with everything it points to.
// The arrays hold exactly the counters and histograms build
// registers; one registered without growing them panics at the first
// NewMetrics.
type metricsStore struct {
	m        Metrics
	reg      Registry
	methods  MethodMetrics
	counters [56]Counter
	hists    [5]Histogram
}

// builtinDefs names the metrics of every Metrics set, in registration
// order; recordBuiltins writes it down once per process.
var (
	builtinOnce sync.Once
	builtinDefs []metricDef
)

// metricDef is one metric of a Metrics set: its kind, name and help, and
// its place among the store's metrics of that kind.
type metricDef struct {
	kind       metricKind
	name, help string
	index      int
}

func recordBuiltins() { new(metricsStore).build(&builtinDefs) }

// build points the set's fields at the store's metrics in registration
// order, writing the order down in defs when it is not nil.
func (s *metricsStore) build(defs *[]metricDef) {
	r := &storeBuilder{s: s, defs: defs}
	s.reg.lazy = s
	s.m = Metrics{
		reg: &s.reg,

		CallsSent:             r.Counter("netobj_calls_sent_total", "Remote invocations issued by this space."),
		CallErrors:            r.Counter("netobj_call_errors_total", "Remote invocations that failed at the runtime level."),
		CallsCancelled:        r.Counter("netobj_calls_cancelled_total", "Remote invocations abandoned because the caller's context was cancelled."),
		CallsDeadlineExceeded: r.Counter("netobj_calls_deadline_exceeded_total", "Remote invocations abandoned because the caller's deadline expired."),
		CancelsSent:           r.Counter("netobj_cancels_sent_total", "CancelCall alerts forwarded to owners."),
		CallLatency:           r.Histogram("netobj_call_latency_seconds", "Client-side remote invocation round-trip latency."),

		CallsServed:   r.Counter("netobj_calls_served_total", "Remote invocations dispatched by this space."),
		CancelsServed: r.Counter("netobj_cancels_served_total", "CancelCall alerts received for calls being served."),
		ServeLatency:  r.Histogram("netobj_serve_latency_seconds", "Server-side dispatch latency (decode, invoke, encode)."),

		Methods: &s.methods,

		RPCRetries: r.Counter("netobj_rpc_retries_total", "Idempotent collector RPC attempts beyond the first."),

		DirtySent:        r.Counter("netobj_dirty_sent_total", "Dirty calls sent (surrogate registrations)."),
		DirtyServed:      r.Counter("netobj_dirty_served_total", "Dirty calls served (clients joining dirty sets)."),
		DirtyLatency:     r.Histogram("netobj_dirty_latency_seconds", "Dirty call round-trip latency."),
		CleanSent:        r.Counter("netobj_clean_sent_total", "Clean calls sent (surrogate releases)."),
		CleanServed:      r.Counter("netobj_clean_served_total", "Clean calls served (clients leaving dirty sets)."),
		CleanBatches:     r.Counter("netobj_clean_batches_total", "Batched clean exchanges sent."),
		CleanRetries:     r.Counter("netobj_clean_retries_total", "Clean delivery attempts beyond the first."),
		CleansAbandoned:  r.Counter("netobj_cleans_abandoned_total", "Clean calls abandoned after exhausting retries."),
		CleanLatency:     r.Histogram("netobj_clean_latency_seconds", "Clean call round-trip latency."),
		PingsSent:        r.Counter("netobj_pings_sent_total", "Client-liveness pings sent by this owner."),
		PingsServed:      r.Counter("netobj_pings_served_total", "Liveness pings answered by this space."),
		PingFailures:     r.Counter("netobj_ping_failures_total", "Ping probes that failed (one per client per round)."),
		PingsSubsumed:    r.Counter("netobj_pings_subsumed_total", "Ping probes skipped because a healthy identified session already proved the client alive."),
		ResultAcksSent:   r.Counter("netobj_result_acks_sent_total", "Result acknowledgements sent for reference-bearing replies."),
		ResultAcksWaited: r.Counter("netobj_result_acks_waited_total", "Reference-bearing replies this space held pinned awaiting an ack."),
		StaleRejected:    r.Counter("netobj_stale_rejected_total", "Collector messages addressed to a previous space incarnation at a reused endpoint, refused."),

		SurrogatesMade:     r.Counter("netobj_surrogates_made_total", "Surrogates created (first import of a reference)."),
		SurrogatesReleased: r.Counter("netobj_surrogates_released_total", "Surrogates explicitly released."),
		AutoReleases:       r.Counter("netobj_auto_releases_total", "Surrogates released by the weak-reference cleanup."),
		Withdrawn:          r.Counter("netobj_withdrawn_total", "Exported objects withdrawn after their dirty set emptied."),
		ClientsDropped:     r.Counter("netobj_clients_dropped_total", "Clients dropped by the liveness daemon."),

		PoolHits:     r.Counter("netobj_pool_hits_total", "Calls served from a cached live session."),
		PoolMisses:   r.Counter("netobj_pool_misses_total", "Calls that had to dial and establish a new session."),
		PoolReaps:    r.Counter("netobj_pool_reaps_total", "Cached sessions discarded because the peer was found reset."),
		PoolDialLate: r.Counter("netobj_pool_dial_late_total", "Dials that succeeded only after the caller's context expired; the connection is discarded, not counted as a miss."),
		DialLatency:  r.Histogram("netobj_dial_latency_seconds", "Connection establishment latency."),
		BytesSent:    r.Counter("netobj_bytes_sent_total", "Wire payload bytes sent."),
		BytesRecv:    r.Counter("netobj_bytes_recv_total", "Wire payload bytes received."),

		PipelineCalls:     r.Counter("netobj_pipeline_calls_total", "Pipelined calls issued by this space."),
		PipelineResolved:  r.Counter("netobj_pipeline_resolved_total", "Promises resolved successfully."),
		PipelineBroken:    r.Counter("netobj_pipeline_broken_total", "Promises broken: a dependency failed or the session died."),
		PipelineChained:   r.Counter("netobj_pipeline_chained_total", "Pipelined calls served whose receiver or arguments were unresolved promises."),
		PipelineFallbacks: r.Counter("netobj_pipeline_fallbacks_total", "Calls chained on a promise that has no session (an owner-local receiver or a failed promise): resolved, then called."),
		OneWaysSent:       r.Counter("netobj_oneway_sent_total", "One-way calls issued by this space."),
		OneWaysServed:     r.Counter("netobj_oneway_served_total", "One-way calls executed by this space."),

		FlowChunksSent:        r.Counter("netobj_flow_chunks_sent_total", "Data chunks sent by flow-enabled session writers."),
		FlowWindowUpdatesSent: r.Counter("netobj_flow_window_updates_sent_total", "Flow-control credit grants sent to peers."),
		FlowWindowUpdatesRecv: r.Counter("netobj_flow_window_updates_recv_total", "Flow-control credit grants received from peers."),
		FlowWriterStalls:      r.Counter("netobj_flow_writer_stalls_total", "Times a session writer had data queued but no credit to send it."),
		FlowFallbacks:         r.Counter("netobj_flow_fallbacks_total", "Never incremented: the unchunked fallback is gone. Retained for bench."),
		SessionHelloRejected:  r.Counter("netobj_session_hello_rejected_total", "Sessions failed because the peer's first frame was not a hello of our protocol version."),
		KeepalivePingsSent:    r.Counter("netobj_keepalive_pings_sent_total", "Session keepalive probes sent."),
		KeepalivePongsRecv:    r.Counter("netobj_keepalive_pongs_recv_total", "Session keepalive probe answers received."),
		KeepaliveFailures:     r.Counter("netobj_keepalive_failures_total", "Sessions failed because the peer went silent past the keepalive allowance."),

		DistPartitions:    r.Counter("netobj_distarray_partitions_total", "Distributed-array partitions allocated by this space's stores."),
		DistAllocBytes:    r.Counter("netobj_distarray_alloc_bytes_total", "Backing bytes allocated for distributed-array partitions."),
		DistFetchBytes:    r.Counter("netobj_distarray_fetch_bytes_total", "Partition payload bytes served by Fetch."),
		DistPutBytes:      r.Counter("netobj_distarray_put_bytes_total", "Partition payload bytes written by Put."),
		DistShuffleRanges: r.Counter("netobj_distarray_shuffle_ranges_total", "Contiguous ranges pulled from peer staging partitions during shuffles."),
		DistShuffleBytes:  r.Counter("netobj_distarray_shuffle_bytes_total", "Bytes pulled worker-to-worker during shuffles."),
		DistPhases:        r.Counter("netobj_distarray_phases_total", "Bulk-synchronous phases completed by drivers using this metrics set."),
	}
}

// storeBuilder hands out a store's metrics in registration order.
type storeBuilder struct {
	s      *metricsStore
	defs   *[]metricDef
	nc, nh int
}

func (b *storeBuilder) def(kind metricKind, name, help string, index int) {
	if b.defs != nil {
		*b.defs = append(*b.defs, metricDef{kind: kind, name: name, help: help, index: index})
	}
}

func (b *storeBuilder) Counter(name, help string) *Counter {
	b.def(kindCounter, name, help, b.nc)
	b.nc++
	return &b.s.counters[b.nc-1]
}

func (b *storeBuilder) Histogram(name, help string) *Histogram {
	b.def(kindHistogram, name, help, b.nh)
	b.nh++
	return &b.s.hists[b.nh-1]
}

// entries makes the registry entries for the store's metrics.
func (s *metricsStore) entries() []*metricEntry {
	es := make([]metricEntry, len(builtinDefs))
	out := make([]*metricEntry, len(builtinDefs))
	for i, d := range builtinDefs {
		e := &es[i]
		e.name, e.help, e.kind = d.name, d.help, d.kind
		switch d.kind {
		case kindCounter:
			e.counter = &s.counters[d.index]
		case kindHistogram:
			e.hist = &s.hists[d.index]
		}
		out[i] = e
	}
	return out
}

// Registry exposes the registry carrying this metrics set, for rendering
// and for registering additional scrape-time gauges (table sizes).
func (m *Metrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// callIDs allocates process-wide call correlation ids. The counter starts
// at a random point so ids from different processes are unlikely to
// collide — they key cancellation at the owner, which may be serving many
// client spaces at once.
var callIDs atomic.Uint64

func init() { callIDs.Store(rand.Uint64()) }

// NextCallID returns a fresh nonzero id correlating the trace events (and
// a possible CancelCall) of one remote invocation.
func NextCallID() uint64 {
	for {
		if id := callIDs.Add(1); id != 0 {
			return id
		}
	}
}
