// Package core implements the network objects runtime: spaces, exported
// concrete objects, surrogates, remote invocation, and the distributed
// reference-listing garbage collector that ties them together.
//
// A Space is one participant in the distributed system — the paper's
// "program instance". It owns an export table for the concrete objects it
// has made remote, an import table for the surrogates it holds, listeners
// on one or more transports, and the collector daemons. References cross
// the network as wireReps inside pickles; the pickler calls back into the
// space (through the pickle.NetRefs hook) to export concrete objects on
// the way out and to create or reuse surrogates on the way in, including
// the blocking dirty call that registers a new surrogate with its owner.
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"reflect"
	"sync"
	"time"

	"netobjects/internal/dgc"
	"netobjects/internal/flow"
	"netobjects/internal/objtable"
	"netobjects/internal/obs"
	"netobjects/internal/pickle"
	"netobjects/internal/promise"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// Runtime errors surfaced to callers. Protocol-level failures reported by
// the peer are wrapped in *CallError; use errors.Is with these sentinels.
var (
	// ErrSpaceClosed reports use of a closed space.
	ErrSpaceClosed = errors.New("netobjects: space is closed")
	// ErrNoSuchObject reports a call or dirty call against an object the
	// owner has withdrawn (or never exported).
	ErrNoSuchObject = errors.New("netobjects: no such object at owner")
	// ErrNoSuchMethod reports an unknown or uncallable method name.
	ErrNoSuchMethod = errors.New("netobjects: no such method")
	// ErrBadFingerprint reports a stub whose type fingerprint does not
	// match the concrete object's.
	ErrBadFingerprint = errors.New("netobjects: stub fingerprint mismatch")
	// ErrNoStub reports unmarshaling a reference into an interface type
	// with no registered stub factory.
	ErrNoStub = errors.New("netobjects: no stub registered for interface")
	// ErrForeignRef reports marshaling a Ref that belongs to a different
	// space in the same process.
	ErrForeignRef = errors.New("netobjects: reference belongs to another space")
)

// Options configures a Space. The zero value is usable: it listens on an
// ephemeral loopback TCP port with default timeouts.
type Options struct {
	// Name labels the space in logs; defaults to the space id.
	Name string
	// Transports are the protocols the space speaks; defaults to TCP.
	Transports []transport.Transport
	// ListenEndpoints are the endpoints to listen on ("tcp:host:port",
	// "inmem:name"). By default the space listens once per transport on a
	// transport-chosen address.
	ListenEndpoints []string
	// Registry resolves pickled type names; defaults to the package-level
	// pickle.DefaultRegistry.
	Registry *pickle.Registry
	// CallTimeout bounds one remote exchange (default 30s). For method
	// calls it is the default budget when the caller's context carries no
	// deadline; a tighter context deadline wins. It also caps how long this
	// space lets one inbound dispatch run, whatever deadline the caller
	// proposed — the "no trust in remote deadlines" bound.
	CallTimeout time.Duration
	// DrainTimeout bounds the graceful phase of Close: how long in-flight
	// dispatches may keep running before they are cancelled (default 5s).
	DrainTimeout time.Duration
	// RetryAttempts bounds delivery attempts for one idempotent collector
	// RPC (dirty, clean, ping; default 3). Method calls are never
	// retried — the runtime cannot know they are idempotent.
	RetryAttempts int
	// RetryBackoff is the initial delay between collector RPC attempts
	// (default 10ms); it doubles per attempt with ±50% jitter.
	RetryBackoff time.Duration
	// PingInterval is the owner's client-liveness probe period
	// (default 15s).
	PingInterval time.Duration
	// PingTimeout bounds one ping exchange and one forwarded CancelCall
	// (default 3s).
	PingTimeout time.Duration
	// PingMaxFailures is how many consecutive failed pings a client
	// survives before its dirty entries are dropped (default 3).
	PingMaxFailures int
	// CleanMaxAttempts bounds delivery attempts for one clean call
	// (default 8).
	CleanMaxAttempts int
	// CleanBackoff is the initial clean-call retry delay (default 10ms).
	CleanBackoff time.Duration
	// TableShards sets the stripe count of the export and import tables
	// (rounded up to a power of two; 0 selects the default, 1 yields
	// unsharded single-mutex tables for A/B comparison). At millions of
	// live objects under many concurrent callers, more shards mean less
	// lock contention on the call fast path.
	TableShards int
	// KeepaliveInterval paces session keepalive probes on mux links; a
	// peer silent for two intervals fails the session. Zero selects the
	// default (10s); negative disables keepalives. A healthy session whose
	// keepalives are confirming a peer that identified itself as space X
	// proves X alive, so the owner's pinger skips probing X — collector
	// control traffic approaches zero between peers that are already
	// talking. Disabling keepalives on every space forces explicit pings
	// everywhere.
	KeepaliveInterval time.Duration
	// AutoRelease holds surrogates weakly and schedules their clean calls
	// when the application lets go of them — the paper's weak-reference
	// design. Without it, surrogates live until Release is called
	// explicitly or the space closes.
	AutoRelease bool
	// Metrics, when non-nil, is the metrics set the space records into; a
	// shared set aggregates across spaces. By default each space gets its
	// own.
	Metrics *obs.Metrics
	// Tracer, when non-nil, receives structured lifecycle events for every
	// remote call, collector message, surrogate transition and pool action.
	// Tracing is strictly opt-in: with a nil Tracer the event sites cost
	// one branch.
	Tracer obs.Tracer
	// Logger receives runtime events; nil discards them.
	Logger *slog.Logger
}

// Space is one participant in the network objects system.
type Space struct {
	id      wire.SpaceID
	opts    Options
	log     *slog.Logger
	treg    *transport.Registry
	pool    *transport.Pool
	pickler *pickle.Pickler
	exports *objtable.Exports
	imports *objtable.Imports
	cleaner *dgc.Cleaner
	pinger  *dgc.Pinger

	listeners []transport.Listener
	endpoints []string

	metrics *obs.Metrics
	tracer  obs.Tracer
	obsv    *obs.Observability

	// serveCtx parents every inbound dispatch; serveCancel alerts them
	// all when drain times out or the space aborts.
	serveCtx    context.Context
	serveCancel context.CancelFunc
	inflight    *inflightTable

	mu        sync.Mutex
	ownedRefs map[any]*Ref
	remote    map[string]*remoteIface // by interface type name
	// fingerprints caches fingerprintsFor by concrete type; made on first
	// use, dropped by RegisterRemoteInterface.
	fingerprints map[reflect.Type][]uint64
	// muxServers tracks the inbound multiplexed sessions being served,
	// for the per-link gauges and the debug page.
	muxServers map[*transport.Session]struct{}

	// pipeMu guards the per-session promise-pipelining state: pipeOut
	// holds each outbound session's outstanding-promise table (for the
	// break-promise path when the session dies), pipeIn each inbound
	// session's completion table and one-way lane.
	pipeMu  sync.Mutex
	pipeOut map[*transport.Session]*promise.Table
	pipeIn  map[*transport.Session]*pipeInbound
	closed  bool
	// closingCh closes when shutdown begins: the space stops accepting
	// work (exports, imports, new calls) but in-flight dispatches keep
	// running and parting cleans still flow.
	closingCh chan struct{}
	// closedCh closes when shutdown finishes draining: every remaining
	// connection is torn down.
	closedCh chan struct{}

	wg sync.WaitGroup
}

// Stats counts collector and call events; all fields are monotonically
// increasing. Snapshot with Space.Stats. It is assembled from the space's
// obs metrics, which carry the live counters.
type Stats struct {
	CallsSent             uint64
	CallsServed           uint64
	CallsCancelled        uint64
	CallsDeadlineExceeded uint64
	CancelsSent           uint64
	CancelsServed         uint64
	RPCRetries            uint64
	DirtySent             uint64
	DirtyServed           uint64
	CleanSent             uint64
	CleanBatches          uint64
	CleanServed           uint64
	PingsSent             uint64
	ResultAcksSent        uint64
	ResultAcksWaited      uint64
	SurrogatesMade        uint64
	AutoReleases          uint64
	Withdrawn             uint64
	ClientsDropped        uint64
}

// NewSpace creates and starts a space: listeners accept immediately and
// the collector daemons run until Close.
func NewSpace(opts Options) (*Space, error) {
	sp := &Space{
		id:         wire.NewSpaceID(),
		opts:       opts,
		ownedRefs:  make(map[any]*Ref),
		remote:     make(map[string]*remoteIface),
		muxServers: make(map[*transport.Session]struct{}),
		pipeOut:    make(map[*transport.Session]*promise.Table),
		pipeIn:     make(map[*transport.Session]*pipeInbound),
		closingCh:  make(chan struct{}),
		closedCh:   make(chan struct{}),
		inflight:   new(inflightTable),
	}
	sp.serveCtx, sp.serveCancel = context.WithCancel(context.Background())
	if sp.opts.CallTimeout <= 0 {
		sp.opts.CallTimeout = 30 * time.Second
	}
	if sp.opts.DrainTimeout <= 0 {
		sp.opts.DrainTimeout = 5 * time.Second
	}
	if sp.opts.RetryAttempts <= 0 {
		sp.opts.RetryAttempts = 3
	}
	if sp.opts.RetryBackoff <= 0 {
		sp.opts.RetryBackoff = 10 * time.Millisecond
	}
	if sp.opts.PingInterval <= 0 {
		sp.opts.PingInterval = 15 * time.Second
	}
	if sp.opts.PingTimeout <= 0 {
		sp.opts.PingTimeout = 3 * time.Second
	}
	if sp.opts.Name == "" {
		sp.opts.Name = sp.id.String()
	}
	sp.log = opts.Logger
	if sp.log == nil {
		sp.log = slog.New(slog.DiscardHandler)
	}
	sp.log = sp.log.With("space", sp.opts.Name)

	sp.metrics = opts.Metrics
	if sp.metrics == nil {
		sp.metrics = obs.NewMetrics()
	}
	sp.tracer = opts.Tracer

	ts := opts.Transports
	if len(ts) == 0 {
		ts = []transport.Transport{transport.NewTCP()}
	}
	sp.treg = transport.NewRegistry(ts...)
	sp.pool = transport.NewPool(sp.treg)
	sp.pool.SetObserver(sp.metrics, sp.tracer)
	sp.pool.SetFlow(sp.flowParams())
	sp.pool.SetLocalSpace(sp.id)

	listenEPs := opts.ListenEndpoints
	if len(listenEPs) == 0 {
		for _, t := range ts {
			listenEPs = append(listenEPs, wire.JoinEndpoint(t.Proto(), ""))
		}
	}
	for _, ep := range listenEPs {
		l, err := sp.treg.Listen(ep)
		if err != nil {
			sp.shutdownListeners()
			return nil, fmt.Errorf("netobjects: listen %q: %w", ep, err)
		}
		sp.listeners = append(sp.listeners, l)
		sp.endpoints = append(sp.endpoints, l.Endpoint())
	}

	sp.exports = objtable.NewExportsSharded(opts.TableShards)
	sp.exports.OnWithdraw = sp.onWithdraw
	sp.imports = objtable.NewImportsSharded(opts.TableShards)
	sp.pickler = pickle.New(opts.Registry, (*netRefs)(sp))

	// Scrape-time gauges over the live tables; duplicate names sum, so a
	// shared metrics set reports fleet-wide table sizes.
	reg := sp.metrics.Registry()
	reg.GaugeFunc("netobj_export_entries", "Live export table entries.",
		func() int64 { return int64(sp.exports.Len()) })
	reg.GaugeFunc("netobj_import_entries", "Live import table entries (surrogates).",
		func() int64 { return int64(sp.imports.Len()) })
	reg.GaugeFunc("netobj_inflight_calls", "Inbound dispatches currently running.",
		func() int64 { return int64(sp.inflight.len()) })
	reg.GaugeFunc("netobj_mux_sessions_out", "Live outbound multiplexed peer sessions (one per peer link).",
		func() int64 { return int64(sp.pool.SessionCount()) })
	reg.GaugeFunc("netobj_mux_sessions_in", "Live inbound multiplexed peer sessions being served.",
		func() int64 {
			sp.mu.Lock()
			defer sp.mu.Unlock()
			return int64(len(sp.muxServers))
		})
	reg.GaugeFunc("netobj_mux_streams", "Open streams (in-flight exchanges) across all multiplexed peer sessions.",
		func() int64 {
			var n int64
			for _, s := range sp.muxSessionsSnapshot() {
				n += int64(s.InFlight)
			}
			return n
		})
	reg.GaugeFunc("netobj_promises_pending", "Unresolved pipelined promises: outstanding client promises plus unresolved serve-side completions.",
		func() int64 { return int64(sp.pipePending()) })
	reg.GaugeFunc("netobj_exports_shard_contention", "Cumulative contended lock acquisitions on export table shards.",
		func() int64 { return int64(sp.exports.Contention()) })
	reg.GaugeFunc("netobj_imports_shard_contention", "Cumulative contended lock acquisitions on import table shards.",
		func() int64 { return int64(sp.imports.Contention()) })

	sp.obsv = &obs.Observability{
		Metrics: sp.metrics,
		Tracer:  sp.tracer,
		Debug:   sp.debugSnapshot,
	}

	sp.cleaner = dgc.NewCleaner(dgc.CleanerConfig{
		Begin:       sp.imports.BeginClean,
		SendBatch:   sp.sendCleans,
		Finish:      sp.imports.FinishClean,
		Redo:        sp.redoDirty,
		MaxAttempts: opts.CleanMaxAttempts,
		Backoff:     opts.CleanBackoff,
		Logger:      sp.log,
		Obs:         sp.metrics,
	})
	// A healthy identified mux session subsumes the explicit ping; without
	// keepalives no session counts as healthy.
	sp.pinger = dgc.NewPinger(dgc.PingerConfig{
		Interval:     sp.opts.PingInterval,
		MaxFailures:  opts.PingMaxFailures,
		Clients:      sp.exports.Clients,
		Ping:         sp.sendPing,
		Drop:         sp.dropClient,
		SessionAlive: sp.sessionAlive,
		Logger:       sp.log,
		Obs:          sp.metrics,
	})

	for _, l := range sp.listeners {
		sp.wg.Add(1)
		go sp.acceptLoop(l)
	}
	sp.log.Debug("space started", "endpoints", sp.endpoints)
	return sp, nil
}

// ID returns the space's identifier.
func (sp *Space) ID() wire.SpaceID { return sp.id }

// Endpoints returns the endpoints the space listens on.
func (sp *Space) Endpoints() []string { return append([]string(nil), sp.endpoints...) }

// Pickler exposes the space's pickler; the benchmark harness uses it to
// measure marshaling in isolation.
func (sp *Space) Pickler() *pickle.Pickler { return sp.pickler }

// Imports exposes the import table for tests, tracing and the gcdemo
// example (read-only use).
func (sp *Space) Imports() *objtable.Imports { return sp.imports }

// Exports exposes the export table for tests, tracing and the benchmark
// harness (read-only use).
func (sp *Space) Exports() *objtable.Exports { return sp.exports }

// Stats snapshots the space's event counters. The live counters are the
// space's obs metrics; Stats assembles the legacy view from them.
func (sp *Space) Stats() Stats {
	m := sp.metrics
	return Stats{
		CallsSent:             m.CallsSent.Load(),
		CallsServed:           m.CallsServed.Load(),
		CallsCancelled:        m.CallsCancelled.Load(),
		CallsDeadlineExceeded: m.CallsDeadlineExceeded.Load(),
		CancelsSent:           m.CancelsSent.Load(),
		CancelsServed:         m.CancelsServed.Load(),
		RPCRetries:            m.RPCRetries.Load(),
		DirtySent:             m.DirtySent.Load(),
		DirtyServed:           m.DirtyServed.Load(),
		CleanSent:             m.CleanSent.Load(),
		CleanBatches:          m.CleanBatches.Load(),
		CleanServed:           m.CleanServed.Load(),
		PingsSent:             m.PingsSent.Load(),
		ResultAcksSent:        m.ResultAcksSent.Load(),
		ResultAcksWaited:      m.ResultAcksWaited.Load(),
		SurrogatesMade:        m.SurrogatesMade.Load(),
		AutoReleases:          m.AutoReleases.Load(),
		Withdrawn:             m.Withdrawn.Load(),
		ClientsDropped:        m.ClientsDropped.Load(),
	}
}

// Metrics returns the space's live metrics set.
func (sp *Space) Metrics() *obs.Metrics { return sp.metrics }

// Observability bundles the space's metrics, tracer and live debug dump
// for the HTTP telemetry endpoint.
func (sp *Space) Observability() *obs.Observability { return sp.obsv }

// debugSnapshot assembles the live table dump for /debug/netobj.
func (sp *Space) debugSnapshot() obs.DebugData {
	return obs.DebugData{
		Name:      sp.opts.Name,
		ID:        sp.id.String(),
		Endpoints: sp.Endpoints(),
		Exports:   sp.exports.Snapshot(),
		Imports:   sp.imports.Snapshot(),
		Sessions:  sp.muxSessionsSnapshot(),
	}
}

// muxSessionsSnapshot reports every live multiplexed peer link: the
// outbound sessions cached in the pool plus the inbound sessions being
// served.
func (sp *Space) muxSessionsSnapshot() []obs.SessionInfo {
	out := sp.pool.SessionsSnapshot(func(s *transport.Session) int {
		sp.pipeMu.Lock()
		t := sp.pipeOut[s]
		sp.pipeMu.Unlock()
		if t == nil {
			return 0
		}
		return t.Pending()
	})
	sp.mu.Lock()
	servers := make([]*transport.Session, 0, len(sp.muxServers))
	for s := range sp.muxServers {
		servers = append(servers, s)
	}
	sp.mu.Unlock()
	for _, s := range servers {
		st := s.Stats()
		sp.pipeMu.Lock()
		pst := sp.pipeIn[s]
		sp.pipeMu.Unlock()
		promises := 0
		if pst != nil {
			promises = pst.comp.Pending()
		}
		out = append(out, obs.SessionInfo{
			Endpoint:    s.Label(),
			Dir:         "in",
			InFlight:    st.InFlight,
			QueueDepth:  st.QueueDepth,
			BytesSent:   st.BytesSent,
			BytesRecv:   st.BytesRecv,
			Hello:       st.Hello,
			SendWindow:  st.SendWindow,
			QueuedBytes: st.FlowQueued,
			Stalls:      st.FlowStalls,
			Promises:    promises,
		})
	}
	return out
}

// flowParams resolves the flow-control parameters mux sessions (outbound
// and inbound) are created with.
func (sp *Space) flowParams() *flow.Params {
	return &flow.Params{KeepaliveInterval: sp.opts.KeepaliveInterval}
}

// Close shuts the space down gracefully: it stops accepting new calls,
// drains in-flight dispatches (bounded by DrainTimeout, after which they
// are cancelled through their contexts), releases every surrogate and
// delivers the resulting clean calls, stops the daemons, and closes
// listeners and connections.
func (sp *Space) Close() error { return sp.shutdown(true) }

// Abort shuts the space down without draining or parting clean calls,
// simulating a crash: in-flight dispatches are cancelled immediately and
// owners discover the loss only through their ping daemons.
// Fault-tolerance tests and the benchmark harness use it.
func (sp *Space) Abort() { _ = sp.shutdown(false) }

func (sp *Space) shutdown(graceful bool) error {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return nil
	}
	sp.closed = true
	close(sp.closingCh)
	sp.mu.Unlock()

	// Stop accepting new connections; existing connections stay up so
	// in-flight dispatches can answer and parting cleans can flow.
	sp.shutdownListeners()

	if graceful {
		// Drain: let running dispatches finish. New calls arriving on live
		// connections are already being refused (StatusSpaceClosed).
		if !sp.inflight.waitIdle(sp.opts.DrainTimeout) {
			n := sp.inflight.len()
			sp.log.Warn("drain timeout; cancelling in-flight calls", "inflight", n)
			sp.serveCancel()
			// Give the cancelled handlers a moment to observe the alert
			// and return; stragglers are abandoned to the hard close.
			sp.inflight.waitIdle(time.Second)
		}
		// Parting courtesy: tell every owner we are gone, so they need
		// not discover it by ping timeout.
		for _, key := range sp.imports.Keys() {
			if sp.imports.Release(key) {
				// Deliver directly, one key to an exchange, errors
				// discarded; the cleaner queue would also work but this
				// bounds shutdown time.
				if seq, eps, ok := sp.imports.BeginClean(key); ok {
					_ = sp.sendCleans(key.Owner, eps, []dgc.CleanItem{{Key: key, Seq: seq}})
				}
			}
		}
		sp.cleaner.Drain(2 * time.Second)
	}
	sp.serveCancel()
	close(sp.closedCh)
	sp.cleaner.Close()
	sp.pinger.Close()
	sp.pool.Close()
	sp.wg.Wait()
	sp.log.Debug("space closed", "graceful", graceful)
	return nil
}

func (sp *Space) shutdownListeners() {
	for _, l := range sp.listeners {
		_ = l.Close()
	}
}

// isClosed reports whether shutdown has begun (the draining phase counts:
// no new work is accepted once Close is called).
func (sp *Space) isClosed() bool {
	select {
	case <-sp.closingCh:
		return true
	default:
		return false
	}
}

// onWithdraw is called by the export table when an entry leaves the table;
// it drops the canonical owned Ref so the concrete object can be collected
// locally once the application lets go of it.
func (sp *Space) onWithdraw(index uint64, obj any) {
	sp.mu.Lock()
	delete(sp.ownedRefs, obj)
	sp.mu.Unlock()
	sp.metrics.Withdrawn.Inc()
	if sp.tracer != nil {
		sp.tracer.Emit(obs.Event{Kind: obs.EvWithdraw, Time: time.Now(),
			Key: fmt.Sprintf("%v/%d", sp.id, index)})
	}
	sp.log.Debug("export withdrawn", "index", index)
}

// dropClient is the liveness daemon's verdict on a dead client.
func (sp *Space) dropClient(id wire.SpaceID) {
	sp.metrics.ClientsDropped.Inc()
	if sp.tracer != nil {
		sp.tracer.Emit(obs.Event{Kind: obs.EvClientDropped, Time: time.Now(), Peer: id.String()})
	}
	withdrawn := sp.exports.DropClient(id)
	sp.log.Info("dropped dead client", "client", id.String(), "withdrawn", len(withdrawn))
}

// sessionAlive reports whether a healthy mux session whose peer
// identified itself as id exists — outbound (cached in the pool, never
// dialed for this) or inbound (being served). Only sessions with an
// active keepalive currently confirming the peer count: the keepalive is
// what makes "the session is up" equivalent to "the peer is alive", and
// the identity in its hello is what stops an endpoint reused by a new
// incarnation from impersonating the old space.
func (sp *Space) sessionAlive(id wire.SpaceID, endpoints []string) bool {
	if s := sp.pool.Cached(endpoints); s != nil && s.PeerSpace() == id && s.KeepaliveHealthy() {
		return true
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for s := range sp.muxServers {
		if s.PeerSpace() == id && s.KeepaliveHealthy() {
			return true
		}
	}
	return false
}

// PokeLiveness runs one immediate ping round, so tests and drain
// harnesses need not wait out an interval.
func (sp *Space) PokeLiveness() { sp.pinger.Poke() }
