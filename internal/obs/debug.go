package obs

import (
	"sort"
	"sync"
)

// DebugData is a point-in-time dump of one space's live object tables,
// assembled by the runtime for the /debug/netobj page. The obs package
// defines the shape so the exporter needs no dependency on the runtime.
type DebugData struct {
	// Name is the space's configured name.
	Name string
	// ID is the space identifier.
	ID string
	// Endpoints are the endpoints the space listens on.
	Endpoints []string
	// Exports is the export table: one entry per concrete object this
	// space has made remote.
	Exports []ExportInfo
	// Imports is the import table: one entry per surrogate this space
	// holds.
	Imports []ImportInfo
	// Sessions reports the live multiplexed peer sessions: the cached
	// outbound links plus the inbound links being served.
	Sessions []SessionInfo
}

// ExportInfo describes one export table entry.
type ExportInfo struct {
	// Index is the object's slot in the table.
	Index uint64
	// Type is the concrete object's Go type.
	Type string
	// Pinned marks well-known objects never withdrawn.
	Pinned bool
	// Pins counts transient dirty entries (references in transit).
	Pins int
	// Dirty is the dirty set: the clients holding surrogates.
	Dirty []DirtyInfo
}

// DirtyInfo describes one dirty-set member.
type DirtyInfo struct {
	// Client is the member space's id.
	Client string
	// Seq is the largest dirty/clean sequence number seen from it.
	Seq uint64
	// Endpoints is where the owner can ping it.
	Endpoints []string
}

// ImportInfo describes one import table entry.
type ImportInfo struct {
	// Owner is the owning space's id.
	Owner string
	// Index is the object's index at the owner.
	Index uint64
	// State is the surrogate's life-cycle state (OK, ccit, ccitnil, …).
	State string
	// Pins counts transient pins (the reference is inside an outbound
	// call).
	Pins int
	// Endpoints is where the owner can be reached.
	Endpoints []string
}

// SessionInfo describes one live multiplexed peer session.
type SessionInfo struct {
	// Endpoint labels the peer (the dial target for outbound sessions,
	// the remote label for inbound ones).
	Endpoint string
	// Dir is "out" for sessions this space dialed, "in" for sessions it
	// accepted.
	Dir string
	// InFlight is the number of exchanges awaiting their response.
	InFlight int
	// QueueDepth is the number of senders waiting for the session's write
	// lock; nonzero means the link's write side is the bottleneck.
	QueueDepth int
	// BytesSent and BytesRecv count wire bytes through the session.
	BytesSent uint64
	BytesRecv uint64
	// Hello is the peer's side of the handshake: "pending" until its hello
	// arrives, then its protocol version and space id.
	Hello string
	// SendWindow is the remaining session-level send credit in bytes and
	// QueuedBytes the data queued awaiting credit or the chunk pump;
	// Stalls counts pump stalls for lack of credit.
	SendWindow  int64
	QueuedBytes int64
	Stalls      uint64
	// Promises is the number of unresolved pipelined promises on the
	// session: outstanding client-side promises for outbound sessions,
	// unresolved completion-table entries for inbound ones.
	Promises int
}

// Observability bundles everything one space exposes to operators: its
// metrics, the installed tracer (if any), and a callback producing the
// live debug dump. The runtime constructs one per space; the HTTP
// exporter serves from it.
type Observability struct {
	// Metrics is the space's metrics set (never nil).
	Metrics *Metrics
	// Tracer is the installed tracer, nil when tracing is off. When it is
	// (or wraps) a *Ring, the debug page shows the recent events.
	Tracer Tracer
	// Debug produces the live table dump; nil disables the table section.
	Debug func() DebugData

	mu     sync.Mutex
	extras map[string]func() string
}

// SetDebugSection installs (or replaces) a named extra section on the
// debug page, rendered by calling f at request time. The netobjd daemon
// uses it to surface the agent's bound-name count.
func (o *Observability) SetDebugSection(name string, f func() string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.extras == nil {
		o.extras = make(map[string]func() string)
	}
	o.extras[name] = f
}

// debugSections snapshots the extra sections in name order.
func (o *Observability) debugSections() []struct{ Name, Body string } {
	o.mu.Lock()
	names := make([]string, 0, len(o.extras))
	for n := range o.extras {
		names = append(names, n)
	}
	fs := make(map[string]func() string, len(o.extras))
	for n, f := range o.extras {
		fs[n] = f
	}
	o.mu.Unlock()
	sort.Strings(names)
	out := make([]struct{ Name, Body string }, 0, len(names))
	for _, n := range names {
		out = append(out, struct{ Name, Body string }{n, fs[n]()})
	}
	return out
}

// ring returns the ring buffer reachable from the installed tracer, if
// any: the tracer itself, or any member of a MultiTracer fan-out.
func (o *Observability) ring() *Ring {
	switch t := o.Tracer.(type) {
	case *Ring:
		return t
	case multiTracer:
		for _, m := range t {
			if r, ok := m.(*Ring); ok {
				return r
			}
		}
	}
	return nil
}
