package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// EventKind classifies trace events.
type EventKind int

// Event kinds, grouped by subsystem. Client/server pairs share a prefix:
// the *Send/*Reply pair is the caller's view, *Serve/*Done the callee's.
const (
	// EvCallSend: a remote invocation request left this space.
	EvCallSend EventKind = iota
	// EvCallReply: the invocation's reply arrived (Dur is the round trip).
	EvCallReply
	// EvCallServe: an inbound invocation began dispatch.
	EvCallServe
	// EvCallDone: dispatch finished and the reply was encoded (Dur is the
	// dispatch time: decode, invoke, encode).
	EvCallDone
	// EvCallCancel: a cancellation alert was forwarded for an in-flight
	// call (client side) or received for one being served (server side).
	EvCallCancel
	// EvDirtySend: a dirty call completed (Dur is the round trip).
	EvDirtySend
	// EvDirtyRecv: a dirty call was served.
	EvDirtyRecv
	// EvCleanSend: a clean call completed (Dur is the round trip).
	EvCleanSend
	// EvCleanRecv: a clean call was served.
	EvCleanRecv
	// EvPingSend: a liveness ping completed.
	EvPingSend
	// EvPingRecv: a liveness ping was answered.
	EvPingRecv
	// EvTransientDirty: a reference was pinned while in transit inside a
	// call (the transient dirty entry of the formalisation).
	EvTransientDirty
	// EvTransientClean: a transient pin was dropped.
	EvTransientClean
	// EvSurrogateMade: a new surrogate was bound.
	EvSurrogateMade
	// EvSurrogateReleased: a surrogate was released (explicitly or by the
	// weak-reference cleanup; the latter also emits EvAutoRelease).
	EvSurrogateReleased
	// EvAutoRelease: the weak-reference cleanup released a surrogate.
	EvAutoRelease
	// EvWithdraw: an exported object left the export table.
	EvWithdraw
	// EvClientDropped: the liveness daemon declared a client dead.
	EvClientDropped
	// EvPoolHit: a call reused a cached live session.
	EvPoolHit
	// EvPoolMiss: a call established a new session (Dur is dial latency).
	EvPoolMiss
	// EvPoolReap: a cached session's peer was found reset and the
	// session was discarded (N is how many).
	EvPoolReap
	// EvChaosFault: the fault-injection transport perturbed a message
	// (Key is the fault kind, Method the message op, Peer the link).
	EvChaosFault
	// EvChaosPartition: a chaos partition was installed around an address.
	EvChaosPartition
	// EvChaosHeal: a chaos partition was lifted (or all faults cleared).
	EvChaosHeal
	// EvChaosCrash: the chaos harness crashed a space (Peer names it).
	EvChaosCrash
	// EvChaosRestart: the chaos harness restarted a crashed endpoint.
	EvChaosRestart
)

var eventNames = [...]string{
	EvCallSend:          "call.send",
	EvCallReply:         "call.reply",
	EvCallServe:         "call.serve",
	EvCallDone:          "call.done",
	EvCallCancel:        "call.cancel",
	EvDirtySend:         "dirty.send",
	EvDirtyRecv:         "dirty.recv",
	EvCleanSend:         "clean.send",
	EvCleanRecv:         "clean.recv",
	EvPingSend:          "ping.send",
	EvPingRecv:          "ping.recv",
	EvTransientDirty:    "transient.dirty",
	EvTransientClean:    "transient.clean",
	EvSurrogateMade:     "surrogate.made",
	EvSurrogateReleased: "surrogate.released",
	EvAutoRelease:       "surrogate.autorelease",
	EvWithdraw:          "export.withdraw",
	EvClientDropped:     "client.dropped",
	EvPoolHit:           "pool.hit",
	EvPoolMiss:          "pool.miss",
	EvPoolReap:          "pool.reap",
	EvChaosFault:        "chaos.fault",
	EvChaosPartition:    "chaos.partition",
	EvChaosHeal:         "chaos.heal",
	EvChaosCrash:        "chaos.crash",
	EvChaosRestart:      "chaos.restart",
}

// String names the kind.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one structured lifecycle event. Fields not meaningful for a
// kind are zero.
type Event struct {
	// Kind classifies the event.
	Kind EventKind
	// Time is when the event was emitted.
	Time time.Time
	// CallID correlates the events of one remote invocation (client
	// side); zero when the event is not part of a traced call.
	CallID uint64
	// Method is the invoked method name for call events.
	Method string
	// Key names the reference involved ("owner/index") for reference and
	// collector events, or the endpoint for pool events.
	Key string
	// Peer identifies the other space or endpoint, when known.
	Peer string
	// Dur is the measured duration (round trip, dispatch, or dial).
	Dur time.Duration
	// Bytes is the wire payload size for send/reply events.
	Bytes int
	// N is a count (reaped connections, withdrawn entries).
	N int
	// Err is the failure, if the traced operation failed.
	Err string
}

// String renders the event compactly for logs and the debug page.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-21s", e.Kind.String())
	if e.CallID != 0 {
		fmt.Fprintf(&b, " id=%d", e.CallID)
	}
	if e.Method != "" {
		fmt.Fprintf(&b, " method=%s", e.Method)
	}
	if e.Key != "" {
		fmt.Fprintf(&b, " key=%s", e.Key)
	}
	if e.Peer != "" {
		fmt.Fprintf(&b, " peer=%s", e.Peer)
	}
	if e.Dur != 0 {
		fmt.Fprintf(&b, " dur=%v", e.Dur.Round(time.Microsecond))
	}
	if e.Bytes != 0 {
		fmt.Fprintf(&b, " bytes=%d", e.Bytes)
	}
	if e.N != 0 {
		fmt.Fprintf(&b, " n=%d", e.N)
	}
	if e.Err != "" {
		fmt.Fprintf(&b, " err=%q", e.Err)
	}
	return b.String()
}

// Tracer receives structured lifecycle events from the runtime. Emit must
// be safe for concurrent use and should return quickly — it runs on the
// call path. A nil Tracer disables tracing entirely.
type Tracer interface {
	Emit(Event)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(Event)

// Emit calls f.
func (f TracerFunc) Emit(e Event) { f(e) }

// MultiTracer fans events out to several tracers.
func MultiTracer(ts ...Tracer) Tracer {
	out := make(multiTracer, 0, len(ts))
	for _, t := range ts {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

type multiTracer []Tracer

func (m multiTracer) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// Ring is a Tracer keeping the most recent events in a fixed-size buffer,
// for the live debug page and for tests that assert on event sequences.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64
}

// NewRing returns a ring tracer holding the last n events (minimum 16).
func NewRing(n int) *Ring {
	if n < 16 {
		n = 16
	}
	return &Ring{buf: make([]Event, 0, n)}
}

// Emit appends an event, evicting the oldest when full.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// Events returns the buffered events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Total reports how many events have been emitted over the ring's
// lifetime (including evicted ones).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// CountKind reports how many buffered events have the given kind.
func (r *Ring) CountKind(k EventKind) int {
	n := 0
	for _, e := range r.Events() {
		if e.Kind == k {
			n++
		}
	}
	return n
}
