package transport

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"netobjects/internal/flow"
	"netobjects/internal/obs"
	"netobjects/internal/wire"
)

// Pool is the per-peer session cache: Session returns the live multiplexed
// session for a peer, dialing one connection on first use and sharing it
// among any number of concurrent exchanges. Sessions need no idle TTL: a
// dead session reports unhealthy and is redialed on the next call.
type Pool struct {
	reg *Registry

	metrics *obs.Metrics
	tracer  obs.Tracer
	flow    *flow.Params
	// localSpace is the space identity new sessions advertise in their
	// hello (zero: anonymous).
	localSpace wire.SpaceID

	mu       sync.Mutex
	sessions map[string]*sessionSlot
	closed   bool
}

// sessionSlot serializes (re)dialing the session for one peer: the first
// caller dials while later callers wait on the slot mutex and then share
// the fresh session — a singleflight per peer.
type sessionSlot struct {
	mu sync.Mutex
	s  *Session
	ep string
}

// NewPool returns a session cache dialing through reg.
func NewPool(reg *Registry) *Pool {
	return &Pool{
		reg:      reg,
		sessions: make(map[string]*sessionSlot),
	}
}

// SetObserver installs the metrics set and tracer the pool reports to.
// Both may be nil; obs metric methods are nil-safe.
func (p *Pool) SetObserver(m *obs.Metrics, t obs.Tracer) {
	p.mu.Lock()
	p.metrics = m
	p.tracer = t
	p.mu.Unlock()
}

// SetFlow installs the flow-control parameters new outbound sessions are
// created with. Nil (the default) means the package defaults.
func (p *Pool) SetFlow(fp *flow.Params) {
	p.mu.Lock()
	p.flow = fp
	p.mu.Unlock()
}

// SetLocalSpace installs the space identity new outbound sessions
// advertise in their hello, letting peers take a healthy session as proof
// that this space is alive instead of pinging it.
func (p *Pool) SetLocalSpace(id wire.SpaceID) {
	p.mu.Lock()
	p.localSpace = id
	p.mu.Unlock()
}

// sessionKey identifies one peer by its full endpoint list, so retries
// against any of a peer's endpoints share the same session.
func sessionKey(endpoints []string) string { return strings.Join(endpoints, " ") }

// Cached returns the live cached session for endpoints without dialing,
// or nil when none exists or the cached one has died. The collector's
// liveness daemons use it: a missing session must NOT trigger a dial —
// the whole point is to avoid per-peer traffic when a session happens to
// be up already.
func (p *Pool) Cached(endpoints []string) *Session {
	p.mu.Lock()
	slot := p.sessions[sessionKey(endpoints)]
	p.mu.Unlock()
	if slot == nil {
		return nil
	}
	slot.mu.Lock()
	s := slot.s
	slot.mu.Unlock()
	if s == nil || !s.Healthy() {
		return nil
	}
	return s
}

// Session returns the live multiplexed session for the peer reachable at
// endpoints, dialing one if none exists or the cached one has died. The
// session is shared: callers Open streams on it and never return it. A
// cache hit counts as a pool hit; a (re)dial counts as a miss with its
// latency observed, and a dead cached session counts as a reap.
func (p *Pool) Session(ctx context.Context, endpoints []string) (*Session, string, error) {
	key := sessionKey(endpoints)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, "", ErrClosed
	}
	m, t := p.metrics, p.tracer
	slot := p.sessions[key]
	if slot == nil {
		slot = &sessionSlot{}
		p.sessions[key] = slot
	}
	p.mu.Unlock()

	// The slot mutex is the per-peer singleflight: one caller redials
	// while the rest wait here and then share the fresh session.
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if s := slot.s; s != nil {
		if s.Healthy() {
			if m != nil {
				m.PoolHits.Inc()
			}
			if t != nil {
				t.Emit(obs.Event{Kind: obs.EvPoolHit, Time: time.Now(), Key: slot.ep})
			}
			return s, slot.ep, nil
		}
		s.Close()
		slot.s = nil
		if m != nil {
			m.PoolReaps.Inc()
		}
		if t != nil {
			t.Emit(obs.Event{Kind: obs.EvPoolReap, Time: time.Now(), Key: slot.ep, N: 1})
		}
	}
	start := time.Now()
	c, ep, err := p.reg.DialAnyContext(ctx, endpoints)
	if err != nil {
		return nil, "", err
	}
	dial := time.Since(start)
	// A dial can succeed after the caller's deadline already passed (the
	// registry races the dial against ctx and the dial may win by a hair).
	// Handing such a session back would leave the caller to fail on its
	// first deadline check; discard it and report the caller's own error.
	if ctx.Err() != nil {
		_ = c.Close()
		if m != nil {
			m.PoolDialLate.Inc()
		}
		return nil, "", ctx.Err()
	}
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		_ = c.Close()
		return nil, "", ErrClosed
	}
	if m != nil {
		m.PoolMisses.Inc()
		m.DialLatency.Observe(dial)
	}
	if t != nil {
		t.Emit(obs.Event{Kind: obs.EvPoolMiss, Time: time.Now(), Key: ep, Dur: dial})
	}
	p.mu.Lock()
	fp, ls := p.flow, p.localSpace
	p.mu.Unlock()
	slot.s = NewSession(c, SessionOptions{Flow: fp, Metrics: m, LocalSpace: ls})
	slot.ep = ep
	return slot.s, ep, nil
}

// DropSession closes and forgets the cached session for endpoints, if
// any. Callers use it when an exchange fails in a way that indicts the
// whole link; the next call redials.
func (p *Pool) DropSession(endpoints []string) {
	key := sessionKey(endpoints)
	p.mu.Lock()
	slot := p.sessions[key]
	p.mu.Unlock()
	if slot == nil {
		return
	}
	slot.mu.Lock()
	if slot.s != nil {
		slot.s.Close()
		slot.s = nil
	}
	slot.mu.Unlock()
}

// SessionCount reports the number of live cached sessions.
func (p *Pool) SessionCount() int {
	p.mu.Lock()
	slots := make([]*sessionSlot, 0, len(p.sessions))
	for _, slot := range p.sessions {
		slots = append(slots, slot)
	}
	p.mu.Unlock()
	n := 0
	for _, slot := range slots {
		slot.mu.Lock()
		if slot.s != nil && slot.s.Healthy() {
			n++
		}
		slot.mu.Unlock()
	}
	return n
}

// SessionsSnapshot reports the live outbound sessions for the debug page,
// sorted by peer endpoint. promises, when non-nil, supplies each
// session's unresolved pipelined-promise count (the pool has no view into
// the runtime's promise tables).
func (p *Pool) SessionsSnapshot(promises func(*Session) int) []obs.SessionInfo {
	p.mu.Lock()
	slots := make([]*sessionSlot, 0, len(p.sessions))
	for _, slot := range p.sessions {
		slots = append(slots, slot)
	}
	p.mu.Unlock()
	out := make([]obs.SessionInfo, 0, len(slots))
	for _, slot := range slots {
		slot.mu.Lock()
		s, ep := slot.s, slot.ep
		slot.mu.Unlock()
		if s == nil {
			continue
		}
		st := s.Stats()
		n := 0
		if promises != nil {
			n = promises(s)
		}
		out = append(out, obs.SessionInfo{
			Endpoint:    ep,
			Dir:         "out",
			InFlight:    st.InFlight,
			QueueDepth:  st.QueueDepth,
			BytesSent:   st.BytesSent,
			BytesRecv:   st.BytesRecv,
			Hello:       st.Hello,
			SendWindow:  st.SendWindow,
			QueuedBytes: st.FlowQueued,
			Stalls:      st.FlowStalls,
			Promises:    n,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// Close closes the pool and every cached session (failing each session's
// in-flight exchanges with ErrClosed).
func (p *Pool) Close() {
	p.mu.Lock()
	sessions := p.sessions
	p.sessions = make(map[string]*sessionSlot)
	p.closed = true
	p.mu.Unlock()
	for _, slot := range sessions {
		slot.mu.Lock()
		if slot.s != nil {
			slot.s.Close()
			slot.s = nil
		}
		slot.mu.Unlock()
	}
}
