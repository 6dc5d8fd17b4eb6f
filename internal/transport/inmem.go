package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"netobjects/internal/wire"
)

// Mem is an in-process transport: connections are paired channels and
// addresses live in a namespace private to the Mem instance. It plays the
// role of the original system's same-machine shared-memory transport and
// makes single-process tests, examples and benchmarks deterministic.
type Mem struct {
	// Latency, when non-zero, is added to every message delivery,
	// simulating propagation delay in benchmarks: each message is due
	// Latency after its send, and delivery is held until then. Messages
	// sent back to back share the window — the link pipelines like a real
	// network path rather than serializing, so a burst of K frames costs
	// one propagation delay, not K.
	Latency time.Duration

	mu          sync.Mutex
	listeners   map[string]*memListener
	unreachable map[string]bool
	conns       map[string][]*memConn
	nextAuto    int
}

// NewMem returns an empty in-memory transport namespace.
func NewMem() *Mem {
	return &Mem{
		listeners:   make(map[string]*memListener),
		unreachable: make(map[string]bool),
		conns:       make(map[string][]*memConn),
	}
}

// Proto returns "inmem".
func (m *Mem) Proto() string { return "inmem" }

// Listen claims an address in the namespace; an empty address picks a
// fresh one.
func (m *Mem) Listen(addr string) (Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == "" {
		m.nextAuto++
		addr = fmt.Sprintf("auto-%d", m.nextAuto)
	}
	if _, ok := m.listeners[addr]; ok {
		return nil, fmt.Errorf("transport: inmem address %q already in use", addr)
	}
	l := &memListener{
		m:      m,
		addr:   addr,
		accept: make(chan *memConn),
		done:   make(chan struct{}),
	}
	m.listeners[addr] = l
	return l, nil
}

// Dial connects to a listening address in the namespace.
func (m *Mem) Dial(addr string) (Conn, error) {
	m.mu.Lock()
	if m.unreachable[addr] {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: inmem address %q unreachable", ErrNoEndpoint, addr)
	}
	l, ok := m.listeners[addr]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: inmem address %q not listening", ErrNoEndpoint, addr)
	}
	a2b := make(chan memMsg, 64)
	b2a := make(chan memMsg, 64)
	dialSide := &memConn{m: m, out: a2b, in: b2a, done: make(chan struct{}), label: "inmem:" + addr}
	acceptSide := &memConn{m: m, out: b2a, in: a2b, done: make(chan struct{}), label: "inmem:dialer"}
	dialSide.peer, acceptSide.peer = acceptSide, dialSide
	select {
	case l.accept <- acceptSide:
		m.mu.Lock()
		m.conns[addr] = append(m.conns[addr], dialSide, acceptSide)
		if len(m.conns[addr])%64 == 0 {
			m.pruneLocked(addr)
		}
		m.mu.Unlock()
		return dialSide, nil
	case <-l.done:
		return nil, fmt.Errorf("%w: inmem address %q not listening", ErrNoEndpoint, addr)
	}
}

// SetUnreachable simulates a network partition around an address: while
// down, new dials are refused and every existing connection to the address
// is severed — exactly what a client sees when the machine drops off the
// network.
func (m *Mem) SetUnreachable(addr string, down bool) {
	m.mu.Lock()
	m.unreachable[addr] = down
	var sever []*memConn
	if down {
		sever = m.conns[addr]
		delete(m.conns, addr)
	}
	m.mu.Unlock()
	for _, c := range sever {
		_ = c.Close()
	}
}

// pruneLocked drops already-closed connections from the severance list so
// long-lived namespaces do not accumulate garbage.
func (m *Mem) pruneLocked(addr string) {
	live := m.conns[addr][:0]
	for _, c := range m.conns[addr] {
		if !c.isClosed() {
			live = append(live, c)
		}
	}
	m.conns[addr] = live
}

type memListener struct {
	m      *Mem
	addr   string
	accept chan *memConn
	done   chan struct{}
	once   sync.Once
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.m.mu.Lock()
		delete(l.m.listeners, l.addr)
		l.m.mu.Unlock()
	})
	return nil
}

func (l *memListener) Endpoint() string { return "inmem:" + l.addr }

// memMsg is one in-flight frame: the payload, in a pooled buffer the
// receiver recycles, and, when the namespace simulates latency, the
// instant it becomes deliverable.
type memMsg struct {
	payload *[]byte
	due     time.Time
}

// wait reports how long the message has yet to be held. A namespace that
// simulates no latency stamps no due time, and its frames pay no clock
// read.
func (m memMsg) wait() time.Duration {
	if m.due.IsZero() {
		return 0
	}
	return time.Until(m.due)
}

type memConn struct {
	m     *Mem
	out   chan memMsg
	in    chan memMsg
	done  chan struct{}
	peer  *memConn
	label string

	// held is a frame dequeued but not yet due (payload nil: none) and
	// last the buffer behind the frame the previous Recv returned,
	// recycled by the next one (the Conn contract ends a frame's life
	// there); only the single reader touches them (Conn is not safe for
	// concurrent use).
	held memMsg
	last *[]byte

	// deadline is the I/O deadline in Unix nanoseconds (0 = none).
	deadline atomic.Int64

	mu     sync.Mutex
	closed bool
}

func (c *memConn) isClosed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

func (c *memConn) Send(payload []byte) error {
	if c.isClosed() {
		return ErrClosed
	}
	// Copy: the caller may reuse its buffer as soon as Send returns.
	bp := wire.GetBuf()
	*bp = append(*bp, payload...)
	msg := memMsg{payload: bp}
	if lat := c.m.Latency; lat > 0 {
		// Stamp rather than sleep: the sender keeps going, and the frame
		// becomes deliverable one propagation delay from now.
		msg.due = time.Now().Add(lat)
	}
	timeout := c.deadlineTimer()
	defer stopTimer(timeout)
	var err error
	select {
	case c.out <- msg:
		return nil
	case <-c.done:
		err = ErrClosed
	case <-c.peer.done:
		err = ErrClosed
	case <-timerC(timeout):
		err = ErrTimeout
	}
	wire.PutBuf(bp)
	return err
}

func (c *memConn) Recv(scratch []byte) ([]byte, error) {
	if c.last != nil {
		wire.PutBuf(c.last)
		c.last = nil
	}
	if c.isClosed() {
		return nil, ErrClosed
	}
	timeout := c.deadlineTimer()
	defer stopTimer(timeout)
	if c.held.payload == nil {
		select {
		case c.held = <-c.in:
		case <-c.done:
			return nil, ErrClosed
		case <-c.peer.done:
			// Drain any message already in flight before the peer closed.
			select {
			case c.held = <-c.in:
			default:
				return nil, errors.Join(ErrClosed, errPeerClosed)
			}
		case <-timerC(timeout):
			return nil, ErrTimeout
		}
	}
	// Hold delivery until the frame's due time. A deadline expiring
	// mid-hold leaves the frame held for the next Recv — a late frame is
	// slow, never lost.
	if wait := c.held.wait(); wait > 0 {
		hold := time.NewTimer(wait)
		defer hold.Stop()
		select {
		case <-hold.C:
		case <-c.done:
			return nil, ErrClosed
		case <-timerC(timeout):
			return nil, ErrTimeout
		}
	}
	c.last = c.held.payload
	c.held = memMsg{}
	return *c.last, nil
}

var errPeerClosed = errors.New("transport: peer closed connection")

func (c *memConn) SetDeadline(t time.Time) error {
	if t.IsZero() {
		c.deadline.Store(0)
	} else {
		c.deadline.Store(t.UnixNano())
	}
	return nil
}

func (c *memConn) deadlineTimer() *time.Timer {
	d := c.deadline.Load()
	if d == 0 {
		return nil
	}
	return time.NewTimer(time.Until(time.Unix(0, d)))
}

func timerC(t *time.Timer) <-chan time.Time {
	if t == nil {
		return nil
	}
	return t.C
}

func stopTimer(t *time.Timer) {
	if t != nil {
		t.Stop()
	}
}

func (c *memConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	return nil
}

func (c *memConn) RemoteLabel() string { return c.label }

// Healthy reports whether both ends of the pair are still open, so the
// pool can skip connections whose peer reset while they sat idle.
func (c *memConn) Healthy() bool { return !c.isClosed() && !c.peer.isClosed() }
