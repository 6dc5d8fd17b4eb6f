package transport

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netobjects/internal/obs"
)

// sessionPair dials an in-memory link and wraps both ends in sessions.
// The server session echoes every frame back on the same stream unless a
// custom accept function is given.
func sessionPair(t *testing.T, accept func(*Stream)) (client *Session, server *Session) {
	t.Helper()
	mem := NewMem()
	l, err := mem.Listen("peer")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cc, err := mem.Dial("peer")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sc := <-accepted
	if accept == nil {
		accept = func(st *Stream) {
			defer st.Close()
			frame, err := st.Recv(nil)
			if err != nil {
				return
			}
			_ = st.Send(frame)
		}
	}
	client = NewSession(cc, SessionOptions{})
	server = NewSession(sc, SessionOptions{Accept: accept})
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestSessionInterleaved drives many concurrent exchanges over one
// connection; the echo server answers each stream with its own payload, so
// any demux mix-up shows up as a response on the wrong stream.
func TestSessionInterleaved(t *testing.T) {
	client, _ := sessionPair(t, nil)
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := client.Open()
			if err != nil {
				errs <- err
				return
			}
			defer st.Close()
			_ = st.SetDeadline(time.Now().Add(5 * time.Second))
			want := fmt.Sprintf("payload-%d", i)
			if err := st.Send([]byte(want)); err != nil {
				errs <- err
				return
			}
			got, err := st.Recv(nil)
			if err != nil {
				errs <- err
				return
			}
			if string(got) != want {
				errs <- fmt.Errorf("stream %d: got %q want %q", st.ID(), got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionResponsesOutOfOrder verifies a slow exchange does not block a
// fast one: the server holds stream A's response until stream B completes.
func TestSessionResponsesOutOfOrder(t *testing.T) {
	release := make(chan struct{})
	client, _ := sessionPair(t, func(st *Stream) {
		defer st.Close()
		frame, err := st.Recv(nil)
		if err != nil {
			return
		}
		if string(frame) == "slow" {
			<-release
		}
		_ = st.Send(frame)
	})

	slow, err := client.Open()
	if err != nil {
		t.Fatalf("open slow: %v", err)
	}
	defer slow.Close()
	_ = slow.SetDeadline(time.Now().Add(5 * time.Second))
	if err := slow.Send([]byte("slow")); err != nil {
		t.Fatalf("send slow: %v", err)
	}

	fast, err := client.Open()
	if err != nil {
		t.Fatalf("open fast: %v", err)
	}
	defer fast.Close()
	_ = fast.SetDeadline(time.Now().Add(5 * time.Second))
	if err := fast.Send([]byte("fast")); err != nil {
		t.Fatalf("send fast: %v", err)
	}
	got, err := fast.Recv(nil)
	if err != nil {
		t.Fatalf("recv fast: %v", err)
	}
	if string(got) != "fast" {
		t.Fatalf("fast exchange got %q", got)
	}

	close(release)
	got, err = slow.Recv(nil)
	if err != nil {
		t.Fatalf("recv slow: %v", err)
	}
	if string(got) != "slow" {
		t.Fatalf("slow exchange got %q", got)
	}
}

// TestSessionStreamCloseLeavesNeighbours cancels one in-flight exchange
// and checks its neighbour on the same link still completes, and that the
// late response to the closed stream is dropped without killing the
// session.
func TestSessionStreamCloseLeavesNeighbours(t *testing.T) {
	release := make(chan struct{})
	client, server := sessionPair(t, func(st *Stream) {
		defer st.Close()
		frame, err := st.Recv(nil)
		if err != nil {
			return
		}
		if string(frame) == "held" {
			<-release
		}
		_ = st.Send(frame)
	})

	held, err := client.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	_ = held.SetDeadline(time.Now().Add(5 * time.Second))
	if err := held.Send([]byte("held")); err != nil {
		t.Fatalf("send: %v", err)
	}
	// Abandon the exchange mid-flight, as the cancellation watcher does.
	client.Abort(held.ID())
	if _, err := held.Recv(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv on aborted stream: %v, want ErrClosed", err)
	}
	held.Close()

	// Let the server answer the abandoned exchange; the demux must drop it.
	close(release)

	other, err := client.Open()
	if err != nil {
		t.Fatalf("open neighbour: %v", err)
	}
	defer other.Close()
	_ = other.SetDeadline(time.Now().Add(5 * time.Second))
	if err := other.Send([]byte("ok")); err != nil {
		t.Fatalf("send neighbour: %v", err)
	}
	got, err := other.Recv(nil)
	if err != nil {
		t.Fatalf("recv neighbour: %v", err)
	}
	if string(got) != "ok" {
		t.Fatalf("neighbour got %q", got)
	}
	if !client.Healthy() || !server.Healthy() {
		t.Fatal("session died after a stream close")
	}
}

// TestSessionTeardownFailsWaiters closes a session out from under blocked
// receivers; each must fail with ErrClosed.
func TestSessionTeardownFailsWaiters(t *testing.T) {
	client, _ := sessionPair(t, func(st *Stream) {
		// Swallow requests and never answer.
		defer st.Close()
		_, _ = st.Recv(nil)
		<-st.s.done
	})
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		st, err := client.Open()
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := st.Send([]byte("hello")); err != nil {
			t.Fatalf("send: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := st.Recv(nil)
			errs <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	client.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("waiter got %v, want ErrClosed", err)
		}
	}
	if _, err := client.Open(); !errors.Is(err, ErrClosed) {
		t.Errorf("Open after close: %v, want ErrClosed", err)
	}
}

// TestSessionPeerDeathFailsWaiters kills the connection underneath the
// session (the peer side, as chaos resets do) and checks blocked waiters
// get an error satisfying ErrClosed.
func TestSessionPeerDeathFailsWaiters(t *testing.T) {
	client, server := sessionPair(t, func(st *Stream) {
		defer st.Close()
		_, _ = st.Recv(nil)
		<-st.s.done
	})
	st, err := client.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := st.Send([]byte("hello")); err != nil {
		t.Fatalf("send: %v", err)
	}
	server.Close()
	_ = st.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := st.Recv(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after peer death: %v, want ErrClosed", err)
	}
	if client.Healthy() {
		t.Fatal("session still healthy after peer death")
	}
}

// TestSessionDeadline checks an unanswered exchange times out without
// harming the session.
func TestSessionDeadline(t *testing.T) {
	client, _ := sessionPair(t, func(st *Stream) {
		defer st.Close()
		_, _ = st.Recv(nil)
		<-st.s.done
	})
	st, err := client.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	_ = st.SetDeadline(time.Now().Add(20 * time.Millisecond))
	if err := st.Send([]byte("ping")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := st.Recv(nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv: %v, want ErrTimeout", err)
	}
	if !client.Healthy() {
		t.Fatal("session died on stream timeout")
	}
}

// TestPoolSessionReconnect drops the cached session's connection and
// checks the next Session call redials instead of handing back the corpse,
// with hit/miss/reap accounting to match.
func TestPoolSessionReconnect(t *testing.T) {
	mem := NewMem()
	l, err := mem.Listen("peer")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			NewSession(c, SessionOptions{Accept: func(st *Stream) {
				defer st.Close()
				frame, err := st.Recv(nil)
				if err == nil {
					_ = st.Send(frame)
				}
			}})
		}
	}()

	reg := NewRegistry(mem)
	p := NewPool(reg)
	defer p.Close()
	eps := []string{"inmem:peer"}

	s1, ep, err := p.Session(context.Background(), eps)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if ep != "inmem:peer" {
		t.Fatalf("endpoint %q", ep)
	}
	s2, _, err := p.Session(context.Background(), eps)
	if err != nil {
		t.Fatalf("session again: %v", err)
	}
	if s1 != s2 {
		t.Fatal("second call did not share the cached session")
	}
	if n := p.SessionCount(); n != 1 {
		t.Fatalf("SessionCount = %d, want 1", n)
	}

	// Exercise an exchange through the cached session.
	st, err := s1.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	_ = st.SetDeadline(time.Now().Add(5 * time.Second))
	if err := st.Send([]byte("echo")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if got, err := st.Recv(nil); err != nil || string(got) != "echo" {
		t.Fatalf("recv: %q, %v", got, err)
	}
	st.Close()

	// Kill the link; the next Session must notice and redial.
	s1.Close()
	s3, _, err := p.Session(context.Background(), eps)
	if err != nil {
		t.Fatalf("session after death: %v", err)
	}
	if s3 == s1 {
		t.Fatal("pool handed back the dead session")
	}
	if !s3.Healthy() {
		t.Fatal("redialed session not healthy")
	}
	st, err = s3.Open()
	if err != nil {
		t.Fatalf("open on redial: %v", err)
	}
	defer st.Close()
	_ = st.SetDeadline(time.Now().Add(5 * time.Second))
	if err := st.Send([]byte("again")); err != nil {
		t.Fatalf("send on redial: %v", err)
	}
	if got, err := st.Recv(nil); err != nil || string(got) != "again" {
		t.Fatalf("recv on redial: %q, %v", got, err)
	}
}

// TestPoolSessionClosed checks Pool.Close fails cached sessions and
// further Session calls.
func TestPoolSessionClosed(t *testing.T) {
	mem := NewMem()
	l, err := mem.Listen("peer")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	reg := NewRegistry(mem)
	p := NewPool(reg)
	s, _, err := p.Session(context.Background(), []string{"inmem:peer"})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	p.Close()
	select {
	case <-s.Done():
	case <-time.After(time.Second):
		t.Fatal("cached session not torn down by Pool.Close")
	}
	if _, _, err := p.Session(context.Background(), []string{"inmem:peer"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Session after Close: %v, want ErrClosed", err)
	}
}

// cancelOnDialMem expires the caller's context while the dial is in
// flight, then lets the dial succeed anyway — the exact race the late-dial
// check covers: a connection won by a hair after the caller gave up.
type cancelOnDialMem struct {
	*Mem
	cancel context.CancelFunc
}

func (c cancelOnDialMem) Dial(addr string) (Conn, error) {
	c.cancel()
	return c.Mem.Dial(addr)
}

// TestSessionLateDial covers the deadline race: the dial succeeds but the
// caller's context expired mid-dial. The caller must get its own ctx
// error, the connection must be discarded, and the event must count as a
// late dial — not a pool miss.
func TestSessionLateDial(t *testing.T) {
	mem := NewMem()
	l, err := mem.Listen("peer")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := NewRegistry(cancelOnDialMem{Mem: mem, cancel: cancel})
	p := NewPool(reg)
	defer p.Close()
	m := obs.NewMetrics()
	p.SetObserver(m, nil)

	if _, _, err = p.Session(ctx, []string{"inmem:peer"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("session with dying ctx: %v, want context.Canceled", err)
	}
	if n := m.PoolDialLate.Load(); n != 1 {
		t.Fatalf("PoolDialLate = %d, want 1", n)
	}
	if n := m.PoolMisses.Load(); n != 0 {
		t.Fatalf("late dial counted as pool miss (misses = %d)", n)
	}
}

// TestSessionPerPeer pins the session cache key: one shared session per
// endpoint list, distinct lists get distinct links. (This replaces the old
// CheckoutOnly/MuxCapable test — with the checkout discipline gone, every
// transport's traffic rides sessions.)
func TestSessionPerPeer(t *testing.T) {
	mem := NewMem()
	for _, name := range []string{"peer-a", "peer-b"} {
		l, err := mem.Listen(name)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer l.Close()
		go func() {
			for {
				if _, err := l.Accept(); err != nil {
					return
				}
			}
		}()
	}
	reg := NewRegistry(mem)
	p := NewPool(reg)
	defer p.Close()
	sa1, _, err := p.Session(context.Background(), []string{"inmem:peer-a"})
	if err != nil {
		t.Fatalf("session a: %v", err)
	}
	sa2, _, err := p.Session(context.Background(), []string{"inmem:peer-a"})
	if err != nil {
		t.Fatalf("session a again: %v", err)
	}
	if sa1 != sa2 {
		t.Fatal("same endpoint list did not share one session")
	}
	sb, _, err := p.Session(context.Background(), []string{"inmem:peer-b"})
	if err != nil {
		t.Fatalf("session b: %v", err)
	}
	if sb == sa1 {
		t.Fatal("distinct peers shared a session")
	}
	if n := p.SessionCount(); n != 2 {
		t.Fatalf("SessionCount = %d, want 2", n)
	}
}

// gatedConn delays every Send until the test releases it, exposing the
// window between queueing a frame and its physical write.
type gatedConn struct {
	Conn
	gate chan struct{}
}

func (g *gatedConn) Send(p []byte) error {
	<-g.gate
	return g.Conn.Send(p)
}

// TestSessionSendWaitsForWrite pins the drain-critical Send contract:
// Send returns only once the frame has been written to the connection,
// never while it is still sitting in the writer queue. The runtime's
// graceful shutdown counts a dispatch as finished when its response Send
// returns, then hard-closes connections — an enqueue-and-return Send
// would lose queued responses at that point.
func TestSessionSendWaitsForWrite(t *testing.T) {
	mem := NewMem()
	l, err := mem.Listen("peer")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cc, err := mem.Dial("peer")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	gate := make(chan struct{})
	s := NewSession(&gatedConn{Conn: cc, gate: gate}, SessionOptions{})
	defer s.Close()
	server := NewSession(<-accepted, SessionOptions{Accept: func(st *Stream) {
		defer st.Close()
		_, _ = st.Recv(nil)
	}})
	defer server.Close()

	st, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sent := make(chan error, 1)
	go func() { sent <- st.Send([]byte("frame")) }()
	select {
	case err := <-sent:
		t.Fatalf("Send returned (%v) before the frame was written", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("Send: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send never returned after the write completed")
	}
}

// stalledConn parks every Send until released or closed, like a link
// whose peer stopped reading; entered reports each sender that got inside.
// The first pass frames go through first.
type stalledConn struct {
	Conn
	pass    atomic.Int32
	entered chan struct{}
	release chan struct{}
	closed  chan struct{}
	once    sync.Once
}

func stall(c Conn) *stalledConn {
	return &stalledConn{Conn: c, entered: make(chan struct{}, 8), release: make(chan struct{}), closed: make(chan struct{})}
}

func (c *stalledConn) Send(p []byte) error {
	if c.pass.Add(-1) >= 0 {
		return c.Conn.Send(p)
	}
	c.entered <- struct{}{}
	select {
	case <-c.release:
		return c.Conn.Send(p)
	case <-c.closed:
		return errors.New("stalled conn closed under the write")
	}
}

func (c *stalledConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// stalledSession is a session over a link that accepts no writes, or none
// after the session's hello.
func stalledSession(t *testing.T, opts SessionOptions, helloPasses bool) (*Session, *stalledConn) {
	t.Helper()
	mem := NewMem()
	l, err := mem.Listen("peer")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _, _ = l.Accept() }()
	cc, err := mem.Dial("peer")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sc := stall(cc)
	if helloPasses {
		sc.pass.Store(1)
	}
	made := make(chan *Session, 1)
	go func() { made <- NewSession(sc, opts) }()
	select {
	case s := <-made:
		t.Cleanup(func() { s.Close() })
		if helloPasses {
			eventually(t, "the pump to send the hello", func() bool { return s.Stats().BytesSent > 0 })
		}
		return s, sc
	case <-time.After(5 * time.Second):
		t.Fatal("NewSession blocked on a link that accepts no writes")
		return nil, nil
	}
}

// TestSessionWriteLockWait pins how a sender waits for the write lock
// while another is blocked inside the connection's Send: no longer than
// its own deadline, its own stream or the session lasts. The stalled
// writer has set itself no bound, so it stays until the session fails.
func TestSessionWriteLockWait(t *testing.T) {
	s, sc := stalledSession(t, SessionOptions{}, true)

	send := func(st *Stream) chan error {
		errc := make(chan error, 1)
		go func() { errc <- st.Send([]byte("frame")) }()
		return errc
	}
	open := func() *Stream {
		st, err := s.Open()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	wait := func(what string, errc chan error, want error) {
		t.Helper()
		select {
		case err := <-errc:
			if !errors.Is(err, want) {
				t.Fatalf("%s: Send returned %v, want %v", what, err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Send still waiting for the write lock", what)
		}
	}

	holder := send(open())
	<-sc.entered // the holder is inside c.Send, write lock held

	timed := open()
	_ = timed.SetDeadline(time.Now().Add(30 * time.Millisecond))
	wait("deadline", send(timed), ErrTimeout)

	closed := open()
	closedErr := send(closed)
	eventually(t, "a sender waiting for the write lock", func() bool { return s.Stats().QueueDepth == 1 })
	s.Abort(closed.ID())
	wait("stream close", closedErr, ErrClosed)

	cause := errors.New("link condemned")
	failedErr := send(open())
	eventually(t, "a sender waiting for the write lock", func() bool { return s.Stats().QueueDepth == 1 })
	select {
	case err := <-holder:
		t.Fatalf("stalled writer returned (%v) with the session still up", err)
	default:
	}
	s.fail(cause)
	for what, errc := range map[string]chan error{"waiting sender": failedErr, "stalled writer": holder} {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), cause.Error()) {
				t.Fatalf("session failure: %s's Send returned %v, want ErrClosed naming %q", what, err, cause)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("session failure: %s's Send never returned", what)
		}
	}
}

// TestSessionStalledWriteBounded pins that the sender inside the physical
// write is bounded like the ones waiting behind it: its stream's deadline,
// or a grace after its stream's Close, fails the session to get it back.
func TestSessionStalledWriteBounded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bound func(*Stream)
		want  error
		limit time.Duration
	}{
		{"deadline", func(st *Stream) { _ = st.SetDeadline(time.Now().Add(50 * time.Millisecond)) },
			ErrTimeout, time.Second},
		{"close", func(st *Stream) {
			s, id := st.Session(), st.ID()
			time.AfterFunc(50*time.Millisecond, func() { s.Abort(id) })
		}, ErrClosed, writeStallGrace + time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, sc := stalledSession(t, SessionOptions{}, true)
			st, err := s.Open()
			if err != nil {
				t.Fatal(err)
			}
			tc.bound(st)
			start := time.Now()
			errc := make(chan error, 1)
			go func() { errc <- st.Send([]byte("frame")) }()
			<-sc.entered
			select {
			case err := <-errc:
				if !errors.Is(err, tc.want) {
					t.Fatalf("stalled Send returned %v, want %v", err, tc.want)
				}
				if d := time.Since(start); d > tc.limit {
					t.Fatalf("stalled Send took %v, want under %v", d, tc.limit)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("stalled Send never returned")
			}
			select {
			case <-s.Done():
			default:
				t.Fatal("the stalled link's session survived")
			}
		})
	}
}

// TestNewSessionWritesNothing pins that the constructor does no I/O, so
// two endpoints can be built over a link with no buffering at all: the
// hello goes out with the first holder of the write lock, the pump.
func TestNewSessionWritesNothing(t *testing.T) {
	_, sc := stalledSession(t, SessionOptions{LocalSpace: 7}, false)
	select {
	case <-sc.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the pump never took the hello to an idle link")
	}
}

// goroutineID names the calling goroutine, from its stack header.
func goroutineID() string {
	b := make([]byte, 64)
	return strings.Fields(string(b[:runtime.Stack(b, false)]))[1]
}

// TestSessionHandlerReuse pins that served streams are handed to parked
// handler goroutines rather than each starting its own: a sequential
// caller is served by at most two (the second covers a handler still on
// its way back to the parking spot).
func TestSessionHandlerReuse(t *testing.T) {
	var mu sync.Mutex
	handlers := map[string]int{}
	client, _ := sessionPair(t, func(st *Stream) {
		defer st.Close()
		mu.Lock()
		handlers[goroutineID()]++
		mu.Unlock()
		if frame, err := st.Recv(nil); err == nil {
			_ = st.Send(frame)
		}
	})
	const streams = 1000
	for i := 0; i < streams; i++ {
		st, err := client.Open()
		if err != nil {
			t.Fatal(err)
		}
		_ = st.SetDeadline(time.Now().Add(5 * time.Second))
		if err := st.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recv(nil); err != nil {
			t.Fatal(err)
		}
		st.Release()
		st.Close()
	}
	mu.Lock()
	defer mu.Unlock()
	served := 0
	for _, n := range handlers {
		served += n
	}
	if served != streams || len(handlers) > 2 {
		t.Fatalf("%d streams served by %d handler goroutines (%v), want %d by at most 2", served, len(handlers), handlers, streams)
	}
}

// TestSessionHandlersUncapped pins the other half of handler reuse:
// handlers are never queued behind busy ones, so any number of exchanges
// can block at once; idle handlers retire while the session lives; and a
// closed session leaves no goroutine behind.
func TestSessionHandlersUncapped(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const blocked = 64
	started := make(chan struct{}, blocked)
	release := make(chan struct{})
	client, server := sessionPair(t, func(st *Stream) {
		defer st.Close()
		frame, err := st.Recv(nil)
		if err != nil {
			return
		}
		started <- struct{}{}
		<-release
		_ = st.Send(frame)
	})
	quiet := runtime.NumGoroutine()

	streams := make([]*Stream, blocked)
	for i := range streams {
		st, err := client.Open()
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		_ = st.SetDeadline(time.Now().Add(10 * time.Second))
		if err := st.Send([]byte("hold")); err != nil {
			t.Fatal(err)
		}
		streams[i] = st
	}
	for i := 0; i < blocked; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d blocking handlers are running", i, blocked)
		}
	}
	close(release)
	for _, st := range streams {
		if _, err := st.Recv(nil); err != nil {
			t.Fatalf("recv after release: %v", err)
		}
		st.Release()
	}

	eventually(t, "idle handlers to retire", func() bool { return runtime.NumGoroutine() <= quiet })

	// Leave one handler parked, then close: it must not outlive the session.
	st, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send([]byte("once more")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(nil); err != nil {
		t.Fatal(err)
	}
	st.Release()
	st.Close()
	client.Close()
	server.Close()
	client.Wait()
	server.Wait()
	eventually(t, "session goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })
}
