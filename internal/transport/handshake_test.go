package transport

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netobjects/internal/flow"
	"netobjects/internal/obs"
	"netobjects/internal/wire"
)

// rawPair dials an in-memory link and returns both bare connections.
func rawPair(t *testing.T) (dialed, accepted Conn) {
	t.Helper()
	mem := NewMem()
	l, err := mem.Listen("peer")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	got := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			got <- c
		}
	}()
	dialed, err = mem.Dial("peer")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	accepted = <-got
	t.Cleanup(func() { dialed.Close(); accepted.Close() })
	return dialed, accepted
}

// awaitFailure waits for the session to die and returns what it died of,
// as the next caller would see it.
func awaitFailure(t *testing.T, s *Session) error {
	t.Helper()
	select {
	case <-s.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("session survived")
	}
	_, err := s.Open()
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("a failed session's error %v does not wrap ErrClosed", err)
	}
	return err
}

var quiet = &flow.Params{KeepaliveInterval: -1}

// TestHelloVersionMismatch: two endpoints of different protocol versions
// both fail at the first frame, both can say why, and neither serves
// anything.
func TestHelloVersionMismatch(t *testing.T) {
	cc, sc := rawPair(t)
	var served atomic.Int32
	accept := func(st *Stream) { served.Add(1); st.Close() }
	ma, mb := obs.NewMetrics(), obs.NewMetrics()
	a := newSession(cc, SessionOptions{Flow: quiet, Metrics: ma, Accept: accept}, 1)
	b := newSession(sc, SessionOptions{Flow: quiet, Metrics: mb, Accept: accept}, 2)
	defer a.Close()
	defer b.Close()

	// Traffic queued behind the hello must not slip through either.
	if st, err := a.Open(); err == nil {
		_ = st.Send([]byte("call"))
	}
	for name, s := range map[string]*Session{"a": a, "b": b} {
		err := awaitFailure(t, s)
		if !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 2") {
			t.Errorf("%s failed with %q, which does not name both versions", name, err)
		}
	}
	if ra, rb := ma.SessionHelloRejected.Load(), mb.SessionHelloRejected.Load(); ra != 1 || rb != 1 {
		t.Errorf("netobj_session_hello_rejected_total = %d and %d, want 1 at each end", ra, rb)
	}
	if n := served.Load(); n != 0 {
		t.Errorf("%d streams reached Accept across a version mismatch", n)
	}
}

// TestHelloMustComeFirst: whatever else a connection opens with, the
// session fails before anything is dispatched — and still says its own
// hello first, so the other end can tell what it talked to.
func TestHelloMustComeFirst(t *testing.T) {
	call := wire.Marshal(nil, &wire.Call{Obj: 1, Method: "Null", ID: 7})
	firsts := map[string][]byte{
		"mux call":    append(wire.AppendMuxHeader(nil, 7), call...),
		"naked call":  call,
		"data chunk":  append(wire.AppendDataHeader(nil, 7, wire.DataFlagLast), "bulk"...),
		"garbage":     {0xff, 0xff, 0xff},
		"short hello": HelloFrame(3, flow.Params{})[:4],
	}
	for name, first := range firsts {
		t.Run(name, func(t *testing.T) {
			cc, sc := rawPair(t)
			var served atomic.Int32
			m := obs.NewMetrics()
			s := NewSession(sc, SessionOptions{Flow: quiet, Metrics: m,
				Accept: func(st *Stream) { served.Add(1); st.Close() }})
			defer s.Close()
			if err := cc.Send(first); err != nil {
				t.Fatal(err)
			}
			if err := awaitFailure(t, s); !strings.Contains(err.Error(), "first frame") {
				t.Errorf("failed with %q, want the first-frame rule named", err)
			}
			if got := m.SessionHelloRejected.Load(); got != 1 {
				t.Errorf("netobj_session_hello_rejected_total = %d, want 1", got)
			}
			if n := served.Load(); n != 0 {
				t.Errorf("%d streams dispatched ahead of a hello", n)
			}
			_ = cc.SetDeadline(time.Now().Add(5 * time.Second))
			if frame, err := cc.Recv(nil); err != nil || wire.PeekOp(frame) != wire.OpHello {
				t.Errorf("the refusing end sent %v (%v), want its hello before it hung up", wire.PeekOp(frame), err)
			}
		})
	}
}

// TestHelloOnlyOnce: stream 0 carries one hello and nothing else; a second
// hello or any other message there fails the session.
func TestHelloOnlyOnce(t *testing.T) {
	seconds := map[string][]byte{
		"second hello": HelloFrame(3, flow.Params{}),
		"unknown op":   append(wire.AppendMuxHeader(nil, 0), 0x7f),
		"ping on zero": append(wire.AppendMuxHeader(nil, 0), wire.Marshal(nil, &wire.Ping{From: 3})...),
	}
	for name, second := range seconds {
		t.Run(name, func(t *testing.T) {
			cc, sc := rawPair(t)
			s := NewSession(sc, SessionOptions{Flow: quiet, Accept: func(st *Stream) { st.Close() }})
			defer s.Close()
			if err := cc.Send(HelloFrame(3, flow.Params{})); err != nil {
				t.Fatal(err)
			}
			eventually(t, "the hello to land", func() bool { return s.PeerSpace() == 3 })
			if err := cc.Send(second); err != nil {
				t.Fatal(err)
			}
			if err := awaitFailure(t, s); !strings.Contains(err.Error(), "stream 0") {
				t.Errorf("failed with %q, want stream 0 named", err)
			}
		})
	}
}

// TestChunkedSendWaitsForHello: with the peer's hello held back, a small
// frame goes out at once, while a payload over the chunk size waits for
// the peer's windows — until its own deadline, not a grace period, and
// never as one unchunked frame — and streams chunked the moment the hello
// arrives.
func TestChunkedSendWaitsForHello(t *testing.T) {
	p := flow.Params{ChunkSize: 4 << 10, StreamWindow: 64 << 10, SessionWindow: 64 << 10, KeepaliveInterval: -1}
	cc, sc := rawPair(t)
	gate := make(chan struct{})
	server := NewSession(&gatedConn{Conn: sc, gate: gate}, SessionOptions{Flow: &p, Accept: func(st *Stream) {
		defer st.Close()
		if frame, err := st.Recv(nil); err == nil && len(frame) > p.ChunkSize {
			_ = st.Send(frame)
		}
	}})
	defer server.Close()
	wire0 := &frameSizeConn{Conn: cc}
	client := NewSession(wire0, SessionOptions{Flow: &p})
	defer client.Close()

	open := func(d time.Duration) *Stream {
		st, err := client.Open()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		_ = st.SetDeadline(time.Now().Add(d))
		return st
	}
	start := time.Now()
	if err := open(5 * time.Second).Send([]byte("small")); err != nil {
		t.Fatalf("small send before the peer's hello: %v", err)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("small send took %v before the peer's hello, want no wait", d)
	}

	big := pattern(p.ChunkSize + 1)
	const deadline = 700 * time.Millisecond // past the 500ms grace this replaced
	start = time.Now()
	if err := open(deadline).Send(big); err != ErrTimeout {
		t.Fatalf("chunked send before the peer's hello: %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d < deadline-50*time.Millisecond {
		t.Fatalf("chunked send gave up after %v, want its %v deadline", d, deadline)
	}

	st := open(10 * time.Second)
	sent := make(chan error, 1)
	go func() { sent <- st.Send(big) }()
	select {
	case err := <-sent:
		t.Fatalf("chunked send returned (%v) before the peer's hello", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-sent; err != nil {
		t.Fatalf("chunked send after the peer's hello: %v", err)
	}
	if echo, err := st.Recv(nil); err != nil || !bytes.Equal(echo, big) {
		t.Fatalf("echo of the chunked payload: %d bytes, %v", len(echo), err)
	}
	const headerSlack = 21
	if max := wire0.max.Load(); max > int64(p.ChunkSize+headerSlack) {
		t.Fatalf("a %d-byte frame reached the wire, want nothing over the %d-byte chunk", max, p.ChunkSize)
	}
}
