package transport

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netobjects/internal/flow"
	"netobjects/internal/wire"
)

// flowPair wires two flow-enabled sessions over an in-memory link, with
// the client's connection optionally wrapped (to observe or throttle the
// raw frames). Keepalives are off unless the params say otherwise, so
// timing-sensitive tests control their own clocks.
func flowPair(t *testing.T, p flow.Params, wrap func(Conn) Conn, accept func(*Stream)) (client *Session, server *Session) {
	t.Helper()
	if p.KeepaliveInterval == 0 {
		p.KeepaliveInterval = -1
	}
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
	if wrap != nil {
		cc = wrap(cc)
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
	client = NewSession(cc, SessionOptions{Flow: &p})
	server = NewSession(sc, SessionOptions{Flow: &p, Accept: accept})
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// pattern builds a deterministic non-repeating payload so reassembly
// mistakes (dropped, duplicated, or reordered chunks) corrupt the bytes.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i>>8) ^ byte(i) ^ byte(i>>16)
	}
	return b
}

// frameSizeConn records the largest frame passed to Send.
type frameSizeConn struct {
	Conn
	max atomic.Int64
}

func (c *frameSizeConn) Send(p []byte) error {
	for {
		cur := c.max.Load()
		if int64(len(p)) <= cur || c.max.CompareAndSwap(cur, int64(len(p))) {
			break
		}
	}
	return c.Conn.Send(p)
}

// TestFlowChunkedRoundTrip streams a payload far larger than the chunk
// size through a flow session in both directions and pins the acceptance
// criterion that no frame on a flow-enabled link exceeds the chunk size
// plus its header.
func TestFlowChunkedRoundTrip(t *testing.T) {
	p := flow.Params{ChunkSize: 4 << 10, StreamWindow: 8 << 10, SessionWindow: 32 << 10}
	var fsc *frameSizeConn
	client, _ := flowPair(t, p, func(c Conn) Conn {
		fsc = &frameSizeConn{Conn: c}
		return fsc
	}, nil)

	want := pattern(256 << 10) // 64 chunks, 32× the stream window
	st, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_ = st.SetDeadline(time.Now().Add(10 * time.Second))
	if err := st.Send(want); err != nil {
		t.Fatalf("chunked send: %v", err)
	}
	got, err := st.Recv(nil)
	if err != nil {
		t.Fatalf("recv echo: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("echo corrupted: got %d bytes, want %d (first diff at %d)",
			len(got), len(want), firstDiff(got, want))
	}

	// Chunk header: op varint + id varint + flags varint ≤ 1+10+10.
	const headerSlack = 21
	if max := fsc.max.Load(); max > int64(p.ChunkSize+headerSlack) {
		t.Fatalf("frame of %d bytes on the wire, want ≤ chunk %d + header", max, p.ChunkSize)
	}

	if got, want := client.Stats().Hello, fmt.Sprintf("v%d %v", wire.Version, wire.SpaceID(0)); got != want {
		t.Fatalf("stats report the peer's hello as %q, want %q", got, want)
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// slowConn throttles Send so the writer queue stays busy long enough for
// priority and fairness to be observable.
type slowConn struct {
	Conn
	delay time.Duration
	mu    sync.Mutex
	log   []int // frame sizes in write order
}

func (c *slowConn) Send(p []byte) error {
	time.Sleep(c.delay)
	c.mu.Lock()
	c.log = append(c.log, len(p))
	c.mu.Unlock()
	return c.Conn.Send(p)
}

// TestFlowSessionWindowOverrun feeds the reader's chunk handling
// directly, as TestBulkAssemblyOnData does, while the test holds the
// server's write lock so that no grant goes back: a peer may send the
// whole session window it was advertised and not a byte more, and the
// byte past it fails the session, naming the overrun. Each stream gets
// one stream window of it, which the stream may take.
func TestFlowSessionWindowOverrun(t *testing.T) {
	p := flow.Params{ChunkSize: 4 << 10, StreamWindow: 16 << 10, SessionWindow: 64 << 10}
	testWindowOverrun(t, p, func(sent int) uint64 { return 911 + uint64(sent/int(p.StreamWindow)) }, "session", p.SessionWindow)
}

// TestFlowStreamWindowOverrun is TestFlowSessionWindowOverrun for the
// stream window: one stream may take the whole stream window it was
// advertised, and the byte past it fails the session.
func TestFlowStreamWindowOverrun(t *testing.T) {
	p := flow.Params{ChunkSize: 4 << 10, StreamWindow: 16 << 10, SessionWindow: 64 << 10}
	testWindowOverrun(t, p, func(int) uint64 { return 911 }, "stream", p.StreamWindow)
}

// testWindowOverrun feeds the server window bytes in chunks, then one
// byte more, each on the stream id names for the bytes sent before it,
// and checks that the byte fails the session naming the kind of window.
func testWindowOverrun(t *testing.T, p flow.Params, id func(sent int) uint64, kind string, window int64) {
	t.Helper()
	_, server := flowPair(t, p, nil, func(st *Stream) { st.Close() })
	server.wlock <- struct{}{} // the grants stay queued
	defer func() { <-server.wlock }()

	chunk := pattern(p.ChunkSize)
	sent := 0
	for ; sent < int(window); sent += len(chunk) {
		if st, _ := server.onData(id(sent), 0, chunk, nil); st != nil {
			defer st.Close()
		}
	}
	select {
	case <-server.Done():
		t.Fatalf("a peer within the window failed the session: %v", server.closeErr())
	default:
	}
	server.onData(id(sent), 0, chunk[:1], nil)
	select {
	case <-server.Done():
	default:
		t.Fatal("a peer one byte past the window left the session up")
	}
	server.mu.Lock()
	cause := server.cause
	server.mu.Unlock()
	if !errors.Is(cause, errWindowOverrun) || !strings.Contains(cause.Error(), kind+" window") {
		t.Fatalf("session failed with %v, want the %s window overrun", cause, kind)
	}
}

// TestFlowSmallCallsOvertakeBulk pins the fairness property: with an 8MB
// argument mid-stream on a slow link, small frames (calls, cancels)
// reach the wire without waiting for the bulk transfer to drain. Each
// chunk write costs ~1ms, so the bulk transfer alone takes a second or
// more; the small echo must complete in a fraction of that.
func TestFlowSmallCallsOvertakeBulk(t *testing.T) {
	p := flow.Params{ChunkSize: 8 << 10, StreamWindow: 1 << 20, SessionWindow: 16 << 20}
	client, _ := flowPair(t, p, func(c Conn) Conn {
		return &slowConn{Conn: c, delay: time.Millisecond}
	}, nil)

	bulk := pattern(8 << 20)
	bst, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer bst.Close()
	_ = bst.SetDeadline(time.Now().Add(60 * time.Second))
	bulkDone := make(chan error, 1)
	go func() { bulkDone <- bst.Send(bulk) }()

	// Let the bulk transfer occupy the writer before racing it.
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	st, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_ = st.SetDeadline(time.Now().Add(10 * time.Second))
	if err := st.Send([]byte("small")); err != nil {
		t.Fatalf("small send during bulk: %v", err)
	}
	if _, err := st.Recv(nil); err != nil {
		t.Fatalf("small recv during bulk: %v", err)
	}
	elapsed := time.Since(start)

	// 8MB at 8KB per 1ms write is ≥ 1s of wire time; a small call that
	// had to wait for the bulk drain would take that long. Generous bound
	// for CI noise while still far below the full-drain time.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("small call took %v behind an 8MB stream, want prompt overtake", elapsed)
	}

	if err := <-bulkDone; err != nil {
		t.Fatalf("bulk send: %v", err)
	}
}

// TestFlowCancelPriority pins the regression the issue calls out: a
// cancel (a plain writeCh frame) queued while an 8MB argument is
// mid-stream must reach the wire ahead of the queued data, not behind
// it. The slow connection's write log shows the order frames hit the
// wire.
func TestFlowCancelPriority(t *testing.T) {
	p := flow.Params{ChunkSize: 8 << 10, StreamWindow: 1 << 20, SessionWindow: 16 << 20}
	var sc *slowConn
	client, _ := flowPair(t, p, func(c Conn) Conn {
		sc = &slowConn{Conn: c, delay: time.Millisecond}
		return sc
	}, func(st *Stream) {
		defer st.Close()
		for {
			if _, err := st.Recv(nil); err != nil {
				return
			}
		}
	})

	bulk := pattern(8 << 20)
	bst, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer bst.Close()
	_ = bst.SetDeadline(time.Now().Add(60 * time.Second))
	bulkDone := make(chan error, 1)
	go func() { bulkDone <- bst.Send(bulk) }()
	time.Sleep(20 * time.Millisecond)

	// The "cancel": a small frame on its own stream through the writeCh
	// lane, exactly how core sends OpCancel on a session.
	cst, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cst.Close()
	_ = cst.SetDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	if err := cst.Send([]byte("cancel")); err != nil {
		t.Fatalf("cancel send: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancel waited %v behind bulk data, want at most a chunk write", elapsed)
	}

	if err := <-bulkDone; err != nil {
		t.Fatalf("bulk send: %v", err)
	}

	// The wire log must show the small frame strictly before the final
	// bulk chunk: find it and check chunks follow.
	sc.mu.Lock()
	log := append([]int(nil), sc.log...)
	sc.mu.Unlock()
	small := -1
	for i, n := range log {
		if n < 100 && i > 0 { // skip hello; chunks are ~8KB
			small = i
			break
		}
	}
	if small < 0 {
		t.Fatal("small frame never reached the wire during bulk transfer")
	}
	chunksAfter := 0
	for _, n := range log[small+1:] {
		if n > 4<<10 {
			chunksAfter++
		}
	}
	if chunksAfter == 0 {
		t.Fatalf("no bulk chunks after the cancel frame: cancel did not overtake (log tail %v)", log[max(0, len(log)-5):])
	}
}

// TestFlowSlowConsumerBackpressuresOneStream pins credit isolation: a
// stream whose receiver never consumes stalls its own sender once the
// window is exhausted, while other streams on the same session keep
// flowing.
func TestFlowSlowConsumerBackpressuresOneStream(t *testing.T) {
	// Session window is several stream windows, so one wedged stream
	// cannot exhaust it.
	p := flow.Params{ChunkSize: 2 << 10, StreamWindow: 4 << 10, SessionWindow: 64 << 10}
	block := make(chan struct{})
	client, _ := flowPair(t, p, nil, func(st *Stream) {
		defer st.Close()
		frame, err := st.Recv(nil)
		if err != nil {
			return
		}
		if len(frame) > 1<<10 {
			<-block // slow consumer: hold the first big message forever
			return
		}
		_ = st.Send(frame)
	})
	defer close(block)

	// Wedge one stream. Eager assembly always lets a single message
	// stream fully, so the wedge takes three sends: the handler consumes
	// the first and blocks; the second assembles into the inbox where it
	// stays undelivered, freezing the window; the third then runs out of
	// credit mid-stream and stalls — that is the backpressure under test.
	wst, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer wst.Close()
	_ = wst.SetDeadline(time.Now().Add(30 * time.Second))
	if err := wst.Send(pattern(8 << 10)); err != nil {
		t.Fatalf("first wedged send: %v", err)
	}
	wedged := make(chan error, 1)
	go func() {
		if err := wst.Send(pattern(8 << 10)); err != nil {
			wedged <- err
			return
		}
		wedged <- wst.Send(pattern(8 << 10))
	}()

	// The wedged stream must NOT complete quickly...
	select {
	case err := <-wedged:
		t.Fatalf("send to a blocked consumer returned early (err=%v), want backpressure", err)
	case <-time.After(200 * time.Millisecond):
	}

	// ...while fresh streams on the same session stay responsive.
	for i := 0; i < 4; i++ {
		st, err := client.Open()
		if err != nil {
			t.Fatal(err)
		}
		_ = st.SetDeadline(time.Now().Add(5 * time.Second))
		if err := st.Send([]byte("ping")); err != nil {
			t.Fatalf("echo send while peer stream backpressured: %v", err)
		}
		if _, err := st.Recv(nil); err != nil {
			t.Fatalf("echo recv while peer stream backpressured: %v", err)
		}
		st.Close()
	}
	// Unblock and let the wedged sender finish or die with the session
	// teardown; either way it must not stay stuck past cleanup.
}

// deadConn lets frames out until cut, then swallows everything silently
// in both directions — a peer that is gone without closing the socket.
type deadConn struct {
	Conn
	cut atomic.Bool
}

func (c *deadConn) Send(p []byte) error {
	if c.cut.Load() {
		return nil // swallowed: the peer never sees it
	}
	return c.Conn.Send(p)
}

// TestFlowKeepaliveDetectsDeadPeer pins the liveness acceptance
// criterion: once a confirmed flow peer goes silent, the session fails
// within 2 keepalive intervals (plus scheduling slack).
func TestFlowKeepaliveDetectsDeadPeer(t *testing.T) {
	const interval = 50 * time.Millisecond
	p := flow.Params{ChunkSize: 4 << 10, StreamWindow: 8 << 10, SessionWindow: 32 << 10, KeepaliveInterval: interval}
	var dc *deadConn
	client, server := flowPair(t, p, func(c Conn) Conn {
		dc = &deadConn{Conn: c}
		return dc
	}, nil)

	// Prove the link first, so both peers have confirmed flow + traffic.
	st, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	_ = st.SetDeadline(time.Now().Add(5 * time.Second))
	if err := st.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(nil); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// With a confirmed flow peer and keepalives on, Healthy must not need
	// the conn probe — it trusts the keepalive verdict.
	if !client.Healthy() {
		t.Fatal("healthy session reports unhealthy")
	}

	// Cut the client's outbound path: the server stops hearing from it.
	dc.cut.Store(true)
	deadline := time.Now().Add(2*flow.KeepaliveMisses*interval + 2*time.Second)
	for server.Healthy() {
		if time.Now().After(deadline) {
			t.Fatal("server never declared the silent peer dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case <-server.Done():
	case <-time.After(time.Second):
		t.Fatal("server session did not close after keepalive failure")
	}
}

// TestFlowKeepaliveKeepsQuietLinkAlive is the inverse: an idle but
// healthy link must ride pings indefinitely, never tripping the
// detector.
func TestFlowKeepaliveKeepsQuietLinkAlive(t *testing.T) {
	const interval = 40 * time.Millisecond
	p := flow.Params{ChunkSize: 4 << 10, StreamWindow: 8 << 10, SessionWindow: 32 << 10, KeepaliveInterval: interval}
	client, server := flowPair(t, p, nil, nil)

	// Confirm flow both ways with one exchange.
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
	st.Close()

	// Idle for many intervals: pings and pongs must keep both alive.
	time.Sleep(6 * interval)
	if !client.Healthy() || !server.Healthy() {
		t.Fatalf("idle link declared dead: client=%v server=%v", client.Healthy(), server.Healthy())
	}
}

// TestFlowResetUnblocksReceiver pins the abort path: when a chunked send
// is abandoned mid-stream (deadline), the receiver's stream is torn down
// by the reset rather than left waiting for a final chunk forever.
func TestFlowResetUnblocksReceiver(t *testing.T) {
	p := flow.Params{ChunkSize: 1 << 10, StreamWindow: 2 << 10, SessionWindow: 4 << 10}
	recvErr := make(chan error, 1)
	client, _ := flowPair(t, p, func(c Conn) Conn {
		return &slowConn{Conn: c, delay: 2 * time.Millisecond}
	}, func(st *Stream) {
		defer st.Close()
		_, err := st.Recv(nil)
		recvErr <- err
	})

	st, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Deadline expires mid-stream: the scheduler has sent some chunks
	// (slow conn + small windows guarantee it cannot finish in time).
	_ = st.SetDeadline(time.Now().Add(30 * time.Millisecond))
	err = st.Send(pattern(256 << 10))
	if err == nil {
		t.Fatal("send of 256KB over a ~500KB/s link finished inside 30ms?")
	}
	if err != ErrTimeout {
		t.Fatalf("aborted send: got %v, want ErrTimeout", err)
	}

	// The receiver must unwedge promptly via the reset in the priority
	// lane, with a stream error — not a clean message, not a hang.
	select {
	case rerr := <-recvErr:
		if rerr == nil {
			t.Fatal("receiver got a complete message from an aborted send")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver still blocked after the sender aborted: reset never landed")
	}
}

// TestFlowOpsClassified pins that the new frame types self-identify so
// fault injectors and sniffers can classify them without session state.
func TestFlowOpsClassified(t *testing.T) {
	data := wire.AppendDataHeader(nil, 7, wire.DataFlagLast)
	if op := wire.PeekOp(data); op != wire.OpData {
		t.Fatalf("data frame classifies as %v", op)
	}
	wu := wire.AppendWindowUpdate(nil, 7, 4096)
	if op := wire.PeekOp(wu); op != wire.OpWindowUpdate {
		t.Fatalf("window update classifies as %v", op)
	}
	ping := wire.AppendFlowPing(nil, 1, false)
	if op := wire.PeekOp(ping); op != wire.OpFlowPing {
		t.Fatalf("flow ping classifies as %v", op)
	}
	pong := wire.AppendFlowPing(nil, 1, true)
	if op := wire.PeekOp(pong); op != wire.OpFlowPong {
		t.Fatalf("flow pong classifies as %v", op)
	}
}
