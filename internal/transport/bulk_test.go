package transport

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"netobjects/internal/flow"
	"netobjects/internal/wire"
)

// gateConn lets frames through until armed; from then on the first data
// chunk it is asked to send parks inside Send until the gate opens. It
// keeps a copy of every data chunk, taken as the frame goes by.
type gateConn struct {
	Conn
	armed, entered, open chan struct{}
	once                 sync.Once

	mu   sync.Mutex
	seen [][]byte
}

func (c *gateConn) Send(p []byte) error {
	if wire.PeekOp(p) == wire.OpData {
		select {
		case <-c.armed:
			c.once.Do(func() {
				close(c.entered)
				<-c.open
			})
		default:
		}
		if _, flags, chunk, err := wire.SplitData(p); err == nil && flags&wire.DataFlagReset == 0 {
			c.mu.Lock()
			c.seen = append(c.seen, bytes.Clone(chunk))
			c.mu.Unlock()
		}
	}
	return c.Conn.Send(p)
}

// TestBulkAbortedSendLeavesPayloadAlone is the borrow's other half: a
// chunked Send that gives up (here: its deadline passes while the pump is
// inside chunk k's write) returns only once nothing reads its payload any
// more. The test scribbles over the payload the moment Send returns and
// then lets the write go; every chunk that reached the link, chunk k
// included, must carry the bytes as they were. Under -race the pump's
// late read of the payload is reported directly.
func TestBulkAbortedSendLeavesPayloadAlone(t *testing.T) {
	p := flow.Params{ChunkSize: 4 << 10, StreamWindow: 1 << 20, SessionWindow: 1 << 20}
	gate := &gateConn{armed: make(chan struct{}), entered: make(chan struct{}), open: make(chan struct{})}
	client, _ := flowPair(t, p, func(c Conn) Conn {
		gate.Conn = c
		return gate
	}, func(st *Stream) {
		defer st.Close()
		_, _ = st.Recv(nil)
	})
	st, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	original := pattern(64 << 10)
	payload := bytes.Clone(original)
	close(gate.armed) // the first chunk parks in the link
	_ = st.SetDeadline(time.Now().Add(50 * time.Millisecond))
	sendErr := make(chan error, 1)
	go func() {
		err := st.Send(payload)
		// Ours again: whatever is still reading it now reads this.
		for i := range payload {
			payload[i] = 0xEE
		}
		sendErr <- err
	}()
	<-gate.entered
	select {
	case err := <-sendErr:
		if err != ErrTimeout {
			t.Fatalf("send cut short by its deadline: got %v, want ErrTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still blocked long after its deadline: the abort waits for the link, not for the copy")
	}
	close(gate.open)
	// Let the pump finish with whatever it still holds.
	time.Sleep(50 * time.Millisecond)

	gate.mu.Lock()
	defer gate.mu.Unlock()
	if len(gate.seen) == 0 {
		t.Fatal("no chunk reached the link")
	}
	var got []byte
	for _, c := range gate.seen {
		got = append(got, c...)
	}
	if !bytes.Equal(got, original[:len(got)]) {
		t.Fatalf("the link saw %d bytes in %d chunks that are not the payload's: the pump read it after Send returned",
			len(got), len(gate.seen))
	}
}

// TestBulkClosedStreamLeavesPayloadAlone is the same property when the
// exchange is abandoned by Stream.Close from another goroutine (a
// cancelled call): both Close and the blocked Send return with the
// payload released.
func TestBulkClosedStreamLeavesPayloadAlone(t *testing.T) {
	p := flow.Params{ChunkSize: 4 << 10, StreamWindow: 1 << 20, SessionWindow: 1 << 20}
	gate := &gateConn{armed: make(chan struct{}), entered: make(chan struct{}), open: make(chan struct{})}
	client, _ := flowPair(t, p, func(c Conn) Conn {
		gate.Conn = c
		return gate
	}, func(st *Stream) {
		defer st.Close()
		_, _ = st.Recv(nil)
	})
	st, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	original := pattern(64 << 10)
	payload := bytes.Clone(original)
	close(gate.armed)
	sendErr := make(chan error, 1)
	go func() {
		err := st.Send(payload)
		for i := range payload {
			payload[i] = 0xEE
		}
		sendErr <- err
	}()
	<-gate.entered
	_ = st.Close()
	select {
	case err := <-sendErr:
		if err != ErrClosed {
			t.Fatalf("send on a closed stream: got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still blocked after its stream closed")
	}
	close(gate.open)
	time.Sleep(50 * time.Millisecond)
	gate.mu.Lock()
	defer gate.mu.Unlock()
	var got []byte
	for _, c := range gate.seen {
		got = append(got, c...)
	}
	if !bytes.Equal(got, original[:len(got)]) {
		t.Fatalf("the link saw %d bytes that are not the payload's", len(got))
	}
}

// TestBulkAbortsAtRandomLeavePayloadAlone gives up on chunked sends at
// random moments — before the first chunk, between chunks, inside the
// pump's copy — and reuses the payload at once each time. Whatever the
// peer is handed whole must be the payload as it was, and the race
// detector must have nothing to say about the pump and the scribbler.
func TestBulkAbortsAtRandomLeavePayloadAlone(t *testing.T) {
	p := flow.Params{ChunkSize: 4 << 10, StreamWindow: 64 << 10, SessionWindow: 1 << 20}
	original := pattern(256 << 10)
	whole := make(chan []byte, 1024)
	client, _ := flowPair(t, p, func(c Conn) Conn {
		return &slowConn{Conn: c, delay: 20 * time.Microsecond}
	}, func(st *Stream) {
		defer st.Close()
		if b, err := st.Recv(nil); err == nil {
			whole <- bytes.Clone(b)
		}
	})
	rng := rand.New(rand.NewSource(20))
	payload := make([]byte, len(original))
	sent := 0
	for i := 0; i < 150; i++ {
		copy(payload, original)
		st, err := client.Open()
		if err != nil {
			t.Fatal(err)
		}
		_ = st.SetDeadline(time.Now().Add(time.Duration(rng.Intn(4000)) * time.Microsecond))
		if i%3 == 0 {
			// Every third give-up is an Abort from elsewhere, as a
			// cancelled call's is; it may come after the exchange is over.
			go func(id uint64, d time.Duration) { time.Sleep(d); client.Abort(id) }(st.ID(), time.Duration(rng.Intn(2000))*time.Microsecond)
		}
		if st.Send(payload) == nil {
			sent++
		}
		for j := range payload {
			payload[j] = byte(i)
		}
		_ = st.Close()
	}
	// Sends that came back nil were written out whole; the peer may still
	// be assembling the last of them.
	deadline := time.After(5 * time.Second)
	for got := 0; got < sent; got++ {
		select {
		case b := <-whole:
			if !bytes.Equal(b, original) {
				t.Fatalf("the peer was handed %d bytes that are not the payload as sent", len(b))
			}
		case <-deadline:
			t.Fatalf("%d sends succeeded, %d messages arrived", sent, got)
		}
	}
	select {
	case b := <-whole:
		if !bytes.Equal(b, original) {
			t.Fatal("an abandoned send was delivered, and not as sent")
		}
	default:
	}
}

// TestBulkSegmentsSendSameFrames: a payload handed over in pieces crosses
// the link in the very frames the same bytes in one piece would, below
// the chunk size and above it, and arrives as one message.
func TestBulkSegmentsSendSameFrames(t *testing.T) {
	p := flow.Params{ChunkSize: 4 << 10, StreamWindow: 1 << 20, SessionWindow: 1 << 20}
	for _, size := range []int{100, 4 << 10, 4<<10 + 1, 50_000} {
		whole := pattern(size)
		frames := func(send func(*Stream) error) (sent [][]byte, got []byte) {
			rec := &recordConn{}
			arrived := make(chan []byte, 1)
			client, _ := flowPair(t, p, func(c Conn) Conn {
				rec.Conn = c
				return rec
			}, func(st *Stream) {
				defer st.Close()
				if b, err := st.Recv(nil); err == nil {
					arrived <- bytes.Clone(b)
				}
			})
			st, err := client.OpenID(77)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			_ = st.SetDeadline(time.Now().Add(5 * time.Second))
			if err := send(st); err != nil {
				t.Fatal(err)
			}
			select {
			case got = <-arrived:
			case <-time.After(5 * time.Second):
				t.Fatal("message never arrived")
			}
			return rec.dataAndMux(), got
		}
		flat, gotFlat := frames(func(st *Stream) error { return st.Send(whole) })
		cut1, cut2 := size/3, size/3+size/2
		segs, gotSegs := frames(func(st *Stream) error {
			return st.SendSegments([][]byte{whole[:cut1], nil, whole[cut1:cut2], whole[cut2:]})
		})
		if !bytes.Equal(gotFlat, whole) || !bytes.Equal(gotSegs, whole) {
			t.Fatalf("%d bytes: message arrived changed", size)
		}
		if len(flat) != len(segs) {
			t.Fatalf("%d bytes: %d frames in one piece, %d in pieces", size, len(flat), len(segs))
		}
		for i := range flat {
			if !bytes.Equal(flat[i], segs[i]) {
				t.Fatalf("%d bytes: frame %d differs between one piece and several", size, i)
			}
		}
	}
}

// recordConn keeps a copy of every frame sent.
type recordConn struct {
	Conn
	mu     sync.Mutex
	frames [][]byte
}

func (c *recordConn) Send(p []byte) error {
	c.mu.Lock()
	c.frames = append(c.frames, bytes.Clone(p))
	c.mu.Unlock()
	return c.Conn.Send(p)
}

// dataAndMux returns the recorded message frames — mux-wrapped ones but
// for the hello, and data chunks — leaving out the flow layer's own.
func (c *recordConn) dataAndMux() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out [][]byte
	for _, f := range c.frames {
		switch {
		case wire.PeekOp(f) == wire.OpData:
			out = append(out, f)
		case wire.IsMux(f) && wire.PeekOp(f) != wire.OpHello:
			out = append(out, f)
		}
	}
	return out
}

// TestBulkSlabIsNeverPooled pins who owns a received frame. A message
// that arrived in chunks is handed over in a slab: RecvSlab says so, and
// after Release — and any amount of pool traffic — no pooled buffer is
// that memory, so a value still pointing into it is safe. An unchunked
// frame lies in a pooled buffer: RecvSlab is zero, and Release gives the
// buffer back.
func TestBulkSlabIsNeverPooled(t *testing.T) {
	p := flow.Params{ChunkSize: 4 << 10, StreamWindow: 1 << 20, SessionWindow: 1 << 20}
	type recvd struct {
		frame []byte
		slab  int
	}
	got := make(chan recvd, 2)
	client, _ := flowPair(t, p, nil, func(st *Stream) {
		b, err := st.Recv(nil)
		if err != nil {
			return
		}
		r := recvd{frame: b, slab: st.RecvSlab()}
		st.Release()
		st.Close()
		got <- r
	})
	send := func(payload []byte) recvd {
		st, err := client.Open()
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		_ = st.SetDeadline(time.Now().Add(5 * time.Second))
		if err := st.Send(payload); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-got:
			return r
		case <-time.After(5 * time.Second):
			t.Fatal("message never arrived")
			return recvd{}
		}
	}
	big := pattern(100 << 10)
	r := send(big)
	if r.slab != len(big) {
		t.Fatalf("chunked message: RecvSlab = %d, want a slab made to measure (%d)", r.slab, len(big))
	}
	if cap(r.frame) != len(r.frame) {
		t.Fatalf("slab has %d bytes of slack", cap(r.frame)-len(r.frame))
	}
	// Churn both pools hard; nothing they hand out may be the slab, and
	// the slab must still read as sent.
	for i := 0; i < 2000; i++ {
		for _, bp := range []*[]byte{wire.GetBuf(), getChunkBuf(4 << 10)} {
			b := (*bp)[:cap(*bp)]
			if len(b) > 0 && overlaps(b, r.frame) {
				t.Fatal("a pooled buffer is the slab a consumer still holds")
			}
			for j := range b {
				b[j] = 0xEE
			}
		}
	}
	if !bytes.Equal(r.frame, big) {
		t.Fatal("slab changed under its holder")
	}
	if small := send([]byte("small frame")); small.slab != 0 {
		t.Fatalf("unchunked frame: RecvSlab = %d, want 0 (pooled)", small.slab)
	}
}

// overlaps reports whether a and b share memory.
func overlaps(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b)) && b0 < a0+uintptr(len(a))
}

// TestBulkAssemblyOnData drives the reader's chunk handling directly:
// chunks of any sizes assemble in order into one exact-size slab, whether
// the reader owned their buffers or not; a reset mid-message drops the
// partial assembly and closes the stream; chunks for a stream nobody
// holds are dropped.
func TestBulkAssemblyOnData(t *testing.T) {
	p := flow.Params{ChunkSize: 4 << 10, StreamWindow: 1 << 20, SessionWindow: 1 << 20}
	served := make(chan *Stream, 4)
	_, server := flowPair(t, p, nil, func(st *Stream) { served <- st; <-st.s.done })
	whole := pattern(10_000)

	// Mixed ownership and sizes, as one reader goroutine would deliver
	// them. (onData is the read loop's; the test stands in for it on a
	// stream id the real loop never sees.)
	own := getChunkBuf(4 << 10)
	*own = append(*own, whole[:3000]...)
	if !server.onData(901, 0, *own, own) {
		t.Fatal("onData left the reader its buffer with the chunk in it")
	}
	if server.onData(901, 0, whole[3000:3001], nil) {
		t.Fatal("onData claims a buffer it was not offered")
	}
	server.onData(901, 0, nil, nil) // an empty chunk is legal
	server.onData(901, wire.DataFlagLast, whole[3001:], nil)
	st := <-served
	b, err := st.Recv(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, whole) || cap(b) != len(whole) || st.RecvSlab() != len(whole) {
		t.Fatalf("assembled %d bytes (cap %d, slab %d), want the %d sent, exactly", len(b), cap(b), st.RecvSlab(), len(whole))
	}
	st.Close()

	// Reset mid-message.
	server.onData(902, 0, whole[:4096], nil)
	st = <-served
	server.onData(902, wire.DataFlagReset, nil, nil)
	if st.asm != nil {
		t.Fatal("reset left the partial assembly in place")
	}
	if _, err := st.Recv(nil); err != ErrClosed {
		t.Fatalf("Recv after reset: %v, want ErrClosed", err)
	}

	// A reset for a stream nobody holds opens none.
	server.onData(903, wire.DataFlagReset, nil, nil)
	select {
	case <-served:
		t.Fatal("a bare reset opened a stream")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestBulkBurstRest pins when the pump rests between a stream's bursts:
// never on a session that carries only the bulk stream, and once per
// spent window when other senders are using the write side. The rest is
// stretched to 100 ms so that neither answer depends on how fast the
// machine is: five windows alone must take less than one rest, and beside
// a chattering stream at least one.
func TestBulkBurstRest(t *testing.T) {
	rest := burstRest
	t.Cleanup(func() { burstRest = rest }) // runs after the sessions are closed
	burstRest = 100 * time.Millisecond

	p := flow.Params{ChunkSize: 4 << 10, StreamWindow: 8 << 10, SessionWindow: 32 << 10}
	client, _ := flowPair(t, p, nil, func(st *Stream) {
		defer st.Close()
		for {
			frame, err := st.Recv(nil)
			if err != nil || st.Send(frame[:1]) != nil {
				return
			}
		}
	})
	payload := pattern(40 << 10) // ten chunks, five windows
	bulk := func() time.Duration {
		st, err := client.Open()
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		_ = st.SetDeadline(time.Now().Add(10 * time.Second))
		t0 := time.Now()
		if err := st.Send(payload); err != nil {
			t.Fatalf("chunked send: %v", err)
		}
		if _, err := st.Recv(nil); err != nil {
			t.Fatalf("recv ack: %v", err)
		}
		return time.Since(t0)
	}

	if d := bulk(); d >= burstRest {
		t.Fatalf("a bulk stream alone on its session took %v: it rested", d)
	}

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		st, err := client.Open()
		if err != nil {
			return
		}
		defer st.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st.Send([]byte("x")) != nil {
				return
			}
			if _, err := st.Recv(nil); err != nil {
				return
			}
		}
	}()
	d := bulk()
	close(stop)
	<-stopped
	if d < burstRest {
		t.Fatalf("a bulk stream beside small calls took %v: it never rested", d)
	}
}
