package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"netobjects/internal/flow"
	"netobjects/internal/obs"
	"netobjects/internal/wire"
)

// This file implements multiplexed peer sessions — the departure from the
// SRC RPC discipline Network Objects inherited. The original runtime
// checked a connection out of the pool for the duration of one call, so N
// concurrent calls to a peer cost N connections. A Session instead owns a
// single Conn and interleaves any number of logical exchanges on it:
// senders write their own frames under the session's write lock, a
// demux-reader goroutine routes inbound frames to waiting streams by the
// id in their mux envelope (see wire.AppendMuxHeader), and responses
// complete in whatever order the peer finishes them — no head-of-line
// blocking on call completion. Head-of-line blocking on frame
// *transmission* remains, as it must on a byte stream.
//
// A Stream is one logical exchange on a session and implements Conn, so
// the runtime's call code (send request, await response, acknowledge) runs
// unchanged whether it holds a real checked-out connection or a stream on
// a shared link. Ending a stream abandons only that exchange: late
// responses to it are recognized by their id and dropped, and every other
// stream on the session is untouched — this is what lets a cancelled call
// stop waiting without poisoning the link for its neighbours.
//
// Streams are recycled. The owner's Close hands its stream back to the
// session, channels and timer included, for the next exchange to reuse.
// That is safe because nothing but the owner holds a stream: the reader
// reaches one only through the id map and under the session lock, which
// the stream leaves before it is reused; Session.Abort, a reset from the
// peer and the write-stall check name an exchange by its id, which is
// never reused.

// streamInbox is a stream's inbound frame buffer. Exchanges are short
// (request, response, maybe an ack), so a small buffer suffices; a peer
// flooding one id beyond it has its excess dropped like a lossy network.
const streamInbox = 16

// maxFreeStreams bounds a session's list of closed streams kept for
// reuse. The list holds at most as many streams as the session once had
// open at the same time; the bound, several times the eight callers of
// the busiest benchmark workload, keeps a burst of exchanges from pinning
// some 700 bytes a stream for the rest of the session's life.
const maxFreeStreams = 64

// SessionOptions configures a Session.
type SessionOptions struct {
	// Accept, when non-nil, is invoked on a handler goroutine for every
	// stream the peer opens (a frame with an unknown id). Server sessions
	// set it to their dispatch entry; client sessions leave it nil, which
	// makes unknown ids late responses to abandoned exchanges, dropped.
	// Accept owns the stream as an opener owns one: it ends the exchange
	// with Close, and leaves no other goroutine using the stream.
	Accept func(*Stream)
	// Flow sets the session's receive windows, chunk size and keepalive
	// interval (see internal/flow). Zero fields, and a nil Flow, take the
	// package defaults.
	Flow *flow.Params
	// Metrics, when non-nil, receives the session's handshake,
	// flow-control and keepalive counters.
	Metrics *obs.Metrics
	// LocalSpace is the space identity this endpoint advertises in its
	// hello; zero is an anonymous endpoint. A peer that has identified
	// itself lets the collector treat this session's health as proof of
	// that space's liveness.
	LocalSpace wire.SpaceID
}

// Session multiplexes logical streams over one Conn. It assumes exclusive
// ownership of the connection: sends are serialized by the write lock and
// exactly one goroutine (the demux reader) receives, which is the
// concurrency contract every Conn implementation supports.
type Session struct {
	c      Conn
	accept func(*Stream)

	// flow is the session's flow-control state. See session_flow.go.
	flow *flowState

	// wlock is the write lock: whoever has a token in this one-slot
	// channel may call c.Send. A channel rather than a mutex so that a
	// waiting sender can also select on its stream closing, the session
	// dying and its deadline, and because blocked channel senders are
	// served first come first served — a sender that arrives during a
	// chunk write goes out before the pump's next chunk. wwait counts the
	// senders waiting for it.
	wlock chan struct{}
	wwait atomic.Int32

	// hello is the session's first frame, left for the first holder of
	// the write lock to send (nil once sent). wdog bounds a sender's
	// physical write by its stream's deadline: it fails the session when it
	// fires, the only thing that unblocks a write on a stalled link. Both
	// belong to the holder. writer is the id of the stream whose Send is
	// inside the physical write (0: none), for the write-stall check.
	hello  []byte
	wdog   *time.Timer
	writer atomic.Uint64

	// version is the protocol version this endpoint speaks and demands:
	// wire.Version outside the handshake tests. peer is the hello the peer
	// opened with, nil until it arrives; helloCh closes when it does.
	version   uint64
	peer      atomic.Pointer[wire.Hello]
	helloCh   chan struct{}
	mRejected *obs.Counter

	done chan struct{}

	// mu guards the id map, which is how the reader reaches a stream —
	// every delivery into a stream happens under it — and free, the closed
	// streams kept for reuse.
	mu      sync.Mutex
	streams map[uint64]*Stream
	free    []*Stream
	closed  bool
	cause   error

	// work hands a stream the peer opened to a parked handler goroutine;
	// it is unbuffered, so a send succeeds only while one is parked.
	work chan *Stream

	loops    sync.WaitGroup
	handlers sync.WaitGroup

	bytesSent atomic.Uint64
	bytesRecv atomic.Uint64

	// promiseIDs allocates session-scoped promise ids for pipelined calls
	// and onewaySeq numbers this session's outbound one-way calls; both
	// belong to the session because their scope is exactly its lifetime —
	// the peer's completion table and one-way lane die with the session.
	promiseIDs atomic.Uint64
	onewaySeq  atomic.Uint64
}

// SessionStats is a point-in-time snapshot of one session's load, for the
// per-link gauges and the debug page.
type SessionStats struct {
	// InFlight is the number of open streams (exchanges awaiting their
	// response).
	InFlight int
	// QueueDepth is the number of senders waiting for the write lock —
	// nonzero when the link's write side is the bottleneck.
	QueueDepth int
	// BytesSent and BytesRecv count wire bytes through the session,
	// envelopes included.
	BytesSent uint64
	BytesRecv uint64
	// Hello renders the peer's side of the handshake: "pending" until its
	// hello arrives, then its protocol version and space id.
	Hello string
	// SendWindow is the remaining session-level send credit in bytes and
	// FlowQueued the data bytes queued awaiting credit or the chunk pump;
	// FlowStalls counts times the pump found data queued but nothing
	// sendable for lack of credit.
	SendWindow int64
	FlowQueued int64
	FlowStalls uint64
}

// NewSession wraps c in a session and starts its demux reader, chunk pump
// and keepalive loop. It does no I/O itself. The session owns c from here
// on: closing the session closes the connection, and a connection error
// tears the session down.
func NewSession(c Conn, opts SessionOptions) *Session {
	return newSession(c, opts, wire.Version)
}

func newSession(c Conn, opts SessionOptions, version uint64) *Session {
	var p flow.Params
	if opts.Flow != nil {
		p = *opts.Flow
	}
	p = p.WithDefaults()
	s := &Session{
		c:       c,
		accept:  opts.Accept,
		flow:    newFlowState(p, opts.Metrics),
		wlock:   make(chan struct{}, 1),
		hello:   helloFrame(version, opts.LocalSpace, p),
		version: version,
		helloCh: make(chan struct{}),
		done:    make(chan struct{}),
		streams: make(map[uint64]*Stream),
		work:    make(chan *Stream),
	}
	if opts.Metrics != nil {
		s.mRejected = opts.Metrics.SessionHelloRejected
	}
	// Whoever first holds the write lock — the pump, woken at once — sends
	// the hello ahead of its own frame, so it is the first frame the peer
	// sees, as the peer demands.
	s.flow.wake()
	s.loops.Add(1)
	go s.pumpLoop()
	if s.flow.ka != nil {
		s.loops.Add(1)
		go s.keepaliveLoop()
	}
	// The reader starts last: a go statement can cost its caller a thread
	// start, and a server wants the session on its books before it serves.
	s.loops.Add(1)
	go s.readLoop()
	return s
}

// HelloFrame builds the frame that opens a session, for an endpoint of
// the given space (zero: anonymous) receiving under p: a wire.Hello of
// this tree's protocol version, mux-wrapped on stream 0.
func HelloFrame(space wire.SpaceID, p flow.Params) []byte {
	return helloFrame(wire.Version, space, p.WithDefaults())
}

func helloFrame(version uint64, space wire.SpaceID, p flow.Params) []byte {
	return append(wire.AppendMuxHeader(nil, 0), wire.Marshal(nil, &wire.Hello{
		Version:       version,
		Space:         space,
		StreamWindow:  uint64(p.StreamWindow),
		SessionWindow: uint64(p.SessionWindow),
		ChunkSize:     uint64(p.ChunkSize),
	})...)
}

// onHello checks the first inbound frame, which must be a hello of our
// version, and adopts the peer's identity and windows.
func (s *Session) onHello(frame []byte) error {
	var h wire.Hello
	id, payload, err := wire.SplitMux(frame)
	if err == nil && id == 0 {
		err = wire.UnmarshalInto(payload, &h)
	}
	if err != nil || id != 0 {
		return fmt.Errorf("transport: first frame (%v) is not a version %d hello", wire.PeekOp(frame), s.version)
	}
	if h.Version != s.version {
		return fmt.Errorf("transport: peer speaks protocol version %d, this endpoint speaks version %d", h.Version, s.version)
	}
	s.flow.adopt(&h)
	s.peer.Store(&h)
	close(s.helloCh)
	return nil
}

// rejectHello fails the session over the peer's first frame. Our own
// hello goes out first if no sender has taken it along yet, so that the
// peer can name the mismatch too instead of seeing the link drop.
func (s *Session) rejectHello(cause error) {
	s.mRejected.Inc()
	t := time.NewTimer(writeStallGrace)
	defer t.Stop()
	select {
	case s.wlock <- struct{}{}:
		_ = s.writePending()
		s.unlockWrite()
	case <-t.C: // the holder is stuck on a stalled link
	case <-s.done:
	}
	s.fail(cause)
}

// PeerSpace reports the space id the peer advertised on this session,
// or zero when the peer is anonymous or has not said hello yet.
func (s *Session) PeerSpace() wire.SpaceID {
	if h := s.peer.Load(); h != nil {
		return h.Space
	}
	return 0
}

// KeepaliveHealthy reports whether an active session keepalive is
// currently confirming the peer: the keepalive is running, the peer has
// said hello and has answered within its miss budget. This is the strong
// liveness signal collector traffic may be subsumed by — Healthy() alone
// cannot distinguish a hung peer process from a live one.
func (s *Session) KeepaliveHealthy() bool {
	select {
	case <-s.done:
		return false
	default:
	}
	return s.flow.ka != nil && s.peer.Load() != nil
}

// Open starts a new stream with a fresh process-wide unique id.
func (s *Session) Open() (*Stream, error) { return s.OpenID(obs.NextCallID()) }

// OpenID starts a new stream with the caller's id — the runtime uses the
// call's correlation id, so the frame tag and the cancellation handle are
// one and the same. The id must be nonzero and not currently open on this
// session.
func (s *Session) OpenID(id uint64) (*Stream, error) {
	if id == 0 {
		return nil, errors.New("transport: zero stream id")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, s.closeErrLocked()
	}
	if _, dup := s.streams[id]; dup {
		return nil, fmt.Errorf("transport: stream id %d already open", id)
	}
	return s.newStreamLocked(id), nil
}

// newStreamLocked opens a stream for exchange id: one its owner closed
// earlier when there is one, else a new one.
func (s *Session) newStreamLocked(id uint64) *Stream {
	var st *Stream
	if n := len(s.free); n > 0 {
		st = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		st = &Stream{s: s, in: make(chan inMsg, streamInbox), wake: make(chan struct{}, 1)}
	}
	st.id = id
	st.state.Store(streamOpen)
	s.streams[id] = st
	return st
}

// routeLocked finds the stream an inbound frame for id belongs to: the
// open one, or — when the session serves — a new one the peer is opening,
// reported fresh.
func (s *Session) routeLocked(id uint64) (st *Stream, fresh bool) {
	if st = s.streams[id]; st != nil {
		return st, false
	}
	if s.accept == nil || s.closed {
		return nil, false
	}
	return s.newStreamLocked(id), true
}

// Abort ends exchange id from outside it: its stream's blocked and later
// Send and Recv calls fail with ErrClosed, frames for it are dropped, and
// every other stream on the session is untouched. It is how a goroutine
// other than the stream's owner — a cancellation watcher — gives up on an
// exchange; the owner still closes the stream. An id that is not open is
// ignored, so an abort that loses the race with the exchange's end does
// nothing, whatever has become of the stream.
func (s *Session) Abort(id uint64) {
	s.mu.Lock()
	st := s.streams[id]
	if st != nil {
		st.endLocked()
		// Wake the owner, should it be blocked in Send or Recv.
		select {
		case st.wake <- struct{}{}:
		default:
		}
	}
	s.mu.Unlock()
	if st == nil {
		return
	}
	// A Send of the exchange stuck inside the physical write gets
	// writeStallGrace to come back before the session is failed to free
	// it: a healthy link finishes the write at once, a stalled one has to
	// be failed. The check names the exchange by id, not by its stream,
	// which may be open again for another exchange by then.
	if s.writer.Load() == id {
		time.AfterFunc(writeStallGrace, func() {
			if s.writer.Load() == id {
				s.fail(errWriteStalled)
			}
		})
	}
	s.dropQueued(id)
}

// dropQueued withdraws exchange id's queued chunked sends. A reset
// follows one that had chunks on the wire already, since it poisons the
// peer's assembly.
func (s *Session) dropQueued(id uint64) {
	if f := s.flow; f.sched.CloseStream(id, ErrClosed) {
		f.queueReset(id)
	}
}

// fail tears the session down once: every stream's pending Send and Recv
// fails with ErrClosed (wrapping cause), and the connection is closed.
func (s *Session) fail(cause error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cause = cause
	s.mu.Unlock()
	close(s.done)
	s.flow.sched.Fail(s.closeErr())
	_ = s.c.Close()
}

// Close tears the session down. All streams fail with ErrClosed. Safe to
// call multiple times and concurrently with stream use.
func (s *Session) Close() error {
	s.fail(ErrClosed)
	return nil
}

// Done is closed when the session is torn down.
func (s *Session) Done() <-chan struct{} { return s.done }

// Wait blocks until the session's goroutines — writer, demux reader, and
// any accept handlers — have finished. Serving loops use it so a space's
// shutdown can wait for inbound dispatches.
func (s *Session) Wait() {
	s.loops.Wait()
	s.handlers.Wait()
}

// closeErrLocked renders the teardown cause as an error satisfying
// errors.Is(err, ErrClosed).
func (s *Session) closeErrLocked() error {
	if s.cause == nil || errors.Is(s.cause, ErrClosed) {
		return ErrClosed
	}
	return fmt.Errorf("%w: session failed: %v", ErrClosed, s.cause)
}

func (s *Session) closeErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeErrLocked()
}

// Healthy reports whether the session can still carry traffic, so a
// session cache can decide between reuse and redial: it has not failed,
// and its connection does not already know the peer is gone — which the
// reader may be a moment from finding out.
func (s *Session) Healthy() bool {
	select {
	case <-s.done:
		return false
	default:
		return Healthy(s.c)
	}
}

// Label describes the session's peer for logs and the debug page.
func (s *Session) Label() string { return s.c.RemoteLabel() }

// NextPromiseID allocates a fresh session-scoped promise id for a
// pipelined call. Ids are never reused within a session; the peer's
// completion table is keyed by them.
func (s *Session) NextPromiseID() uint64 { return s.promiseIDs.Add(1) }

// NextOneWaySeq allocates the next one-way sequence number (1-based),
// fixing the call's position in the peer's ordered one-way lane.
func (s *Session) NextOneWaySeq() uint64 { return s.onewaySeq.Add(1) }

// OneWaysSent reports how many one-way calls have been allocated on this
// session — the Barrier value for a pipelined call that must order after
// them.
func (s *Session) OneWaysSent() uint64 { return s.onewaySeq.Load() }

// Stats snapshots the session's load.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	inflight := len(s.streams)
	s.mu.Unlock()
	hello := "pending"
	if h := s.peer.Load(); h != nil {
		hello = fmt.Sprintf("v%d %v", h.Version, h.Space)
	}
	f := s.flow
	return SessionStats{
		InFlight:   inflight,
		QueueDepth: int(s.wwait.Load()),
		BytesSent:  s.bytesSent.Load(),
		BytesRecv:  s.bytesRecv.Load(),
		Hello:      hello,
		SendWindow: f.sched.SessAvail(),
		FlowQueued: f.sched.QueuedBytes(),
		FlowStalls: f.sched.Stalls(),
	}
}

// lockWrite takes the write lock on behalf of st, waiting no longer than
// the stream stays open, the session stays up and the stream's deadline
// allows. The deadline goes on bounding the write the lock is taken for,
// through the watchdog: the holder cannot be called back from c.Send.
func (s *Session) lockWrite(st *Stream) error {
	select {
	case <-s.done:
		return s.closeErr()
	default:
	}
	left, err := st.left()
	if err != nil {
		return err
	}
	select {
	case s.wlock <- struct{}{}:
	default:
		if left, err = s.awaitWrite(st, left); err != nil {
			return err
		}
	}
	s.writer.Store(st.id)
	if left > 0 {
		if s.wdog == nil {
			s.wdog = time.AfterFunc(left, func() { s.fail(errWriteStalled) })
		} else {
			s.wdog.Reset(left)
		}
	}
	return nil
}

// awaitWrite is lockWrite's slow path: the lock is taken, so wait for it.
// It returns what is left of the deadline afterwards.
func (s *Session) awaitWrite(st *Stream, left time.Duration) (time.Duration, error) {
	tc := st.arm(left)
	defer st.disarm()
	s.wwait.Add(1)
	defer s.wwait.Add(-1)
	select {
	case s.wlock <- struct{}{}:
	case <-st.wake:
		return 0, ErrClosed
	case <-s.done:
		return 0, s.closeErr()
	case <-tc:
		return 0, ErrTimeout
	}
	left, err := st.left()
	if err != nil {
		<-s.wlock
	}
	return left, err
}

func (s *Session) unlockWrite() {
	if s.wdog != nil {
		s.wdog.Stop()
	}
	s.writer.Store(0)
	<-s.wlock
}

// errWriteStalled is the cause of a session failed under a write that
// outlasted its stream's deadline, or its stream's Close by writeStallGrace.
var errWriteStalled = errors.New("transport: write stalled on the link")

const writeStallGrace = time.Second

// write sends one frame on the connection; the caller holds the write
// lock. A failed write fails the session.
func (s *Session) write(frame []byte) error {
	if err := s.c.Send(frame); err != nil {
		s.fail(err)
		return s.closeErr()
	}
	s.bytesSent.Add(uint64(len(frame)))
	return nil
}

// writePending sends what rides ahead of the lock holder's own frame: the
// hello on a new session, then the flow layer's pending protocol frames.
func (s *Session) writePending() error {
	if frame := s.hello; frame != nil {
		s.hello = nil
		if err := s.write(frame); err != nil {
			return err
		}
	}
	return s.flow.writeControl(s)
}

// pumpLoop writes what has no sender to carry it: credit-gated data
// chunks, and protocol frames (pongs, window grants, resets, pings) when
// no sender comes by to take them along. It takes the write lock per
// frame like any sender, so the order on the wire is protocol frames
// first, then every small frame already waiting for the lock — calls,
// responses, cancels, collector RPCs — and only then one more data
// chunk: a cancel overtakes any queued bulk payload and waits at most one
// chunk write.
//
// Between chunks the small frames are served; between bursts they are
// left alone. A stream spends its window in one burst of chunks and then
// waits for credit, and on a fast link the credit is back within tens of
// microseconds, so a payload of many windows keeps the link busy from
// its first chunk to its last and every small call made meanwhile queues
// behind chunks in the peer's socket. So when the pump runs out of credit
// with data still queued, and other senders have used the write side
// since its last burst, it rests for burstRest before it looks for credit
// again: the small calls get the link to themselves that long, once per
// window. A session that carries nothing but the bulk stream never rests.
func (s *Session) pumpLoop() {
	defer s.loops.Done()
	f := s.flow
	var seen uint64 // s.bytesSent as the pump's last write left it
	for {
		select {
		case <-f.kick:
		case <-f.sched.Kick():
		case <-s.done:
			return
		}
		shared := false
		for wrote := true; wrote; {
			select {
			case s.wlock <- struct{}{}:
			case <-s.done:
				return
			}
			if s.bytesSent.Load() != seen {
				shared = true // someone else wrote in between
			}
			err := s.writePending()
			if err == nil {
				wrote, err = f.writeData(s)
			}
			seen = s.bytesSent.Load()
			s.unlockWrite()
			if err != nil {
				return
			}
		}
		if shared && f.sched.QueuedBytes() > 0 {
			time.Sleep(burstRest)
		}
	}
}

// burstRest is how long a bulk stream that has spent its window leaves a
// shared link to the small frames. Measured on bulk_tcp (1 MiB calls
// beside a closed-loop null probe, loopback): at 50 µs the probe's median
// is 14.6 µs, at 100 µs it is 12.5 µs — what it was before the bulk path
// got four times faster and the link four times busier — and at 200 µs
// it is no better (12.4 µs) while the stream loses another quarter. On a
// link whose round trip is longer than this the credit is not back yet
// when the rest ends, and it costs nothing. (A variable so that a test can
// make the rest long enough to tell from everything else.)
var burstRest = 100 * time.Microsecond

// readLoop demultiplexes inbound frames to their streams by envelope id.
// The first frame must be the peer's hello. After it, a frame for an
// unknown id either opens a server-side stream (Accept installed) or is a
// late response to an abandoned exchange, dropped.
func (s *Session) readLoop() {
	defer s.loops.Done()
	// scratch is the reader's receive buffer. Until a data chunk arrives it
	// is whatever the connection grew it to; from then on it is own, a
	// buffer with room for any chunk the peer may send, so that a chunk
	// read into it can be handed to its stream as it lies and the reader
	// take another (see onData).
	var scratch []byte
	var own *[]byte
	defer func() {
		if own != nil {
			chunkBufs.Put(own)
		}
	}()
	for {
		frame, err := s.c.Recv(scratch)
		if err != nil {
			s.fail(err)
			return
		}
		// The frame is the reader's to give away when the connection read
		// it into the pooled buffer; a connection that returns buffers of
		// its own (inmem, chaos) keeps them, and chunks are copied out.
		mine := own != nil && len(frame) > 0 && &frame[0] == &(*own)[:1][0]
		if !mine {
			scratch = frame
		}
		// Counting the bytes is also what proves the peer alive to the
		// keepalive, which compares the count from one tick to the next.
		s.bytesRecv.Add(uint64(len(frame)))
		if s.peer.Load() == nil {
			if err := s.onHello(frame); err != nil {
				s.rejectHello(err)
				return
			}
			continue
		}
		if wire.IsMux(frame) {
			id, payload, err := wire.SplitMux(frame)
			if err != nil {
				s.fail(fmt.Errorf("transport: bad mux frame on session: %w", err))
				return
			}
			if id == 0 {
				// Stream 0 carries the hello and nothing else.
				s.fail(fmt.Errorf("transport: %v on stream 0 after the hello", wire.PeekOp(frame)))
				return
			}
			s.dispatch(id, payload)
			continue
		}
		if wire.PeekOp(frame) == wire.OpData {
			id, flags, chunk, err := wire.SplitData(frame)
			if err == nil {
				if !mine {
					s.onData(id, flags, chunk, nil)
				} else if s.onData(id, flags, chunk, own) {
					own = nil // the chunk went with the buffer it lay in
				}
				if own == nil {
					own = getChunkBuf(s.flow.params.ChunkSize + dataHeaderMax)
				}
				scratch = *own
				continue
			}
		} else if s.readFlowFrame(frame) {
			continue
		}
		// A bare frame on a multiplexed connection means the peer lost
		// track of the protocol; nothing on this link can be trusted.
		s.fail(fmt.Errorf("transport: unexpected frame on session (op %v)", wire.PeekOp(frame)))
		return
	}
}

// readFlowFrame handles one naked flow frame other than a data chunk,
// reporting whether the frame was one.
func (s *Session) readFlowFrame(frame []byte) bool {
	f := s.flow
	switch wire.PeekOp(frame) {
	case wire.OpWindowUpdate:
		id, inc, err := wire.SplitWindowUpdate(frame)
		if err != nil {
			return false
		}
		f.mGrantsRecv.Inc()
		if id == 0 {
			f.sched.GrantSession(int64(inc))
		} else {
			f.sched.Grant(id, int64(inc))
		}
	case wire.OpFlowPing:
		token, _, err := wire.SplitFlowPing(frame)
		if err != nil {
			return false
		}
		f.queuePong(token)
	case wire.OpFlowPong:
		// Its bytes already proved the peer alive; just count it.
		f.mPongs.Inc()
	default:
		return false
	}
	return true
}

// dispatch routes one inbound payload to its stream, creating the stream
// (and handing it to a handler) when the peer opened it. The delivery is
// made under the session lock, so it reaches the exchange the id names
// and no later user of the same stream.
func (s *Session) dispatch(id uint64, payload []byte) {
	bp := wire.GetBuf()
	*bp = append((*bp)[:0], payload...)
	s.mu.Lock()
	st, fresh := s.routeLocked(id)
	delivered := st != nil && st.deliverLocked(inMsg{pooled: bp})
	s.mu.Unlock()
	if !delivered {
		wire.PutBuf(bp)
	}
	if fresh {
		s.serve(st)
	}
}

// handlerIdle is how long a handler goroutine stays parked without a
// stream before it retires.
const handlerIdle = time.Second

// serve runs the accept function on a stream the peer opened: on a parked
// handler goroutine when there is one, on a new one otherwise — never
// queued behind a busy handler, so a blocked exchange delays no other.
// Reusing handlers spares each served call a goroutine start and the
// regrowth of its stack.
func (s *Session) serve(st *Stream) {
	select {
	case s.work <- st:
	default:
		s.handlers.Add(1)
		go s.handlerLoop(st)
	}
}

func (s *Session) handlerLoop(st *Stream) {
	defer s.handlers.Done()
	idle := time.NewTimer(handlerIdle)
	defer idle.Stop()
	for {
		s.accept(st)
		idle.Reset(handlerIdle)
		select {
		case st = <-s.work:
		case <-idle.C:
			return
		case <-s.done:
			return
		}
	}
}

// Stream is one logical exchange on a session. It implements Conn: Send
// wraps the payload in the stream's mux envelope and writes it under the
// session's write lock; Recv awaits the next inbound frame routed to this id.
// Per the Conn contract a stream is used by one exchange at a time, by its
// owner: the goroutine that opened it, or the Accept function it was
// handed to. Unlike a Conn's, its Close is the owner's last call and not
// one for other goroutines: another goroutine that must cut the exchange
// short calls Session.Abort with the stream's id.
type Stream struct {
	s  *Session
	id uint64
	in chan inMsg

	// state is streamOpen while the exchange runs, streamEnded once it
	// was ended from outside (Session.Abort, the peer's reset) and
	// streamClosed once the owner closed it. It changes under the session
	// lock; the owner reads it without.
	state atomic.Int32
	// wake is rung when the exchange is ended from outside, so that an
	// owner blocked in Send or Recv looks at state again. One slot: only
	// the owner waits on it.
	wake chan struct{}
	// timer bounds the owner's blocking waits by the deadline. It is made
	// on the stream's first such wait and kept across reuses, each wait
	// resetting it and stopping it again (arm, disarm).
	timer *time.Timer

	// chunked is set once a chunked send of the exchange has been queued:
	// the flow scheduler then keeps state for the id until the stream ends.
	chunked atomic.Bool

	// deadline is the exchange deadline in Unix nanoseconds (0 = none).
	// It bounds the local waits — for the write lock and for the response
	// — the way a connection deadline bounds socket I/O.
	deadline atomic.Int64

	// last is the pooled buffer returned by the previous Recv, recycled
	// on the next one (the Conn contract makes a Recv result valid only
	// until the next Recv), by Release or by Close. Touched only by the
	// owner.
	last *[]byte

	// slab is the capacity of the buffer behind the frame the previous
	// Recv returned when that buffer is a slab — made for this one
	// message, never pooled — and zero when it is pooled (then last is
	// set). Touched only by the owner.
	slab int

	// asm holds the chunks of an in-progress chunked message, as they
	// arrived; touched by the session's read loop, under the session lock.
	// ledger is the receive side of this stream's flow-control window,
	// made by the read loop on the exchange's first data chunk (unchunked
	// frames are never charged); Recv sees it through the inbox channel,
	// which carries the chunked message.
	asm    *assembly
	ledger *flow.RecvLedger
}

// Stream states; see Stream.state.
const (
	streamOpen int32 = iota
	streamEnded
	streamClosed
)

// assembly is a chunked message on its way from the reader to its
// consumer: the chunks in arrival order, n bytes in all.
type assembly struct {
	chunks []chunk
	n      int
}

// chunk is one received data chunk awaiting assembly: b, which lies in
// bp, a buffer from chunkBufs.
type chunk struct {
	bp *[]byte
	b  []byte
}

// chunkBufs recycles the buffers data chunks wait in between the reader
// and the consumer that assembles them: the reader's receive buffer once
// chunks are flowing, given away with each chunk read into it. They are
// kept apart from wire's pool because they must hold a whole chunk, and
// most of that pool's buffers are a sixteenth the size.
var chunkBufs sync.Pool

// dataHeaderMax bounds a data frame's header: op, stream id, flags.
const dataHeaderMax = 1 + 10 + 1

// getChunkBuf returns an empty buffer with room for n bytes.
func getChunkBuf(n int) *[]byte {
	if bp, _ := chunkBufs.Get().(*[]byte); bp != nil && cap(*bp) >= n {
		*bp = (*bp)[:0]
		return bp
	}
	b := make([]byte, 0, n)
	return &b
}

// inMsg is one delivered inbound message: either a whole frame, in the
// pooled buffer pooled, or asm, a chunked message still in the pieces it
// arrived in. The bytes of a chunked message are also what the stream's
// flow-control ledger holds frozen until the consumer takes it (unchunked
// frames are never charged). Sixteen of these make a stream's inbox, so
// the struct is kept to two words.
type inMsg struct {
	pooled *[]byte
	asm    *assembly
}

// recycle gives the buffers of a message nobody will read back to their
// pools.
func (m inMsg) recycle() {
	wire.PutBuf(m.pooled)
	m.asm.recycle()
}

func (a *assembly) recycle() {
	if a != nil {
		for _, c := range a.chunks {
			chunkBufs.Put(c.bp)
		}
	}
}

// ID returns the stream's envelope id.
func (st *Stream) ID() uint64 { return st.id }

// Session returns the session carrying this stream.
func (st *Stream) Session() *Session { return st.s }

func (st *Stream) isClosed() bool { return st.state.Load() != streamOpen }

// deliverLocked puts a message in the inbox, under the session lock. A
// full inbox drops it, as a lossy link would, rather than let one stream
// wedge the session's reader.
func (st *Stream) deliverLocked(m inMsg) bool {
	select {
	case st.in <- m:
		return true
	default:
		return false
	}
}

// endLocked ends an open stream's exchange, under the session lock: the
// id leaves the map, so no frame reaches the stream from here on, and a
// partial chunked message is dropped.
func (st *Stream) endLocked() {
	st.state.Store(streamEnded)
	delete(st.s.streams, st.id)
	st.asm.recycle()
	st.asm = nil
}

// left reports how long the stream's deadline leaves: zero when none is
// set, ErrTimeout when it already passed.
func (st *Stream) left() (time.Duration, error) {
	d := st.deadline.Load()
	if d == 0 {
		return 0, nil
	}
	if wait := time.Until(time.Unix(0, d)); wait > 0 {
		return wait, nil
	}
	return 0, ErrTimeout
}

// arm starts the stream's timer for d and returns its channel; for d = 0,
// a wait with no deadline, it returns nil. The waiter disarms it after.
func (st *Stream) arm(d time.Duration) <-chan time.Time {
	if d == 0 {
		return nil
	}
	if st.timer == nil {
		st.timer = time.NewTimer(d)
	} else {
		st.timer.Reset(d)
	}
	return st.timer.C
}

func (st *Stream) disarm() {
	if st.timer != nil {
		st.timer.Stop()
	}
}

// Send wraps payload in the stream's mux envelope and writes it to the
// connection itself, under the session's write lock, along with any
// protocol frames pending at that moment. It returns after the physical
// write, which graceful drain relies on: the runtime decrements its
// in-flight accounting when a dispatch's response Send returns, and
// shutdown hard-closes connections once that count reaches zero. The
// wait for the lock ends with the stream, the session or the deadline; so
// does the write, which only failing the session can cut short.
//
// The payload is read, once, before Send returns and not after, however
// Send ends: the caller may reuse it at once.
func (st *Stream) Send(payload []byte) error { return st.send(payload, nil) }

// SendSegments is Send for a payload that lies in several places: the
// frame carries the concatenation of segs, which must not be empty. It is
// what lets a sender leave a large byte field in its caller's buffer all
// the way to the frame it is written from (see wire.MarshalSegments).
func (st *Stream) SendSegments(segs [][]byte) error { return st.send(segs[0], segs[1:]) }

// send sends payload followed by more as one frame.
func (st *Stream) send(payload []byte, more [][]byte) error {
	if st.isClosed() {
		return ErrClosed
	}
	s := st.s
	n := len(payload)
	for _, p := range more {
		n += len(p)
	}
	if n > s.flow.chunkThreshold() {
		// Large payload: stream it as bounded, credit-gated chunks instead
		// of one link-monopolizing frame, against the windows in the peer's
		// hello.
		if err := s.awaitHello(st); err != nil {
			return err
		}
		return st.sendChunked(payload, more)
	}
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	*bp = append(wire.AppendMuxHeader((*bp)[:0], st.id), payload...)
	for _, p := range more {
		*bp = append(*bp, p...)
	}
	if err := s.lockWrite(st); err != nil {
		return err
	}
	defer s.unlockWrite()
	err := s.writePending()
	if err == nil {
		err = s.write(*bp)
	}
	if err != nil {
		if _, late := st.left(); late != nil {
			return late // the watchdog cut the write short at our deadline
		}
	}
	return err
}

// Recv returns the next inbound frame routed to this stream. The scratch
// argument is ignored; the session's demux already copied the payload
// into a pooled buffer, which the following Recv or Release recycles. A
// message that arrived in chunks is assembled here, in a slab of its own
// (see take and RecvSlab).
func (st *Stream) Recv(scratch []byte) ([]byte, error) {
	st.Release()
	// Deliver a frame that arrived before teardown even if the stream or
	// session has since closed, matching the drain behaviour of real
	// connections.
	select {
	case m := <-st.in:
		return st.take(m), nil
	default:
	}
	if st.isClosed() {
		return nil, ErrClosed
	}
	wait, err := st.left()
	if err != nil {
		return nil, err
	}
	tc := st.arm(wait)
	defer st.disarm()
	select {
	case m := <-st.in:
		return st.take(m), nil
	case <-st.wake:
		err = ErrClosed
	case <-st.s.done:
		err = st.s.closeErr()
	case <-tc:
		return nil, ErrTimeout
	}
	// Frames are delivered under the session lock, the lock the stream is
	// ended under, so one that arrived before the end is in the inbox now.
	select {
	case m := <-st.in:
		return st.take(m), nil
	default:
		return nil, err
	}
}

// take consumes one delivered message, granting back the flow-control
// credit its bytes held frozen while it sat in the inbox.
//
// A chunked message is assembled here, on the consumer's goroutine: one
// copy of each chunk into a slab made to measure, the chunks' buffers
// back to the pool. The demultiplexing reader is spared both — a
// message-sized allocation can stall on the collector for as long as the
// whole transfer takes, and every stream of the session would wait
// behind it. This is also the one place that decides what a decoded value
// may keep pointing into: the slab is new, belongs to this consumer and
// never reaches a pool; every other frame lies in a pooled buffer
// (last), which does.
func (st *Stream) take(m inMsg) []byte {
	st.last, st.slab = m.pooled, 0
	if m.asm == nil {
		return *m.pooled
	}
	slab := make([]byte, 0, m.asm.n)
	for _, c := range m.asm.chunks {
		slab = append(slab, c.b...)
		chunkBufs.Put(c.bp)
	}
	st.slab = cap(slab)
	if g := st.ledger.Delivered(m.asm.n); g > 0 {
		st.s.flow.queueGrant(st.id, g)
	}
	return slab
}

// RecvSlab reports whether the frame the last Recv returned lies in a
// slab: a buffer made for that one message, which no pool will hand to
// anyone else, so values decoded from the frame may go on pointing into
// it for as long as they like. It returns the slab's capacity — what
// such a value keeps alive — and zero for a frame in a pooled buffer,
// which must be copied out of before the next Recv or Release.
func (st *Stream) RecvSlab() int { return st.slab }

// Release recycles the pooled buffer behind the last received frame; a
// slab is not the pool's, and stays with whoever still points into it.
// The owner may call it early, once it is done with the frame but not yet
// with the stream; Close does it too.
func (st *Stream) Release() {
	if st.last != nil {
		wire.PutBuf(st.last)
		st.last = nil
	}
}

// SetDeadline bounds subsequent Send and Recv waits; the zero time
// removes the bound. The deadline is local to this stream — it never
// touches the shared connection.
func (st *Stream) SetDeadline(t time.Time) error {
	if t.IsZero() {
		st.deadline.Store(0)
	} else {
		st.deadline.Store(t.UnixNano())
	}
	return nil
}

// Close ends the exchange — the id is forgotten, so late responses to it
// are dropped by the demux — and hands the stream back to its session for
// a later exchange to reuse, along with the buffer behind the last
// received frame. The shared connection and every other stream are
// untouched. It is the owner's last call on the stream: once Close has
// begun, neither the owner nor anyone it shared the stream with may use
// it again. Calling it a second time before the stream is reused does
// nothing.
func (st *Stream) Close() error {
	s, id := st.s, st.id
	s.mu.Lock()
	state := st.state.Load()
	if state == streamClosed {
		s.mu.Unlock()
		return nil
	}
	if state == streamOpen {
		st.endLocked()
	}
	st.state.Store(streamClosed)
	chunked := st.chunked.Swap(false)
	st.reset()
	if !s.closed && len(s.free) < maxFreeStreams {
		s.free = append(s.free, st)
	}
	s.mu.Unlock()
	if state == streamOpen && chunked {
		s.dropQueued(id)
	}
	return nil
}

// reset empties a closed stream for its next exchange: frames left in the
// inbox, the buffer behind the last one received and the doorbell go, so
// that a stream waiting for reuse pins nothing. The caller holds the
// session lock, and the stream has left the id map.
func (st *Stream) reset() {
	for drained := false; !drained; {
		select {
		case m := <-st.in:
			m.recycle()
		default:
			drained = true
		}
	}
	select {
	case <-st.wake:
	default:
	}
	st.Release()
	st.slab = 0
	st.ledger = nil
	st.deadline.Store(0)
}

// RemoteLabel describes the peer and the stream for logs.
func (st *Stream) RemoteLabel() string {
	return fmt.Sprintf("%s#%d", st.s.c.RemoteLabel(), st.id)
}

// Healthy reports whether the exchange can still complete: the stream is
// open and its session alive.
func (st *Stream) Healthy() bool { return !st.isClosed() && st.s.Healthy() }
