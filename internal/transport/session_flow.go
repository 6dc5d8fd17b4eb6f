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

// This file is the session half of the flow-control subsystem
// (internal/flow): chunked sends, credit accounting, the protocol frames
// that ride along with senders, and keepalives. A session advertises its
// receive windows in its hello; a payload larger than the chunk size
// waits for the peer's hello and then travels as credit-gated OpData
// chunks, and nothing else ever waits for it.
//
// Whoever holds the session's write lock — a sender or the chunk pump —
// first drains the pending protocol frames (pongs, window grants, resets,
// pings). The pump then writes one data chunk and gives the lock up, and
// every small frame that waited meanwhile (calls, responses, cancels,
// collector RPCs) goes out before its next chunk. A cancel therefore
// waits at most one chunk write — the fairness property PR 4 lost when it
// folded every exchange onto one connection.

// flowState carries one session's flow-control machinery.
type flowState struct {
	params flow.Params     // local (receive-side) parameters, resolved
	sched  *flow.Scheduler // sender side: queued items, credit, round-robin
	ka     *flow.Keepalive // nil when keepalives are disabled

	sendChunk atomic.Int64 // chunk size for sends: ours, then min(ours, peer's) on its hello

	sessLedger *flow.RecvLedger // receive side of the session-level window
	// sessOwed is the data the peer has sent against the session window
	// and not yet been granted back. A grant counts once it is taken for
	// the wire, before it can reach the peer, so a peer that keeps to its
	// credit never takes this past the window it was advertised.
	// streamOwed is the same per stream, against the stream window, under
	// gmu: kept from a stream's first chunk until the stream ends.
	sessOwed   atomic.Int64
	streamOwed map[uint64]int64

	// Pending protocol frames, materialized under the write lock at send
	// time so the reader never blocks queueing them (a reader blocked on
	// its own write side is one half of a classic distributed deadlock).
	gmu    sync.Mutex
	grants map[uint64]int64 // stream id -> coalesced credit; id 0 = session
	pongs  []uint64
	pings  []uint64
	resets []uint64
	kick   chan struct{} // wakes the pump for control work

	seenStalls uint64 // scheduler stalls already mirrored to the metric (pump-only)

	mChunks     *obs.Counter
	mGrantsSent *obs.Counter
	mGrantsRecv *obs.Counter
	mStalls     *obs.Counter
	mPings      *obs.Counter
	mPongs      *obs.Counter
	mKaFail     *obs.Counter
}

func newFlowState(p flow.Params, m *obs.Metrics) *flowState {
	f := &flowState{
		params:     p,
		sched:      flow.NewScheduler(p.ChunkSize, p.StreamWindow, p.SessionWindow),
		sessLedger: flow.NewRecvLedger(p.SessionWindow),
		grants:     make(map[uint64]int64),
		streamOwed: make(map[uint64]int64),
		kick:       make(chan struct{}, 1),
	}
	f.sendChunk.Store(int64(p.ChunkSize))
	if p.KeepaliveInterval > 0 {
		f.ka = flow.NewKeepalive(p.KeepaliveInterval)
	}
	if m != nil {
		f.mChunks = m.FlowChunksSent
		f.mGrantsSent = m.FlowWindowUpdatesSent
		f.mGrantsRecv = m.FlowWindowUpdatesRecv
		f.mStalls = m.FlowWriterStalls
		f.mPings = m.KeepalivePingsSent
		f.mPongs = m.KeepalivePongsRecv
		f.mKaFail = m.KeepaliveFailures
	}
	return f
}

func (f *flowState) wake() {
	select {
	case f.kick <- struct{}{}:
	default:
	}
}

// adopt takes the chunk size and windows to send against from the peer's
// hello. Zero fields mean the package defaults.
func (f *flowState) adopt(h *wire.Hello) {
	chunk := f.params.ChunkSize
	if h.ChunkSize > 0 && int(h.ChunkSize) < chunk {
		chunk = int(h.ChunkSize)
	}
	sw, xw := int64(h.StreamWindow), int64(h.SessionWindow)
	if sw <= 0 {
		sw = flow.DefaultStreamWindow
	}
	if xw <= 0 {
		xw = flow.DefaultSessionWindow
	}
	f.sched.Configure(chunk, sw, xw)
	f.sendChunk.Store(int64(chunk))
}

// chunkThreshold is the size above which a payload is chunked.
func (f *flowState) chunkThreshold() int { return int(f.sendChunk.Load()) }

// awaitHello blocks a chunked send until the peer's hello has set the
// windows to send against. Only the stream's deadline, its abort and the
// session's death cut the wait short.
func (s *Session) awaitHello(st *Stream) error {
	for {
		if err := st.woken(); err != nil {
			return err
		}
		select {
		case <-s.helloCh:
			return nil
		case <-st.wake:
		}
	}
}

// queueGrant coalesces a window update for stream id (0 = session) to be
// sent ahead of the next frame.
func (f *flowState) queueGrant(id uint64, n int64) {
	f.gmu.Lock()
	f.grants[id] += n
	f.gmu.Unlock()
	f.wake()
}

func (f *flowState) queuePong(token uint64) { f.queueToken(&f.pongs, token) }
func (f *flowState) queuePing(token uint64) { f.queueToken(&f.pings, token) }
func (f *flowState) queueReset(id uint64)   { f.queueToken(&f.resets, id) }

func (f *flowState) queueToken(q *[]uint64, v uint64) {
	f.gmu.Lock()
	*q = append(*q, v)
	f.gmu.Unlock()
	f.wake()
}

// popControl builds the next pending protocol frame into bp, highest
// priority first: pongs (the peer's detector is waiting), grants (the
// peer's writer may be stalled), resets, then our own pings.
func (f *flowState) popControl(bp *[]byte) bool {
	f.gmu.Lock()
	defer f.gmu.Unlock()
	buf := (*bp)[:0]
	switch {
	case len(f.pongs) > 0:
		buf = wire.AppendFlowPing(buf, f.pongs[0], true)
		f.pongs = f.pongs[1:]
	case len(f.grants) > 0:
		for id, n := range f.grants {
			buf = wire.AppendWindowUpdate(buf, id, uint64(n))
			delete(f.grants, id)
			if id == 0 {
				f.sessOwed.Add(-n)
			} else if _, open := f.streamOwed[id]; open {
				f.streamOwed[id] -= n // a stream that has ended owes nothing
			}
			break
		}
		f.mGrantsSent.Inc()
	case len(f.resets) > 0:
		buf = wire.AppendDataHeader(buf, f.resets[0], wire.DataFlagReset)
		f.resets = f.resets[1:]
	case len(f.pings) > 0:
		buf = wire.AppendFlowPing(buf, f.pings[0], false)
		f.pings = f.pings[1:]
		f.mPings.Inc()
	default:
		return false
	}
	*bp = buf
	return true
}

// writeControl drains every pending protocol frame onto the connection.
// The caller holds the write lock.
func (f *flowState) writeControl(s *Session) error {
	f.gmu.Lock()
	idle := len(f.pongs)+len(f.grants)+len(f.resets)+len(f.pings) == 0
	f.gmu.Unlock()
	if idle {
		return nil // the common case: spare the sender a buffer
	}
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	for f.popControl(bp) {
		if err := s.write(*bp); err != nil {
			return err
		}
	}
	return nil
}

// writeData sends at most one credit-gated data chunk, reporting whether
// it wrote anything. Only the pump calls it, holding the write lock.
func (f *flowState) writeData(s *Session) (bool, error) {
	it, _, last, ok := f.sched.Next()
	if !ok {
		// Mirror scheduler stalls (data queued, no credit) to the metric.
		if st := f.sched.Stalls(); st > f.seenStalls {
			f.mStalls.Add(st - f.seenStalls)
			f.seenStalls = st
		}
		return false, nil
	}
	var flags uint64
	if last {
		flags = wire.DataFlagLast
	}
	// The one copy of the send side: out of the sender's buffer — wherever
	// its pieces lie — into the frame. The scheduler lets go of the chunk
	// once it is made, before the write, so a sender that gives up never
	// waits for the link to get its buffer back.
	bp := wire.GetBuf()
	*bp = f.sched.AppendChunk(wire.AppendDataHeader((*bp)[:0], it.ID(), flags))
	err := s.write(*bp)
	wire.PutBuf(bp)
	if err != nil {
		return false, err
	}
	f.mChunks.Inc()
	if last {
		f.sched.Finish(it, nil)
	}
	return true, nil
}

// errWindowOverrun is the cause of a session failed because its peer sent
// more data than a window it was advertised, the session's or a
// stream's, let it.
var errWindowOverrun = errors.New("transport: peer overran its window")

// owe counts n bytes received on stream id, returning what the stream
// owes now: its bytes not yet granted back.
func (f *flowState) owe(id uint64, n int) int64 {
	f.gmu.Lock()
	defer f.gmu.Unlock()
	f.streamOwed[id] += int64(n)
	return f.streamOwed[id]
}

// onData handles one inbound data chunk: session- and stream-level credit
// accounting, and delivery of completed messages. A chunk that takes the
// peer past the session window, or its stream past the stream window,
// fails the session. The reader does not assemble: it keeps each chunk in
// the buffer it arrived in and hands the lot to the consumer (see take).
// own is the chunkBufs buffer data lies in when the reader may give that
// away, and onData reports whether it took it; data in anyone else's
// buffer is copied into one. A chunk that opens a stream returns the
// stream, for the reader to serve as it serves any other (see dispatch).
func (s *Session) onData(id, flags uint64, data []byte, own *[]byte) (opened *Stream, took bool) {
	f := s.flow
	if owed := f.sessOwed.Add(int64(len(data))); owed > f.params.SessionWindow {
		s.fail(fmt.Errorf("%w: %d bytes ungranted against a session window of %d", errWindowOverrun, owed, f.params.SessionWindow))
		return nil, false
	}
	if g := f.sessLedger.Chunk(len(data)); g > 0 {
		f.queueGrant(0, g)
	}
	if id == 0 {
		return nil, false
	}
	if flags&wire.DataFlagReset != 0 {
		// The sender abandoned the message mid-stream: the partial assembly
		// goes, and the exchange ends so that a blocked handler unwedges.
		s.Abort(id)
		return nil, false
	}
	c := chunk{bp: own, b: data}
	if own == nil {
		c.bp = getChunkBuf(max(len(data), f.params.ChunkSize+dataHeaderMax)) // one size serves both paths
		*c.bp = append(*c.bp, data...)
		c.b = *c.bp
	}
	// The chunk joins its stream's assembly under the session lock, like
	// any delivery, so that it cannot land in a later exchange's.
	s.mu.Lock()
	st, fresh := s.routeLocked(id)
	var grant, owed int64
	if st != nil {
		if owed = f.owe(id, len(data)); owed > f.params.StreamWindow {
			st = nil
		} else {
			grant = st.addChunkLocked(c, flags&wire.DataFlagLast != 0, f.params.StreamWindow)
		}
	}
	s.mu.Unlock()
	if st == nil {
		if own == nil {
			chunkBufs.Put(c.bp)
		}
		if owed > f.params.StreamWindow {
			s.fail(fmt.Errorf("%w: %d bytes ungranted on stream %d against a stream window of %d", errWindowOverrun, owed, id, f.params.StreamWindow))
		}
		return nil, false // late chunks for an abandoned exchange: dropped
	}
	if grant > 0 {
		f.queueGrant(id, grant)
	}
	if !fresh {
		st = nil
	}
	return st, own != nil
}

// addChunkLocked adds a chunk to the stream's assembly, delivering the
// message when the chunk is its last, and returns the credit to grant the
// sender now. The caller holds the session lock.
func (st *Stream) addChunkLocked(c chunk, last bool, window int64) (grant int64) {
	if st.asm == nil {
		st.asm = new(assembly)
		st.s.assembling.Add(1)
	}
	st.asm.chunks = append(st.asm.chunks, c)
	st.asm.n += len(c.b)
	if st.ledger == nil {
		st.ledger = flow.NewRecvLedger(window)
	}
	grant = st.ledger.Chunk(len(c.b))
	if last {
		m := inMsg{asm: st.asm}
		st.asm = nil
		st.s.assembling.Add(-1)
		st.ledger.Complete(m.asm.n)
		if !st.deliverLocked(m) {
			// Dropped, but count the bytes consumed so the sender's window
			// is not wedged forever.
			m.recycle()
			grant += st.ledger.Delivered(m.asm.n)
		}
	}
	return grant
}

// sendChunked queues payload (and more, its continuation) with the
// scheduler and waits for the final chunk's physical write, preserving
// Send's drain contract. The payload is not copied: it stays aliased
// until the item completes or is withdrawn — and the pump has let go of
// the chunk it was reading, which Abort waits for — all of which
// happen-before return.
func (st *Stream) sendChunked(payload []byte, more [][]byte) error {
	f := st.s.flow
	st.chunked.Store(true)
	it := f.sched.Enqueue(st.id, payload, more...)
	for {
		if err := st.woken(); err != nil {
			st.abortChunked(it, err)
			return err
		}
		select {
		case err := <-it.Done():
			return err
		case <-st.wake:
		}
	}
}

// abortChunked withdraws a queued item; if chunks already reached the
// wire the receiver's assembly is poisoned, so a reset follows with the
// protocol frames.
func (st *Stream) abortChunked(it *flow.Item, cause error) {
	f := st.s.flow
	if f.sched.Abort(it, cause) {
		f.queueReset(st.id)
	}
}

// keepaliveLoop probes the peer and fails the session when it goes
// silent, its hello included.
func (s *Session) keepaliveLoop() {
	defer s.loops.Done()
	f := s.flow
	t := time.NewTicker(f.ka.Interval())
	defer t.Stop()
	for {
		select {
		case <-t.C:
			dead, ping, token := f.ka.Tick(s.bytesRecv.Load())
			if dead {
				f.mKaFail.Inc()
				s.fail(fmt.Errorf("transport: peer failed keepalive (quiet past %v)", flow.KeepaliveMisses*f.ka.Interval()))
				return
			}
			if ping {
				f.queuePing(token)
			}
		case <-s.done:
			return
		}
	}
}
