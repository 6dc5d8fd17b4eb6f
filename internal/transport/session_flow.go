package transport

import (
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
	select {
	case <-s.helloCh:
		return nil
	default:
	}
	wait, err := st.left()
	if err != nil {
		return err
	}
	tc := st.arm(wait)
	defer st.disarm()
	select {
	case <-s.helloCh:
		return nil
	case <-tc:
		return ErrTimeout
	case <-st.wake:
		return ErrClosed
	case <-s.done:
		return s.closeErr()
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

// onData handles one inbound data chunk: session- and stream-level credit
// accounting, and delivery of completed messages. The reader does not
// assemble: it keeps each chunk in the buffer it arrived in and hands the
// lot to the consumer (see take). own is the chunkBufs buffer data lies
// in when the reader may give that away, and onData reports whether it
// took it; data in anyone else's buffer is copied into one.
func (s *Session) onData(id, flags uint64, data []byte, own *[]byte) (took bool) {
	f := s.flow
	if g := f.sessLedger.Chunk(len(data)); g > 0 {
		f.queueGrant(0, g)
	}
	if id == 0 {
		return false
	}
	if flags&wire.DataFlagReset != 0 {
		// The sender abandoned the message mid-stream: the partial assembly
		// goes, and the exchange ends so that a blocked handler unwedges.
		s.Abort(id)
		return false
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
	var grant int64
	if st != nil {
		grant = st.addChunkLocked(c, flags&wire.DataFlagLast != 0, f.params.StreamWindow)
	}
	s.mu.Unlock()
	if st == nil {
		if own == nil {
			chunkBufs.Put(c.bp)
		}
		return false // late chunks for an abandoned exchange: dropped
	}
	if grant > 0 {
		f.queueGrant(id, grant)
	}
	if fresh {
		s.serve(st)
	}
	return own != nil
}

// addChunkLocked adds a chunk to the stream's assembly, delivering the
// message when the chunk is its last, and returns the credit to grant the
// sender now. The caller holds the session lock.
func (st *Stream) addChunkLocked(c chunk, last bool, window int64) (grant int64) {
	if st.asm == nil {
		st.asm = new(assembly)
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
	wait, derr := st.left()
	if derr != nil {
		st.abortChunked(it, derr)
		return derr
	}
	tc := st.arm(wait)
	defer st.disarm()
	select {
	case err := <-it.Done():
		return err
	case <-st.wake:
		st.abortChunked(it, ErrClosed)
		return ErrClosed
	case <-st.s.done:
		st.abortChunked(it, ErrClosed)
		return st.s.closeErr()
	case <-tc:
		st.abortChunked(it, ErrTimeout)
		return ErrTimeout
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
