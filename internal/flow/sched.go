package flow

import "sync"

// Item is one queued payload: the unit a sender's Stream.Send waits on.
// The payload is one byte string held in consecutive pieces (a single
// piece, as a rule). It is not copied — it must stay untouched until Done
// fires or the call that withdrew the item (Abort, CloseStream) returns.
type Item struct {
	pieces [][]byte  // never empty; pieces[0] is Enqueue's payload
	one    [1][]byte // backs pieces for a payload in one piece
	total  int       // bytes in all pieces
	off    int       // bytes handed to the writer so far
	pi, po int       // where byte off lies: piece index, offset in it
	id     uint64
	done   chan error
	sig    bool // done already signalled (guarded by Scheduler.mu)

	// The chunk the writer holds, set by Next for the writer's own later
	// reads: bytes [start, off) of the payload, beginning at offset hpo of
	// piece hpi.
	start, hpi, hpo int
}

// Done delivers exactly one value: nil once every chunk has been
// physically written, or the error that failed the item.
func (it *Item) Done() <-chan error { return it.done }

// ID returns the stream id the item was enqueued for.
func (it *Item) ID() uint64 { return it.id }

// Sent reports whether any chunk of the item has been handed to the
// writer — a partially-sent item cannot be silently withdrawn; the
// receiver's assembly must be reset.
func (it *Item) sent() bool { return it.off > 0 }

// sendQ is one stream's sender-side state: its spendable credit and
// queued items, in order.
type sendQ struct {
	id     uint64
	avail  int64
	items  []*Item
	ringed bool // currently present in the round-robin ring
}

// Scheduler is the sender half of a flow-enabled session: it queues
// large payloads per stream and deals them out as credit-gated, bounded
// chunks, round-robin across streams so no payload monopolizes the
// link. The session's chunk pump — the writer in this package's comments
// — is the only consumer (Next / AppendChunk / Finish); any goroutine may
// enqueue, grant or abort.
//
// A chunk handed out by Next aliases its item's payload, and the writer
// reads it with no lock held. So the scheduler keeps track of the one
// chunk the writer may still be reading (held), and whoever takes an
// item away from the writer — Abort, CloseStream, Fail — first waits for
// the writer to let go of it. The writer lets go by AppendChunk (it has
// its copy), by Finish, or by asking for the next chunk; none of those
// waits on anything, so the wait is as long as one chunk's copy.
type Scheduler struct {
	mu           sync.Mutex
	released     sync.Cond // signalled when held clears; L is &mu
	held         *Item     // item whose last-returned chunk the writer may be reading
	chunk        int
	streamWindow int64 // initial credit for a newly seen stream
	sessAvail    int64
	streams      map[uint64]*sendQ
	ring         []uint64 // round-robin order over streams with state
	pos          int
	inflight     *Item // final chunk handed to the writer, not yet acked
	err          error
	kick         chan struct{}
	queuedBytes  int64
	stalls       uint64
}

// NewScheduler returns a scheduler chunking at chunk bytes with the
// peer-advertised per-stream and session windows as initial credit.
func NewScheduler(chunk int, streamWindow, sessionWindow int64) *Scheduler {
	s := &Scheduler{
		chunk:        chunk,
		streamWindow: streamWindow,
		sessAvail:    sessionWindow,
		streams:      make(map[uint64]*sendQ),
		kick:         make(chan struct{}, 1),
	}
	s.released.L = &s.mu
	return s
}

// Configure adopts the peer-advertised chunk size and windows once its
// hello arrives. Sends are gated on that hello, so no Enqueue can precede
// this call; existing credit state is simply replaced.
func (s *Scheduler) Configure(chunk int, streamWindow, sessionWindow int64) {
	s.mu.Lock()
	s.chunk = chunk
	s.streamWindow = streamWindow
	s.sessAvail = sessionWindow
	s.mu.Unlock()
	s.wake()
}

// Kick returns the channel the writer blocks on when it has nothing to
// send; it fires whenever new data or credit arrives.
func (s *Scheduler) Kick() <-chan struct{} { return s.kick }

func (s *Scheduler) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// signal delivers an item's outcome exactly once. Callers hold mu.
func (s *Scheduler) signal(it *Item, err error) {
	if it.sig {
		return
	}
	it.sig = true
	it.done <- err
}

// release lets go of the writer's chunk and wakes whoever waits for
// that. Callers hold mu.
func (s *Scheduler) release() {
	if s.held != nil {
		s.held = nil
		s.released.Broadcast()
	}
}

// Enqueue queues a payload for stream id and returns the Item to wait on:
// payload, followed by the pieces in more when the byte string to send
// lies in several places. It is chunked as one byte string either way.
// If the scheduler has already failed, the item is born failed.
func (s *Scheduler) Enqueue(id uint64, payload []byte, more ...[]byte) *Item {
	it := &Item{total: len(payload), id: id, done: make(chan error, 1)}
	if len(more) == 0 {
		it.one[0] = payload
		it.pieces = it.one[:]
	} else {
		it.pieces = append(append(make([][]byte, 0, 1+len(more)), payload), more...)
		for _, p := range more {
			it.total += len(p)
		}
	}
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.signal(it, err)
		s.mu.Unlock()
		return it
	}
	q := s.streams[id]
	if q == nil {
		q = &sendQ{id: id, avail: s.streamWindow}
		s.streams[id] = q
	}
	if !q.ringed {
		q.ringed = true
		s.ring = append(s.ring, id)
	}
	q.items = append(q.items, it)
	s.queuedBytes += int64(it.total)
	s.mu.Unlock()
	s.wake()
	return it
}

// Next hands the writer the next sendable chunk under the credit limits,
// advancing the round-robin cursor for fairness. last marks the final
// chunk of its item; the writer must call Finish(item, err) after the
// physical write of a last chunk. ok is false when nothing is sendable —
// if data was queued but credit-blocked, that is a writer stall and is
// counted.
//
// The chunk aliases the item's payload, and the writer holds it until it
// calls AppendChunk, Finish for the item, or Next again. chunk is the
// whole chunk when that lies within one piece of the payload — always,
// for a payload enqueued in one piece — and otherwise its first stretch;
// AppendChunk yields every byte in both cases.
func (s *Scheduler) Next() (it *Item, chunk []byte, last bool, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.release()
	if s.err != nil || len(s.ring) == 0 {
		return nil, nil, false, false
	}
	for scanned := 0; scanned < len(s.ring); {
		if s.pos >= len(s.ring) {
			s.pos = 0
		}
		q := s.streams[s.ring[s.pos]]
		if q == nil || len(q.items) == 0 {
			// Lazily drop empty/closed streams from the ring.
			if q != nil {
				q.ringed = false
			}
			s.ring = append(s.ring[:s.pos], s.ring[s.pos+1:]...)
			if len(s.ring) == 0 {
				return nil, nil, false, false
			}
			continue
		}
		scanned++
		n := int64(s.chunk)
		head := q.items[0]
		if rem := int64(head.total - head.off); rem < n {
			n = rem
		}
		if q.avail < n {
			n = q.avail
		}
		if s.sessAvail < n {
			n = s.sessAvail
		}
		if n <= 0 {
			// This stream (or the session) is out of credit; try the next.
			s.pos++
			continue
		}
		chunk = head.take(int(n))
		s.held = head
		q.avail -= n
		s.sessAvail -= n
		s.queuedBytes -= n
		last = head.off == head.total
		if last {
			q.items = q.items[1:]
			s.inflight = head
		}
		s.pos++ // fairness: next call starts at the following stream
		return head, chunk, last, true
	}
	// Data is queued but nothing is sendable: the writer is stalled on
	// credit.
	s.stalls++
	return nil, nil, false, false
}

// take marks the next n bytes of the payload as the writer's chunk and
// returns the first stretch of them, all of them unless they straddle
// pieces. Callers hold the scheduler's mu; n is at least 1 and at most
// what is left.
func (it *Item) take(n int) []byte {
	for it.po == len(it.pieces[it.pi]) { // step over exhausted and empty pieces
		it.pi, it.po = it.pi+1, 0
	}
	it.start, it.hpi, it.hpo = it.off, it.pi, it.po
	first := it.pieces[it.pi][it.po:]
	if len(first) > n {
		first = first[:n]
	}
	it.off += n
	for left := n; ; {
		room := len(it.pieces[it.pi]) - it.po
		if left <= room {
			it.po += left
			return first
		}
		left -= room
		it.pi, it.po = it.pi+1, 0
	}
}

// AppendChunk appends the writer's chunk — every byte of it, however
// many pieces of the payload it straddles — to dst, and lets go of it:
// from here on the payload is read again only by a later Next. A writer
// that copies chunks into frames of its own calls it before the physical
// write, so that a sender giving up on the item gets its buffer back
// without waiting out the link.
func (s *Scheduler) AppendChunk(dst []byte) []byte {
	// held and the chunk's bounds are the writer's own: only its calls
	// set them, so it reads them here without mu, as it reads the payload.
	it := s.held
	if it == nil {
		return dst
	}
	pi, po := it.hpi, it.hpo
	for left := it.off - it.start; left > 0; pi, po = pi+1, 0 {
		p := it.pieces[pi][po:]
		if len(p) > left {
			p = p[:left]
		}
		dst = append(dst, p...)
		left -= len(p)
	}
	s.mu.Lock()
	s.release()
	s.mu.Unlock()
	return dst
}

// Finish acknowledges the physical write of an item's final chunk (err
// nil) or its failure.
func (s *Scheduler) Finish(it *Item, err error) {
	s.mu.Lock()
	if s.inflight == it {
		s.inflight = nil
	}
	if s.held == it {
		s.release()
	}
	s.signal(it, err)
	s.mu.Unlock()
}

// Grant adds stream credit. Grants for unknown (already closed) streams
// are dropped.
func (s *Scheduler) Grant(id uint64, n int64) {
	s.mu.Lock()
	if q := s.streams[id]; q != nil {
		q.avail += n
	}
	s.mu.Unlock()
	s.wake()
}

// GrantSession adds session-level credit.
func (s *Scheduler) GrantSession(n int64) {
	s.mu.Lock()
	s.sessAvail += n
	s.mu.Unlock()
	s.wake()
}

// Abort withdraws a queued item (deadline expiry, cancellation). It
// reports whether any chunk had already been written, in which case the
// caller must send a reset so the receiver drops its partial assembly.
// Aborting an item whose final chunk is already with the writer is a
// no-op: the message is effectively sent. Either way the writer is no
// longer reading the item's payload when Abort returns.
func (s *Scheduler) Abort(it *Item, err error) (needReset bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gone := it.sig || s.inflight == it
	if q := s.streams[it.id]; q != nil && !gone {
		for i, qi := range q.items {
			if qi == it {
				q.items = append(q.items[:i], q.items[i+1:]...)
				s.queuedBytes -= int64(it.total - it.off)
				break
			}
		}
	}
	// Unlinked, the item gets no further chunk; wait out the one in hand.
	for s.held == it {
		s.released.Wait()
	}
	if gone {
		return false
	}
	s.signal(it, err)
	return it.sent()
}

// CloseStream drops a stream's state, failing its queued items with err.
// It reports whether a partially-sent item was abandoned (the caller
// must send a reset). The writer is no longer reading any payload of the
// stream when it returns.
func (s *Scheduler) CloseStream(id uint64, err error) (needReset bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.streams[id]
	delete(s.streams, id)
	for s.held != nil && s.held.id == id {
		s.released.Wait()
	}
	if q == nil {
		return false
	}
	for _, it := range q.items {
		if it.sent() {
			needReset = true
		}
		s.queuedBytes -= int64(it.total - it.off)
		s.signal(it, err)
	}
	return needReset
}

// Fail poisons the scheduler: every queued and future item fails with
// err. Called when the session dies. Senders take their payloads back
// when their items fail, so the writer's chunk is waited for first.
func (s *Scheduler) Fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	for s.held != nil {
		s.released.Wait()
	}
	if s.inflight != nil {
		s.signal(s.inflight, err)
		s.inflight = nil
	}
	for _, q := range s.streams {
		for _, it := range q.items {
			s.signal(it, err)
		}
	}
	s.streams = make(map[uint64]*sendQ)
	s.ring = nil
	s.queuedBytes = 0
	s.mu.Unlock()
	s.wake()
}

// QueuedBytes reports bytes queued and not yet handed to the writer.
func (s *Scheduler) QueuedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedBytes
}

// SessAvail reports the remaining session-level send credit.
func (s *Scheduler) SessAvail() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessAvail
}

// Stalls reports how many times the writer found data queued but nothing
// sendable for lack of credit.
func (s *Scheduler) Stalls() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stalls
}
