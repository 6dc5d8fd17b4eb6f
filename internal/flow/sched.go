package flow

import "sync"

// Item is one queued payload: the unit a sender's Stream.Send waits on.
// The payload is not copied — it must stay untouched until Done fires.
type Item struct {
	payload []byte
	off     int
	id      uint64
	done    chan error
	sig     bool // done already signalled (guarded by Scheduler.mu)
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
// — is the only consumer (Next / Finish); any goroutine may enqueue,
// grant or abort.
type Scheduler struct {
	mu           sync.Mutex
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
	return &Scheduler{
		chunk:        chunk,
		streamWindow: streamWindow,
		sessAvail:    sessionWindow,
		streams:      make(map[uint64]*sendQ),
		kick:         make(chan struct{}, 1),
	}
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

// Enqueue queues payload for stream id and returns the Item to wait on.
// If the scheduler has already failed, the item is born failed.
func (s *Scheduler) Enqueue(id uint64, payload []byte) *Item {
	it := &Item{payload: payload, id: id, done: make(chan error, 1)}
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
	s.queuedBytes += int64(len(payload))
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
func (s *Scheduler) Next() (it *Item, chunk []byte, last bool, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
		if rem := int64(len(head.payload) - head.off); rem < n {
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
		chunk = head.payload[head.off : head.off+int(n)]
		head.off += int(n)
		q.avail -= n
		s.sessAvail -= n
		s.queuedBytes -= n
		last = head.off == len(head.payload)
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

// Finish acknowledges the physical write of an item's final chunk (err
// nil) or its failure.
func (s *Scheduler) Finish(it *Item, err error) {
	s.mu.Lock()
	if s.inflight == it {
		s.inflight = nil
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
// no-op: the message is effectively sent.
func (s *Scheduler) Abort(it *Item, err error) (needReset bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if it.sig || s.inflight == it {
		return false
	}
	if q := s.streams[it.id]; q != nil {
		for i, qi := range q.items {
			if qi == it {
				q.items = append(q.items[:i], q.items[i+1:]...)
				s.queuedBytes -= int64(len(it.payload) - it.off)
				break
			}
		}
	}
	s.signal(it, err)
	return it.sent()
}

// CloseStream drops a stream's state, failing its queued items with err.
// It reports whether a partially-sent item was abandoned (the caller
// must send a reset).
func (s *Scheduler) CloseStream(id uint64, err error) (needReset bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.streams[id]
	if q == nil {
		return false
	}
	delete(s.streams, id)
	for _, it := range q.items {
		if it.sent() {
			needReset = true
		}
		s.queuedBytes -= int64(len(it.payload) - it.off)
		s.signal(it, err)
	}
	return needReset
}

// Fail poisons the scheduler: every queued and future item fails with
// err. Called when the session dies.
func (s *Scheduler) Fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
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
