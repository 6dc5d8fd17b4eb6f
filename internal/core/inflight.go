package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// inflightShards stripes the table by call id. Call ids are allocated
// from a process-wide atomic counter, so consecutive calls land on
// consecutive shards and a burst of concurrent dispatches spreads evenly
// without hashing.
const inflightShards = 16 // power of two

// inflightTable tracks the calls a space is currently dispatching, keyed
// by the caller-chosen Call.ID. It serves two masters: CancelCall looks a
// call up to forward the caller's alert into its dispatch, and graceful
// drain waits for the table to empty before the space finishes closing.
// The table is striped so 256 concurrent dispatches don't serialize their
// add/remove pairs on one mutex, and the size lives in one atomic so
// drain's idle poll never takes a lock.
type inflightTable struct {
	shards [inflightShards]inflightShard
	count  atomic.Int64
}

type inflightShard struct {
	mu    sync.Mutex
	calls map[uint64]*dispatch // made by the shard's first add
	_     [24]byte             // pad toward a cache line to keep neighbours independent
}

func (t *inflightTable) shard(id uint64) *inflightShard {
	return &t.shards[id&(inflightShards-1)]
}

// add registers a dispatch under its call id. Duplicate ids (two clients
// colliding) keep the first entry; the second call is still served, it is
// just not remotely cancellable — correctness never depends on cancel
// delivery.
func (t *inflightTable) add(id uint64, d *dispatch) {
	s := t.shard(id)
	s.mu.Lock()
	if s.calls == nil {
		s.calls = make(map[uint64]*dispatch)
	}
	if _, exists := s.calls[id]; !exists {
		s.calls[id] = d
		t.count.Add(1)
	}
	s.mu.Unlock()
}

// remove drops a finished dispatch. Once it returns no CancelCall reaches
// the dispatch, which may then be reused.
func (t *inflightTable) remove(id uint64) {
	s := t.shard(id)
	s.mu.Lock()
	if _, exists := s.calls[id]; exists {
		delete(s.calls, id)
		t.count.Add(-1)
	}
	s.mu.Unlock()
}

// cancel alerts the dispatch with the given id, reporting whether it was
// found in flight. The alert is delivered under the shard lock, so it
// cannot reach a later dispatch that reuses the same state.
func (t *inflightTable) cancel(id uint64) bool {
	s := t.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.calls[id]
	if ok {
		d.cancel()
	}
	return ok
}

// len reports how many dispatches are in flight.
func (t *inflightTable) len() int {
	return int(t.count.Load())
}

// waitIdle polls until the table empties or the timeout lapses, reporting
// whether it emptied. Polling an atomic keeps the add/remove hot path to
// one shard mutex with no condition broadcasting; drains are rare and a
// millisecond of drain latency is noise next to the calls being waited on.
func (t *inflightTable) waitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if t.count.Load() == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// dispatch is one served call's deadline and cancellation: what a serving
// context would carry, kept as a time, a flag and the space's serve
// context, so that a dispatch arms no timer and makes no child context.
// CancelCall sets the flag; the space's shutdown cancels the serve
// context. Only a method that takes a context, and a pipelined call that
// has to wait, gets a real one (context), with the same deadline, parent
// and alerts. A dispatch lives in its call's callSession: it is reused
// once the call has left the inflight table.
type dispatch struct {
	serve context.Context
	// start is the serving goroutine's clock read as the call arrived.
	start, deadline time.Time
	cancelled       atomic.Bool
	// ctx is made on demand and touched by the dispatching goroutine only;
	// stop is its cancel function, which CancelCall calls too.
	ctx  context.Context
	stop atomic.Pointer[context.CancelFunc]
}

// beginDispatch starts the dispatch, in session, of a call that arrived
// at start with the caller's remaining budget. It may run for the tighter
// of that budget and this space's CallTimeout — a space never trusts a
// remote deadline beyond its own cap — and Close alerts it through the
// space's serve context.
func (sp *Space) beginDispatch(session *callSession, start time.Time, deadlineMillis uint64) *dispatch {
	budget := sp.opts.CallTimeout
	if deadlineMillis != 0 {
		if r := time.Duration(deadlineMillis) * time.Millisecond; r < budget {
			budget = r
		}
	}
	d := &session.dispatch
	d.serve, d.start, d.deadline = sp.serveCtx, start, start.Add(budget)
	return d
}

// context returns the dispatch's context, making it on first use: a child
// of the serve context expiring at the deadline, already cancelled if
// CancelCall came first.
func (d *dispatch) context() context.Context {
	if d.ctx == nil {
		ctx, stop := context.WithDeadline(d.serve, d.deadline)
		d.ctx = ctx
		d.stop.Store(&stop)
		if d.cancelled.Load() {
			stop()
		}
	}
	return d.ctx
}

// err reports whether the dispatch should give up at now — start, or the
// serving goroutine's latest clock read — and why: context.Canceled once
// CancelCall has alerted it, context.DeadlineExceeded once now is past
// its deadline, context.Canceled once the space's shutdown has. With a
// context made, the context decides.
func (d *dispatch) err(now time.Time) error {
	if d.ctx != nil {
		return d.ctx.Err()
	}
	if d.cancelled.Load() {
		return context.Canceled
	}
	if !now.Before(d.deadline) {
		return context.DeadlineExceeded
	}
	select {
	case <-d.serve.Done():
		return context.Canceled
	default:
	}
	return nil
}

// cancel is CancelCall's alert. One that arrives after the deadline
// changes nothing, as it would not change a context that had expired
// already. The flag and the pointer to the context's cancel function are
// each set before the other is read, so an alert racing with the context
// being made reaches it either way.
func (d *dispatch) cancel() {
	if time.Now().Before(d.deadline) {
		d.cancelled.Store(true)
	}
	if stop := d.stop.Load(); stop != nil {
		(*stop)()
	}
}

// end releases the dispatch's context, if one was made, and clears the
// dispatch for reuse. The call must have left the inflight table.
func (d *dispatch) end() {
	if stop := d.stop.Load(); stop != nil {
		(*stop)()
		d.stop.Store(nil)
	}
	d.serve, d.ctx = nil, nil
	d.cancelled.Store(false)
}
