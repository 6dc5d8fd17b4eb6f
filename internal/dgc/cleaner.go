// Package dgc implements the daemons of the distributed garbage collector:
// the cleaning daemon that delivers clean calls to owners, and the ping
// daemon through which an owner detects terminated clients.
//
// The daemons contain no protocol I/O of their own — the runtime injects
// callbacks — so the retry and liveness policies can be tested in
// isolation and reused by the model checker. This mirrors the paper's "to
// do table" discipline: rules only enqueue work; a background daemon
// drains the queues and generates the messages.
package dgc

import (
	"errors"
	"log/slog"
	"sync"
	"time"

	"netobjects/internal/obs"
	"netobjects/internal/wire"
)

// ErrAbandoned reports a clean call given up after exhausting retries,
// which the runtime treats as the owner having terminated.
var ErrAbandoned = errors.New("dgc: clean call abandoned")

// CleanerConfig wires a Cleaner to the runtime.
type CleanerConfig struct {
	// Begin prepares a queued (non-strong) clean: it is the do_clean_call
	// transition, returning the sequence number and owner endpoints, or
	// ok=false when the reference was resurrected and the clean must be
	// skipped. Strong cleans bypass Begin: their sequence number was
	// allocated when the failed dirty call was abandoned.
	Begin func(key wire.Key) (seq uint64, endpoints []string, ok bool)
	// SendBatch delivers the clean calls of one owner — one, or as many as
	// the cleaner found queued for it, up to maxCleanBatch — in a single
	// exchange, and waits for its acknowledgement. Batching them is the
	// message batching the paper lists among its cost reductions.
	SendBatch func(owner wire.SpaceID, endpoints []string, items []CleanItem) error
	// Finish is the receive_clean_ack transition for entry-bearing cleans:
	// err == nil acknowledges the clean; non-nil abandons the reference.
	// It returns redo=true with a fresh sequence number when a copy of the
	// reference arrived while the clean was in transit (ccitnil) and a new
	// dirty call must be made.
	Finish func(key wire.Key, err error) (redo bool, seq uint64)
	// Redo performs the dirty call demanded by a ccitnil redo and reports
	// its outcome to the import table.
	Redo func(key wire.Key, endpoints []string, seq uint64)

	// MaxAttempts bounds delivery attempts per clean call (default 8).
	MaxAttempts int
	// Backoff is the delay before the first retry, doubling per attempt
	// and capped at 32x (default 10ms).
	Backoff time.Duration
	// Logger receives retry and abandonment events; nil discards them.
	Logger *slog.Logger
	// Obs, when non-nil, counts retries and abandonments.
	Obs *obs.Metrics
}

type cleanItem struct {
	key       wire.Key
	endpoints []string
	seq       uint64 // pre-allocated for strong cleans; 0 otherwise
	strong    bool
}

// CleanItem is one member of a batched clean call.
type CleanItem struct {
	// Key names the reference being cleaned.
	Key wire.Key
	// Seq is the clean's sequence number.
	Seq uint64
	// Strong marks a strong clean.
	Strong bool
}

// maxCleanBatch caps the members of one batched clean exchange. A space
// dropping a huge object graph can queue hundreds of thousands of cleans
// for one owner; an uncapped batch would render them as one giant frame
// (and one giant loss unit on failure), so the worker drains such queues
// in capped rounds instead.
const maxCleanBatch = 128

// Cleaner is the cleaning daemon: queued clean calls drained by one
// background worker, matching the single "cleaning demon" of the paper.
// Cleans are queued per owner so one exchange batches same-owner cleans
// without rescanning a global queue, and owners are served round-robin so
// a space releasing a million references to one owner cannot starve the
// parting clean of another.
type Cleaner struct {
	cfg CleanerConfig

	mu     sync.Mutex
	cond   *sync.Cond
	queues map[wire.SpaceID][]cleanItem // per-owner FIFO; present iff non-empty
	rr     []wire.SpaceID               // round-robin rotation of owners with queued work
	queued int                          // total items across queues
	closed bool
	idle   bool

	wg sync.WaitGroup
}

// NewCleaner starts a cleaning daemon.
func NewCleaner(cfg CleanerConfig) *Cleaner {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 10 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	c := &Cleaner{cfg: cfg, queues: make(map[wire.SpaceID][]cleanItem)}
	c.cond = sync.NewCond(&c.mu)
	c.wg.Add(1)
	go c.run()
	return c
}

// Schedule enqueues a clean call for a released reference. The sequence
// number is allocated by Begin when the call is actually sent, so a copy
// of the reference arriving in the meantime can still cancel it.
func (c *Cleaner) Schedule(key wire.Key, endpoints []string) {
	c.enqueue(cleanItem{key: key, endpoints: endpoints})
}

// ScheduleStrong enqueues a strong clean with a pre-allocated sequence
// number, issued after a dirty call failed with unknown outcome.
func (c *Cleaner) ScheduleStrong(key wire.Key, endpoints []string, seq uint64) {
	c.enqueue(cleanItem{key: key, endpoints: endpoints, seq: seq, strong: true})
}

func (c *Cleaner) enqueue(it cleanItem) {
	c.mu.Lock()
	if !c.closed {
		owner := it.key.Owner
		q := c.queues[owner]
		if len(q) == 0 {
			c.rr = append(c.rr, owner)
		}
		c.queues[owner] = append(q, it)
		c.queued++
	}
	c.mu.Unlock()
	c.cond.Signal()
}

// Close stops the daemon after the current delivery attempt. Queued cleans
// are dropped; the process is terminating and owners will reclaim via
// their ping daemons.
func (c *Cleaner) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cond.Broadcast()
	c.wg.Wait()
}

// Drain blocks until the queue is empty and the worker idle, or the
// timeout elapses; it reports whether the queue drained. Tests and orderly
// shutdown use it to let scheduled cleans reach their owners.
func (c *Cleaner) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		drained := c.queued == 0 && c.idle
		closed := c.closed
		c.mu.Unlock()
		if drained || closed {
			return drained
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *Cleaner) run() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		c.idle = true
		for c.queued == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		// Round-robin over owners: take the next owner in rotation and up
		// to maxCleanBatch of its queued cleans in one exchange. An owner
		// with work left goes to the back of the rotation, so every owner
		// gets a turn between its rounds.
		owner := c.rr[0]
		c.rr = c.rr[1:]
		q := c.queues[owner]
		take := min(len(q), maxCleanBatch)
		batch := append([]cleanItem(nil), q[:take]...)
		if take == len(q) {
			delete(c.queues, owner)
		} else {
			c.queues[owner] = q[take:]
			c.rr = append(c.rr, owner)
		}
		c.queued -= take
		c.idle = false
		c.mu.Unlock()
		c.processBatch(batch)
	}
}

// processBatch delivers the cleans taken for one owner in a single
// exchange, then settles each member individually.
func (c *Cleaner) processBatch(items []cleanItem) {
	var ready []cleanItem // with seq/endpoints resolved
	var eps []string
	var wireItems []CleanItem
	for _, it := range items {
		seq, itEps, strong := it.seq, it.endpoints, it.strong
		if !strong {
			var ok bool
			seq, itEps, ok = c.cfg.Begin(it.key)
			if !ok {
				// Resurrected (receive_copy cancelled the clean) or already
				// gone: nothing to send.
				continue
			}
		}
		if len(itEps) > 0 {
			eps = itEps
		}
		it.seq, it.endpoints = seq, itEps
		ready = append(ready, it)
		wireItems = append(wireItems, CleanItem{Key: it.key, Seq: seq, Strong: strong})
	}
	if len(ready) == 0 {
		return
	}
	err := c.deliverBatch(ready[0].key.Owner, eps, wireItems)
	for _, it := range ready {
		c.finishOne(it, err)
	}
}

// finishOne settles one clean outcome, handling the ccitnil redo.
func (c *Cleaner) finishOne(it cleanItem, err error) {
	if it.strong {
		// Strong cleans have no import entry to settle; an abandoned one
		// means the owner is unreachable and will reclaim via pinging.
		if err != nil {
			c.cfg.Logger.Warn("dgc: strong clean abandoned", "key", it.key.String(), "err", err)
		}
		return
	}
	redo, redoSeq := c.cfg.Finish(it.key, err)
	if redo {
		c.cfg.Redo(it.key, it.endpoints, redoSeq)
	}
}

// deliverBatch sends one clean exchange, retrying with exponential
// backoff and the same sequence numbers, exactly as the paper prescribes
// ("the cleanup demon merely leaves the request on its queue, keeping the
// same sequence number").
func (c *Cleaner) deliverBatch(owner wire.SpaceID, eps []string, items []CleanItem) error {
	backoff := c.cfg.Backoff
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if c.isClosed() {
			return ErrAbandoned
		}
		lastErr = c.cfg.SendBatch(owner, eps, items)
		if lastErr == nil {
			return nil
		}
		c.cfg.Logger.Debug("dgc: clean call failed",
			"owner", owner.String(), "count", len(items), "attempt", attempt, "err", lastErr)
		if attempt == c.cfg.MaxAttempts {
			break
		}
		if c.cfg.Obs != nil {
			c.cfg.Obs.CleanRetries.Inc()
		}
		time.Sleep(backoff)
		if backoff < 32*c.cfg.Backoff {
			backoff *= 2
		}
	}
	if c.cfg.Obs != nil {
		c.cfg.Obs.CleansAbandoned.Add(uint64(len(items)))
	}
	return errors.Join(ErrAbandoned, lastErr)
}

func (c *Cleaner) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}
