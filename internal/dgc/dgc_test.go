package dgc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netobjects/internal/wire"
)

var key = wire.Key{Owner: 1, Index: 2}

type cleanRecorder struct {
	mu       sync.Mutex
	sent     []uint64
	strong   []bool
	finished []error
	redone   []uint64

	beginOK   atomic.Bool
	failFirst atomic.Int32 // number of initial Send attempts to fail
}

func (r *cleanRecorder) config() CleanerConfig {
	return CleanerConfig{
		Begin: func(k wire.Key) (uint64, []string, bool) {
			if !r.beginOK.Load() {
				return 0, nil, false
			}
			return 7, []string{"inmem:o"}, true
		},
		SendBatch: func(owner wire.SpaceID, eps []string, items []CleanItem) error {
			if r.failFirst.Load() > 0 {
				r.failFirst.Add(-1)
				return errors.New("synthetic send failure")
			}
			r.mu.Lock()
			for _, it := range items {
				r.sent = append(r.sent, it.Seq)
				r.strong = append(r.strong, it.Strong)
			}
			r.mu.Unlock()
			return nil
		},
		Finish: func(k wire.Key, err error) (bool, uint64) {
			r.mu.Lock()
			r.finished = append(r.finished, err)
			r.mu.Unlock()
			return false, 0
		},
		Redo: func(k wire.Key, eps []string, seq uint64) {
			r.mu.Lock()
			r.redone = append(r.redone, seq)
			r.mu.Unlock()
		},
		MaxAttempts: 3,
		Backoff:     time.Millisecond,
	}
}

func (r *cleanRecorder) snapshot() (sent []uint64, finished []error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.sent...), append([]error(nil), r.finished...)
}

func TestCleanerDeliversScheduledClean(t *testing.T) {
	r := &cleanRecorder{}
	r.beginOK.Store(true)
	c := NewCleaner(r.config())
	defer c.Close()
	c.Schedule(key, []string{"inmem:o"})
	if !c.Drain(2 * time.Second) {
		t.Fatal("cleaner did not drain")
	}
	sent, finished := r.snapshot()
	if len(sent) != 1 || sent[0] != 7 {
		t.Fatalf("sent %v", sent)
	}
	if len(finished) != 1 || finished[0] != nil {
		t.Fatalf("finished %v", finished)
	}
}

func TestCleanerSkipsResurrected(t *testing.T) {
	r := &cleanRecorder{} // beginOK false: entry was resurrected
	c := NewCleaner(r.config())
	defer c.Close()
	c.Schedule(key, nil)
	if !c.Drain(2 * time.Second) {
		t.Fatal("cleaner did not drain")
	}
	sent, finished := r.snapshot()
	if len(sent) != 0 || len(finished) != 0 {
		t.Fatalf("resurrected clean was sent: %v %v", sent, finished)
	}
}

func TestCleanerRetriesThenSucceeds(t *testing.T) {
	r := &cleanRecorder{}
	r.beginOK.Store(true)
	r.failFirst.Store(2)
	c := NewCleaner(r.config())
	defer c.Close()
	c.Schedule(key, nil)
	if !c.Drain(5 * time.Second) {
		t.Fatal("cleaner did not drain")
	}
	sent, finished := r.snapshot()
	if len(sent) != 1 {
		t.Fatalf("sent %v", sent)
	}
	if len(finished) != 1 || finished[0] != nil {
		t.Fatalf("finished %v", finished)
	}
}

func TestCleanerAbandonsAfterMaxAttempts(t *testing.T) {
	r := &cleanRecorder{}
	r.beginOK.Store(true)
	r.failFirst.Store(100) // always fail
	c := NewCleaner(r.config())
	defer c.Close()
	c.Schedule(key, nil)
	if !c.Drain(5 * time.Second) {
		t.Fatal("cleaner did not drain")
	}
	_, finished := r.snapshot()
	if len(finished) != 1 || !errors.Is(finished[0], ErrAbandoned) {
		t.Fatalf("finished %v, want abandonment", finished)
	}
}

func TestCleanerStrongCleanUsesCarriedSeq(t *testing.T) {
	r := &cleanRecorder{} // beginOK false: strong cleans must bypass Begin
	c := NewCleaner(r.config())
	defer c.Close()
	c.ScheduleStrong(key, []string{"inmem:o"}, 42)
	if !c.Drain(2 * time.Second) {
		t.Fatal("cleaner did not drain")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.sent) != 1 || r.sent[0] != 42 || !r.strong[0] {
		t.Fatalf("sent=%v strong=%v", r.sent, r.strong)
	}
	if len(r.finished) != 0 {
		t.Fatal("strong clean must not touch the import entry")
	}
}

func TestCleanerRedoAfterCcitNil(t *testing.T) {
	r := &cleanRecorder{}
	r.beginOK.Store(true)
	cfg := r.config()
	cfg.Finish = func(k wire.Key, err error) (bool, uint64) {
		return true, 99 // ccitnil: demand a fresh dirty call
	}
	c := NewCleaner(cfg)
	defer c.Close()
	c.Schedule(key, nil)
	if !c.Drain(2 * time.Second) {
		t.Fatal("cleaner did not drain")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.redone) != 1 || r.redone[0] != 99 {
		t.Fatalf("redone %v", r.redone)
	}
}

func TestCleanerOrdering(t *testing.T) {
	// A single worker must deliver cleans in FIFO order.
	var mu sync.Mutex
	var order []uint64
	c := NewCleaner(CleanerConfig{
		Begin: func(k wire.Key) (uint64, []string, bool) { return 0, nil, false },
		SendBatch: func(owner wire.SpaceID, eps []string, items []CleanItem) error {
			mu.Lock()
			for _, it := range items {
				order = append(order, it.Seq)
			}
			mu.Unlock()
			return nil
		},
		Finish: func(wire.Key, error) (bool, uint64) { return false, 0 },
		Redo:   func(wire.Key, []string, uint64) {},
	})
	defer c.Close()
	for i := 1; i <= 20; i++ {
		c.ScheduleStrong(key, nil, uint64(i))
	}
	if !c.Drain(2 * time.Second) {
		t.Fatal("cleaner did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range order {
		if order[i] != uint64(i+1) {
			t.Fatalf("out of order: %v", order)
		}
	}
}

func TestCleanerCloseStopsWork(t *testing.T) {
	started := make(chan struct{})
	block := make(chan struct{})
	c := NewCleaner(CleanerConfig{
		Begin: func(k wire.Key) (uint64, []string, bool) { return 1, nil, true },
		SendBatch: func(wire.SpaceID, []string, []CleanItem) error {
			close(started)
			<-block
			return nil
		},
		Finish: func(wire.Key, error) (bool, uint64) { return false, 0 },
		Redo:   func(wire.Key, []string, uint64) {},
	})
	c.Schedule(key, nil)
	<-started
	done := make(chan struct{})
	go func() {
		close(block)
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung")
	}
}

func TestPingerDropsDeadClient(t *testing.T) {
	const dead = wire.SpaceID(1)
	const alive = wire.SpaceID(2)
	var dropped sync.Map
	var pings atomic.Int32
	p := NewPinger(PingerConfig{
		Interval:    time.Hour, // driven by Poke
		MaxFailures: 2,
		Clients: func() map[wire.SpaceID][]string {
			return map[wire.SpaceID][]string{dead: {"inmem:d"}, alive: {"inmem:a"}}
		},
		Ping: func(id wire.SpaceID, eps []string) error {
			pings.Add(1)
			if id == dead {
				return errors.New("unreachable")
			}
			return nil
		},
		Drop: func(id wire.SpaceID) { dropped.Store(id, true) },
	})
	defer p.Close()
	p.Poke()
	if _, ok := dropped.Load(dead); ok {
		t.Fatal("dropped after a single failure")
	}
	p.Poke()
	if _, ok := dropped.Load(dead); !ok {
		t.Fatal("not dropped after MaxFailures")
	}
	if _, ok := dropped.Load(alive); ok {
		t.Fatal("live client dropped")
	}
	if pings.Load() < 4 {
		t.Fatalf("pings=%d", pings.Load())
	}
}

func TestPingerRecoveryResetsFailures(t *testing.T) {
	const c1 = wire.SpaceID(1)
	var failNext atomic.Bool
	var dropped atomic.Bool
	p := NewPinger(PingerConfig{
		Interval:    time.Hour,
		MaxFailures: 2,
		Clients: func() map[wire.SpaceID][]string {
			return map[wire.SpaceID][]string{c1: {"inmem:x"}}
		},
		Ping: func(id wire.SpaceID, eps []string) error {
			if failNext.Load() {
				return errors.New("flaky")
			}
			return nil
		},
		Drop: func(id wire.SpaceID) { dropped.Store(true) },
	})
	defer p.Close()
	failNext.Store(true)
	p.Poke() // failure 1
	failNext.Store(false)
	p.Poke() // success: reset
	failNext.Store(true)
	p.Poke() // failure 1 again
	if dropped.Load() {
		t.Fatal("client dropped despite recovery between failures")
	}
	p.Poke() // failure 2: now dropped
	if !dropped.Load() {
		t.Fatal("client not dropped")
	}
}

func TestPingerForgetsDepartedClients(t *testing.T) {
	var present atomic.Bool
	present.Store(true)
	var dropped atomic.Bool
	const c1 = wire.SpaceID(9)
	p := NewPinger(PingerConfig{
		Interval:    time.Hour,
		MaxFailures: 2,
		Clients: func() map[wire.SpaceID][]string {
			if present.Load() {
				return map[wire.SpaceID][]string{c1: {"inmem:x"}}
			}
			return nil
		},
		Ping: func(wire.SpaceID, []string) error { return errors.New("down") },
		Drop: func(wire.SpaceID) { dropped.Store(true) },
	})
	defer p.Close()
	p.Poke() // failure 1
	present.Store(false)
	p.Poke() // client departed (clean call arrived): history forgotten
	present.Store(true)
	p.Poke() // failure 1 of a fresh history
	if dropped.Load() {
		t.Fatal("failure history survived the client's departure")
	}
}

// blockingSendBatch returns a SendBatch that holds the worker on owner
// 99's cleans until block closes (closing started when it first does),
// and hands every other owner's exchange to record.
func blockingSendBatch(started, block chan struct{}, record func(owner wire.SpaceID, items []CleanItem)) func(wire.SpaceID, []string, []CleanItem) error {
	return func(owner wire.SpaceID, eps []string, items []CleanItem) error {
		if owner == 99 {
			select {
			case <-started:
			default:
				close(started)
			}
			<-block
			return nil
		}
		record(owner, items)
		return nil
	}
}

func TestCleanerBatchesSameOwner(t *testing.T) {
	// Hold the worker on a first (other-owner) clean, queue several cleans
	// for one owner, then release: they must arrive as one batch.
	block := make(chan struct{})
	started := make(chan struct{})
	var mu sync.Mutex
	var batches [][]CleanItem
	seq := uint64(0)
	c := NewCleaner(CleanerConfig{
		Begin: func(k wire.Key) (uint64, []string, bool) {
			seq++
			return seq, []string{"inmem:o"}, true
		},
		SendBatch: blockingSendBatch(started, block, func(_ wire.SpaceID, items []CleanItem) {
			mu.Lock()
			batches = append(batches, append([]CleanItem(nil), items...))
			mu.Unlock()
		}),
		Finish: func(wire.Key, error) (bool, uint64) { return false, 0 },
		Redo:   func(wire.Key, []string, uint64) {},
	})
	defer c.Close()

	other := wire.Key{Owner: 99, Index: 1}
	target := wire.SpaceID(7)
	c.Schedule(other, nil) // occupies the worker
	<-started
	for i := uint64(1); i <= 4; i++ {
		c.Schedule(wire.Key{Owner: target, Index: i}, nil)
	}
	close(block)
	if !c.Drain(5 * time.Second) {
		t.Fatal("cleaner did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 1 || len(batches[0]) != 4 {
		t.Fatalf("batches: %v", batches)
	}
	for i, it := range batches[0] {
		if it.Key.Owner != target || it.Key.Index != uint64(i+1) {
			t.Fatalf("batch order: %v", batches[0])
		}
	}
}

func TestCleanerBatchSkipsResurrected(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	var mu sync.Mutex
	var batched int
	alive := map[uint64]bool{1: true, 3: true} // index 2 resurrected
	c := NewCleaner(CleanerConfig{
		Begin: func(k wire.Key) (uint64, []string, bool) {
			if k.Owner == 99 {
				return 1, nil, true
			}
			return k.Index, []string{"inmem:o"}, alive[k.Index]
		},
		SendBatch: blockingSendBatch(started, block, func(_ wire.SpaceID, items []CleanItem) {
			mu.Lock()
			batched += len(items)
			mu.Unlock()
		}),
		Finish: func(wire.Key, error) (bool, uint64) { return false, 0 },
		Redo:   func(wire.Key, []string, uint64) {},
	})
	defer c.Close()
	c.Schedule(wire.Key{Owner: 99, Index: 9}, nil)
	<-started
	for i := uint64(1); i <= 3; i++ {
		c.Schedule(wire.Key{Owner: 7, Index: i}, nil)
	}
	close(block)
	if !c.Drain(5 * time.Second) {
		t.Fatal("cleaner did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	if batched != 2 {
		t.Fatalf("batched=%d, want 2 (resurrected member skipped)", batched)
	}
}

func TestCleanerBatchCap(t *testing.T) {
	// Queue far more same-owner cleans than one batch may carry while the
	// worker is held on an unrelated clean: they must drain in capped
	// rounds, every round no larger than maxCleanBatch, with nothing lost.
	block := make(chan struct{})
	started := make(chan struct{})
	var mu sync.Mutex
	var batches [][]CleanItem
	seq := uint64(0)
	c := NewCleaner(CleanerConfig{
		Begin: func(k wire.Key) (uint64, []string, bool) {
			seq++
			return seq, []string{"inmem:o"}, true
		},
		SendBatch: blockingSendBatch(started, block, func(_ wire.SpaceID, items []CleanItem) {
			mu.Lock()
			batches = append(batches, append([]CleanItem(nil), items...))
			mu.Unlock()
		}),
		Finish: func(wire.Key, error) (bool, uint64) { return false, 0 },
		Redo:   func(wire.Key, []string, uint64) {},
	})
	defer c.Close()

	c.Schedule(wire.Key{Owner: 99, Index: 1}, nil) // occupies the worker
	<-started
	const total = 3*maxCleanBatch + 5
	for i := uint64(1); i <= total; i++ {
		c.Schedule(wire.Key{Owner: 7, Index: i}, nil)
	}
	close(block)
	if !c.Drain(10 * time.Second) {
		t.Fatal("cleaner did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	got := 0
	for _, b := range batches {
		if len(b) > maxCleanBatch {
			t.Fatalf("batch of %d exceeds cap %d", len(b), maxCleanBatch)
		}
		got += len(b)
	}
	if got != total {
		t.Fatalf("delivered %d cleans across batches, want %d", got, total)
	}
}

func TestCleanerRoundRobinAcrossOwners(t *testing.T) {
	// A huge queue for one owner must not starve another owner's single
	// clean: with both queued, the busy owner's first capped round is
	// followed by the other owner's turn before the busy owner's second.
	block := make(chan struct{})
	started := make(chan struct{})
	var mu sync.Mutex
	var turns []wire.SpaceID
	seq := uint64(0)
	c := NewCleaner(CleanerConfig{
		Begin: func(k wire.Key) (uint64, []string, bool) {
			seq++
			return seq, []string{"inmem:o"}, true
		},
		SendBatch: blockingSendBatch(started, block, func(owner wire.SpaceID, _ []CleanItem) {
			mu.Lock()
			turns = append(turns, owner)
			mu.Unlock()
		}),
		Finish: func(wire.Key, error) (bool, uint64) { return false, 0 },
		Redo:   func(wire.Key, []string, uint64) {},
	})
	defer c.Close()

	c.Schedule(wire.Key{Owner: 99, Index: 1}, nil) // occupies the worker
	<-started
	busy, quiet := wire.SpaceID(7), wire.SpaceID(8)
	for i := uint64(1); i <= 2*maxCleanBatch; i++ {
		c.Schedule(wire.Key{Owner: busy, Index: i}, nil)
	}
	c.Schedule(wire.Key{Owner: quiet, Index: 1}, nil)
	close(block)
	if !c.Drain(10 * time.Second) {
		t.Fatal("cleaner did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(turns) != 3 {
		t.Fatalf("turns: %v, want busy, quiet, busy", turns)
	}
	if turns[0] != busy || turns[1] != quiet || turns[2] != busy {
		t.Fatalf("rotation order: %v, want [%v %v %v]", turns, busy, quiet, busy)
	}
}
