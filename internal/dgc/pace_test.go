package dgc

import (
	"sync"
	"testing"
	"time"

	"netobjects/internal/wire"
)

// testPace is long enough that a test can queue a burst well within one
// pace, on one CPU under the race detector, and short enough that a test
// waiting one out stays quick.
const testPace = 200 * time.Millisecond

// exchange is one SendBatch call a pacing test saw.
type exchange struct {
	owner wire.SpaceID
	start time.Time
	items []CleanItem
}

// exchangeLog records every exchange a cleaner starts and signals each one
// on sent.
type exchangeLog struct {
	mu   sync.Mutex
	log  []exchange
	sent chan wire.SpaceID
}

func newPacedCleaner(t *testing.T, pace time.Duration) (*Cleaner, *exchangeLog) {
	t.Helper()
	l := &exchangeLog{sent: make(chan wire.SpaceID, 1024)}
	var seq uint64
	c := NewCleaner(CleanerConfig{
		Begin: func(k wire.Key) (uint64, []string, bool) {
			seq++ // only the worker calls Begin
			return seq, []string{"inmem:o"}, true
		},
		SendBatch: func(owner wire.SpaceID, _ []string, items []CleanItem) error {
			l.mu.Lock()
			l.log = append(l.log, exchange{owner, time.Now(), append([]CleanItem(nil), items...)})
			l.mu.Unlock()
			l.sent <- owner
			return nil
		},
		Finish: func(wire.Key, error) (bool, uint64) { return false, 0 },
		Redo:   func(wire.Key, []string, uint64) {},
		pace:   pace,
	})
	t.Cleanup(c.Close)
	return c, l
}

func (l *exchangeLog) snapshot() []exchange {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]exchange(nil), l.log...)
}

// awaitExchange waits for the next exchange to owner, failing the test
// after within.
func (l *exchangeLog) awaitExchange(t *testing.T, owner wire.SpaceID, within time.Duration) {
	t.Helper()
	timeout := time.After(within)
	for {
		select {
		case o := <-l.sent:
			if o == owner {
				return
			}
		case <-timeout:
			t.Fatalf("no exchange to owner %v within %v", owner, within)
		}
	}
}

func TestCleanPaceLoneCleanGoesAtOnce(t *testing.T) {
	// An hour's pace: a lone clean to an owner with no exchange behind it
	// must not wait any of it out.
	c, l := newPacedCleaner(t, time.Hour)
	c.Schedule(wire.Key{Owner: 7, Index: 1}, nil)
	l.awaitExchange(t, 7, 5*time.Second)
	if !c.Drain(5 * time.Second) {
		t.Fatal("cleaner did not drain")
	}
}

func TestCleanPaceBurstRidesOneBatch(t *testing.T) {
	// 100 cleans to one owner within one pace: the first goes at once and
	// the other 99 ride the owner's next exchange, which starts no sooner
	// than a pace after the first.
	c, l := newPacedCleaner(t, testPace)
	const total = 100
	c.Schedule(wire.Key{Owner: 7, Index: 1}, nil)
	l.awaitExchange(t, 7, 5*time.Second)
	for i := uint64(2); i <= total; i++ {
		c.Schedule(wire.Key{Owner: 7, Index: i}, nil)
	}
	if !c.Drain(10 * time.Second) {
		t.Fatal("cleaner did not drain")
	}
	ex := l.snapshot()
	if len(ex) != 2 {
		t.Fatalf("%d exchanges for %d cleans within one pace, want 2", len(ex), total)
	}
	got := 0
	for i, e := range ex {
		for _, it := range e.items {
			got++
			if it.Key.Index != uint64(got) {
				t.Fatalf("exchange %d: clean %v out of order", i, it.Key)
			}
		}
	}
	if got != total {
		t.Fatalf("delivered %d cleans, want %d", got, total)
	}
	if gap := ex[1].start.Sub(ex[0].start); gap < testPace {
		t.Fatalf("second exchange started %v after the first, inside the %v pace", gap, testPace)
	}
}

func TestCleanPaceIsPerOwner(t *testing.T) {
	// A burst paced at owner X must not hold up a lone clean to owner Y.
	c, l := newPacedCleaner(t, time.Hour)
	x, y := wire.SpaceID(7), wire.SpaceID(8)
	c.Schedule(wire.Key{Owner: x, Index: 1}, nil)
	l.awaitExchange(t, x, 5*time.Second) // X is now paced for an hour
	for i := uint64(2); i <= 50; i++ {
		c.Schedule(wire.Key{Owner: x, Index: i}, nil)
	}
	c.Schedule(wire.Key{Owner: y, Index: 1}, nil)
	l.awaitExchange(t, y, 5*time.Second)
	for _, e := range l.snapshot() {
		if e.owner == x && len(e.items) != 1 {
			t.Fatalf("owner %v served a second exchange inside its pace: %v", x, e.items)
		}
	}
}

func TestCleanPaceCloseEndsWait(t *testing.T) {
	// Close while the worker sleeps out an hour's pace returns at once.
	c, l := newPacedCleaner(t, time.Hour)
	c.Schedule(wire.Key{Owner: 7, Index: 1}, nil)
	l.awaitExchange(t, 7, 5*time.Second)
	c.Schedule(wire.Key{Owner: 7, Index: 2}, nil) // paced: the worker sleeps
	done := make(chan struct{})
	start := time.Now()
	go func() {
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung in a paced wait")
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("Close took %v", d)
	}
	if n := len(l.snapshot()); n != 1 {
		t.Fatalf("%d exchanges, want 1 (the paced clean is dropped)", n)
	}
}

func TestCleanPaceStrongCleans(t *testing.T) {
	// Strong cleans obey the pace too, and keep the sequence numbers they
	// were scheduled with.
	c, l := newPacedCleaner(t, testPace)
	k := wire.Key{Owner: 7, Index: 1}
	c.ScheduleStrong(k, []string{"inmem:o"}, 41)
	l.awaitExchange(t, 7, 5*time.Second)
	for seq := uint64(42); seq <= 45; seq++ {
		c.ScheduleStrong(k, []string{"inmem:o"}, seq)
	}
	if !c.Drain(10 * time.Second) {
		t.Fatal("cleaner did not drain")
	}
	ex := l.snapshot()
	if len(ex) != 2 || len(ex[0].items) != 1 || len(ex[1].items) != 4 {
		t.Fatalf("exchanges %v, want the first clean alone and the paced four together", ex)
	}
	if gap := ex[1].start.Sub(ex[0].start); gap < testPace {
		t.Fatalf("second exchange started %v after the first, inside the %v pace", gap, testPace)
	}
	want := uint64(41)
	for _, e := range ex {
		for _, it := range e.items {
			if !it.Strong || it.Seq != want {
				t.Fatalf("got %+v, want strong seq %d", it, want)
			}
			want++
		}
	}
}
