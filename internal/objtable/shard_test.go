package objtable

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"netobjects/internal/wire"
)

// These tests exercise the striped tables across shard boundaries and
// under concurrent mutation, at the one stripe count the tables have;
// go test -race is the real assertion for the concurrent ones.

// TestExportIndexShardCongruence pins the allocation invariant striping
// relies on: every index a shard hands out routes back to that shard, so
// an entry is always created and found under the same lock.
func TestExportIndexShardCongruence(t *testing.T) {
	e := NewExports()
	for i := 0; i < 4*numShards; i++ {
		obj := &thing{n: i}
		ix, err := e.Export(obj, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ix < wire.FirstUserIndex {
			t.Fatalf("user export landed on reserved index %d", ix)
		}
		if ent, ok := e.Lookup(ix); !ok || ent.Obj != obj {
			t.Fatalf("exported object not found at its own index %d", ix)
		}
		if back, ok := e.IndexOf(obj); !ok || back != ix {
			t.Fatalf("IndexOf = (%d,%v), want (%d,true)", back, ok, ix)
		}
	}
}

// TestExportsConcurrentGrowLookupRemove races growth (Export+Dirty),
// reads (Lookup, HoldsDirty, Len), removal (Clean with withdrawal), and
// whole-table walks (Sweep, Clients) against each other across every
// stripe. The -race run is the real assertion; the final drain checks no
// entry is stranded or doubly withdrawn.
func TestExportsConcurrentGrowLookupRemove(t *testing.T) {
	e := NewExports()
	var withdrawn atomic.Int64
	e.OnWithdraw = func(uint64, any) { withdrawn.Add(1) }

	const (
		writers = 8
		perG    = 200
	)
	idxCh := make(chan uint64, writers*perG)

	// Growers: export fresh objects and register a dirty client. The
	// runtime pins an export while the reference is in transit; this
	// test doesn't, so a concurrent Sweep may legitimately withdraw an
	// entry between Export and its first Dirty — re-export and retry,
	// counting the extra withdrawals for the final accounting.
	var grow sync.WaitGroup
	var swept atomic.Int64
	for g := 0; g < writers; g++ {
		grow.Add(1)
		go func(g int) {
			defer grow.Done()
			client := wire.SpaceID(g + 1)
			for i := 0; i < perG; i++ {
				obj := &thing{n: g*perG + i}
				var ix uint64
				for {
					var err error
					if ix, err = e.Export(obj, nil); err != nil {
						t.Error(err)
						return
					}
					err = e.Dirty(ix, client, 1, nil)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrNoSuchObject) {
						t.Error(err)
						return
					}
					swept.Add(1)
				}
				idxCh <- ix
			}
		}(g)
	}

	// Removers: clean what the growers publish, withdrawing entries
	// while growth continues on the same shards. A clean from every
	// possible client id guarantees the entry's one dirty member goes.
	var remove sync.WaitGroup
	var removedTotal atomic.Int64
	for r := 0; r < 2; r++ {
		remove.Add(1)
		go func() {
			defer remove.Done()
			for ix := range idxCh {
				for c := wire.SpaceID(1); c <= writers; c++ {
					e.Clean(ix, c, 2, false)
				}
				removedTotal.Add(1)
			}
		}()
	}

	// Readers: lookups, membership probes and cross-shard walks.
	stop := make(chan struct{})
	var read sync.WaitGroup
	for rd := 0; rd < 2; rd++ {
		read.Add(1)
		go func() {
			defer read.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.Len()
				e.Sweep()
				e.Clients()
				e.Lookup(wire.FirstUserIndex)
				e.HoldsDirty(wire.FirstUserIndex, 1)
			}
		}()
	}

	grow.Wait()
	close(idxCh)
	remove.Wait()
	close(stop)
	read.Wait()

	if n := removedTotal.Load(); n != writers*perG {
		t.Fatalf("removers drained %d indices, want %d", n, writers*perG)
	}
	e.Sweep()
	if n := e.Len(); n != 0 {
		t.Fatalf("%d entries stranded after drain:\n%s", n, e.DebugDump())
	}
	if w, s := withdrawn.Load(), swept.Load(); w != int64(writers*perG)+s {
		t.Fatalf("OnWithdraw fired %d times, want %d (+%d swept pre-dirty)", w, writers*perG, s)
	}
}

// TestSweepCrossShard scatters idle and held entries across every stripe
// and checks one Sweep withdraws exactly the idle ones, whichever shard
// they landed on, reporting each index exactly once.
func TestSweepCrossShard(t *testing.T) {
	e := NewExports()
	const n = 4 * numShards
	held := map[uint64]bool{}
	idle := map[uint64]bool{}
	for i := 0; i < n; i++ {
		ix, err := e.Export(&thing{n: i}, nil)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0: // dirty set member
			if err := e.Dirty(ix, wire.SpaceID(7), 1, nil); err != nil {
				t.Fatal(err)
			}
			held[ix] = true
		case 1: // reference in transit
			if err := e.Pin(ix); err != nil {
				t.Fatal(err)
			}
			held[ix] = true
		default: // exported, never imported: Sweep's target
			idle[ix] = true
		}
	}
	swept := e.Sweep()
	seen := map[uint64]bool{}
	for _, ix := range swept {
		if seen[ix] {
			t.Fatalf("index %d swept twice", ix)
		}
		seen[ix] = true
		if !idle[ix] {
			t.Fatalf("held index %d was swept", ix)
		}
	}
	if len(swept) != len(idle) {
		t.Fatalf("swept %d entries, want %d", len(swept), len(idle))
	}
	if got, want := e.Len(), len(held); got != want {
		t.Fatalf("len=%d after sweep, want %d", got, want)
	}
	for ix := range held {
		if _, ok := e.Lookup(ix); !ok {
			t.Fatalf("held index %d missing after sweep", ix)
		}
	}
}

// TestImportsConcurrentAcquireReleaseAcrossShards races the surrogate
// life cycle (Acquire/FinishRegister/Use/Pin/Unpin/Release) over a key
// space that spans every stripe, with whole-table walks mixed in.
func TestImportsConcurrentAcquireReleaseAcrossShards(t *testing.T) {
	im := NewImports()
	const (
		workers = 8
		keys    = 64
		rounds  = 50
	)
	stop := make(chan struct{})
	var walk sync.WaitGroup
	walk.Add(1)
	go func() {
		defer walk.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			im.Len()
			im.Keys()
			im.Snapshot()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := wire.Key{Owner: wire.SpaceID(w%4 + 1), Index: uint64(wire.FirstUserIndex) + uint64((w*rounds+r)%keys)}
				ent, act, _ := im.Acquire(key, []string{"inmem:o"})
				switch act {
				case ActionRegister:
					im.FinishRegister(key, &surrogate{label: "s"}, nil)
				case ActionWait:
					_, _ = im.Wait(ent)
				}
				if _, err := im.Use(key); err != nil {
					continue // raced with a concurrent release
				}
				if err := im.Pin(key); err == nil {
					im.Unpin(key)
				}
				im.Release(key)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	walk.Wait()
	// Releases can outnumber acquisitions only through the ReleaseGen
	// guard; whatever survives must still be walkable and consistent.
	if n, k := im.Len(), len(im.Keys()); n != k {
		t.Fatalf("Len=%d but %d keys", n, k)
	}
}
