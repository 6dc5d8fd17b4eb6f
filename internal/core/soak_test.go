package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestSoakRandomizedWorkload runs a randomized mix of export, import,
// call, third-party hand-off and release across several spaces, then
// shuts everything down gracefully and checks that no table leaked:
// distributed GC converges to empty under arbitrary interleavings, not
// just the scripted ones.
func TestSoakRandomizedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	t.Run("birrell", func(t *testing.T) {
		tn := newTestNet(t)
		const nSpaces = 4
		spaces := make([]*Space, nSpaces)
		for i := range spaces {
			spaces[i] = tn.space("birrell-sp", nil)
		}
		// Every space exports a relay so references can travel inside
		// calls (the protocol-protected path).
		relays := make([]*Ref, nSpaces)
		for i, sp := range spaces {
			r, err := sp.Export(&relay{})
			if err != nil {
				t.Fatal(err)
			}
			relays[i] = r
		}

		var mu sync.Mutex
		type held struct {
			ref *Ref
			sp  int
		}
		var refs []held

		rng := rand.New(rand.NewSource(7 * 7919))
		counters := make([]*counter, 0, 64)

		const ops = 2500
		for op := 0; op < ops; op++ {
			switch rng.Intn(10) {
			case 0, 1: // export a fresh counter somewhere
				i := rng.Intn(nSpaces)
				c := &counter{}
				counters = append(counters, c)
				r, err := spaces[i].Export(c)
				if err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				refs = append(refs, held{ref: r, sp: i})
				mu.Unlock()
			case 2, 3, 4: // import someone's ref elsewhere and call it
				mu.Lock()
				if len(refs) == 0 {
					mu.Unlock()
					continue
				}
				h := refs[rng.Intn(len(refs))]
				mu.Unlock()
				j := rng.Intn(nSpaces)
				w, err := h.ref.WireRep()
				if err != nil {
					continue // released concurrently
				}
				r2, err := spaces[j].Import(w)
				if err != nil {
					continue // owner withdrew first: legal
				}
				mu.Lock()
				refs = append(refs, held{ref: r2, sp: j})
				mu.Unlock()
				// The pick may be a relay (no Incr): a NoSuchMethod
				// error is expected there and changes nothing.
				_, _ = r2.Call("Incr", int64(1))
			case 5, 6: // third-party hand-off through a relay
				mu.Lock()
				if len(refs) == 0 {
					mu.Unlock()
					continue
				}
				h := refs[rng.Intn(len(refs))]
				mu.Unlock()
				if h.ref.IsOwner() {
					continue
				}
				j := rng.Intn(nSpaces)
				relayW, _ := relays[j].WireRep()
				relayRef, err := spaces[h.sp].Import(relayW)
				if err != nil {
					continue
				}
				mu.Lock()
				refs = append(refs, held{ref: relayRef, sp: h.sp})
				mu.Unlock()
				_, _ = relayRef.Call("Put", h.ref) // may race a release: fine
			case 7, 8, 9: // release something
				mu.Lock()
				if len(refs) == 0 {
					mu.Unlock()
					continue
				}
				k := rng.Intn(len(refs))
				h := refs[k]
				refs[k] = refs[len(refs)-1]
				refs = refs[:len(refs)-1]
				mu.Unlock()
				h.ref.Release()
			}
		}

		// Convergence: release every held reference and empty the
		// relays, then every table in the system must drain to zero —
		// exports and imports alike — with no space closed yet.
		for i := range relays {
			if _, err := relays[i].Call("Drop"); err != nil {
				t.Fatal(err)
			}
		}
		mu.Lock()
		final := refs
		refs = nil
		mu.Unlock()
		for _, h := range final {
			h.ref.Release()
		}
		if !waitFor(15*time.Second, func() bool {
			// Sweep every space first (entries that never acquired a
			// client are withdrawn by the local collector, not by a
			// protocol transition), then check quiescence.
			for _, sp := range spaces {
				sp.Exports().Sweep()
			}
			for _, sp := range spaces {
				if sp.Imports().Len() != 0 || sp.Exports().Len() != 0 {
					return false
				}
			}
			return true
		}) {
			for i, sp := range spaces {
				t.Errorf("space %d (%v): %d imports, %d exports leaked",
					i, sp.ID(), sp.Imports().Len(), sp.Exports().Len())
				for _, k := range sp.Imports().Keys() {
					t.Logf("  space %d import %v state %v", i, k, sp.Imports().StateOf(k))
				}
				t.Logf("  space %d exports:\n%s", i, sp.Exports().DebugDump())
			}
		}
	})
}
