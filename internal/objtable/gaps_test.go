package objtable

import (
	"errors"
	"testing"

	"netobjects/internal/wire"
)

func TestExportsIndexOfAndFingerprints(t *testing.T) {
	e := NewExports()
	obj := &thing{}
	ix, err := e.Export(obj, []uint64{7, 9})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := e.IndexOf(obj)
	if !ok || got != ix {
		t.Fatalf("IndexOf: %v %v", got, ok)
	}
	if _, ok := e.IndexOf(&thing{}); ok {
		t.Fatal("IndexOf found an unexported object")
	}
	ent, _ := e.Lookup(ix)
	if !ent.AcceptsFingerprint(7) || !ent.AcceptsFingerprint(9) {
		t.Fatal("accepted fingerprints rejected")
	}
	if ent.AcceptsFingerprint(8) {
		t.Fatal("unknown fingerprint accepted")
	}
	if e.Len() != 1 {
		t.Fatalf("len=%d", e.Len())
	}
}

func TestImportsNextSeqStandalone(t *testing.T) {
	im := NewImports()
	s1 := im.NextSeq(testKey)
	s2 := im.NextSeq(testKey)
	if s2 <= s1 {
		t.Fatalf("NextSeq not increasing: %d %d", s1, s2)
	}
	// And it shares the counter with lifecycle allocations.
	_, act, s3 := im.Acquire(testKey, nil)
	if act != ActionRegister || s3 <= s2 {
		t.Fatalf("lifecycle seq %d after standalone %d", s3, s2)
	}
}

func TestImportsLenAndKeys(t *testing.T) {
	im := NewImports()
	k1 := wire.Key{Owner: 1, Index: 1}
	k2 := wire.Key{Owner: 1, Index: 2}
	register(t, im, k1)
	register(t, im, k2)
	if im.Len() != 2 {
		t.Fatalf("len=%d", im.Len())
	}
	keys := im.Keys()
	if len(keys) != 2 {
		t.Fatalf("keys=%v", keys)
	}
	seen := map[wire.Key]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	if !seen[k1] || !seen[k2] {
		t.Fatalf("keys=%v", keys)
	}
}

func TestUseOrRebind(t *testing.T) {
	im := NewImports()
	s := register(t, im, testKey)

	// No rebind: revive returns nil, the stored surrogate comes back.
	got, gen1, err := im.UseOrRebind(testKey, func(old any) any {
		if old != s {
			t.Fatalf("revive saw %v", old)
		}
		return nil
	})
	if err != nil || got != s {
		t.Fatalf("got %v %v", got, err)
	}

	// Rebind: the replacement is stored under a new generation.
	ns := &surrogate{label: "revived"}
	got, gen2, err := im.UseOrRebind(testKey, func(any) any { return ns })
	if err != nil || got != ns {
		t.Fatalf("got %v %v", got, err)
	}
	if gen2 <= gen1 {
		t.Fatalf("generation did not advance: %d -> %d", gen1, gen2)
	}

	// Unusable states refuse.
	im.Release(testKey)
	im.BeginClean(testKey)
	if _, _, err := im.UseOrRebind(testKey, func(any) any { return nil }); !errors.Is(err, ErrNotUsable) {
		t.Fatalf("ccit: %v", err)
	}
	// Absent key refuses.
	im.FinishClean(testKey, nil)
	if _, _, err := im.UseOrRebind(testKey, func(any) any { return nil }); !errors.Is(err, ErrReleased) {
		t.Fatalf("absent: %v", err)
	}
}

func TestReleaseGenGuards(t *testing.T) {
	im := NewImports()
	register(t, im, testKey)
	_, gen, err := im.UseOrRebind(testKey, func(any) any { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// A stale generation must not release.
	if im.ReleaseGen(testKey, gen+1) {
		t.Fatal("stale generation released")
	}
	if im.StateOf(testKey) != StateOK {
		t.Fatal("state moved on stale release")
	}
	// The right generation does.
	if !im.ReleaseGen(testKey, gen) {
		t.Fatal("current generation refused")
	}
	if im.StateOf(testKey) != StateOKQueued {
		t.Fatal("release did not queue a clean")
	}
	// Absent key: no-op.
	if im.ReleaseGen(wire.Key{Owner: 9, Index: 9}, 1) {
		t.Fatal("absent key released")
	}
}

func TestReleaseGenDefersUnderPin(t *testing.T) {
	im := NewImports()
	register(t, im, testKey)
	_, gen, _ := im.UseOrRebind(testKey, func(any) any { return nil })
	im.Pin(testKey)
	if im.ReleaseGen(testKey, gen) {
		t.Fatal("released while pinned")
	}
	if !im.Unpin(testKey) {
		t.Fatal("deferred release lost")
	}
}
