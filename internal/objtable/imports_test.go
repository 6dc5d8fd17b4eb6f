package objtable

import (
	"errors"
	"sync"
	"testing"
	"time"

	"netobjects/internal/wire"
)

var testKey = wire.Key{Owner: 42, Index: 7}

type surrogate struct{ label string }

// register walks a fresh key through Acquire/FinishRegister to StateOK.
func register(t *testing.T, im *Imports, key wire.Key) *surrogate {
	t.Helper()
	_, act, seq := im.Acquire(key, []string{"inmem:o"})
	if act != ActionRegister {
		t.Fatalf("acquire: action %v, want register", act)
	}
	if seq == 0 {
		t.Fatal("register with zero seq")
	}
	s := &surrogate{label: "s"}
	im.FinishRegister(key, s, nil)
	if got := im.StateOf(key); got != StateOK {
		t.Fatalf("state %v after register", got)
	}
	return s
}

func TestImportLifecycleHappyPath(t *testing.T) {
	im := NewImports()
	s := register(t, im, testKey)

	got, err := im.Use(testKey)
	if err != nil || got != s {
		t.Fatalf("Use: %v %v", got, err)
	}

	if !im.Release(testKey) {
		t.Fatal("release did not request a clean")
	}
	if got := im.StateOf(testKey); got != StateOKQueued {
		t.Fatalf("state %v after release", got)
	}
	seq, eps, ok := im.BeginClean(testKey)
	if !ok || seq == 0 || len(eps) == 0 {
		t.Fatalf("BeginClean: %v %v %v", seq, eps, ok)
	}
	if got := im.StateOf(testKey); got != StateCcit {
		t.Fatalf("state %v after BeginClean", got)
	}
	redo, _ := im.FinishClean(testKey, nil)
	if redo {
		t.Fatal("unexpected redo")
	}
	if got := im.StateOf(testKey); got != StateNone {
		t.Fatalf("state %v after clean ack, want ⊥", got)
	}
}

func TestSecondAcquireReturnsSameSurrogate(t *testing.T) {
	im := NewImports()
	s := register(t, im, testKey)
	ent, act, _ := im.Acquire(testKey, nil)
	if act != ActionUse {
		t.Fatalf("action %v", act)
	}
	got, err := im.Wait(ent)
	if err != nil || got != s {
		t.Fatalf("wait: %v %v", got, err)
	}
}

func TestResurrectionFromOKQueued(t *testing.T) {
	im := NewImports()
	register(t, im, testKey)
	im.Release(testKey)
	// A new copy arrives before the cleaner ran: receive_copy cancels the
	// scheduled clean (Note 4 of the formalisation).
	_, act, _ := im.Acquire(testKey, nil)
	if act != ActionUse {
		t.Fatalf("action %v, want use", act)
	}
	if got := im.StateOf(testKey); got != StateOK {
		t.Fatalf("state %v", got)
	}
	// The cleaner now dequeues the stale request and must skip it.
	if _, _, ok := im.BeginClean(testKey); ok {
		t.Fatal("cleaner acted on a resurrected reference")
	}
}

func TestCcitNilRequiresCleanAckThenRedo(t *testing.T) {
	im := NewImports()
	register(t, im, testKey)
	im.Release(testKey)
	if _, _, ok := im.BeginClean(testKey); !ok {
		t.Fatal("BeginClean refused")
	}
	// Copy arrives while the clean call is in transit.
	ent, act, _ := im.Acquire(testKey, nil)
	if act != ActionWait {
		t.Fatalf("action %v, want wait", act)
	}
	if got := im.StateOf(testKey); got != StateCcitNil {
		t.Fatalf("state %v, want ccitnil", got)
	}

	waited := make(chan error, 1)
	go func() {
		_, err := im.Wait(ent)
		waited <- err
	}()

	// Clean ack arrives: the entry must re-enter StateNil and demand a
	// fresh dirty call, never jumping straight to OK (there is no
	// ccitnil -> OK edge in the cube).
	redo, seq := im.FinishClean(testKey, nil)
	if !redo {
		t.Fatal("no redo after clean ack in ccitnil")
	}
	if got := im.StateOf(testKey); got != StateNil {
		t.Fatalf("state %v, want nil", got)
	}
	select {
	case err := <-waited:
		t.Fatalf("waiter released before re-registration: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if seq == 0 {
		t.Fatal("redo without seq")
	}
	s2 := &surrogate{label: "s2"}
	im.FinishRegister(testKey, s2, nil)
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	got, err := im.Use(testKey)
	if err != nil || got != s2 {
		t.Fatalf("after redo: %v %v", got, err)
	}
}

func TestFailedRegistrationWakesWaitersWithError(t *testing.T) {
	im := NewImports()
	ent, act, _ := im.Acquire(testKey, nil)
	if act != ActionRegister {
		t.Fatal("want register")
	}
	// A second unmarshal of the same wireRep blocks.
	ent2, act2, _ := im.Acquire(testKey, nil)
	if act2 != ActionWait || ent2 != ent {
		t.Fatalf("second acquire: %v", act2)
	}
	waited := make(chan error, 1)
	go func() {
		_, err := im.Wait(ent2)
		waited <- err
	}()
	im.FinishRegister(testKey, nil, errors.New("owner unreachable"))
	if err := <-waited; !errors.Is(err, ErrRegistration) {
		t.Fatalf("waiter got %v", err)
	}
	if got := im.StateOf(testKey); got != StateNone {
		t.Fatalf("state %v after failed registration", got)
	}
	// The next import starts a fresh lifecycle with a higher seq.
	_, act3, seq3 := im.Acquire(testKey, nil)
	if act3 != ActionRegister || seq3 < 2 {
		t.Fatalf("fresh lifecycle: %v seq=%d", act3, seq3)
	}
}

func TestSeqMonotonicAcrossLifecycles(t *testing.T) {
	im := NewImports()
	var seqs []uint64
	for i := 0; i < 3; i++ {
		_, act, seq := im.Acquire(testKey, nil)
		if act != ActionRegister {
			t.Fatalf("round %d: action %v", i, act)
		}
		seqs = append(seqs, seq)
		im.FinishRegister(testKey, &surrogate{}, nil)
		im.Release(testKey)
		cseq, _, ok := im.BeginClean(testKey)
		if !ok {
			t.Fatalf("round %d: BeginClean refused", i)
		}
		seqs = append(seqs, cseq)
		im.FinishClean(testKey, nil)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("sequence numbers not increasing: %v", seqs)
		}
	}
}

func TestPinDefersRelease(t *testing.T) {
	im := NewImports()
	register(t, im, testKey)
	if err := im.Pin(testKey); err != nil {
		t.Fatal(err)
	}
	if im.Release(testKey) {
		t.Fatal("release acted while pinned")
	}
	if got := im.StateOf(testKey); got != StateOK {
		t.Fatalf("state %v, want OK while pinned", got)
	}
	if !im.Unpin(testKey) {
		t.Fatal("unpin did not surface the deferred release")
	}
	if got := im.StateOf(testKey); got != StateOKQueued {
		t.Fatalf("state %v after deferred release", got)
	}
}

func TestNestedPins(t *testing.T) {
	im := NewImports()
	register(t, im, testKey)
	im.Pin(testKey)
	im.Pin(testKey)
	im.Release(testKey)
	if im.Unpin(testKey) {
		t.Fatal("release surfaced with a pin outstanding")
	}
	if !im.Unpin(testKey) {
		t.Fatal("final unpin lost the deferred release")
	}
}

func TestUseAfterRelease(t *testing.T) {
	im := NewImports()
	register(t, im, testKey)
	im.Release(testKey)
	if _, err := im.Use(testKey); !errors.Is(err, ErrReleased) {
		t.Fatalf("got %v", err)
	}
}

func TestReleaseIdempotentAndEarly(t *testing.T) {
	im := NewImports()
	if im.Release(testKey) {
		t.Fatal("release of unknown key requested a clean")
	}
	register(t, im, testKey)
	if !im.Release(testKey) {
		t.Fatal("first release ignored")
	}
	if im.Release(testKey) {
		t.Fatal("second release requested another clean")
	}
}

func TestConcurrentAcquireSingleRegistration(t *testing.T) {
	im := NewImports()
	const goroutines = 16
	var wg sync.WaitGroup
	registrations := make(chan uint64, goroutines)
	surrogates := make(chan any, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ent, act, seq := im.Acquire(testKey, nil)
			if act == ActionRegister {
				registrations <- seq
				time.Sleep(5 * time.Millisecond) // simulate dirty RPC
				im.FinishRegister(testKey, &surrogate{}, nil)
			}
			s, err := im.Wait(ent)
			if err != nil {
				t.Error(err)
				return
			}
			surrogates <- s
		}()
	}
	wg.Wait()
	close(registrations)
	close(surrogates)
	if n := len(registrations); n != 1 {
		t.Fatalf("%d registrations, want exactly 1", n)
	}
	var first any
	for s := range surrogates {
		if first == nil {
			first = s
		}
		if s != first {
			t.Fatal("waiters saw different surrogates")
		}
	}
}

// TestGenerationSurvivesRelifecycle: generations must keep increasing
// across successive lifecycles of the same key, like sequence numbers do.
// Before the fix a re-imported entry restarted at generation 1, so a
// finalizer cleanup armed in the previous lifecycle (and firing late,
// after the release/clean/re-import cycle completed) matched the fresh
// entry and released it out from under live users — ReleaseGen's match
// deliberately overrides holds, because for a genuinely matching
// generation the surrogate is unreachable.
func TestGenerationSurvivesRelifecycle(t *testing.T) {
	im := NewImports()

	// Lifecycle 1: register, release, clean to completion.
	gen1 := registerGen(t, im, testKey)
	if !im.Release(testKey) {
		t.Fatal("release did not queue a clean")
	}
	if _, _, ok := im.BeginClean(testKey); !ok {
		t.Fatal("clean not begun")
	}
	if redo, _ := im.FinishClean(testKey, nil); redo {
		t.Fatal("unexpected redo")
	}
	if got := im.StateOf(testKey); got != StateNone {
		t.Fatalf("entry survived clean: %v", got)
	}

	// Lifecycle 2 of the same key.
	gen2 := registerGen(t, im, testKey)
	if gen2 <= gen1 {
		t.Fatalf("generation reused across lifecycles: %d then %d", gen1, gen2)
	}

	// The stale cleanup from lifecycle 1 fires now: it must not touch the
	// fresh entry.
	if im.ReleaseGen(testKey, gen1) {
		t.Fatal("stale cleanup released the re-imported entry")
	}
	if _, err := im.Use(testKey); err != nil {
		t.Fatalf("fresh entry unusable after stale cleanup: %v", err)
	}
	// The current incarnation's cleanup still works.
	if !im.ReleaseGen(testKey, gen2) {
		t.Fatal("live generation refused to release")
	}
}

// TestRelifecycleAfterOtherKeys: the table keeps no record of a key once
// its entry is gone, yet a key re-imported after other keys' traffic
// still gets a sequence number and a generation above every one of its
// previous lifecycle.
func TestRelifecycleAfterOtherKeys(t *testing.T) {
	im := NewImports()
	lifecycle := func(key wire.Key) (seqs []uint64, gen uint64) {
		t.Helper()
		_, act, dirty := im.Acquire(key, []string{"ep"})
		if act != ActionRegister {
			t.Fatalf("%v: action %v, want register", key, act)
		}
		gen = im.FinishRegister(key, &surrogate{}, nil)
		if !im.Release(key) {
			t.Fatalf("%v: release did not queue a clean", key)
		}
		clean, _, ok := im.BeginClean(key)
		if !ok {
			t.Fatalf("%v: clean not begun", key)
		}
		if redo, _ := im.FinishClean(key, nil); redo {
			t.Fatalf("%v: unexpected redo", key)
		}
		return []uint64{dirty, clean}, gen
	}

	seqs1, gen1 := lifecycle(testKey)
	for i := uint64(1); i <= 50; i++ {
		lifecycle(wire.Key{Owner: testKey.Owner, Index: testKey.Index + i})
	}
	if im.Len() != 0 {
		t.Fatalf("%d entries left after every lifecycle ended", im.Len())
	}
	seqs2, gen2 := lifecycle(testKey)
	if seqs2[0] <= seqs1[1] {
		t.Fatalf("re-import dirty seq %d not above the previous lifecycle's %v", seqs2[0], seqs1)
	}
	if gen2 <= gen1 {
		t.Fatalf("re-import generation %d not above the previous lifecycle's %d", gen2, gen1)
	}
}
