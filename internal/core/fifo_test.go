package core

import (
	"sync"
	"testing"
	"time"

	"netobjects/internal/transport"
)

// fifoNet builds spaces running the §5.1 FIFO collector variant.
func fifoSpace(tn *testNet, name string) *Space {
	return tn.space(name, func(o *Options) { o.Variant = VariantFIFO })
}

func TestFIFOBasicCall(t *testing.T) {
	tn := newTestNet(t)
	owner := fifoSpace(tn, "owner")
	client := fifoSpace(tn, "client")
	cnt := &counter{}
	ref, _ := owner.Export(cnt)
	cref := handoff(t, ref, client)
	out, err := cref.Call("Incr", int64(7))
	if err != nil || out[0].(int64) != 7 {
		t.Fatalf("got %v %v", out, err)
	}
	w, _ := ref.WireRep()
	if !owner.Exports().HoldsDirty(w.Index, client.ID()) {
		t.Fatal("client not registered")
	}
}

func TestFIFOThirdPartyTransfer(t *testing.T) {
	tn := newTestNet(t)
	a := fifoSpace(tn, "A")
	b := fifoSpace(tn, "B")
	c := fifoSpace(tn, "C")

	cnt := &counter{}
	aRef, _ := a.Export(cnt)
	relayImpl := &relay{}
	bRef, _ := b.Export(relayImpl)

	relayAtA := handoff(t, bRef, a)
	if _, err := relayAtA.Call("Put", aRef); err != nil {
		t.Fatal(err)
	}
	relayAtC := handoff(t, bRef, c)
	out, err := relayAtC.Call("Get")
	if err != nil {
		t.Fatal(err)
	}
	got := out[0].(*Ref)
	res, err := got.Call("Incr", int64(3))
	if err != nil || res[0].(int64) != 3 {
		t.Fatalf("got %v %v", res, err)
	}
	// By the time C's Get returned (ResultAck discipline), C must be in
	// A's dirty set even though registration was asynchronous.
	w, _ := aRef.WireRep()
	if !a.Exports().HoldsDirty(w.Index, c.ID()) {
		t.Fatal("async registration not settled by result ack")
	}
}

func TestFIFOReleaseNeverOvertakesDirty(t *testing.T) {
	// Hammer import/release cycles: with the ordered per-owner queue a
	// clean can never overtake its dirty, so every cycle must leave the
	// tables consistent and the final state empty.
	tn := newTestNet(t)
	owner := fifoSpace(tn, "owner")
	client := fifoSpace(tn, "client")
	cnt := &counter{}
	ref, _ := owner.Export(cnt)

	for i := 0; i < 200; i++ {
		// A wireRep handed over out of band, with no sender pinning the
		// export, dies when the dirty set empties: let the previous cycle's
		// clean be served (reclaiming the export) before taking the next.
		client.cleaner.Drain(time.Second)
		w, err := ref.WireRep()
		if err != nil {
			t.Fatal(err)
		}
		r, err := client.Import(w)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if _, err := r.Call("Incr", int64(1)); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		r.Release()
	}
	if !waitFor(5*time.Second, func() bool {
		return client.Imports().Len() == 0 && owner.Exports().Len() == 0
	}) {
		t.Fatalf("leftover state: imports=%d exports=%d",
			client.Imports().Len(), owner.Exports().Len())
	}
	if cnt.n != 200 {
		t.Fatalf("n=%d", cnt.n)
	}
}

func TestFIFOOverlapsRegistrationWithMethod(t *testing.T) {
	// The server's reply must wait for the dirty calls of references it
	// received, but the method itself runs concurrently with them. With a
	// latency-injected transport, the classic variant pays the dirty
	// round trip *before* the method, the FIFO variant alongside it.
	measure := func(variant CollectorVariant) time.Duration {
		mem := transport.NewMem()
		mem.Latency = 3 * time.Millisecond
		mk := func(name string) *Space {
			sp, err := NewSpace(Options{
				Name:         name,
				Transports:   []transport.Transport{mem},
				CallTimeout:  10 * time.Second,
				PingInterval: time.Hour,
				Variant:      variant,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = sp.Close() })
			return sp
		}
		a, b, c := mk("A"), mk("B"), mk("C")
		// C owns the payload object; A hands it to B, whose method busy-
		// waits long enough to cover B's dirty round trip to C.
		cnt := &counter{}
		cRef, err := c.Export(cnt)
		if err != nil {
			t.Fatal(err)
		}
		w, _ := cRef.WireRep()
		cAtA, err := a.Import(w)
		if err != nil {
			t.Fatal(err)
		}
		relayImpl := &slowRelay{pause: 8 * time.Millisecond}
		bRef, _ := b.Export(relayImpl)
		relayAtA := handoff(t, bRef, a)

		start := time.Now()
		if _, err := relayAtA.Call("PutSlow", cAtA); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	classic := measure(VariantBirrell)
	fifo := measure(VariantFIFO)
	t.Logf("classic=%v fifo=%v", classic, fifo)
	// The FIFO variant should save most of one dirty round trip (2 legs x
	// 3ms). Allow slack: it must be at least 3ms faster.
	if fifo+3*time.Millisecond > classic {
		t.Fatalf("no overlap benefit: classic=%v fifo=%v", classic, fifo)
	}
}

// slowRelay simulates a method whose execution dominates the call.
type slowRelay struct {
	mu    sync.Mutex
	pause time.Duration
	held  *Ref
}

func (r *slowRelay) PutSlow(ref *Ref) error {
	time.Sleep(r.pause)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.held = ref
	return nil
}

func TestFIFOFailedAsyncRegistrationKillsSurrogate(t *testing.T) {
	tn := newTestNet(t)
	owner := fifoSpace(tn, "owner")
	client := tn.space("client", func(o *Options) {
		o.Variant = VariantFIFO
		o.CallTimeout = 300 * time.Millisecond
	})
	relayImpl := &relay{}
	bRef, _ := client.Export(relayImpl)
	_ = bRef

	cnt := &counter{}
	ref, _ := owner.Export(cnt)
	w, _ := ref.WireRep()

	// Out-of-band import is always blocking, even under FIFO; partition
	// the owner and watch it fail cleanly.
	addr := w.Endpoints[0][len("inmem:"):]
	tn.mem.SetUnreachable(addr, true)
	if _, err := client.Import(w); err == nil {
		t.Fatal("import through partition succeeded")
	}
	tn.mem.SetUnreachable(addr, false)
	// After healing, a fresh import works (new seq, new registration).
	r, err := client.Import(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Call("Incr", int64(1)); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOGracefulClose(t *testing.T) {
	tn := newTestNet(t)
	owner := fifoSpace(tn, "owner")
	client := fifoSpace(tn, "client")
	ref, _ := owner.Export(&counter{})
	handoff(t, ref, client)
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if !waitFor(2*time.Second, func() bool { return owner.Exports().Len() == 0 }) {
		t.Fatal("owner kept entry after FIFO client close")
	}
}

func TestBatchedCleans(t *testing.T) {
	// Release many surrogates at once with batching enabled: the cleaner
	// coalesces the queued cleans into few exchanges, and the owner
	// reclaims everything.
	mem := transport.NewMem()
	mem.Latency = 2 * time.Millisecond // let the queue build up
	mk := func(name string) *Space {
		sp, err := NewSpace(Options{
			Name:         name,
			Transports:   []transport.Transport{mem},
			CallTimeout:  10 * time.Second,
			PingInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sp.Close() })
		return sp
	}
	owner := mk("owner")
	client := mk("client")

	const n = 16
	refs := make([]*Ref, n)
	for i := 0; i < n; i++ {
		obj := &counter{}
		oref, err := owner.Export(obj)
		if err != nil {
			t.Fatal(err)
		}
		w, err := oref.WireRep()
		if err != nil {
			t.Fatal(err)
		}
		refs[i], err = client.Import(w)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range refs {
		r.Release()
	}
	if !waitFor(10*time.Second, func() bool { return owner.Exports().Len() == 0 }) {
		t.Fatalf("owner kept %d entries", owner.Exports().Len())
	}
	st := client.Stats()
	if st.CleanSent != n {
		t.Fatalf("cleans sent: %d, want %d", st.CleanSent, n)
	}
	if st.CleanBatches == 0 {
		t.Fatal("no batching happened despite a saturated queue")
	}
	t.Logf("%d cleans delivered in %d batched exchanges (+%d singles)",
		st.CleanSent, st.CleanBatches, st.CleanSent-uint64(n))
}
