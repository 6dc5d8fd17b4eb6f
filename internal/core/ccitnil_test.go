package core

import (
	"testing"
	"time"

	"netobjects/internal/objtable"
	"netobjects/internal/pickle"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// These tests drive the ccit/ccitnil corner of the life cycle through the
// real runtime: a copy of a reference arriving while its clean call is in
// transit must wait for the clean acknowledgement and then re-register
// with a fresh dirty call (the redo path), never reuse the dying
// registration.

// slowNet builds spaces over a latency-injected transport so the
// clean-call-in-transit window is wide enough to hit deterministically.
func slowNet(t *testing.T, latency time.Duration) (*transport.Mem, func(string) *Space) {
	t.Helper()
	mem := transport.NewMem()
	mem.Latency = latency
	mk := func(name string) *Space {
		sp, err := NewSpace(Options{
			Name:         name,
			Transports:   []transport.Transport{mem},
			Registry:     pickle.NewRegistry(),
			CallTimeout:  10 * time.Second,
			PingInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sp.Close() })
		return sp
	}
	return mem, mk
}

func TestCcitNilRedoInRuntime(t *testing.T) {
	_, mk := slowNet(t, 5*time.Millisecond)
	owner := mk("owner")
	client := mk("client")
	anchor := mk("anchor")

	cnt := &counter{}
	ref, _ := owner.Export(cnt)
	w, _ := ref.WireRep()
	key := w.Key()

	// A second client keeps the object exported throughout, playing the
	// role of the transit protection a protocol-conformant copy would
	// enjoy (our re-import below is out-of-band).
	if _, err := anchor.Import(w); err != nil {
		t.Fatal(err)
	}

	r1, err := client.Import(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Call("Incr", int64(1)); err != nil {
		t.Fatal(err)
	}

	// Release and wait for the cleaner to *send* the clean (state ccit):
	// with 5ms per leg the ack is at least 10ms away.
	r1.Release()
	if !waitFor(2*time.Second, func() bool {
		return client.Imports().StateOf(key) == objtable.StateCcit
	}) {
		t.Fatalf("never reached ccit (state %v)", client.Imports().StateOf(key))
	}

	// A new copy of the reference arrives while the clean is in transit.
	// Import must block through ccitnil, then re-register and succeed.
	start := time.Now()
	r2, err := client.Import(w)
	if err != nil {
		t.Fatalf("re-import during ccit: %v", err)
	}
	if _, err := r2.Call("Incr", int64(1)); err != nil {
		t.Fatal(err)
	}
	if cnt.n != 2 {
		t.Fatalf("n=%d", cnt.n)
	}
	// The wait must have covered at least the remaining clean ack leg.
	if time.Since(start) < 2*time.Millisecond {
		t.Log("warning: ccitnil window may not have been exercised")
	}
	// The redo consumed a fresh dirty call: at least 2 dirty calls total.
	if st := client.Stats(); st.DirtySent < 2 {
		t.Fatalf("dirty calls: %d, want >= 2 (redo)", st.DirtySent)
	}
	if !owner.Exports().HoldsDirty(w.Index, client.ID()) {
		t.Fatal("client not registered after redo")
	}
}

func TestResurrectionBeforeCleanSent(t *testing.T) {
	// A copy arriving while the clean is merely scheduled (OK+todo) must
	// cancel it without any messages: receive_copy's Note 4 optimisation.
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	ref, _ := owner.Export(&counter{})
	w, _ := ref.WireRep()

	r1, err := client.Import(w)
	if err != nil {
		t.Fatal(err)
	}
	before := client.Stats()
	// Release and immediately re-import; with a fast transport the
	// cleaner may or may not win the race, but over many rounds both
	// paths are taken and every round must end usable.
	for i := 0; i < 50; i++ {
		r1.Release()
		r2, err := client.Import(w)
		if err != nil {
			// The owner withdrew between release and import: refresh.
			w, _ = ref.WireRep()
			r2, err = client.Import(w)
			if err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
		if _, err := r2.Call("Value"); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		r1 = r2
	}
	after := client.Stats()
	// Some rounds must have resurrected without a clean (fewer cleans
	// than rounds) — with an in-process transport the scheduled clean
	// rarely beats the immediate re-import.
	if after.CleanSent-before.CleanSent >= 50 {
		t.Fatalf("every round paid a clean call: %d", after.CleanSent-before.CleanSent)
	}
}

func TestPingIncarnationMismatch(t *testing.T) {
	// A new space listening at the same endpoint as a dead client must
	// not be mistaken for it: the ping ack carries the space id.
	mem := transport.NewMem()
	mk := func(name, listen string) *Space {
		opts := Options{
			Name:         name,
			Transports:   []transport.Transport{mem},
			Registry:     pickle.NewRegistry(),
			CallTimeout:  2 * time.Second,
			PingInterval: time.Hour,
			PingTimeout:  200 * time.Millisecond,
		}
		if listen != "" {
			opts.ListenEndpoints = []string{listen}
		}
		sp, err := NewSpace(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sp.Close() })
		return sp
	}
	owner := mk("owner", "")
	client := mk("client", "inmem:client-addr")
	ref, _ := owner.Export(&counter{})
	handoff(t, ref, client)

	// The client dies; a new, unrelated space takes over its address.
	client.Abort()
	_ = mk("squatter", "inmem:client-addr")

	// Pings reach the squatter, whose id does not match; after
	// MaxFailures rounds the owner reclaims. Rounds run until then rather
	// than a fixed number of times: each can be subsumed by the dead
	// client's session until the owner has seen that session die.
	if !waitFor(2*time.Second, func() bool {
		owner.pinger.Poke()
		return owner.Exports().Len() == 0
	}) {
		t.Fatal("owner fooled by an endpoint squatter")
	}
}

func TestRefWireRepStableWhileLive(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	ref, _ := owner.Export(&counter{})
	w1, _ := ref.WireRep()
	handoff(t, ref, client) // dirty set non-empty: entry stable
	w2, _ := ref.WireRep()
	if w1.Key() != w2.Key() {
		t.Fatalf("wireRep changed while exported: %v vs %v", w1, w2)
	}
	var zero wire.WireRep
	if _, err := client.Import(zero); err == nil {
		t.Fatal("zero wireRep imported")
	}
}
