package core

import (
	"testing"
	"time"
)

// These tests pin session-subsumed liveness: a healthy mux session whose
// peer identified itself stands in for explicit collector liveness
// traffic — pings in ping mode, renewals and expiry checks in lease mode
// — and losing the session falls back to the explicit protocol.

func TestSessionSubsumesPings(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", func(o *Options) {
		o.PingMaxFailures = 1
		o.PingTimeout = 200 * time.Millisecond
	})
	client := tn.space("client", nil)

	ref, _ := owner.Export(&counter{})
	w, _ := ref.WireRep()
	cref, err := client.Import(w)
	if err != nil {
		t.Fatal(err)
	}
	// The call's round trip guarantees the owner has processed the
	// client's hello on the inbound session.
	if _, err := cref.Call("Incr", int64(1)); err != nil {
		t.Fatal(err)
	}

	owner.PokeLiveness()
	owner.PokeLiveness()
	if n := owner.Stats().PingsSent; n != 0 {
		t.Fatalf("owner pinged %d times despite a live identified session", n)
	}
	if owner.metrics.PingsSubsumed.Load() == 0 {
		t.Fatal("no probe recorded as subsumed")
	}
	if !owner.Exports().HoldsDirty(w.Index, client.ID()) {
		t.Fatal("registration lost under subsumption")
	}

	// Session gone: explicit probing resumes and the dead client is
	// dropped by the normal failure policy.
	client.Abort()
	if !waitFor(5*time.Second, func() bool {
		owner.PokeLiveness()
		return owner.Exports().Len() == 0
	}) {
		t.Fatal("dead client never dropped after session loss")
	}
	if owner.Stats().PingsSent == 0 {
		t.Fatal("fallback probing never kicked in")
	}
}

func TestSessionSubsumesLeases(t *testing.T) {
	tn := newTestNet(t)
	mk := func(name string) *Space {
		return tn.space(name, func(o *Options) {
			o.Liveness = LivenessLease
			o.LeaseTTL = 100 * time.Millisecond
		})
	}
	owner := mk("owner")
	client := mk("client")

	ref, _ := owner.Export(&counter{})
	w, _ := ref.WireRep()
	cref, err := client.Import(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cref.Call("Incr", int64(1)); err != nil {
		t.Fatal(err)
	}

	// Client side: explicit renewals are suppressed while the session is
	// healthy.
	client.renewer.Poke()
	if n := client.Stats().LeasesSent; n != 0 {
		t.Fatalf("client sent %d explicit renewals despite a live session", n)
	}
	if client.metrics.LeasesSuppressed.Load() == 0 {
		t.Fatal("no renewal recorded as suppressed")
	}

	// Owner side: well past the TTL with zero renewal messages, session
	// health renews the lease implicitly and the entry survives.
	time.Sleep(150 * time.Millisecond)
	owner.PokeLiveness()
	if !owner.Exports().HoldsDirty(w.Index, client.ID()) {
		t.Fatal("session-covered client expired")
	}
	if owner.metrics.LeasesImplicit.Load() == 0 {
		t.Fatal("no implicit renewal recorded")
	}

	// Session gone: the lease stops being renewed and lapses normally.
	client.Abort()
	if !waitFor(5*time.Second, func() bool {
		owner.PokeLiveness()
		return owner.Exports().Len() == 0
	}) {
		t.Fatal("crashed client's lease never expired after session loss")
	}
}
