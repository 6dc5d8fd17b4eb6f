package core

import (
	"testing"
	"time"
)

// These tests pin session-subsumed liveness: a healthy mux session whose
// peer identified itself stands in for the owner's explicit ping, and
// losing the session falls back to pinging.

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
