package core

import (
	"testing"
	"time"
)

// leaseSpace disables session keepalives, and with them session-subsumed
// liveness: these tests exercise the explicit lease protocol (renew
// messages, TTL expiry), which session health would otherwise
// short-circuit. Subsumption has its own tests.
func leaseSpace(tn *testNet, name string, ttl time.Duration) *Space {
	return tn.space(name, func(o *Options) {
		o.Liveness = LivenessLease
		o.LeaseTTL = ttl
		o.KeepaliveInterval = -1
	})
}

func TestLeaseKeepsLiveClientRegistered(t *testing.T) {
	tn := newTestNet(t)
	// A generous TTL relative to the renewal interval keeps this robust
	// under the race detector and parallel-package CPU contention.
	owner := leaseSpace(tn, "owner", 300*time.Millisecond)
	client := leaseSpace(tn, "client", 300*time.Millisecond)

	cnt := &counter{}
	ref, _ := owner.Export(cnt)
	w, _ := ref.WireRep()
	cref, err := client.Import(w)
	if err != nil {
		t.Fatal(err)
	}
	// Live well past several TTLs: renewals must keep the dirty entry.
	deadline := time.Now().Add(900 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := cref.Call("Incr", int64(1)); err != nil {
			t.Fatalf("call failed mid-lease: %v", err)
		}
		if !owner.Exports().HoldsDirty(w.Index, client.ID()) {
			t.Fatal("live client expired despite renewals")
		}
		time.Sleep(30 * time.Millisecond)
	}
	if client.Stats().LeasesSent == 0 {
		t.Fatal("client never renewed")
	}
	if owner.Stats().LeasesServed == 0 {
		t.Fatal("owner never served a renewal")
	}
}

func TestLeaseExpiryReclaimsCrashedClient(t *testing.T) {
	tn := newTestNet(t)
	owner := leaseSpace(tn, "owner", 50*time.Millisecond)
	client := leaseSpace(tn, "client", 50*time.Millisecond)

	ref, _ := owner.Export(&counter{})
	w, _ := ref.WireRep()
	if _, err := client.Import(w); err != nil {
		t.Fatal(err)
	}
	client.Abort() // no parting cleans, no further renewals
	start := time.Now()
	if !waitFor(5*time.Second, func() bool { return owner.Exports().Len() == 0 }) {
		t.Fatal("crashed client never expired")
	}
	elapsed := time.Since(start)
	t.Logf("reclaimed %v after crash (ttl 50ms)", elapsed)
	if owner.Stats().ClientsDropped == 0 {
		t.Fatal("drop not recorded")
	}
}

func TestLeaseGraceForUnknownClients(t *testing.T) {
	// An owner restarted into lease mode (or sweeping before any renewal
	// arrived) must grant a fresh lease rather than evict instantly.
	tn := newTestNet(t)
	owner := leaseSpace(tn, "owner", 100*time.Millisecond)
	// Client in PING mode: it never renews — a mixed deployment.
	client := tn.space("client", nil)
	ref, _ := owner.Export(&counter{})
	w, _ := ref.WireRep()
	if _, err := client.Import(w); err != nil {
		t.Fatal(err)
	}
	// The first sweep must not evict (implicit lease from the dirty
	// call); expiry happens only after a full TTL of silence.
	owner.PokeLiveness()
	if !owner.Exports().HoldsDirty(w.Index, client.ID()) {
		t.Fatal("client evicted before its lease could lapse")
	}
	// Eventually the non-renewing client does expire: in a mixed
	// deployment a lease-mode owner treats ping-mode clients as mortal.
	if !waitFor(5*time.Second, func() bool { return owner.Exports().Len() == 0 }) {
		t.Fatal("non-renewing client never expired")
	}
}

func TestLeaseModeInteropWithPingOwner(t *testing.T) {
	// A lease-mode client renewing at a ping-mode owner must be answered
	// harmlessly (no-op), and the owner's pings keep working.
	tn := newTestNet(t)
	owner := tn.space("owner", func(o *Options) {
		o.PingMaxFailures = 2
		o.PingTimeout = 200 * time.Millisecond
	})
	client := leaseSpace(tn, "client", 50*time.Millisecond)
	ref, _ := owner.Export(&counter{})
	w, _ := ref.WireRep()
	cref, err := client.Import(w)
	if err != nil {
		t.Fatal(err)
	}
	client.renewer.Poke() // renewal lands at a ping-mode owner: no-op OK
	if _, err := cref.Call("Value"); err != nil {
		t.Fatal(err)
	}
	owner.pinger.Poke() // ping-mode probe of the lease-mode client works
	if !owner.Exports().HoldsDirty(w.Index, client.ID()) {
		t.Fatal("interop broke the registration")
	}
}
