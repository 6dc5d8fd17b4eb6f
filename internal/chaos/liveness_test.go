package chaos

import (
	"fmt"
	"testing"
	"time"

	"netobjects/internal/core"
	"netobjects/internal/pickle"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// TestKeepaliveSubsumedLiveness walks the full session-liveness state
// machine under real faults: a healthy identified session subsumes the
// owner's pings; a partition kills the session and explicit probing takes
// over; healing lets the next probe rebuild an identified session, which
// cancels the accumulating failure count before the drop policy fires.
func TestKeepaliveSubsumedLiveness(t *testing.T) {
	inner := transport.NewMem()
	ctOwner := New(inner, "owner", 1)
	ctClient := New(inner, "client", 1)
	mk := func(name string, ct *Transport) *core.Space {
		sp, err := core.NewSpace(core.Options{
			Name:            name,
			Transports:      []transport.Transport{ct},
			ListenEndpoints: []string{wire.JoinEndpoint(ct.Proto(), name)},
			Registry:        pickle.NewRegistry(),
			CallTimeout:     2 * time.Second,
			PingInterval:    time.Hour, // driven explicitly
			PingTimeout:     300 * time.Millisecond,
			PingMaxFailures: 1000, // the test, not the policy, decides drops
			// Fast keepalives so the partition kills the session quickly.
			KeepaliveInterval: 25 * time.Millisecond,
			RetryAttempts:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sp.Close() })
		return sp
	}
	owner := mk("owner", ctOwner)
	client := mk("client", ctClient)

	ref, err := owner.Export(&soakCounter{})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := ref.WireRep()
	cref, err := client.Import(w)
	if err != nil {
		t.Fatal(err)
	}
	// The round trip guarantees the owner processed the client's hello.
	if _, err := cref.Call("Incr", int64(1)); err != nil {
		t.Fatal(err)
	}

	// Phase 1: healthy session, probes subsumed.
	owner.PokeLiveness()
	owner.PokeLiveness()
	if n := owner.Stats().PingsSent; n != 0 {
		t.Fatalf("owner pinged %d times under a live session", n)
	}
	if owner.Metrics().PingsSubsumed.Load() == 0 {
		t.Fatal("no probe recorded as subsumed")
	}

	// Phase 2: full partition. Keepalives stop confirming the peer, the
	// session dies, and the pinger falls back to explicit probes (which
	// fail, accumulating failures — but never enough to drop).
	ctOwner.Partition("client")
	ctClient.Partition("owner")
	deadline := time.Now().Add(10 * time.Second)
	for owner.Stats().PingsSent == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pinger never fell back to explicit probes after partition")
		}
		owner.PokeLiveness()
		time.Sleep(10 * time.Millisecond)
	}
	if !owner.Exports().HoldsDirty(w.Index, client.ID()) {
		t.Fatal("client dropped during the partition despite the failure budget")
	}

	// Phase 3: heal. The next probe dials a fresh session, both sides
	// advertise identity, and subsumption resumes — clearing the pending
	// failure count rather than letting it ratchet toward a drop.
	ctOwner.Heal("client")
	ctClient.Heal("owner")
	subsumedBefore := owner.Metrics().PingsSubsumed.Load()
	deadline = time.Now().Add(10 * time.Second)
	for owner.Metrics().PingsSubsumed.Load() == subsumedBefore {
		if time.Now().After(deadline) {
			t.Fatal("healed session never resumed subsuming probes")
		}
		owner.PokeLiveness()
		time.Sleep(10 * time.Millisecond)
	}
	if !owner.Exports().HoldsDirty(w.Index, client.ID()) {
		t.Fatal("registration lost across partition and heal")
	}
	if owner.Stats().ClientsDropped != 0 {
		t.Fatal("live client dropped despite heal")
	}
}

// TestSoakLease runs the fault matrix with lease-mode collectors: the
// aggregated per-peer leases plus session subsumption must deliver the
// same zero-leak convergence the ping-mode soak does.
func TestSoakLease(t *testing.T) {
	for _, profile := range []string{"loss", "partition", "crash"} {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			rep, err := RunSoak(SoakConfig{
				Spaces:      3,
				Ops:         soakOps(t),
				Seed:        4,
				Profile:     profile,
				Liveness:    "lease",
				HealTimeout: 30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Log(rep)
			if rep.Failed() {
				t.Fatalf("lease soak failed:\nviolations: %v\nleaks: %v\ntable leaks: %v",
					rep.Violations, rep.Leaks, rep.TableLeaks)
			}
			if rep.Faults.Faults() == 0 && rep.Crashes == 0 {
				t.Errorf("profile %s injected no faults", profile)
			}
		})
	}
}

// TestSoakLeaseNightly is the long lease-mode matrix for the nightly
// lane: many seeds per profile. Guarded by -short so the regular lanes
// keep their runtime.
func TestSoakLeaseNightly(t *testing.T) {
	if testing.Short() {
		t.Skip("nightly matrix: skipped in short mode")
	}
	if testing.Verbose() {
		t.Log("running extended lease-mode seed matrix")
	}
	seeds := []uint64{1, 2, 3, 5, 8}
	for _, profile := range []string{"partition", "crash"} {
		for _, seed := range seeds {
			profile, seed := profile, seed
			t.Run(fmt.Sprintf("%s/seed=%d", profile, seed), func(t *testing.T) {
				rep, err := RunSoak(SoakConfig{
					Spaces:      3,
					Ops:         200,
					Seed:        seed,
					Profile:     profile,
					Liveness:    "lease",
					HealTimeout: 30 * time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Log(rep)
				if rep.Failed() {
					t.Fatalf("lease soak failed:\nviolations: %v\nleaks: %v\ntable leaks: %v",
						rep.Violations, rep.Leaks, rep.TableLeaks)
				}
			})
		}
	}
}
