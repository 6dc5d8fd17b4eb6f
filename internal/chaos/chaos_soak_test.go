package chaos

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"netobjects/internal/obs"
)

func soakOps(t *testing.T) int {
	t.Helper()
	if testing.Short() {
		return 120
	}
	// The nightly CI lane sets CHAOS_NIGHTLY to run the matrix at 10x
	// the short-lane ops; the plain full suite keeps a bounded runtime.
	if os.Getenv("CHAOS_NIGHTLY") != "" {
		return 1200
	}
	return 300
}

// TestSoakBaseline runs the harness with no faults at all: a sanity
// check that the workload itself converges and the invariants hold on a
// perfect network.
func TestSoakBaseline(t *testing.T) {
	rep, err := RunSoak(SoakConfig{
		Spaces:      3,
		Ops:         soakOps(t),
		Seed:        1,
		Profile:     "none",
		HealTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Failed() {
		t.Fatalf("baseline soak failed:\nviolations: %v\nleaks: %v\ntable leaks: %v",
			rep.Violations, rep.Leaks, rep.TableLeaks)
	}
	if rep.Faults.Faults() != 0 {
		t.Fatalf("baseline injected faults: %+v", rep.Faults)
	}
}

// TestSoak is the fault matrix: each profile at several seeds, running
// the real core+dgc stack under injected faults and checking the
// collector invariants after heal. This is the CI chaos-short lane.
func TestSoak(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	for _, profile := range []string{"loss", "partition", "crash"} {
		for _, seed := range seeds {
			profile, seed := profile, seed
			t.Run(fmt.Sprintf("%s/seed=%d", profile, seed), func(t *testing.T) {
				rep, err := RunSoak(SoakConfig{
					Spaces:      3,
					Ops:         soakOps(t),
					Seed:        seed,
					Profile:     profile,
					HealTimeout: 30 * time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Log(rep)
				if rep.Failed() {
					t.Fatalf("soak failed:\nviolations: %v\nleaks: %v\ntable leaks: %v",
						rep.Violations, rep.Leaks, rep.TableLeaks)
				}
				if rep.Faults.Faults() == 0 {
					t.Errorf("profile %s injected no faults", profile)
				}
				if profile == "crash" && rep.Crashes == 0 {
					t.Errorf("crash profile ran no crashes")
				}
			})
		}
	}
}

// TestSoakMixed exercises the everything-at-once profile.
func TestSoakMixed(t *testing.T) {
	rep, err := RunSoak(SoakConfig{
		Spaces:      4,
		Ops:         soakOps(t),
		Seed:        7,
		Profile:     "mixed",
		HealTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Failed() {
		t.Fatalf("mixed soak failed:\nviolations: %v\nleaks: %v\ntable leaks: %v",
			rep.Violations, rep.Leaks, rep.TableLeaks)
	}
	if rep.Faults.Faults() == 0 {
		t.Error("mixed profile injected no faults")
	}
}

// TestSoakRejectsUnknownProfile pins that a profile RunSoak does not know
// — a typo, or one whose subsystem is gone — is an error naming the valid
// profiles, not a quiet run under some default fault mix.
func TestSoakRejectsUnknownProfile(t *testing.T) {
	for _, profile := range []string{"registry", "mixd"} {
		rep, err := RunSoak(SoakConfig{Ops: 10, Seed: 1, Profile: profile})
		if err == nil {
			t.Fatalf("profile %q: ran (%v), want an error", profile, rep)
		}
		if !strings.Contains(err.Error(), strings.Join(SoakProfiles, ", ")) {
			t.Errorf("profile %q: error %q does not list the valid profiles", profile, err)
		}
	}
}

// TestSoakObservability wires the soak into a metrics registry and a
// ring tracer and checks the fault counters and chaos events surface the
// way an operator would see them on /metrics and /debug/netobj.
func TestSoakObservability(t *testing.T) {
	m := obs.NewMetrics()
	ring := obs.NewRing(4096)
	rep, err := RunSoak(SoakConfig{
		Spaces:      3,
		Ops:         80,
		Seed:        5,
		Profile:     "crash",
		HealTimeout: 20 * time.Second,
		Metrics:     m,
		Tracer:      ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("soak failed: %v %v %v", rep.Violations, rep.Leaks, rep.TableLeaks)
	}
	var sb strings.Builder
	m.Registry().WritePrometheus(&sb)
	text := sb.String()
	for _, metric := range []string{"netobj_chaos_messages_total", "netobj_chaos_drops_total"} {
		if !strings.Contains(text, metric) {
			t.Errorf("missing %s in metrics output", metric)
		}
	}
	if rep.Faults.Drops > 0 && ring.CountKind(obs.EvChaosFault) == 0 {
		t.Error("no EvChaosFault events in ring despite drops")
	}
	if rep.Crashes > 0 && ring.CountKind(obs.EvChaosCrash) == 0 {
		t.Error("no EvChaosCrash events in ring despite crashes")
	}
}

// TestSoakTCP runs the soak over real loopback TCP links with the
// multiplexed session layer underneath — the framed socket path, demux
// readers and shared per-peer connections all under injected faults. Part
// of the chaos-short lane alongside the in-memory matrix.
func TestSoakTCP(t *testing.T) {
	for _, profile := range []string{"loss", "crash"} {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			rep, err := RunSoak(SoakConfig{
				Spaces:      3,
				Ops:         soakOps(t),
				Seed:        11,
				Profile:     profile,
				Transport:   "tcp",
				HealTimeout: 30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Log(rep)
			if rep.Failed() {
				t.Fatalf("tcp soak failed:\nviolations: %v\nleaks: %v\ntable leaks: %v",
					rep.Violations, rep.Leaks, rep.TableLeaks)
			}
			// The crash profile's injected fault is the crash itself; its
			// transport-fault count can legitimately be zero in a short run
			// when no message happens to land in a down window.
			if rep.Faults.Faults() == 0 && rep.Crashes == 0 {
				t.Errorf("profile %s injected no faults over tcp", profile)
			}
		})
	}
}

// TestFirstStartTakesFreshPort: a node whose reserved port was bound by
// someone else before its first start moves to a fresh port, at most
// portAttempts starts in all, and names the address it gave up on; other
// errors, and nodes not on TCP, are not retried.
func TestFirstStartTakesFreshPort(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	addr := taken.Addr().String()
	var started net.Listener
	if err := firstStart(true, &addr, func() (err error) {
		started, err = net.Listen("tcp", addr)
		return err
	}); err != nil {
		t.Fatalf("first start on a taken port: %v", err)
	}
	started.Close()
	if addr == taken.Addr().String() || started.Addr().String() != addr {
		t.Fatalf("started at %v, address now %s; want a fresh port in the address", started.Addr(), addr)
	}

	inUse := func(calls *int, addr *string) func() error {
		return func() error {
			*calls++
			return fmt.Errorf("listen %s: %w", *addr, syscall.EADDRINUSE)
		}
	}
	calls, addr := 0, "127.0.0.1:1"
	err = firstStart(true, &addr, inUse(&calls, &addr))
	if calls != portAttempts || !errors.Is(err, syscall.EADDRINUSE) || !strings.Contains(err.Error(), "chaos: "+addr+" taken") {
		t.Fatalf("always taken: %d starts, %v; want %d naming %s", calls, err, portAttempts, addr)
	}
	calls, addr = 0, "sp0"
	if err := firstStart(false, &addr, inUse(&calls, &addr)); calls != 1 || addr != "sp0" || err == nil {
		t.Fatalf("inmem: %d starts at %s, %v; want one, unretried", calls, addr, err)
	}
	calls = 0
	if err := firstStart(true, &addr, func() error { calls++; return errors.New("other") }); calls != 1 || err == nil {
		t.Fatalf("another error: %d starts, %v; want one, unretried", calls, err)
	}
}
