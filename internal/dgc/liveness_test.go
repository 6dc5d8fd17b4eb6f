package dgc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"netobjects/internal/wire"
)

// TestPingerSessionSubsumption: a healthy identified session stands in
// for the probe — no ping is sent, failure counts clear, and losing the
// session falls back to explicit pinging with a fresh failure budget.
func TestPingerSessionSubsumption(t *testing.T) {
	var mu sync.Mutex
	pings := 0
	dropped := []wire.SpaceID{}
	alive := true
	pingErr := error(nil)

	p := NewPinger(PingerConfig{
		Interval:    time.Hour, // rounds driven by Poke only
		MaxFailures: 2,
		Clients: func() map[wire.SpaceID][]string {
			return map[wire.SpaceID][]string{4: {"inmem:c"}}
		},
		Ping: func(id wire.SpaceID, eps []string) error {
			mu.Lock()
			defer mu.Unlock()
			pings++
			return pingErr
		},
		Drop: func(id wire.SpaceID) {
			mu.Lock()
			dropped = append(dropped, id)
			mu.Unlock()
		},
		SessionAlive: func(id wire.SpaceID, eps []string) bool {
			mu.Lock()
			defer mu.Unlock()
			return alive
		},
	})
	defer p.Close()

	p.Poke()
	p.Poke()
	mu.Lock()
	if pings != 0 {
		mu.Unlock()
		t.Fatalf("pinger probed despite live session: %d pings", pings)
	}

	// Session dies, client unreachable: explicit probing resumes and the
	// failure budget runs down from zero.
	alive = false
	pingErr = errors.New("unreachable")
	mu.Unlock()
	p.Poke()
	mu.Lock()
	if pings != 1 || len(dropped) != 0 {
		mu.Unlock()
		t.Fatalf("after session loss: pings=%d dropped=%v, want 1 probe and no drop yet", pings, dropped)
	}
	mu.Unlock()
	p.Poke()
	mu.Lock()
	defer mu.Unlock()
	if len(dropped) != 1 || dropped[0] != 4 {
		t.Fatalf("client not dropped at MaxFailures after session loss: %v", dropped)
	}
}

// TestPingerSessionHealCancelsFailures: a session that comes back between
// failed probes clears the pending failure count, so a healed peer is not
// dropped by stale history.
func TestPingerSessionHealCancelsFailures(t *testing.T) {
	var mu sync.Mutex
	alive := false
	dropped := 0

	p := NewPinger(PingerConfig{
		Interval:    time.Hour,
		MaxFailures: 2,
		Clients: func() map[wire.SpaceID][]string {
			return map[wire.SpaceID][]string{4: {"inmem:c"}}
		},
		Ping: func(wire.SpaceID, []string) error { return errors.New("unreachable") },
		Drop: func(wire.SpaceID) {
			mu.Lock()
			dropped++
			mu.Unlock()
		},
		SessionAlive: func(wire.SpaceID, []string) bool {
			mu.Lock()
			defer mu.Unlock()
			return alive
		},
	})
	defer p.Close()

	p.Poke() // failure 1 of 2
	mu.Lock()
	alive = true
	mu.Unlock()
	p.Poke() // healed: subsumed, failures cleared
	mu.Lock()
	alive = false
	mu.Unlock()
	p.Poke() // failure 1 of 2 again
	mu.Lock()
	defer mu.Unlock()
	if dropped != 0 {
		t.Fatal("healed session did not cancel pending expiry")
	}
}
