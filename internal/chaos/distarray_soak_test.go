package chaos

import (
	"fmt"
	"testing"
	"time"
)

// TestSoakDistArray soaks the bulk data plane: distributed sorts and
// bulk array replicas with their call and result frames reset and
// reordered, one worker crash-restarted mid-shuffle, then heal.
// Invariants: the baseline and post-heal sorts complete and verify, every
// faulted attempt terminates inside its deadline, completed replicas match
// the sort digests, faults land on sort traffic, and after heal no
// surrogate or table entry leaks.
func TestSoakDistArray(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep, err := RunSoak(SoakConfig{
				Spaces:      3,
				Ops:         soakOps(t),
				Seed:        seed,
				Profile:     "distarray",
				HealTimeout: 30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Log(rep)
			if rep.Failed() {
				t.Fatalf("distarray soak failed:\nviolations: %v\nleaks: %v\ntable leaks: %v",
					rep.Violations, rep.Leaks, rep.TableLeaks)
			}
			// The fault-free baseline and post-heal sorts always verify,
			// so at least 2 sorts and 1 replica must have completed.
			if rep.DistSorts < 2 {
				t.Errorf("only %d sorts completed, want the baseline and post-heal sorts at least", rep.DistSorts)
			}
			if rep.DistMirrors < 1 {
				t.Errorf("no bulk replica completed")
			}
			if rep.DistSortFaults == 0 {
				t.Errorf("no fault landed on sort traffic in the faulted rounds (%d faults in all)", rep.Faults.Faults())
			}
			if rep.Crashes != 1 {
				t.Errorf("crashes = %d, want the one mid-shuffle crash", rep.Crashes)
			}
		})
	}
}
