package main

import (
	"strings"
	"testing"
)

// TestSelectExperiments checks how -t lists resolve, without running an
// experiment: retired names are refused with the valid names listed, and
// the remaining ones resolve in run order.
func TestSelectExperiments(t *testing.T) {
	for _, list := range []string{"t1", "e1", "t3,e1", ""} {
		_, err := selectExperiments(list)
		if err == nil {
			t.Fatalf("-t %q: accepted, want an unknown-experiment error", list)
		}
		if !strings.Contains(err.Error(), experimentNames()) {
			t.Fatalf("-t %q: error %q does not list the valid names %s", list, err, experimentNames())
		}
	}
	got, err := selectExperiments("e6, t3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].name != "t3" || got[1].name != "e6" {
		t.Fatalf("-t e6,t3 resolved to %v, want t3 then e6", got)
	}
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(experiments) {
		t.Fatalf("-t all resolved to %d experiments, want %d", len(all), len(experiments))
	}
}
