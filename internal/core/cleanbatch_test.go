package core

import (
	"testing"
	"time"

	"netobjects/internal/transport"
)

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
