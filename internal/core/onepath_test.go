package core

import (
	"context"
	"testing"

	"netobjects/internal/dgc"
	"netobjects/internal/obs"
)

// TestPlainCallLeavesPipeStateAlone pins that the call message shared by
// plain and pipelined calls costs a plain call nothing of pipelining's:
// after 1 000 plain calls the owner holds no pipelining state for the
// session, and the session's first pipelined call is what makes it.
func TestPlainCallLeavesPipeStateAlone(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	ref, err := owner.Export(&counter{})
	if err != nil {
		t.Fatal(err)
	}
	cref := handoff(t, ref, client)
	inbound := func() int {
		owner.pipeMu.Lock()
		defer owner.pipeMu.Unlock()
		return len(owner.pipeIn)
	}
	for i := 0; i < 1000; i++ {
		if _, err := cref.Call("Incr", int64(1)); err != nil {
			t.Fatal(err)
		}
	}
	if n := inbound(); n != 0 {
		t.Fatalf("1000 plain calls left pipelining state for %d sessions at the owner, want none", n)
	}
	ctx := context.Background()
	vals, err := cref.PipeCall(ctx, "Value").Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(int64) != 1000 {
		t.Fatalf("Value after 1000 Incr(1) = %v", vals[0])
	}
	if n := inbound(); n != 1 {
		t.Fatalf("a pipelined call left pipelining state for %d sessions at the owner, want 1", n)
	}
}

// TestCleanBatchObservedAfterAck: a clean exchange carrying two keys is
// one CleanLatency observation and one EvCleanSend, emitted once the
// owner's CleanAck is in, with the round trip as its Dur — what
// dgc.clean_p50_us and the benchmark's dgc.clean spans read.
func TestCleanBatchObservedAfterAck(t *testing.T) {
	tn := newTestNet(t)
	ownerRing, clientRing := obs.NewRing(64), obs.NewRing(64)
	owner := tn.space("owner", func(o *Options) { o.Tracer = ownerRing })
	client := tn.space("client", func(o *Options) { o.Tracer = clientRing })
	var items []dgc.CleanItem
	var eps []string
	for i := 0; i < 2; i++ {
		ref, err := owner.Export(&counter{})
		if err != nil {
			t.Fatal(err)
		}
		cref := handoff(t, ref, client)
		items = append(items, dgc.CleanItem{Key: cref.key, Seq: 1 << 40})
		eps = cref.endpoints
	}
	if err := client.sendCleans(owner.ID(), eps, items); err != nil {
		t.Fatal(err)
	}
	m := client.metrics
	if n := m.CleanLatency.Count(); n != 1 {
		t.Fatalf("CleanLatency observed %d times for one exchange, want 1", n)
	}
	if b, s := m.CleanBatches.Load(), m.CleanSent.Load(); b != 1 || s != 2 {
		t.Fatalf("CleanBatches = %d, CleanSent = %d; want 1 and 2", b, s)
	}
	var sends []obs.Event
	for _, e := range clientRing.Events() {
		if e.Kind == obs.EvCleanSend {
			sends = append(sends, e)
		}
	}
	if len(sends) != 1 || sends[0].N != 2 || sends[0].Dur <= 0 {
		t.Fatalf("EvCleanSend events %+v, want one with N = 2 and the round trip as Dur", sends)
	}
	served := 0
	for _, e := range ownerRing.Events() {
		if e.Kind != obs.EvCleanRecv {
			continue
		}
		served++
		if sends[0].Time.Before(e.Time) {
			t.Fatalf("EvCleanSend at %v, before the owner served the clean at %v", sends[0].Time, e.Time)
		}
	}
	if served != 2 {
		t.Fatalf("owner traced %d cleans received, want 2", served)
	}
}
