package core

import (
	"strings"
	"testing"

	"netobjects/internal/wire"
)

// These tests pin down the incarnation guard on the collector handlers:
// dirty and clean messages name the space they are addressed to, and a
// space with a different id — a new incarnation serving a reused
// endpoint — must not apply them. The scenario is the one the chaos soak
// first exposed: a clean retried across the owner's crash/restart window
// arrives at the successor with a sequence number drawn from the client's
// counter for the dead owner, which can exceed any counter the successor
// has seen, and would silently cancel a live registration at the same
// object index.

func TestStaleCleanDoesNotTouchNewIncarnation(t *testing.T) {
	tn := newTestNet(t)
	client := tn.space("client", nil)

	owner1 := tn.space("owner1", func(o *Options) { o.ListenEndpoints = []string{"inmem:reborn"} })
	ref1, err := owner1.Export(&counter{})
	if err != nil {
		t.Fatal(err)
	}
	handoff(t, ref1, client)
	staleOwner := owner1.ID()
	owner1.Abort() // crash: dirty sets die with the incarnation

	owner2 := tn.space("owner2", func(o *Options) { o.ListenEndpoints = []string{"inmem:reborn"} })
	ref2, err := owner2.Export(&counter{})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := ref2.WireRep()
	if err != nil {
		t.Fatal(err)
	}
	// Model endpoint+index reuse: the forged cleans name an index that is
	// live in the successor (sharded allocation makes the successor's
	// first index arbitrary, so aim at wherever it landed).
	staleIdx := w2.Index
	cref2 := handoff(t, ref2, client)

	// The stale clean: addressed to the dead owner, delivered to the
	// successor at the reused endpoint, with a sequence number far beyond
	// anything the successor has issued. It must be acknowledged as done
	// (its addressee's dirty sets no longer exist anywhere) and must not
	// disturb the live registration.
	clean := func(seq uint64, addressee wire.SpaceID) *wire.CleanAck {
		return owner2.handleCleanBatch(&wire.CleanBatch{Client: client.ID(),
			Objs: []uint64{staleIdx}, Seqs: []uint64{seq}, Strongs: []bool{false}, Owner: addressee})
	}
	ack := clean(99, staleOwner)
	if ack.Status != wire.StatusOK {
		t.Fatalf("stale clean ack: %v (%s), want OK", ack.Status, ack.Err)
	}
	if got := owner2.metrics.StaleRejected.Load(); got != 1 {
		t.Fatalf("StaleRejected = %d, want 1", got)
	}

	owner2.exports.Sweep()
	if out, err := cref2.Call("Incr", int64(1)); err != nil {
		t.Fatalf("live registration broken by stale clean: %v", err)
	} else if out[0].(int64) != 1 {
		t.Fatalf("Incr = %v, want 1", out[0])
	}

	// The same clean addressed to the successor itself does apply: the
	// object is withdrawn once the (forged) high-sequence clean empties
	// its dirty set.
	ack = clean(100, owner2.ID())
	if ack.Status != wire.StatusOK {
		t.Fatalf("addressed clean ack: %v (%s), want OK", ack.Status, ack.Err)
	}
	owner2.exports.Sweep()
	if _, err := cref2.Call("Incr", int64(1)); err == nil {
		t.Fatal("addressed clean did not take effect")
	}
}

func TestStaleDirtyRefused(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	ref, err := owner.Export(&counter{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := ref.WireRep()
	if err != nil {
		t.Fatal(err)
	}

	stale := owner.ID() + 1
	ack := owner.handleDirty(&wire.Dirty{Obj: w.Index, Client: 7, Seq: 1, Owner: stale})
	if ack.Status != wire.StatusNoSuchObject {
		t.Fatalf("stale dirty ack: %v, want NoSuchObject", ack.Status)
	}
	if !strings.Contains(ack.Err, "this endpoint now serves") {
		t.Fatalf("stale dirty err %q does not name the incarnation mismatch", ack.Err)
	}

	// An addressed dirty is accepted; an unaddressed one is refused like
	// any other mismatch, since every sender addresses its messages.
	if ack := owner.handleDirty(&wire.Dirty{Obj: w.Index, Client: 7, Seq: 2, Owner: owner.ID()}); ack.Status != wire.StatusOK {
		t.Fatalf("addressed dirty ack: %v (%s)", ack.Status, ack.Err)
	}
	before := owner.metrics.StaleRejected.Load()
	if ack := owner.handleDirty(&wire.Dirty{Obj: w.Index, Client: 8, Seq: 1}); ack.Status != wire.StatusNoSuchObject {
		t.Fatalf("unaddressed dirty ack: %v, want NoSuchObject", ack.Status)
	}
	if got := owner.metrics.StaleRejected.Load(); got != before+1 {
		t.Fatalf("unaddressed dirty counted %d stale rejections, want 1", got-before)
	}
}

func TestStaleCleanBatchRefused(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	ref, err := owner.Export(&counter{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := ref.WireRep()
	if err != nil {
		t.Fatal(err)
	}
	if ack := owner.handleDirty(&wire.Dirty{Obj: w.Index, Client: 7, Seq: 1, Owner: owner.ID()}); ack.Status != wire.StatusOK {
		t.Fatalf("dirty ack: %v (%s)", ack.Status, ack.Err)
	}

	stale := owner.ID() + 1
	ack := owner.handleCleanBatch(&wire.CleanBatch{
		Client: 7, Objs: []uint64{w.Index}, Seqs: []uint64{99}, Strongs: []bool{false}, Owner: stale,
	})
	if ack.Status != wire.StatusOK {
		t.Fatalf("stale batch ack: %v (%s), want OK (acknowledged as done)", ack.Status, ack.Err)
	}
	owner.exports.Sweep()
	if !owner.exports.HoldsDirty(w.Index, 7) {
		t.Fatal("stale batch cleaned a live registration")
	}
}
