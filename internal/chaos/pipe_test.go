package chaos

import (
	"context"
	"errors"
	"testing"
	"time"

	"netobjects/internal/core"
	"netobjects/internal/pickle"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// TestPipeOpsClassified pins that the ops a pipelined chain rides — a
// Call with promise fields, the Result that resolves it, and the one-way
// message — self-identify to the fault injector, naked and through a mux
// envelope, the form they actually take on a session, so per-op rules can
// target, say, only results. None of them may ever be replayed: a
// duplicated Call or OneWay re-runs an application method, a duplicated
// Result could resolve a reused promise id with stale results, and a
// second hello fails the session.
func TestPipeOpsClassified(t *testing.T) {
	frames := map[wire.Op][]byte{
		wire.OpHello:  wire.Marshal(nil, &wire.Hello{Version: wire.Version, Space: 1}),
		wire.OpCall:   wire.Marshal(nil, &wire.Call{TargetPromise: 1, Method: "M", Promise: 2, Barrier: 1}),
		wire.OpResult: wire.Marshal(nil, &wire.Result{Status: wire.StatusPromiseBroken, Err: "dependency failed"}),
		wire.OpOneWay: wire.Marshal(nil, &wire.OneWay{Obj: 1, Method: "Log", Seq: 3}),
	}
	for op, frame := range frames {
		if got := wire.PeekOp(frame); got != op {
			t.Fatalf("naked frame for %v classifies as %v", op, got)
		}
		muxed := append(wire.AppendMuxHeader(nil, 7), frame...)
		if got := wire.PeekOp(muxed); got != op {
			t.Fatalf("muxed frame for %v classifies as %v", op, got)
		}
		r := Rules{Drop: 1, Ops: []wire.Op{op}}
		if !r.matches(op) {
			t.Fatalf("rules restricted to %v do not match it", op)
		}
		if r.matches(wire.OpDirty) {
			t.Fatalf("rules restricted to %v match OpDirty", op)
		}
		if duplicable(op) {
			t.Fatalf("%v is duplicable; pipelined ops must never be replayed", op)
		}
	}
}

// pipeChainNode is a two-level linked object for pipelined chains: Next
// hops to the tail, Name reads it.
type pipeChainNode struct {
	next *core.Ref
	name string
}

func (n *pipeChainNode) Next() (*core.Ref, error) {
	if n.next == nil {
		return nil, errors.New("end of chain")
	}
	return n.next, nil
}

func (n *pipeChainNode) Name() (string, error) { return n.name, nil }

// chaosSpace builds a core space listening through the given chaos
// wrapper.
func chaosSpace(t *testing.T, ct *Transport, name, addr string) *core.Space {
	t.Helper()
	sp, err := core.NewSpace(core.Options{
		Name:            name,
		Transports:      []transport.Transport{ct},
		ListenEndpoints: []string{wire.JoinEndpoint(ct.Proto(), addr)},
		Registry:        pickle.NewRegistry(),
		CallTimeout:     800 * time.Millisecond,
		PingInterval:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sp.Close() })
	return sp
}

// TestDropPromiseResolveBreaksChainBounded swallows every Result the owner
// sends — the frames that resolve promises — and asserts the two
// properties pipelining owes the fault model: a chain whose resolutions
// are lost fails within the call deadline — never hangs — and after the
// network heals no promise-table entry is leaked on either side.
func TestDropPromiseResolveBreaksChainBounded(t *testing.T) {
	mem := transport.NewMem()
	ownerCT := New(mem, "owner", 11)
	// Resolutions travel from the owner back over the connection the
	// client dialed, so only accept-side wrapping can reach them.
	ownerCT.WrapAccepts(true)
	clientCT := New(mem, "client", 11)

	owner := chaosSpace(t, ownerCT, "owner", "owner")
	client := chaosSpace(t, clientCT, "client", "client")

	leaf, err := owner.Export(&pipeChainNode{name: "leaf"})
	if err != nil {
		t.Fatal(err)
	}
	rootRef, err := owner.Export(&pipeChainNode{next: leaf, name: "root"})
	if err != nil {
		t.Fatal(err)
	}
	w, err := rootRef.WireRep()
	if err != nil {
		t.Fatal(err)
	}
	root, err := client.Import(w)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	// Sanity: on a perfect network the pipelined chain resolves.
	if got, err := root.PipeCall(ctx, "Next").PipeCall(ctx, "Name").Await(ctx); err != nil {
		t.Fatalf("chain on clean network: %v", err)
	} else if got[0] != "leaf" {
		t.Fatalf("chain resolved to %v, want leaf", got[0])
	}

	ownerCT.SetRules(Rules{Drop: 1.0, Ops: []wire.Op{wire.OpResult}})

	start := time.Now()
	p1 := root.PipeCall(ctx, "Next")
	p2 := p1.PipeCall(ctx, "Name")
	if _, err := p2.Await(ctx); err == nil {
		t.Fatal("chain resolved with every Result dropped")
	}
	if _, err := p1.Await(ctx); err == nil {
		t.Fatal("parent promise resolved with every Result dropped")
	}
	// Bounded by the 800ms call deadline, not hung: generous slack for a
	// loaded CI box, but far below "stuck until some unrelated timeout".
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("broken chain took %v to fail; deadline is 800ms", elapsed)
	}
	if s := ownerCT.Stats(); s.Drops == 0 {
		t.Fatal("no Result frames were dropped; the fault never engaged")
	}

	// Heal: the same link must serve fresh pipelined chains again.
	ownerCT.HealAll()
	if got, err := root.PipeCall(ctx, "Next").PipeCall(ctx, "Name").Await(ctx); err != nil {
		t.Fatalf("chain after heal: %v", err)
	} else if got[0] != "leaf" {
		t.Fatalf("chain after heal resolved to %v, want leaf", got[0])
	}

	// Leak check: once in-flight work settles, neither side may retain a
	// promise-table entry.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if client.PromisesPending() == 0 && owner.PromisesPending() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked promise entries after heal: client=%d owner=%d",
				client.PromisesPending(), owner.PromisesPending())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
