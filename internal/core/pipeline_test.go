package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"netobjects/internal/wire"
)

// chainNode is a linked service for pipelining tests: following Next K
// times then reading Name is the paper-style dependent chain (a directory
// lookup) that pipelining collapses into one round trip.
type chainNode struct {
	name string
	next *Ref
}

func (n *chainNode) Next() (*Ref, error) {
	if n.next == nil {
		return nil, errors.New("end of chain")
	}
	return n.next, nil
}

func (n *chainNode) Name() (string, error) { return n.name, nil }

// pipeNapper sleeps without consulting a context, standing in for a slow
// owner in cancellation and crash tests.
type pipeNapper struct{}

func (pipeNapper) NapMillis(ms int64) (string, error) {
	time.Sleep(time.Duration(ms) * time.Millisecond)
	return "rested", nil
}

// buildChain exports a K+1 node chain at owner and returns the root's ref
// imported into client.
func buildChain(t *testing.T, owner, client *Space, k int) *Ref {
	t.Helper()
	next := (*Ref)(nil)
	for i := k; i >= 0; i-- {
		ref, err := owner.Export(&chainNode{name: fmt.Sprintf("node%d", i), next: next})
		if err != nil {
			t.Fatal(err)
		}
		next = ref
	}
	return handoff(t, next, client)
}

func TestPipeCallBasic(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)

	ref, _ := owner.Export(&counter{})
	cref := handoff(t, ref, client)

	ctx := context.Background()
	vals, err := cref.PipeCall(ctx, "Incr", int64(5)).Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0].(int64) != 5 {
		t.Fatalf("got %v", vals)
	}
	if got := client.metrics.PipelineCalls.Load(); got == 0 {
		t.Fatal("pipelined call not counted")
	}
	if got := client.metrics.PipelineFallbacks.Load(); got != 0 {
		t.Fatalf("unexpected fallback count %d", got)
	}
}

func TestPipeChainDeep(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)

	const k = 6
	root := buildChain(t, owner, client, k)

	ctx := context.Background()
	p := root.PipeCall(ctx, "Next")
	for i := 1; i < k; i++ {
		p = p.PipeCall(ctx, "Next")
	}
	vals, err := p.PipeCall(ctx, "Name").Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(string) != fmt.Sprintf("node%d", k) {
		t.Fatalf("chain resolved to %v", vals)
	}
	if got := owner.metrics.PipelineChained.Load(); got < k {
		t.Fatalf("chained serves = %d, want >= %d", got, k)
	}
}

func TestPipeChainOneRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-based timing test")
	}
	// With a simulated per-message latency, a K-deep dependent chain
	// should cost about one round trip pipelined versus K sequentially.
	const lag = 15 * time.Millisecond
	const k = 5
	tn := newTestNet(t)
	tn.mem.Latency = lag
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	root := buildChain(t, owner, client, k)
	ctx := context.Background()

	seqStart := time.Now()
	ref := root
	for i := 0; i < k; i++ {
		vals, err := ref.CallCtx(ctx, "Next")
		if err != nil {
			t.Fatal(err)
		}
		ref = vals[0].(Referencer).NetObjRef()
	}
	if _, err := ref.CallCtx(ctx, "Name"); err != nil {
		t.Fatal(err)
	}
	seq := time.Since(seqStart)

	pipeStart := time.Now()
	p := root.PipeCall(ctx, "Next")
	for i := 1; i < k; i++ {
		p = p.PipeCall(ctx, "Next")
	}
	vals, err := p.PipeCall(ctx, "Name").Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	piped := time.Since(pipeStart)
	if vals[0].(string) != fmt.Sprintf("node%d", k) {
		t.Fatalf("chain resolved to %v", vals)
	}
	if piped*2 > seq {
		t.Fatalf("pipelined chain took %v, sequential %v; want at least 2x improvement", piped, seq)
	}
}

func TestPipeChainErrorPoisons(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)

	ref, _ := owner.Export(&counter{})
	cref := handoff(t, ref, client)

	ctx := context.Background()
	p := cref.PipeCall(ctx, "Fail", "boom")
	_, err := p.PipeCall(ctx, "Value").Await(ctx)
	var ce *CallError
	if !errors.As(err, &ce) || ce.Status != wire.StatusPromiseBroken {
		t.Fatalf("dependent of failed call returned %v, want StatusPromiseBroken", err)
	}
	// The failed call itself reports the application error, not a break.
	if _, err := p.Await(ctx); err == nil {
		t.Fatal("failed call's own promise resolved clean")
	}
}

func TestPipePromiseArgument(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)

	ref, _ := owner.Export(&counter{})
	cref := handoff(t, ref, client)

	ctx := context.Background()
	// Value's result feeds Incr without a round trip in between: the
	// argument travels as a promise id and the owner substitutes locally.
	if _, err := cref.PipeCall(ctx, "Incr", int64(10)).Await(ctx); err != nil {
		t.Fatal(err)
	}
	pv := cref.PipeCall(ctx, "Value")
	vals, err := cref.PipeCall(ctx, "Incr", pv).Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(int64) != 20 {
		t.Fatalf("Incr(promise of 10) = %v, want 20", vals)
	}
}

func TestPipePromiseArgumentThirdSpace(t *testing.T) {
	// A promise from owner A's session used as an argument to owner B:
	// B cannot resolve A's promise, so the client awaits the value and
	// substitutes it — the resolve-then-call fallback.
	tn := newTestNet(t)
	a := tn.space("A", nil)
	b := tn.space("B", nil)
	client := tn.space("client", nil)

	refA, _ := a.Export(&counter{})
	refB, _ := b.Export(&counter{})
	ca := handoff(t, refA, client)
	cb := handoff(t, refB, client)

	ctx := context.Background()
	if _, err := ca.PipeCall(ctx, "Incr", int64(7)).Await(ctx); err != nil {
		t.Fatal(err)
	}
	pa := ca.PipeCall(ctx, "Value")
	vals, err := cb.PipeCall(ctx, "Incr", pa).Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(int64) != 7 {
		t.Fatalf("cross-space promise argument = %v, want 7", vals)
	}
}

func TestPipeChainThirdSpaceProxy(t *testing.T) {
	// The chained receiver resolves to a reference owned elsewhere: the
	// serving space proxies the dependent call to the real owner.
	tn := newTestNet(t)
	a := tn.space("A", nil)
	b := tn.space("B", nil)
	client := tn.space("client", nil)

	cnt := &counter{}
	refA, _ := a.Export(cnt)
	relayImpl := &relay{}
	refB, _ := b.Export(relayImpl)

	caRelay := handoff(t, refB, a)
	aCnt := handoff(t, refA, a)
	if _, err := caRelay.Call("Put", aCnt); err != nil {
		t.Fatal(err)
	}

	cb := handoff(t, refB, client)
	ctx := context.Background()
	vals, err := cb.PipeCall(ctx, "Get").PipeCall(ctx, "Incr", int64(7)).Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(int64) != 7 {
		t.Fatalf("proxied chained call = %v, want 7", vals)
	}
	if got, _ := cnt.Value(); got != 7 {
		t.Fatalf("owner state = %d, want 7", got)
	}
}

func TestPipeCancellationMidFlight(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)

	ref, _ := owner.Export(&pipeNapper{})
	cref := handoff(t, ref, client)

	ctx, cancel := context.WithCancel(context.Background())
	p := cref.PipeCall(ctx, "NapMillis", int64(1500))
	time.Sleep(50 * time.Millisecond)
	cancel()
	_, err := p.Await(context.Background())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pipelined call returned %v, want context.Canceled", err)
	}
	waitPipeDrained(t, client)
}

func TestPipeOwnerCrashBreaksPromises(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)

	ref, _ := owner.Export(&pipeNapper{})
	w, err := ref.WireRep()
	if err != nil {
		t.Fatal(err)
	}
	cref := handoff(t, ref, client)

	ctx := context.Background()
	var ps []*Promise
	for i := 0; i < 4; i++ {
		ps = append(ps, cref.PipeCall(ctx, "NapMillis", int64(3000)))
	}
	time.Sleep(50 * time.Millisecond)
	// Sever the link abruptly — a crash, not a graceful drain. Every
	// outstanding promise must break instead of hanging.
	addr := w.Endpoints[0][len("inmem:"):]
	tn.mem.SetUnreachable(addr, true)
	defer tn.mem.SetUnreachable(addr, false)
	for _, p := range ps {
		if _, err := p.Await(ctx); err == nil {
			t.Fatal("promise survived its owner's death")
		}
	}
	waitPipeDrained(t, client)
}

// waitPipeDrained polls until the space has no outstanding promise-table
// entries — the no-leak invariant after cancels, crashes and heals.
func waitPipeDrained(t *testing.T, sp *Space) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if sp.pipePending() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("promise tables not drained: %d entries leaked", sp.pipePending())
}

func TestOneWayThenTwoWayOrdering(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)

	ref, _ := owner.Export(&counter{})
	cref := handoff(t, ref, client)

	const n = 16
	for i := 0; i < n; i++ {
		if err := cref.OneWay("Incr", int64(1)); err != nil {
			t.Fatal(err)
		}
	}
	// The pipelined call's barrier fences it after every one-way above.
	ctx := context.Background()
	vals, err := cref.PipeCall(ctx, "Value").Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(int64) != n {
		t.Fatalf("Value after %d one-ways = %v", n, vals)
	}
	if got := owner.metrics.OneWaysServed.Load(); got != n {
		t.Fatalf("served %d one-ways, want %d", got, n)
	}
}

// TestPipeChainOnSessionlessPromise pins the one place resolve-then-call
// survives: a promise that never went to the wire — an owner-local
// receiver's — has no session for an owner to chain against, so a call
// chained on it awaits it and calls what it resolved to, or breaks with
// the failure it resolved to.
func TestPipeChainOnSessionlessPromise(t *testing.T) {
	tn := newTestNet(t)
	back := tn.space("back", nil)
	front := tn.space("front", nil)

	tail, err := back.Export(&chainNode{name: "tail"})
	if err != nil {
		t.Fatal(err)
	}
	head, err := front.Export(&chainNode{name: "head", next: handoff(t, tail, front)})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	vals, err := head.PipeCall(ctx, "Next").PipeCall(ctx, "Name").Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(string) != "tail" {
		t.Fatalf("chain on a local promise resolved to %v", vals)
	}
	if got := front.metrics.PipelineFallbacks.Load(); got != 1 {
		t.Fatalf("netobj_pipeline_fallbacks_total = %d, want the one chained call", got)
	}

	end, err := front.Export(&chainNode{name: "end"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = end.PipeCall(ctx, "Next").PipeCall(ctx, "Name").Await(ctx)
	var ce *CallError
	if !errors.As(err, &ce) || ce.Status != wire.StatusPromiseBroken ||
		ce.Cause == nil || ce.Cause.Error() != "end of chain" {
		t.Fatalf("chain on a failed local promise: %v, want a broken promise wrapping the cause", err)
	}
}

func TestPipeConcurrentChains(t *testing.T) {
	// Many goroutines race dependent chains over one session; exercises
	// promise-id allocation and completion-table concurrency under -race.
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)

	root := buildChain(t, owner, client, 2)
	ctx := context.Background()

	const goroutines = 16
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				vals, err := root.PipeCall(ctx, "Next").PipeCall(ctx, "Next").PipeCall(ctx, "Name").Await(ctx)
				if err != nil {
					errc <- err
					return
				}
				if vals[0].(string) != "node2" {
					errc <- fmt.Errorf("chain resolved to %v", vals)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	waitPipeDrained(t, client)
	waitPipeDrained(t, owner)
}
