package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"netobjects/internal/wire"
)

// ctxProbe parks in its serving context and reports how the context
// ended.
type ctxProbe struct {
	entered chan struct{}
	ended   chan error
}

func newCtxProbe() *ctxProbe {
	return &ctxProbe{entered: make(chan struct{}, 4), ended: make(chan error, 4)}
}

func (p *ctxProbe) Wait(ctx context.Context) error {
	p.entered <- struct{}{}
	<-ctx.Done()
	p.ended <- ctx.Err()
	return ctx.Err()
}

// invocations counts the calls of a method that takes no context.
type invocations struct{ n int }

func (c *invocations) Touch() { c.n++ }

// servePaths are the two kinds of call handleCall serves: a plain call,
// and a pipelined one, which records its outcome for chained calls.
var servePaths = []struct {
	name string
	call func(ctx context.Context, r *Ref, method string, args ...any) error
}{
	{"call", func(ctx context.Context, r *Ref, method string, args ...any) error {
		_, err := r.CallCtx(ctx, method, args...)
		return err
	}},
	{"pipe", func(ctx context.Context, r *Ref, method string, args ...any) error {
		_, err := r.PipeCall(ctx, method, args...).Await(context.Background())
		return err
	}},
}

// TestDispatchContextEnds pins what a method that takes a context sees on
// both serving paths: its context ends with DeadlineExceeded at the
// caller's deadline, and with Canceled on the caller's cancel and on the
// owner's Close.
func TestDispatchContextEnds(t *testing.T) {
	for _, path := range servePaths {
		for _, tc := range []struct {
			name string
			want error
			// end brings the dispatch to an end once the method is running.
			end func(cancel context.CancelFunc, owner *Space)
		}{
			{"deadline", context.DeadlineExceeded, func(context.CancelFunc, *Space) {}},
			{"cancel", context.Canceled, func(cancel context.CancelFunc, _ *Space) { cancel() }},
			{"close", context.Canceled, func(_ context.CancelFunc, owner *Space) { go owner.Close() }},
		} {
			t.Run(path.name+"/"+tc.name, func(t *testing.T) {
				tn := newTestNet(t)
				owner := tn.space("owner", func(o *Options) { o.DrainTimeout = 20 * time.Millisecond })
				client := tn.space("client", nil)
				probe := newCtxProbe()
				ref, err := owner.Export(probe)
				if err != nil {
					t.Fatal(err)
				}
				cref := handoff(t, ref, client)
				timeout := 5 * time.Second
				if tc.name == "deadline" {
					timeout = 100 * time.Millisecond
				}
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				defer cancel()
				done := make(chan error, 1)
				go func() { done <- path.call(ctx, cref, "Wait") }()
				select {
				case <-probe.entered:
				case <-time.After(5 * time.Second):
					t.Fatal("Wait never started serving")
				}
				tc.end(cancel, owner)
				select {
				case err := <-probe.ended:
					if err != tc.want {
						t.Fatalf("the method's context ended with %v, want %v", err, tc.want)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("the method's context never ended")
				}
				if err := <-done; err == nil {
					t.Fatal("the call succeeded")
				}
			})
		}
	}
}

// TestDispatchWithoutContext pins what a method that takes no context
// gets on both serving paths, with no context made for it: a call
// cancelled before the method is invoked is answered StatusCancelled and
// the method never runs, and a call that overruns the owner's deadline is
// answered StatusDeadlineExceeded and counted as such.
func TestDispatchWithoutContext(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", func(o *Options) { o.MaxServeTime = 50 * time.Millisecond })
	client := tn.space("client", nil)
	inv := &invocations{}
	ref, err := owner.Export(inv)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ref.WireRep()
	if err != nil {
		t.Fatal(err)
	}
	args, err := owner.pickler.MarshalAnySession(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	state := owner.pipeInboundFor(nil)
	for _, path := range []struct {
		name  string
		serve func(d *dispatch, session *callSession) wire.Status
	}{
		{"call", func(d *dispatch, session *callSession) wire.Status {
			var res wire.Result
			owner.executeCall(d, &wire.Call{Obj: w.Index, Method: "Touch", Args: args}, session, &res, nil)
			return res.Status
		}},
		{"pipe", func(d *dispatch, session *callSession) wire.Status {
			var res wire.Result
			session.pipe = state
			owner.executeCall(d, &wire.Call{Obj: w.Index, Method: "Touch", Args: args, Promise: 1}, session, &res, nil)
			return res.Status
		}},
	} {
		session := owner.getCallSession()
		d := owner.beginDispatch(session, time.Now(), 0)
		owner.inflight.add(7, d)
		if !owner.inflight.cancel(7) {
			t.Fatalf("%s: the dispatch is not in flight", path.name)
		}
		if got := path.serve(d, session); got != wire.StatusCancelled {
			t.Fatalf("%s: cancelled before its method ran: %v, want StatusCancelled", path.name, got)
		}
		owner.inflight.remove(7)
		session.recycle()
		if inv.n != 0 {
			t.Fatalf("%s: a cancelled call ran its method", path.name)
		}
	}

	nap, err := owner.Export(&pipeNapper{})
	if err != nil {
		t.Fatal(err)
	}
	cnap := handoff(t, nap, client)
	for i, path := range servePaths {
		var ce *CallError
		if err := path.call(context.Background(), cnap, "NapMillis", int64(150)); !errors.As(err, &ce) || ce.Status != wire.StatusDeadlineExceeded {
			t.Fatalf("%s: a call overrunning the owner's deadline returned %v, want StatusDeadlineExceeded", path.name, err)
		}
		if got := owner.metrics.Methods.Get("NapMillis").DeadlineExceeded.Load(); got != uint64(i+1) {
			t.Fatalf("%s: %d overruns counted, want %d", path.name, got, i+1)
		}
	}
}

// TestCancelWatcherNeverTouchesNextCall races each call's cancellation
// with its completion and follows it at once with a call that has no
// context to cancel, on the same session and, as often as not, the same
// recycled stream. A watcher that fires as its call completes must not
// end the next exchange: every uncancellable call succeeds.
func TestCancelWatcherNeverTouchesNextCall(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	ref, err := owner.Export(&nullSvc{})
	if err != nil {
		t.Fatal(err)
	}
	cref := handoff(t, ref, client)
	rng := rand.New(rand.NewSource(23))
	iterations := 3000
	if testing.Short() {
		iterations = 500
	}
	cancelled := 0
	for i := 0; i < iterations; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		fire := time.Duration(rng.Intn(40)) * time.Microsecond
		timer := time.AfterFunc(fire, cancel)
		if _, err := cref.CallCtx(ctx, "Ping"); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("iteration %d: cancellable call: %v", i, err)
			}
			cancelled++
		}
		if _, err := cref.Call("Ping"); err != nil {
			t.Fatalf("iteration %d: the call after a cancellation race failed: %v", i, err)
		}
		timer.Stop()
		cancel()
	}
	t.Logf("%d of %d racing calls were cancelled", cancelled, iterations)
}
