package naming

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"netobjects/internal/core"
	"netobjects/internal/pickle"
	"netobjects/internal/transport"
)

type svc struct {
	mu sync.Mutex
	n  int64
}

func (s *svc) Bump() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.n, nil
}

func twoSpaces(t *testing.T) (server, client *core.Space, agentEP string) {
	t.Helper()
	mem := transport.NewMem()
	mk := func(name string) *core.Space {
		sp, err := core.NewSpace(core.Options{
			Name:         name,
			Transports:   []transport.Transport{mem},
			Registry:     pickle.NewRegistry(),
			CallTimeout:  5 * time.Second,
			PingInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sp.Close() })
		return sp
	}
	server = mk("server")
	client = mk("client")
	return server, client, server.Endpoints()[0]
}

func TestBindLookupRoundTrip(t *testing.T) {
	server, client, ep := twoSpaces(t)
	if _, err := Serve(server); err != nil {
		t.Fatal(err)
	}
	impl := &svc{}
	ref, err := server.Export(impl)
	if err != nil {
		t.Fatal(err)
	}
	if err := Bind(server, ep, "bumper", ref); err != nil {
		t.Fatal(err)
	}

	got, err := Lookup(client, ep, "bumper")
	if err != nil {
		t.Fatal(err)
	}
	out, err := got.Call("Bump")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int64) != 1 {
		t.Fatalf("got %v", out)
	}
	if impl.n != 1 {
		t.Fatalf("impl.n=%d", impl.n)
	}
}

func TestLookupUnbound(t *testing.T) {
	server, client, ep := twoSpaces(t)
	if _, err := Serve(server); err != nil {
		t.Fatal(err)
	}
	_, err := Lookup(client, ep, "ghost")
	var re *core.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("got %v", err)
	}
}

func TestBindConflictAndRebind(t *testing.T) {
	server, client, ep := twoSpaces(t)
	agent, err := Serve(server)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := server.Export(&svc{})
	r2, _ := server.Export(&svc{n: 100})
	if err := Bind(server, ep, "x", r1); err != nil {
		t.Fatal(err)
	}
	if err := Bind(server, ep, "x", r2); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
	if err := Rebind(server, ep, "x", r2); err != nil {
		t.Fatal(err)
	}
	got, err := Lookup(client, ep, "x")
	if err != nil {
		t.Fatal(err)
	}
	out, err := got.Call("Bump")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int64) != 101 {
		t.Fatalf("got %v", out)
	}
	if agent.Len() != 1 {
		t.Fatalf("agent holds %d bindings", agent.Len())
	}
}

func TestUnbindReleasesReference(t *testing.T) {
	server, client, ep := twoSpaces(t)
	if _, err := Serve(server); err != nil {
		t.Fatal(err)
	}
	// The object is owned by the *client* and bound at the server's
	// agent: unbinding must drop the agent's dirty entry so the client
	// can reclaim.
	impl := &svc{}
	ref, _ := client.Export(impl)
	if err := Bind(client, ep, "remote-owned", ref); err != nil {
		t.Fatal(err)
	}
	if client.Exports().Len() != 1 {
		t.Fatalf("exports=%d", client.Exports().Len())
	}
	if err := Unbind(client, ep, "remote-owned"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && client.Exports().Len() > 0 {
		time.Sleep(time.Millisecond)
	}
	if client.Exports().Len() != 0 {
		t.Fatal("owner kept entry after unbind")
	}
	if err := Unbind(client, ep, "remote-owned"); err == nil {
		t.Fatal("double unbind succeeded")
	}
}

func TestLookupDupSurvivesCallerRelease(t *testing.T) {
	// Regression: Agent.Lookup used to return the binding's own *core.Ref,
	// so an in-process caller that Released the result dropped the
	// directory's hold and stranded the binding. Lookup now returns a
	// Dup'd reference.
	server, client, ep := twoSpaces(t)
	agent, err := Serve(server)
	if err != nil {
		t.Fatal(err)
	}
	impl := &svc{}
	ref, _ := client.Export(impl)
	if err := Bind(client, ep, "held", ref); err != nil {
		t.Fatal(err)
	}

	// In-process lookup at the agent's space: caller owns the result and
	// releases it, as any well-behaved local client would.
	got, err := agent.Lookup("held")
	if err != nil {
		t.Fatal(err)
	}
	got.Release()

	// The binding must still be live and usable by remote clients.
	again, err := Lookup(client, ep, "held")
	if err != nil {
		t.Fatalf("binding stranded by local caller's Release: %v", err)
	}
	if _, err := again.Call("Bump"); err != nil {
		t.Fatalf("binding unusable after local caller's Release: %v", err)
	}
	if impl.n != 1 {
		t.Fatalf("n=%d", impl.n)
	}
}

func TestCtxVariantsHonorDeadline(t *testing.T) {
	server, client, ep := twoSpaces(t)
	if _, err := Serve(server); err != nil {
		t.Fatal(err)
	}
	ref, _ := server.Export(&svc{})
	ctx := context.Background()
	if err := BindCtx(ctx, server, ep, "c", ref); err != nil {
		t.Fatal(err)
	}
	got, err := LookupCtx(ctx, client, ep, "c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Call("Bump"); err != nil {
		t.Fatal(err)
	}
	names, err := ListCtx(ctx, client, ep)
	if err != nil || len(names) != 1 {
		t.Fatalf("ListCtx: %v %v", names, err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := LookupCtx(cancelled, client, ep, "c"); err == nil {
		t.Fatal("LookupCtx ignored a cancelled context")
	}
	if err := UnbindCtx(ctx, client, ep, "c"); err != nil {
		t.Fatal(err)
	}
}

func TestList(t *testing.T) {
	server, client, ep := twoSpaces(t)
	if _, err := Serve(server); err != nil {
		t.Fatal(err)
	}
	names, err := List(client, ep)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("got %v", names)
	}
	r1, _ := server.Export(&svc{})
	r2, _ := server.Export(&svc{})
	_ = Bind(server, ep, "beta", r1)
	_ = Bind(server, ep, "alpha", r2)
	names, err = List(client, ep)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("got %v", names)
	}
}

func TestCrossSpaceBinding(t *testing.T) {
	// Client binds its own object; a third space looks it up and calls —
	// a third-party transfer through the name service.
	server, client, ep := twoSpaces(t)
	if _, err := Serve(server); err != nil {
		t.Fatal(err)
	}
	impl := &svc{}
	ref, _ := client.Export(impl)
	if err := Bind(client, ep, "svc", ref); err != nil {
		t.Fatal(err)
	}
	got, err := Lookup(server, ep, "svc") // server acts as a consumer too
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Call("Bump"); err != nil {
		t.Fatal(err)
	}
	if impl.n != 1 {
		t.Fatalf("n=%d", impl.n)
	}
}

func TestConcurrentBinds(t *testing.T) {
	server, client, ep := twoSpaces(t)
	if _, err := Serve(server); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("svc-%d-%d", g, i)
				ref, err := server.Export(&svc{})
				if err != nil {
					errs <- err
					return
				}
				if err := Bind(server, ep, name, ref); err != nil {
					errs <- err
					return
				}
				got, err := Lookup(client, ep, name)
				if err != nil {
					errs <- err
					return
				}
				if _, err := got.Call("Bump"); err != nil {
					errs <- err
					return
				}
				if err := Unbind(client, ep, name); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	names, err := List(client, ep)
	if err != nil || len(names) != 0 {
		t.Fatalf("leftover bindings %v (%v)", names, err)
	}
}
