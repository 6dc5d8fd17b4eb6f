package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"netobjects/internal/pickle"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// tcpPair builds an owner/client pair connected over real loopback TCP.
func tcpPair(t *testing.T, opt func(*Options)) (owner, client *Space) {
	t.Helper()
	tcp := transport.NewTCP()
	mk := func(name string) *Space {
		opts := Options{
			Name:         name,
			Transports:   []transport.Transport{tcp},
			Registry:     pickle.NewRegistry(),
			CallTimeout:  10 * time.Second,
			PingInterval: time.Hour,
		}
		if opt != nil {
			opt(&opts)
		}
		sp, err := NewSpace(opts)
		if err != nil {
			t.Fatalf("space %s: %v", name, err)
		}
		t.Cleanup(func() { _ = sp.Close() })
		return sp
	}
	return mk("owner"), mk("client")
}

// TestMuxSingleConnectionTCP is the headline property of the session
// layer: 64 concurrent calls between two spaces over TCP share exactly
// one connection per direction — one outbound session on the client, one
// inbound session on the owner, and no reverse dial at all.
func TestMuxSingleConnectionTCP(t *testing.T) {
	owner, client := tcpPair(t, nil)

	ref, err := owner.Export(&counter{})
	if err != nil {
		t.Fatal(err)
	}
	cref := handoff(t, ref, client)

	const callers = 64
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := cref.Call("Incr", int64(1)); err != nil {
					errc <- err
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

	got, err := cref.Call("Value")
	if err != nil {
		t.Fatal(err)
	}
	if got[0].(int64) != callers*4 {
		t.Fatalf("counter = %d, want %d", got[0].(int64), callers*4)
	}

	// Client side: one outbound session, dialed exactly once (the
	// import's dirty call opened it; everything since shared it).
	if n := client.pool.SessionCount(); n != 1 {
		t.Fatalf("client outbound sessions = %d, want 1", n)
	}
	if n := client.metrics.PoolMisses.Load(); n != 1 {
		t.Fatalf("client dials = %d, want 1", n)
	}
	// Owner side: one inbound session, and it never dialed back — the
	// whole conversation, replies included, rode the client's connection.
	owner.mu.Lock()
	inbound := len(owner.muxServers)
	owner.mu.Unlock()
	if inbound != 1 {
		t.Fatalf("owner inbound sessions = %d, want 1", inbound)
	}
	if n := owner.metrics.PoolMisses.Load(); n != 0 {
		t.Fatalf("owner dials = %d, want 0", n)
	}
}

// muxBlocker's Wait parks until the test closes release; it lets a test
// hold a call in flight on the shared session.
type muxBlocker struct {
	release chan struct{}
}

func (b *muxBlocker) Wait() error  { <-b.release; return nil }
func (b *muxBlocker) Quick() error { return nil }

// TestMuxCancelSharedLink cancels one in-flight call on the shared
// session and checks that the link, and a neighbouring call, survive:
// cancellation closes the stream, never the connection.
func TestMuxCancelSharedLink(t *testing.T) {
	owner, client := tcpPair(t, nil)

	b := &muxBlocker{release: make(chan struct{})}
	ref, err := owner.Export(b)
	if err != nil {
		t.Fatal(err)
	}
	cref := handoff(t, ref, client)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cref.CallCtx(ctx, "Wait")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the call reach the owner
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call never returned")
	}
	close(b.release) // unpark the server-side handler

	// The shared session must still be the same, healthy connection.
	if _, err := cref.Call("Quick"); err != nil {
		t.Fatalf("call after cancel: %v", err)
	}
	if n := client.pool.SessionCount(); n != 1 {
		t.Fatalf("client outbound sessions = %d, want 1", n)
	}
	if n := client.metrics.PoolMisses.Load(); n != 1 {
		t.Fatalf("client dials = %d, want 1 (cancel must not redial)", n)
	}
}

// TestRejectedHelloSurfacesToCaller: a peer of another protocol version
// costs the caller an error that says so — on the first call and on the
// redial after it — not a bare closed-session error.
func TestRejectedHelloSurfacesToCaller(t *testing.T) {
	tn := newTestNet(t)
	l, err := tn.mem.Listen("other-version")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	hello := append(wire.AppendMuxHeader(nil, 0), wire.Marshal(nil, &wire.Hello{Version: wire.Version + 1})...)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				if c.Send(hello) != nil {
					return
				}
				for {
					if _, err := c.Recv(nil); err != nil {
						return
					}
				}
			}()
		}
	}()

	client := tn.space("client", nil)
	for attempt := 1; attempt <= 2; attempt++ {
		_, err := client.CallEndpoint(l.Endpoint(), wire.AgentIndex, "Null")
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("call %d: %v, want a failed session", attempt, err)
		}
		for _, want := range []string{fmt.Sprint("version ", wire.Version), fmt.Sprint("version ", wire.Version+1)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("call %d failed with %q, which does not name %s", attempt, err, want)
			}
		}
		if got := client.metrics.SessionHelloRejected.Load(); got != uint64(attempt) {
			t.Fatalf("after call %d netobj_session_hello_rejected_total = %d", attempt, got)
		}
		if got := client.metrics.PoolMisses.Load(); got != uint64(attempt) {
			t.Fatalf("after call %d the pool had dialed %d times", attempt, got)
		}
	}
}
