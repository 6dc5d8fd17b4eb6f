package transport

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"netobjects/internal/flow"
	"netobjects/internal/wire"
)

// pairOn connects two sessions over tr, the server's streams served by
// accept.
func pairOn(t *testing.T, tr Transport, accept func(*Stream)) (client, server *Session) {
	t.Helper()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			accepted <- c
		}
	}()
	c, err := NewRegistry(tr).Dial(l.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	client = NewSession(c, SessionOptions{})
	server = NewSession(<-accepted, SessionOptions{Accept: accept})
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func echo(st *Stream) {
	defer st.Close()
	if frame, err := st.Recv(nil); err == nil {
		_ = st.Send(frame)
	}
}

// TestStreamRoundTripAllocs pins what a bare exchange costs both sessions
// together once their streams are recycled: Open, Send, Recv, Release and
// Close at one end, and the served stream's Recv, Send and Close at the
// other. It was 10 allocations on inmem when every exchange made two
// streams with their channels and a receive timer.
func TestStreamRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in non-race builds")
	}
	eachTransport(t, func(t *testing.T, tr Transport) {
		client, _ := pairOn(t, tr, echo)
		frame := []byte("a request frame of modest size")
		var failed error
		exchange := func() {
			st, err := client.Open()
			if err != nil {
				failed = err
				return
			}
			_ = st.SetDeadline(time.Now().Add(5 * time.Second))
			if err := st.Send(frame); err != nil {
				failed = err
			} else if _, err := st.Recv(nil); err != nil {
				failed = err
			}
			st.Release()
			st.Close()
		}
		for i := 0; i < 100; i++ {
			exchange() // warm the free lists, the handler and the pools
		}
		n := testing.AllocsPerRun(2000, exchange)
		if failed != nil {
			t.Fatal(failed)
		}
		t.Logf("%s round trip: %.2f allocations", tr.Proto(), n)
		if n > 2 {
			t.Fatalf("%s round trip allocates %.2f times, want at most 2", tr.Proto(), n)
		}
	})
}

// writeRaw sends frame on s as it stands, as a peer that has let go of
// an exchange may still send frames naming it.
func writeRaw(s *Session, frame []byte) error {
	select {
	case s.wlock <- struct{}{}:
	case <-s.done:
		return ErrClosed
	}
	defer s.unlockWrite()
	if err := s.writePending(); err != nil {
		return err
	}
	return s.write(frame)
}

// TestRecycledStreamIgnoresLateFrames has the server answer every
// exchange and then, after a random pause, send more on its id: another
// response, an acknowledgement, a chunked message and a reset. The client
// closes each stream at once or after its response, and its next exchange
// reuses the stream. Whatever arrives for an exchange that is over must
// stay there: every exchange gets its own response and nothing else, and
// none is ended by another's reset.
func TestRecycledStreamIgnoresLateFrames(t *testing.T) {
	iterations := 5000
	if testing.Short() {
		iterations = 1000
	}
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			var client, server *Session
			client, server = sessionPair(t, func(st *Stream) {
				defer st.Close()
				frame, err := st.Recv(nil)
				if err != nil || st.Send(frame) != nil {
					return
				}
				id := st.ID()
				rng := rand.New(rand.NewSource(seed ^ int64(id)))
				frames := [][]byte{
					append(wire.AppendMuxHeader(nil, id), "late response"...),
					append(wire.AppendMuxHeader(nil, id), "late ack"...),
					append(wire.AppendDataHeader(nil, id, 0), "late chunk, "...),
					append(wire.AppendDataHeader(nil, id, wire.DataFlagLast), "late message"...),
					wire.AppendDataHeader(nil, id, wire.DataFlagReset),
				}
				rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
				for _, f := range frames {
					if rng.Intn(2) == 0 {
						time.Sleep(time.Duration(rng.Intn(20)) * time.Microsecond)
					}
					if writeRaw(server, f) != nil {
						return
					}
				}
			})
			rng := rand.New(rand.NewSource(seed))
			seen := make(map[*Stream]bool)
			reused := 0
			for i := 0; i < iterations; i++ {
				st, err := client.Open()
				if err != nil {
					t.Fatal(err)
				}
				if seen[st] {
					reused++
				}
				seen[st] = true
				want := fmt.Sprintf("request %d", i)
				_ = st.SetDeadline(time.Now().Add(5 * time.Second))
				if err := st.Send([]byte(want)); err != nil {
					t.Fatalf("exchange %d: send: %v", i, err)
				}
				if rng.Intn(4) != 0 {
					got, err := st.Recv(nil)
					if err != nil {
						t.Fatalf("exchange %d: recv: %v", i, err)
					}
					if string(got) != want {
						t.Fatalf("exchange %d received %q, want %q", i, got, want)
					}
				}
				st.Close()
			}
			if reused < iterations/2 {
				t.Fatalf("%d of %d exchanges reused a stream", reused, iterations)
			}
		})
	}
}

// valveConn holds every Send while shut, reporting each sender it holds
// on stuck until released.
type valveConn struct {
	Conn
	shut    atomic.Bool
	stuck   chan struct{}
	release chan struct{}
}

func (c *valveConn) Send(p []byte) error {
	if c.shut.Load() {
		c.stuck <- struct{}{}
		<-c.release
	}
	return c.Conn.Send(p)
}

// TestRecycledStreamStallCheck: an exchange aborted while its Send is
// inside the write arms the write-stall check. The write then completes,
// the owner closes the stream, and the next exchange reuses it and is
// held inside a write of its own when the check comes due. The check is
// the first exchange's; it must not fail the session for the second.
func TestRecycledStreamStallCheck(t *testing.T) {
	vc := &valveConn{stuck: make(chan struct{}, 1), release: make(chan struct{})}
	client, _ := flowPair(t, flow.Params{}, func(c Conn) Conn {
		vc.Conn = c
		return vc
	}, nil)
	eventually(t, "the hello to go out", func() bool { return client.Stats().BytesSent > 0 })

	send := func(st *Stream) chan error {
		errc := make(chan error, 1)
		vc.shut.Store(true)
		go func() { errc <- st.Send([]byte("frame")) }()
		<-vc.stuck
		return errc
	}
	a, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	errA := send(a)
	client.Abort(a.ID())
	vc.shut.Store(false)
	vc.release <- struct{}{}
	if err := <-errA; err != nil {
		t.Fatalf("the aborted exchange's write failed: %v", err)
	}
	a.Close()

	b, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatal("the next exchange did not reuse the closed stream")
	}
	errB := send(b)
	select {
	case <-client.Done():
		t.Fatal("the session failed with the second exchange inside its write")
	case <-time.After(writeStallGrace + 300*time.Millisecond):
	}
	vc.shut.Store(false)
	vc.release <- struct{}{}
	if err := <-errB; err != nil {
		t.Fatalf("the second exchange's write failed: %v", err)
	}
	b.Close()
}
