package transport

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// silentPair is a session pair whose server takes each request and never
// answers it.
func silentPair(t *testing.T) (client, server *Session) {
	t.Helper()
	return sessionPair(t, func(st *Stream) {
		defer st.Close()
		_, _ = st.Recv(nil)
		<-st.s.done
	})
}

// openSent opens a stream on s and sends it one small frame.
func openSent(t *testing.T, s *Session) *Stream {
	t.Helper()
	st, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send([]byte("request")); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSweepStaggeredDeadlines gives 32 unanswered streams on one session
// deadlines 5 ms apart, set out of order: each Recv must time out no
// earlier than its own deadline and no later than 50 ms after it, so the
// session's one sweeper serves every deadline, not only the first.
func TestSweepStaggeredDeadlines(t *testing.T) {
	client, _ := silentPair(t)
	const n = 32
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		st := openSent(t, client)
		due := start.Add(20*time.Millisecond + time.Duration(i*7%n)*5*time.Millisecond)
		_ = st.SetDeadline(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer st.Close()
			_, err := st.Recv(nil)
			late := time.Since(due)
			switch {
			case !errors.Is(err, ErrTimeout):
				errs <- err
			case late < 0:
				errs <- errors.New("timed out " + (-late).String() + " before its deadline")
			case late > 50*time.Millisecond:
				errs <- errors.New("timed out " + late.String() + " after its deadline")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !client.Healthy() {
		t.Fatal("stream timeouts failed the session")
	}
}

// TestSweepRearmsEarlier opens a 10 ms deadline behind streams waiting
// with 30 s ones: the sweeper, armed for 30 s, must be brought forward.
func TestSweepRearmsEarlier(t *testing.T) {
	client, _ := silentPair(t)
	for i := 0; i < 4; i++ {
		st := openSent(t, client)
		_ = st.SetDeadline(time.Now().Add(30 * time.Second))
		go func() { _, _ = st.Recv(nil) }()
	}
	st := openSent(t, client)
	start := time.Now()
	_ = st.SetDeadline(start.Add(10 * time.Millisecond))
	if _, err := st.Recv(nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Recv returned %v, want ErrTimeout", err)
	}
	if took := time.Since(start); took < 10*time.Millisecond || took > 500*time.Millisecond {
		t.Fatalf("a 10ms deadline behind 30s ones timed out after %v", took)
	}
}

// TestSweepExpiredStreamWaitsAgain: a stream whose deadline passed waits
// normally once it is given a new deadline, and once it is closed and
// reused for the next exchange, deadline or none.
func TestSweepExpiredStreamWaitsAgain(t *testing.T) {
	// The server answers a request when released, and an "ignore" never.
	release := make(chan struct{}, 4)
	client, _ := sessionPair(t, func(st *Stream) {
		defer st.Close()
		frame, err := st.Recv(nil)
		if err != nil {
			return
		}
		if string(frame) == "ignore" {
			<-st.s.done
			return
		}
		<-release
		_ = st.Send(frame)
	})
	expired := func(request string) *Stream {
		st, err := client.Open()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Send([]byte(request)); err != nil {
			t.Fatal(err)
		}
		_ = st.SetDeadline(time.Now().Add(10 * time.Millisecond))
		if _, err := st.Recv(nil); !errors.Is(err, ErrTimeout) {
			t.Fatalf("Recv returned %v, want ErrTimeout", err)
		}
		return st
	}
	// waits answers st's request after 30 ms, which its Recv must wait for.
	waits := func(what string, st *Stream) {
		t.Helper()
		start := time.Now()
		time.AfterFunc(30*time.Millisecond, func() { release <- struct{}{} })
		frame, err := st.Recv(nil)
		if err != nil || string(frame) != "request" {
			t.Fatalf("%s: Recv returned %q, %v; want the answer", what, frame, err)
		}
		if took := time.Since(start); took < 30*time.Millisecond {
			t.Fatalf("%s: Recv returned after %v, before the answer was sent", what, took)
		}
		st.Close()
	}

	st := expired("request")
	_ = st.SetDeadline(time.Now().Add(5 * time.Second))
	waits("new deadline", st)

	for _, deadline := range []time.Duration{0, 5 * time.Second} {
		old := expired("ignore")
		old.Close()
		st := openSent(t, client)
		if st != old {
			t.Fatal("the next exchange did not reuse the closed stream")
		}
		if deadline > 0 {
			_ = st.SetDeadline(time.Now().Add(deadline))
		}
		waits("reused, deadline "+deadline.String(), st)
	}
}

// TestSweepTeardownWakesEveryWait fails a session under a waiter in each
// kind of wait — for a response, for the write lock and for a chunked
// send to go out — and each must return the session's cause.
func TestSweepTeardownWakesEveryWait(t *testing.T) {
	client, _ := silentPair(t)
	eventually(t, "the peer's hello", func() bool { return client.peer.Load() != nil })
	wait := func(f func() error) chan error {
		errc := make(chan error, 1)
		go func() { errc <- f() }()
		return errc
	}

	recv := openSent(t, client)
	recvErr := wait(func() error { _, err := recv.Recv(nil); return err })
	client.wlock <- struct{}{} // the write lock stays taken: senders queue
	defer func() { <-client.wlock }()
	locked, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	lockErr := wait(func() error { return locked.Send([]byte("frame")) })
	eventually(t, "a sender waiting for the write lock", func() bool { return client.Stats().QueueDepth == 1 })
	chunked, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	chunkErr := wait(func() error { return chunked.Send(make([]byte, 4*client.flow.chunkThreshold())) })
	eventually(t, "a chunked send queued", func() bool { return client.Stats().FlowQueued > 0 })
	time.Sleep(10 * time.Millisecond) // the receiver is asleep in Recv by now

	cause := errors.New("link condemned")
	client.fail(cause)
	for what, errc := range map[string]chan error{"Recv": recvErr, "write lock": lockErr, "chunked send": chunkErr} {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), cause.Error()) {
				t.Errorf("%s: returned %v, want ErrClosed naming %q", what, err, cause)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: still waiting after the session failed", what)
		}
	}
}
