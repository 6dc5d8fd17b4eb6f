package flow

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestRecvLedgerGrantsCoalesce(t *testing.T) {
	l := NewRecvLedger(100) // threshold 25
	if g := l.Chunk(10); g != 0 {
		t.Fatalf("grant below threshold: %d", g)
	}
	if g := l.Chunk(20); g != 30 {
		t.Fatalf("coalesced grant = %d, want 30", g)
	}
	if g := l.Chunk(5); g != 0 {
		t.Fatalf("grant after flush: %d", g)
	}
}

// TestRecvLedgerFreezesUndelivered: bytes in a completed-but-undelivered
// message stop generating grants until the consumer takes the message.
func TestRecvLedgerFreezesUndelivered(t *testing.T) {
	l := NewRecvLedger(100)
	granted := l.Chunk(100) // whole message assembled, grants flow
	l.Complete(100)         // message parked in the inbox
	// More chunks of a second message arrive: debt climbs back from -100,
	// so no grants until it clears.
	granted += l.Chunk(60)
	if granted != 100 {
		t.Fatalf("granted %d while first message undelivered, want 100", granted)
	}
	if g := l.Delivered(100); g != 60 {
		t.Fatalf("grant after delivery = %d, want 60 (the frozen chunk bytes)", g)
	}
}

func TestSchedulerChunksAndRoundRobin(t *testing.T) {
	s := NewScheduler(4, 1<<20, 1<<20)
	a := s.Enqueue(1, []byte("aaaaaaaa")) // 2 chunks
	b := s.Enqueue(2, []byte("bbbbbbbb")) // 2 chunks
	var order []byte
	for {
		it, chunk, last, ok := s.Next()
		if !ok {
			break
		}
		order = append(order, chunk[0])
		if last {
			s.Finish(it, nil)
		}
	}
	if !bytes.Equal(order, []byte("abab")) {
		t.Fatalf("interleave order = %q, want abab", order)
	}
	for _, it := range []*Item{a, b} {
		select {
		case err := <-it.Done():
			if err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatal("item not signalled after final chunk")
		}
	}
	if s.QueuedBytes() != 0 {
		t.Fatalf("queued bytes = %d after drain", s.QueuedBytes())
	}
}

func TestSchedulerCreditGating(t *testing.T) {
	s := NewScheduler(4, 6, 1<<20) // stream window 6: 1.5 chunks
	s.Enqueue(1, bytes.Repeat([]byte("x"), 12))
	var sent int
	for {
		_, chunk, _, ok := s.Next()
		if !ok {
			break
		}
		sent += len(chunk)
	}
	if sent != 6 {
		t.Fatalf("sent %d bytes with 6 credit", sent)
	}
	if s.Stalls() == 0 {
		t.Fatal("credit-blocked writer not counted as a stall")
	}
	s.Grant(1, 100)
	it, chunk, last, ok := s.Next()
	if !ok || len(chunk) != 4 {
		t.Fatalf("after grant: ok=%v len=%d", ok, len(chunk))
	}
	_, _, _ = it, last, ok
	// Session-level window gates across streams.
	s2 := NewScheduler(4, 1<<20, 5)
	s2.Enqueue(1, []byte("aaaa"))
	s2.Enqueue(2, []byte("bbbb"))
	sent = 0
	for {
		_, chunk, _, ok := s2.Next()
		if !ok {
			break
		}
		sent += len(chunk)
	}
	if sent != 5 {
		t.Fatalf("sent %d bytes with session window 5", sent)
	}
	s2.GrantSession(100)
	if _, _, _, ok := s2.Next(); !ok {
		t.Fatal("session grant did not unblock")
	}
}

func TestSchedulerAbortAndReset(t *testing.T) {
	s := NewScheduler(4, 1<<20, 1<<20)
	boom := errors.New("deadline")
	// Untouched item: no reset needed.
	it := s.Enqueue(1, []byte("aaaaaaaa"))
	if s.Abort(it, boom) {
		t.Fatal("unsent item should not need a reset")
	}
	if err := <-it.Done(); !errors.Is(err, boom) {
		t.Fatalf("aborted item err = %v", err)
	}
	// Partially sent item: reset required.
	it2 := s.Enqueue(2, []byte("bbbbbbbb"))
	if _, _, _, ok := s.Next(); !ok {
		t.Fatal("no chunk")
	}
	s.AppendChunk(nil) // the writer has its copy; Abort waits for that
	if !s.Abort(it2, boom) {
		t.Fatal("partially-sent abort must demand a reset")
	}
	// Item whose final chunk is with the writer: abort is a no-op.
	it3 := s.Enqueue(3, []byte("cc"))
	got, _, last, _ := s.Next()
	if got != it3 || !last {
		t.Fatal("expected it3's single final chunk")
	}
	s.AppendChunk(nil)
	if s.Abort(it3, boom) {
		t.Fatal("inflight final chunk must not reset")
	}
	s.Finish(it3, nil)
	if err := <-it3.Done(); err != nil {
		t.Fatalf("finished item err = %v", err)
	}
}

func TestSchedulerCloseStreamAndFail(t *testing.T) {
	s := NewScheduler(4, 1<<20, 1<<20)
	closed := errors.New("closed")
	a := s.Enqueue(1, []byte("aaaaaaaa"))
	s.Next() // partial
	s.AppendChunk(nil)
	if !s.CloseStream(1, closed) {
		t.Fatal("close with partial item must demand reset")
	}
	if err := <-a.Done(); !errors.Is(err, closed) {
		t.Fatalf("err = %v", err)
	}
	// New items on the same id after close start a fresh queue.
	b := s.Enqueue(1, []byte("zz"))
	it, _, last, ok := s.Next()
	if !ok || it != b || !last {
		t.Fatal("re-enqueued stream did not send")
	}
	s.Finish(it, nil)
	dead := errors.New("session dead")
	c := s.Enqueue(5, []byte("cccc"))
	s.Fail(dead)
	if err := <-c.Done(); !errors.Is(err, dead) {
		t.Fatalf("err = %v", err)
	}
	if err := <-s.Enqueue(6, []byte("dd")).Done(); !errors.Is(err, dead) {
		t.Fatalf("post-fail enqueue err = %v", err)
	}
}

// TestSchedulerChunksPiecesAsOneString: a payload enqueued in pieces is
// cut at the same offsets as the same bytes in one piece, whatever the
// piece boundaries (empty pieces included), and AppendChunk returns
// every byte of a chunk that straddles them.
func TestSchedulerChunksPiecesAsOneString(t *testing.T) {
	whole := make([]byte, 1000)
	for i := range whole {
		whole[i] = byte(i * 7)
	}
	cuts := [][]int{{}, {0}, {1}, {63, 64, 65}, {10, 10, 500}, {999}, {1000}, {64, 128, 192}}
	for _, cs := range cuts {
		var pieces [][]byte
		at := 0
		for _, c := range cs {
			pieces = append(pieces, whole[at:c])
			at = c
		}
		pieces = append(pieces, whole[at:])
		s := NewScheduler(64, 1<<20, 1<<20)
		it := s.Enqueue(9, pieces[0], pieces[1:]...)
		if q := s.QueuedBytes(); q != int64(len(whole)) {
			t.Fatalf("cuts %v: %d bytes queued, want %d", cs, q, len(whole))
		}
		var got []byte
		for n := 0; ; n++ {
			item, first, last, ok := s.Next()
			if !ok {
				t.Fatalf("cuts %v: ran dry after %d bytes", cs, len(got))
			}
			chunk := s.AppendChunk(nil)
			if want := min(64, len(whole)-len(got)); len(chunk) != want {
				t.Fatalf("cuts %v: chunk %d is %d bytes, want %d", cs, n, len(chunk), want)
			}
			if !bytes.HasPrefix(chunk, first) || (len(pieces) == 1 && len(first) != len(chunk)) {
				t.Fatalf("cuts %v: chunk %d: Next's stretch is not the chunk's start", cs, n)
			}
			got = append(got, chunk...)
			if last {
				s.Finish(item, nil)
				break
			}
		}
		if !bytes.Equal(got, whole) {
			t.Fatalf("cuts %v: chunks do not concatenate to the payload", cs)
		}
		if err := <-it.Done(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSchedulerWithdrawWaitsForWriter: Abort, CloseStream and Fail return
// only once the writer has let go of the chunk it was handed — until then
// it may be reading the payload the caller is about to reuse.
func TestSchedulerWithdrawWaitsForWriter(t *testing.T) {
	boom := errors.New("gave up")
	withdraw := map[string]func(*Scheduler, *Item){
		"Abort":       func(s *Scheduler, it *Item) { s.Abort(it, boom) },
		"CloseStream": func(s *Scheduler, it *Item) { s.CloseStream(it.ID(), boom) },
		"Fail":        func(s *Scheduler, _ *Item) { s.Fail(boom) },
	}
	release := map[string]func(*Scheduler, *Item){
		"AppendChunk": func(s *Scheduler, _ *Item) { s.AppendChunk(nil) },
		"Next":        func(s *Scheduler, _ *Item) { s.Next() },
		"Finish":      func(s *Scheduler, it *Item) { s.Finish(it, boom) },
	}
	for wname, w := range withdraw {
		for rname, r := range release {
			s := NewScheduler(4, 1<<20, 1<<20)
			it := s.Enqueue(1, []byte("aaaaaaaa"))
			if _, _, _, ok := s.Next(); !ok {
				t.Fatal("no chunk")
			}
			returned := make(chan struct{})
			go func() {
				w(s, it)
				close(returned)
			}()
			select {
			case <-returned:
				t.Fatalf("%s returned while the writer held a chunk", wname)
			case <-time.After(20 * time.Millisecond):
			}
			r(s, it)
			select {
			case <-returned:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s still blocked after the writer's %s", wname, rname)
			}
			if err := <-it.Done(); !errors.Is(err, boom) {
				t.Fatalf("%s/%s: item err = %v", wname, rname, err)
			}
			if _, _, _, ok := s.Next(); ok {
				t.Fatalf("%s/%s: a withdrawn item was handed out again", wname, rname)
			}
		}
	}
}

func TestKeepaliveDetectsDeadPeer(t *testing.T) {
	k := NewKeepalive(time.Second)
	// Quiet link: first tick pings, second declares dead.
	dead, ping, _ := k.Tick(0)
	if dead || !ping {
		t.Fatalf("tick 1: dead=%v ping=%v, want ping", dead, ping)
	}
	dead, _, _ = k.Tick(0)
	if !dead {
		t.Fatal("peer silent for 2 intervals not declared dead")
	}
	// Traffic resets the count of quiet ticks and suppresses the probe.
	k2 := NewKeepalive(time.Second)
	if dead, ping, _ = k2.Tick(0); dead || !ping {
		t.Fatalf("quiet tick: dead=%v ping=%v, want ping", dead, ping)
	}
	dead, ping, _ = k2.Tick(120)
	if dead || ping {
		t.Fatalf("fresh traffic: dead=%v ping=%v, want neither", dead, ping)
	}
	dead, ping, tok := k2.Tick(120)
	if dead || !ping || tok == 0 {
		t.Fatalf("quiet again: dead=%v ping=%v tok=%d", dead, ping, tok)
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.ChunkSize != DefaultChunkSize || p.StreamWindow != DefaultStreamWindow ||
		p.SessionWindow != DefaultSessionWindow || p.KeepaliveInterval != DefaultKeepaliveInterval {
		t.Fatalf("defaults not applied: %+v", p)
	}
	q := Params{KeepaliveInterval: -1, ChunkSize: 8}.WithDefaults()
	if q.KeepaliveInterval != -1 || q.ChunkSize != 8 {
		t.Fatalf("explicit values clobbered: %+v", q)
	}
}
