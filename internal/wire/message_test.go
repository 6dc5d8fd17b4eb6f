package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b := Marshal(nil, m)
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal(%v): %v", m.Op(), err)
	}
	if got.Op() != m.Op() {
		t.Fatalf("op mismatch: sent %v got %v", m.Op(), got.Op())
	}
	return got
}

func TestMessageRoundTrips(t *testing.T) {
	msgs := []Message{
		&Call{Obj: 5, Method: "Deposit", Fingerprint: 0xdeadbeef, Args: []byte("args")},
		&Call{Obj: 5, Method: "Deposit", Typed: true, Args: []byte("t")},
		&Call{Obj: 5, Method: "Deposit", Args: []byte("a"), ID: 77, DeadlineMillis: 1500},
		&Call{},
		&CancelCall{ID: 77},
		&CancelCall{},
		&CancelAck{Status: StatusOK},
		&CancelAck{Status: StatusNoSuchObject},
		&Result{Status: StatusCancelled, Err: "call cancelled"},
		&Result{Status: StatusDeadlineExceeded, Err: "deadline exceeded at owner"},
		&Result{Status: StatusSpaceClosed, Err: "space draining"},
		&Result{Status: StatusOK, Results: []byte{1, 2, 3}},
		&Result{Status: StatusOK, Results: []byte{1}, NeedAck: true},
		&ResultAck{},
		&Result{Status: StatusAppError, Err: "insufficient funds", Results: []byte{9}},
		&Result{Status: StatusNoSuchObject, Err: "gone"},
		&Dirty{Obj: 9, Client: 77, ClientEndpoints: []string{"tcp:1.2.3.4:9", "inmem:x"}, Seq: 12, Owner: 501},
		&DirtyAck{Status: StatusOK},
		&DirtyAck{Status: StatusNoSuchObject, Err: "object withdrawn"},
		&Call{Obj: 5, TargetPromise: 2, Method: "Deposit", Args: []byte("a"), ID: 78,
			ArgPromisePos: []uint64{0}, ArgPromiseIDs: []uint64{1}, Promise: 3, Barrier: 4},
		&Result{Status: StatusPromiseBroken, Err: "dependency failed"},
		&CleanBatch{Client: 42, Objs: []uint64{3}, Seqs: []uint64{13}, Strongs: []bool{true}, Owner: 501},
		&CleanAck{Status: StatusOK},
		&Ping{From: 1234},
		&PingAck{From: 4321},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Errorf("%v: got %+v want %+v", m.Op(), got, m)
		}
	}
}

// normalize maps nil and empty slices to a canonical form so DeepEqual
// compares semantic content: the codec does not distinguish nil from empty.
func normalize(m Message) Message {
	switch v := m.(type) {
	case *Call:
		c := *v
		if len(c.Args) == 0 {
			c.Args = nil
		}
		return &c
	case *Result:
		c := *v
		if len(c.Results) == 0 {
			c.Results = nil
		}
		return &c
	case *Dirty:
		c := *v
		if len(c.ClientEndpoints) == 0 {
			c.ClientEndpoints = nil
		}
		return &c
	default:
		return m
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("empty payload: want error")
	}
	e := NewEncoder(nil)
	e.Uint(200) // unknown op
	if _, err := Unmarshal(e.Bytes()); !errors.Is(err, ErrUnknownOp) {
		t.Errorf("unknown op: got %v", err)
	}
	// Truncated call.
	b := Marshal(nil, &Call{Obj: 1, Method: "M", Args: []byte("aaaa")})
	if _, err := Unmarshal(b[:len(b)-2]); err == nil {
		t.Error("truncated call: want error")
	}
	// Trailing garbage.
	b = Marshal(nil, &Ping{From: 1})
	b = append(b, 0x00)
	if _, err := Unmarshal(b); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: got %v", err)
	}
}

func TestMarshalReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 128)
	b1 := Marshal(buf, &Ping{From: 9})
	if cap(b1) != cap(buf) {
		t.Fatalf("expected buffer reuse: cap %d vs %d", cap(b1), cap(buf))
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	ops := []Op{OpCall, OpResult, OpDirty, OpDirtyAck, OpCleanBatch, OpCleanAck, OpPing, OpPingAck,
		OpCancelCall, OpCancelAck, OpOneWay, Op(99)}
	seen := map[string]bool{}
	for _, o := range ops {
		s := o.String()
		if s == "" || seen[s] {
			t.Errorf("op %d: bad or duplicate string %q", o, s)
		}
		seen[s] = true
	}
	sts := []Status{StatusOK, StatusAppError, StatusNoSuchObject, StatusNoSuchMethod,
		StatusBadFingerprint, StatusMarshal, StatusInternal,
		StatusCancelled, StatusDeadlineExceeded, StatusSpaceClosed, StatusPromiseBroken, Status(99)}
	seen = map[string]bool{}
	for _, s := range sts {
		str := s.String()
		if str == "" || seen[str] {
			t.Errorf("status %d: bad or duplicate string %q", s, str)
		}
		seen[str] = true
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 5000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	var scratch []byte
	for _, p := range payloads {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame mismatch: got %d bytes want %d", len(got), len(p))
		}
		scratch = got
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(trunc), nil); err == nil {
		t.Fatal("truncated frame: want error")
	}
}

func TestFrameTooLargeHeader(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hdr), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v", err)
	}
}

func TestCleanBatchRoundTrip(t *testing.T) {
	m := &CleanBatch{
		Client:  42,
		Objs:    []uint64{1, 2, 3},
		Seqs:    []uint64{10, 20, 30},
		Strongs: []bool{false, true, false},
		Owner:   501,
	}
	got := roundTrip(t, m).(*CleanBatch)
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v want %+v", got, m)
	}
	empty := roundTrip(t, &CleanBatch{Client: 1}).(*CleanBatch)
	if len(empty.Objs) != 0 {
		t.Fatalf("got %+v", empty)
	}
	// A hostile count must be rejected.
	e := NewEncoder(nil)
	e.Uint(uint64(OpCleanBatch))
	e.Uint(1)       // client
	e.Uint(1 << 60) // count
	if _, err := Unmarshal(e.Bytes()); err == nil {
		t.Fatal("hostile batch count accepted")
	}
}
