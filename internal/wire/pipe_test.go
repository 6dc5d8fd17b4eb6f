package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// TestPipeMessageRoundTrips: a pipelined call is a Call with its promise
// fields set, answered by a plain Result; both, and the one-way message,
// survive a round trip field for field.
func TestPipeMessageRoundTrips(t *testing.T) {
	msgs := []Message{
		&Call{Obj: 9, Method: "Lookup", Fingerprint: 0xbeef, Typed: true,
			Args: []byte("args"), Promise: 1, ID: 10, DeadlineMillis: 5000, Barrier: 3},
		&Call{TargetPromise: 1, Method: "Read", Args: []byte{0},
			ArgPromisePos: []uint64{0, 2}, ArgPromiseIDs: []uint64{1, 2}, Promise: 2, ID: 11},
		&Result{Status: StatusOK, Results: []byte("out"), NeedAck: true},
		&Result{Status: StatusPromiseBroken, Err: "dependency of Read failed"},
		&OneWay{Obj: 9, Method: "Log", Typed: true, Fingerprint: 1, Args: []byte("line"), Seq: 4},
	}
	for _, m := range msgs {
		frame := Marshal(nil, m)
		if PeekOp(frame) != m.Op() {
			t.Fatalf("%v: PeekOp = %v", m.Op(), PeekOp(frame))
		}
		got, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("%v: %v", m.Op(), err)
		}
		if !bytes.Equal(Marshal(nil, got), frame) {
			t.Fatalf("%v: unstable round trip", m.Op())
		}
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Fatalf("%v: got %+v, want %+v", m.Op(), got, m)
		}
	}
}

// TestPipeCallCostsPlainCallFourBytes: the promise fields of a plain call
// are four zero bytes on the wire, and a pipelined call is flagged as such
// by any one of them.
func TestPipeCallCostsPlainCallFourBytes(t *testing.T) {
	plain := &Call{Obj: 5, Method: "M", Args: []byte{0}, ID: 300, DeadlineMillis: 30000}
	e := NewEncoder(nil)
	e.Uint(uint64(OpCall))
	e.Uint(plain.Obj)
	e.String(plain.Method)
	e.Uint(plain.Fingerprint)
	e.Bool(plain.Typed)
	e.BytesField(plain.Args)
	e.Uint(plain.ID)
	e.Uint(plain.DeadlineMillis)
	if got, before := len(Marshal(nil, plain)), len(e.Bytes()); got != before+4 {
		t.Fatalf("plain call frame is %d bytes, want %d + 4", got, before)
	}
	if plain.Pipelined() {
		t.Fatal("a plain call reports itself pipelined")
	}
	for _, c := range []Call{{Promise: 1}, {TargetPromise: 1}, {Barrier: 1}, {ArgPromisePos: []uint64{0}, ArgPromiseIDs: []uint64{1}}} {
		if !c.Pipelined() {
			t.Fatalf("%+v does not report itself pipelined", c)
		}
	}
}

func TestPipeCallPromiseArgListBound(t *testing.T) {
	// A frame claiming an absurd promise-argument count must fail cleanly
	// instead of allocating unboundedly.
	m := &Call{Obj: 1, Method: "M", Promise: 2}
	frame := Marshal(nil, m)
	// Re-encode with a forged huge count: encode by hand up to the count.
	e := NewEncoder(nil)
	e.Uint(uint64(OpCall))
	e.Uint(1)            // Obj
	e.String("M")        // Method
	e.Uint(0)            // Fingerprint
	e.Bool(false)        // Typed
	e.BytesField(nil)    // Args
	e.Uint(0)            // ID
	e.Uint(0)            // DeadlineMillis
	e.Uint(0)            // TargetPromise
	e.Uint(MaxStringLen) // forged promise-arg count
	forged := e.Bytes()
	if _, err := Unmarshal(forged); err == nil {
		t.Fatal("forged promise-argument count decoded")
	}
	if _, err := Unmarshal(frame); err != nil {
		t.Fatalf("legitimate frame rejected: %v", err)
	}
}

// TestOneWayMarshalAllocs pins the one-way hot path: encoding a one-way
// frame into a reused buffer must not allocate beyond the encoder's
// amortized growth — a fire-and-forget call should cost its payload copy
// and nothing else.
func TestOneWayMarshalAllocs(t *testing.T) {
	m := &OneWay{Obj: 7, Method: "Log", Args: bytes.Repeat([]byte("x"), 256), Seq: 1}
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(200, func() {
		buf = Marshal(buf[:0], m)
	})
	if allocs > 0 {
		t.Fatalf("OneWay Marshal into reused buffer: %v allocs/op, want 0", allocs)
	}
}
