package wire

import (
	"bytes"
	"testing"
)

func TestPipeMessageRoundTrips(t *testing.T) {
	msgs := []Message{
		&PipeCall{Obj: 9, Method: "Lookup", Fingerprint: 0xbeef, Typed: true,
			Args: []byte("args"), Promise: 1, ID: 10, DeadlineMillis: 5000, Barrier: 3},
		&PipeCall{TargetPromise: 1, Method: "Read", Args: []byte{0},
			ArgPromisePos: []uint64{0, 2}, ArgPromiseIDs: []uint64{1, 2}, Promise: 2, ID: 11},
		&PromiseResolve{Promise: 2, Status: StatusOK, Results: []byte("out"), NeedAck: true},
		&PromiseResolve{Promise: 2, Status: StatusPromiseBroken, Err: "dependency of Read failed"},
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
	}
}

func TestPipeCallPromiseArgListBound(t *testing.T) {
	// A frame claiming an absurd promise-argument count must fail cleanly
	// instead of allocating unboundedly.
	m := &PipeCall{Obj: 1, Method: "M", Promise: 2}
	frame := Marshal(nil, m)
	// Re-encode with a forged huge count: encode by hand up to the count.
	e := NewEncoder(nil)
	e.Uint(uint64(OpPipeCall))
	e.Uint(1)            // Obj
	e.Uint(0)            // TargetPromise
	e.String("M")        // Method
	e.Uint(0)            // Fingerprint
	e.Bool(false)        // Typed
	e.BytesField(nil)    // Args
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
