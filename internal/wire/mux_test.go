package wire

import (
	"bytes"
	"testing"
)

func TestMuxRoundTrip(t *testing.T) {
	inner := Marshal(nil, &Call{Obj: 7, Method: "Frob", Args: []byte("xyz"), ID: 99})
	frame := AppendMuxHeader(nil, 99)
	frame = append(frame, inner...)

	if !IsMux(frame) {
		t.Fatal("IsMux = false for mux-wrapped frame")
	}
	if IsMux(inner) {
		t.Fatal("IsMux = true for plain frame")
	}
	id, payload, err := SplitMux(frame)
	if err != nil {
		t.Fatalf("SplitMux: %v", err)
	}
	if id != 99 {
		t.Fatalf("SplitMux id = %d, want 99", id)
	}
	if !bytes.Equal(payload, inner) {
		t.Fatal("SplitMux payload does not match inner message")
	}
	msg, err := Unmarshal(payload)
	if err != nil {
		t.Fatalf("Unmarshal inner: %v", err)
	}
	call, ok := msg.(*Call)
	if !ok || call.Method != "Frob" {
		t.Fatalf("inner message = %#v, want the original call", msg)
	}
}

func TestSplitMuxErrors(t *testing.T) {
	if _, _, err := SplitMux(Marshal(nil, &Ping{From: 1})); err == nil {
		t.Fatal("SplitMux accepted a plain frame")
	}
	if _, _, err := SplitMux(nil); err == nil {
		t.Fatal("SplitMux accepted an empty frame")
	}
	// Envelope header with a truncated id.
	if _, _, err := SplitMux([]byte{byte(OpMux)}); err == nil {
		t.Fatal("SplitMux accepted a truncated envelope")
	}
}

// TestPeekOpUnwrapsMux is what keeps chaos fault classification working
// over sessions: a policy keyed on the message kind must see the inner op
// through the envelope.
func TestPeekOpUnwrapsMux(t *testing.T) {
	msgs := []Message{
		&Call{Obj: 1, Method: "M"},
		&Result{Status: StatusOK},
		&Dirty{Obj: 2, Client: 3},
		&CleanBatch{Client: 3, Objs: []uint64{2}, Seqs: []uint64{1}, Strongs: []bool{false}},
		&Ping{From: 4},
		&CancelCall{ID: 6},
		&ResultAck{},
	}
	for _, m := range msgs {
		plain := Marshal(nil, m)
		if got := PeekOp(plain); got != m.Op() {
			t.Fatalf("PeekOp(plain %v) = %v", m.Op(), got)
		}
		wrapped := AppendMuxHeader(nil, 123456)
		wrapped = append(wrapped, plain...)
		if got := PeekOp(wrapped); got != m.Op() {
			t.Fatalf("PeekOp(muxed %v) = %v", m.Op(), got)
		}
	}
	// A nested envelope is a protocol error, not a classification.
	nested := AppendMuxHeader(nil, 1)
	nested = AppendMuxHeader(nested, 2)
	nested = append(nested, Marshal(nil, &Ping{From: 1})...)
	if got := PeekOp(nested); got != OpInvalid {
		t.Fatalf("PeekOp(nested mux) = %v, want invalid", got)
	}
	if got := PeekOp([]byte{byte(OpMux)}); got != OpInvalid {
		t.Fatalf("PeekOp(truncated mux) = %v, want invalid", got)
	}
	// Op 24 was version 3's cycle query; retired ops above OpOneWay are
	// out of range, plain or wrapped.
	if got := PeekOp([]byte{24}); got != OpInvalid {
		t.Fatalf("PeekOp(retired op 24) = %v, want invalid", got)
	}
	if got := PeekOp(append(AppendMuxHeader(nil, 1), 24)); got != OpInvalid {
		t.Fatalf("PeekOp(muxed retired op 24) = %v, want invalid", got)
	}
}

// TestMarshalAllocs is the buffer-reuse regression gate: encoding a call
// into a caller-supplied buffer must not allocate in the steady state.
func TestMarshalAllocs(t *testing.T) {
	call := &Call{Obj: 9, Method: "Incr", Fingerprint: 0xfeed, Typed: true,
		Args: bytes.Repeat([]byte("a"), 64), ID: 42, DeadlineMillis: 1000}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		buf = Marshal(buf[:0], call)
	})
	if allocs != 0 {
		t.Fatalf("Marshal into reused buffer: %v allocs/op, want 0", allocs)
	}
}

// TestAppendFrameAllocs: frame assembly into a reused buffer is
// allocation-free, and WriteFrame's pooled path stays allocation-free
// writing to an in-memory sink.
func TestAppendFrameAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte("p"), 128)
	dst := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		dst, err = AppendFrame(dst[:0], payload)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendFrame into reused buffer: %v allocs/op, want 0", allocs)
	}

	var sink countingWriter
	allocs = testing.AllocsPerRun(200, func() {
		if err := WriteFrame(&sink, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteFrame via pooled buffer: %v allocs/op, want 0", allocs)
	}
}

// countingWriter discards its input without allocating (bytes.Buffer
// would grow and pollute the allocation count).
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func TestGetPutBuf(t *testing.T) {
	bp := GetBuf()
	if len(*bp) != 0 {
		t.Fatalf("GetBuf returned non-empty buffer: len %d", len(*bp))
	}
	*bp = append(*bp, "hello"...)
	PutBuf(bp)
	// Oversized buffers must be dropped, not pooled.
	big := make([]byte, 0, maxPooledBuf+1)
	PutBuf(&big)
	PutBuf(nil) // must not panic
	bp2 := GetBuf()
	if len(*bp2) != 0 {
		t.Fatal("pooled buffer came back non-empty")
	}
	PutBuf(bp2)
}
