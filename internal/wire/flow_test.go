package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestDataFrameRoundTrip(t *testing.T) {
	chunk := bytes.Repeat([]byte("d"), 1024)
	frame := AppendDataHeader(nil, 42, DataFlagLast)
	frame = append(frame, chunk...)
	id, flags, got, err := SplitData(frame)
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 || flags != DataFlagLast || !bytes.Equal(got, chunk) {
		t.Fatalf("round trip mismatch: id=%d flags=%d len=%d", id, flags, len(got))
	}
	if PeekOp(frame) != OpData {
		t.Fatalf("PeekOp = %v, want data", PeekOp(frame))
	}
	if _, _, _, err := SplitData(Marshal(nil, &Ping{From: 1})); !errors.Is(err, ErrNotFlow) {
		t.Fatalf("SplitData on a ping: err = %v, want ErrNotFlow", err)
	}
}

func TestWindowUpdateRoundTrip(t *testing.T) {
	for _, tc := range []struct{ id, inc uint64 }{{0, 1 << 20}, {7, 65536}, {1 << 40, 1}} {
		frame := AppendWindowUpdate(nil, tc.id, tc.inc)
		id, inc, err := SplitWindowUpdate(frame)
		if err != nil {
			t.Fatal(err)
		}
		if id != tc.id || inc != tc.inc {
			t.Fatalf("round trip mismatch: got (%d,%d), want (%d,%d)", id, inc, tc.id, tc.inc)
		}
		if PeekOp(frame) != OpWindowUpdate {
			t.Fatalf("PeekOp = %v, want window-update", PeekOp(frame))
		}
	}
	if _, _, err := SplitWindowUpdate(append(AppendWindowUpdate(nil, 1, 2), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestFlowPingRoundTrip(t *testing.T) {
	for _, pong := range []bool{false, true} {
		frame := AppendFlowPing(nil, 99, pong)
		token, gotPong, err := SplitFlowPing(frame)
		if err != nil {
			t.Fatal(err)
		}
		if token != 99 || gotPong != pong {
			t.Fatalf("round trip mismatch: token=%d pong=%v", token, gotPong)
		}
		want := OpFlowPing
		if pong {
			want = OpFlowPong
		}
		if PeekOp(frame) != want {
			t.Fatalf("PeekOp = %v, want %v", PeekOp(frame), want)
		}
	}
}

// TestPeekOpHello: the session hello classifies as OpHello both
// naked and wrapped in the mux envelope on stream 0 — the wrapped form is
// how it actually travels, and the chaos transport's per-op rules must see
// through the envelope.
func TestPeekOpHello(t *testing.T) {
	hello := Marshal(nil, &Hello{Version: Version, Space: 9, StreamWindow: 1, SessionWindow: 2, ChunkSize: 3})
	if PeekOp(hello) != OpHello {
		t.Fatalf("naked hello: PeekOp = %v", PeekOp(hello))
	}
	wrapped := AppendMuxHeader(nil, 0)
	wrapped = append(wrapped, hello...)
	if PeekOp(wrapped) != OpHello {
		t.Fatalf("wrapped hello: PeekOp = %v", PeekOp(wrapped))
	}
	// Naked flow frames never nest inside the envelope; a wrapped OpData
	// is corrupt, not classifiable.
	bad := AppendMuxHeader(nil, 7)
	bad = AppendDataHeader(bad, 7, 0)
	if PeekOp(bad) != OpInvalid {
		t.Fatalf("wrapped data: PeekOp = %v, want invalid", PeekOp(bad))
	}
}

// TestFlowTruncationDeterministic cuts every flow frame at every byte
// boundary: each prefix must decode or fail deterministically with no
// panic, the same property the ordinary message decoders pin.
func TestFlowTruncationDeterministic(t *testing.T) {
	frames := [][]byte{
		append(AppendDataHeader(nil, 1<<33, DataFlagLast), bytes.Repeat([]byte("x"), 64)...),
		AppendDataHeader(nil, 3, DataFlagReset),
		AppendWindowUpdate(nil, 0, 1<<20),
		AppendWindowUpdate(nil, 1<<50, 64<<10),
		AppendFlowPing(nil, 1<<62, false),
		AppendFlowPing(nil, 7, true),
	}
	for _, frame := range frames {
		for cut := 0; cut < len(frame); cut++ {
			prefix := frame[:cut]
			for i := 0; i < 2; i++ {
				_, _, _, errD := SplitData(prefix)
				_, _, errW := SplitWindowUpdate(prefix)
				_, _, errP := SplitFlowPing(prefix)
				if i == 0 {
					continue
				}
				_, _, _, errD2 := SplitData(prefix)
				_, _, errW2 := SplitWindowUpdate(prefix)
				_, _, errP2 := SplitFlowPing(prefix)
				if (errD == nil) != (errD2 == nil) || (errW == nil) != (errW2 == nil) || (errP == nil) != (errP2 == nil) {
					t.Fatalf("cut at %d: nondeterministic outcome", cut)
				}
			}
			_ = PeekOp(prefix)
		}
	}
}

// FuzzFlowFrames asserts the flow-frame splitters never panic and that
// whatever they accept re-encodes to the same bytes.
func FuzzFlowFrames(f *testing.F) {
	f.Add(append(AppendDataHeader(nil, 9, DataFlagLast), []byte("chunk")...))
	f.Add(AppendWindowUpdate(nil, 0, 1<<20))
	f.Add(AppendFlowPing(nil, 42, false))
	f.Add(AppendFlowPing(nil, 42, true))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if id, flags, chunk, err := SplitData(data); err == nil {
			re := append(AppendDataHeader(nil, id, flags), chunk...)
			if !bytes.Equal(re, data) {
				t.Fatalf("data re-encode mismatch:\n%x\n%x", re, data)
			}
		}
		if id, inc, err := SplitWindowUpdate(data); err == nil {
			if !bytes.Equal(AppendWindowUpdate(nil, id, inc), data) {
				t.Fatal("window-update re-encode mismatch")
			}
		}
		if token, pong, err := SplitFlowPing(data); err == nil {
			if !bytes.Equal(AppendFlowPing(nil, token, pong), data) {
				t.Fatal("keepalive re-encode mismatch")
			}
		}
		_ = PeekOp(data)
	})
}

// TestDataHeaderAllocs pins the chunking hot path: building and splitting
// a data frame around a reused buffer must not allocate — the session
// writer does this once per 64KB chunk of every large payload.
func TestDataHeaderAllocs(t *testing.T) {
	chunk := bytes.Repeat([]byte("c"), 4096)
	buf := make([]byte, 0, 4096+16)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendDataHeader(buf[:0], 1<<20, DataFlagLast)
		buf = append(buf, chunk...)
	})
	if allocs != 0 {
		t.Fatalf("AppendDataHeader into reused buffer: %v allocs/op, want 0", allocs)
	}
	frame := buf
	allocs = testing.AllocsPerRun(200, func() {
		_, _, _, err := SplitData(frame)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SplitData: %v allocs/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		buf = AppendWindowUpdate(buf[:0], 42, 64<<10)
	})
	if allocs != 0 {
		t.Fatalf("AppendWindowUpdate into reused buffer: %v allocs/op, want 0", allocs)
	}
}
