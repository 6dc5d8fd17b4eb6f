package wire

import (
	"bytes"
	"testing"
)

// join concatenates the pieces of an encoding.
func join(segs [][]byte) []byte {
	var out []byte
	for _, s := range segs {
		out = append(out, s...)
	}
	return out
}

func blob(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i>>8) ^ byte(i) ^ salt
	}
	return b
}

// TestEncoderSegmentsEqualFlat: whatever a borrowing encoder is fed, its
// pieces concatenate to exactly what a copying encoder holds — borrowing
// changes where bytes lie, never which bytes go out — and a byte field
// is borrowed if and only if it is at least borrowMin long.
func TestEncoderSegmentsEqualFlat(t *testing.T) {
	sizes := []int{0, 1, borrowMin - 1, borrowMin, borrowMin + 1, 4 * borrowMin}
	for _, a := range sizes {
		for _, b := range sizes {
			ba, bb := blob(a, 1), blob(b, 2)
			feed := func(e *Encoder) {
				e.Uint(7)
				e.BytesField(ba)
				e.String("between")
				e.BytesField(nil)
				e.BytesField(bb)
				e.Bool(true)
			}
			var flat, seg Encoder
			feed(&flat)
			seg.Borrow(true)
			feed(&seg)
			pieces := seg.Segments()
			if pieces == nil {
				pieces = [][]byte{seg.Bytes()}
			}
			if flat.Segments() != nil {
				t.Fatal("an encoder that does not borrow returned pieces")
			}
			if !bytes.Equal(join(pieces), flat.Bytes()) {
				t.Fatalf("fields of %d and %d bytes: pieces do not concatenate to the flat encoding", a, b)
			}
			borrowed := 0
			for _, p := range pieces {
				if len(p) > 0 && (len(ba) > 0 && &p[0] == &ba[0] || len(bb) > 0 && &p[0] == &bb[0]) {
					borrowed++
				}
			}
			want := 0
			for _, n := range []int{a, b} {
				if n >= borrowMin {
					want++
				}
			}
			if borrowed != want || (seg.Segments() != nil) != (want > 0) {
				t.Fatalf("fields of %d and %d bytes: %d borrowed, want %d", a, b, borrowed, want)
			}
			// Reset drops the borrowed slices; the encoder is reusable.
			seg.Reset(nil)
			if seg.Segments() != nil || len(seg.Bytes()) != 0 {
				t.Fatal("Reset left pieces behind")
			}
		}
	}
}

// TestMarshalSegmentsEqualMarshal: for every message that carries a
// pickle, MarshalSegments yields the bytes Marshal does — with the tuple
// given whole or in pieces, short or long — and says so with nil pieces
// when nothing was worth borrowing.
func TestMarshalSegmentsEqualMarshal(t *testing.T) {
	for _, n := range []int{0, 3, borrowMin - 1, borrowMin, 1 << 20} {
		tuple := blob(n, 9)
		inPieces := [][]byte{tuple[:n/3], nil, tuple[n/3 : n/2], tuple[n/2:]}
		// pieces is whole with its tuple in pieces, where the message can
		// take one so (nil otherwise).
		for _, tc := range []struct{ whole, pieces Message }{
			{&Call{Obj: 5, Method: "M", Typed: true, Args: tuple, ID: 42, DeadlineMillis: 250},
				&Call{Obj: 5, Method: "M", Typed: true, ArgSegs: inPieces, ID: 42, DeadlineMillis: 250}},
			{&Result{Status: StatusAppError, Err: "e", Results: tuple, NeedAck: true},
				&Result{Status: StatusAppError, Err: "e", ResultSegs: inPieces, NeedAck: true}},
			{&OneWay{Obj: 5, Method: "Log", Args: tuple, Seq: 7},
				&OneWay{Obj: 5, Method: "Log", ArgSegs: inPieces, Seq: 7}},
			{&Call{TargetPromise: 3, Method: "P", Args: tuple, ArgPromisePos: []uint64{0}, ArgPromiseIDs: []uint64{2}, Promise: 5, Barrier: 1},
				&Call{TargetPromise: 3, Method: "P", ArgSegs: inPieces, ArgPromisePos: []uint64{0}, ArgPromiseIDs: []uint64{2}, Promise: 5, Barrier: 1}},
		} {
			want := Marshal(nil, tc.whole)
			for _, m := range []Message{tc.whole, tc.pieces} {
				if m == nil {
					continue
				}
				if got := Marshal(nil, m); !bytes.Equal(got, want) {
					t.Fatalf("%v with a %d-byte tuple: Marshal of the tuple in pieces differs from the tuple whole", m.Op(), n)
				}
				out, segs := MarshalSegments(nil, m)
				got := out
				if segs != nil {
					got = join(segs)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%v with a %d-byte tuple: MarshalSegments differs from Marshal", m.Op(), n)
				}
				// Borrowed exactly when some piece handed in is long enough.
				longest := n
				if m == tc.pieces {
					longest = n - n/2
				}
				if (segs != nil) != (longest >= borrowMin) {
					t.Fatalf("%v with a %d-byte tuple: borrowed = %v", m.Op(), n, segs != nil)
				}
			}
			// What was sent in pieces decodes whole.
			dec, err := Unmarshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(Marshal(nil, dec), want) {
				t.Fatalf("%v: decoded message re-encodes differently", tc.whole.Op())
			}
		}
	}
}

// TestMarshalSmallMessageAllocFree: the borrowing path costs a small
// message nothing — the hot path of every call.
func TestMarshalSmallMessageAllocFree(t *testing.T) {
	call := &Call{Obj: 5, Method: "M", Typed: true, Args: []byte{0}, ID: 42, DeadlineMillis: 250}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		out, segs := MarshalSegments(buf, call)
		if segs != nil || len(out) == 0 {
			t.Fatal("small call borrowed")
		}
	}); n != 0 {
		t.Fatalf("MarshalSegments of a small call: %v allocations, want 0", n)
	}
}
