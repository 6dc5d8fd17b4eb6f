package wire

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal asserts the protocol decoder never panics and that every
// successfully decoded message re-encodes and re-decodes stably.
// Runs its seed corpus under plain `go test`; run with -fuzz for real
// fuzzing.
func FuzzUnmarshal(f *testing.F) {
	seeds := []Message{
		&Call{Obj: 5, Method: "M", Fingerprint: 1, Typed: true, Args: []byte("abc")},
		&Call{Obj: 5, Method: "M", Args: []byte("abc"), ID: 42, DeadlineMillis: 250},
		&CancelCall{ID: 42},
		&CancelAck{Status: StatusOK},
		&Result{Status: StatusCancelled, Err: "cancelled"},
		&Result{Status: StatusAppError, Err: "e", Results: []byte{1}, NeedAck: true},
		&Dirty{Obj: 2, Client: 3, ClientEndpoints: []string{"tcp:a:1"}, Seq: 4, Owner: 11},
		&DirtyAck{Status: StatusOK},
		&CleanBatch{Client: 2, Objs: []uint64{1}, Seqs: []uint64{3}, Strongs: []bool{true}, Owner: 11},
		&CleanAck{},
		&Ping{From: 9},
		&PingAck{From: 9},
		&ResultAck{},
		&CleanBatch{Client: 3, Objs: []uint64{1, 2, 9}, Seqs: []uint64{4, 5, 6}, Strongs: []bool{false, true, false}, Owner: 11},
		&Lease{Client: 7, ClientEndpoints: []string{"tcp:a:1", "inmem:b"}, Owner: 11},
		&LeaseAck{Status: StatusOK, GrantedMillis: 30000},
		&Hello{Version: Version, Space: 11, StreamWindow: 256 << 10, SessionWindow: 1 << 20, ChunkSize: 64 << 10},
		// Pipelined calls: the promise fields, alone and all together.
		&Call{Obj: 5, Method: "M", Args: []byte("abc"), Promise: 3, ID: 42, DeadlineMillis: 250, Barrier: 2},
		&Call{TargetPromise: 3, Method: "N", Typed: true, Fingerprint: 7, Args: []byte{1}, Promise: 4, ID: 43},
		&Call{Obj: 1, TargetPromise: 2, Method: "P", Args: []byte{0, 0}, ArgPromisePos: []uint64{0, 1}, ArgPromiseIDs: []uint64{3, 4}, Promise: 5, ID: 44, DeadlineMillis: 9, Barrier: 1},
		&Result{Status: StatusPromiseBroken, Err: "dependency failed"},
		&Result{Status: StatusSpaceClosed, Err: "space closing"},
		&OneWay{Obj: 5, Method: "Log", Args: []byte("abc"), Seq: 7},
		// Tuples handed over in pieces, as a borrowing sender's are.
		&Call{Obj: 5, Method: "M", Typed: true, ArgSegs: [][]byte{{1, 1}, blob(borrowMin, 3), {7}}, ID: 9},
		&Result{Status: StatusOK, ResultSegs: [][]byte{nil, blob(100, 4)}},
		&OneWay{Obj: 5, Method: "Log", ArgSegs: [][]byte{[]byte("ab"), []byte("c")}, Seq: 8},
	}
	for _, m := range seeds {
		frame := Marshal(nil, m)
		f.Add(frame)
		// Truncated-mid-message corpora: every decoder must fail cleanly,
		// never panic or over-read, when a frame is cut short.
		for _, cut := range []int{1, len(frame) / 2, len(frame) - 1} {
			if cut > 0 && cut < len(frame) {
				f.Add(frame[:cut])
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Round-trip stability: decoded messages re-encode canonically.
		re := Marshal(nil, m)
		m2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		re2 := Marshal(nil, m2)
		if !bytes.Equal(re, re2) {
			t.Fatalf("unstable encoding:\n%x\n%x", re, re2)
		}
	})
}

// TestUnmarshalTruncationDeterministic exhaustively cuts every valid
// message at every byte boundary: each prefix must either decode to some
// message or return an error — deterministically, with no panic. This is
// the property the chaos transport's connection resets rely on: a frame
// severed mid-wire can never wedge or crash the decoder.
func TestUnmarshalTruncationDeterministic(t *testing.T) {
	msgs := []Message{
		&Call{Obj: 5, Method: "Method", Fingerprint: 0xfeed, Typed: true, Args: []byte("payload"), ID: 77, DeadlineMillis: 100},
		&Result{Status: StatusOK, Results: []byte{1, 2, 3}, NeedAck: true},
		&Dirty{Obj: 2, Client: 3, ClientEndpoints: []string{"tcp:host:1234"}, Seq: 4, Owner: 11},
		&CleanBatch{Client: 3, Objs: []uint64{1, 2}, Seqs: []uint64{4, 5}, Strongs: []bool{true, false}, Owner: 11},
		&Lease{Client: 7, ClientEndpoints: []string{"tcp:a:1"}, Owner: 11},
		&LeaseAck{Status: StatusOK, GrantedMillis: 30000},
		&CancelCall{ID: 42},
		&CancelAck{Status: StatusNoSuchObject},
		&Hello{Version: Version, Space: 11, StreamWindow: 256 << 10, SessionWindow: 1 << 20, ChunkSize: 64 << 10},
		&Call{Obj: 5, TargetPromise: 2, Method: "Method", Typed: true, Fingerprint: 0xfeed, Args: []byte("payload"),
			ArgPromisePos: []uint64{1}, ArgPromiseIDs: []uint64{3}, Promise: 9, ID: 77, DeadlineMillis: 100, Barrier: 4},
		&Result{Status: StatusPromiseBroken, Err: "dependency failed", Results: []byte{1, 2}, NeedAck: true},
		&OneWay{Obj: 5, Method: "Log", Args: []byte("payload"), Seq: 12},
	}
	for _, m := range msgs {
		frame := Marshal(nil, m)
		for cut := 0; cut < len(frame); cut++ {
			prefix := frame[:cut]
			m1, err1 := Unmarshal(prefix)
			m2, err2 := Unmarshal(prefix)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%v cut at %d: nondeterministic outcome (%v vs %v)", m.Op(), cut, err1, err2)
			}
			if err1 == nil && !bytes.Equal(Marshal(nil, m1), Marshal(nil, m2)) {
				t.Fatalf("%v cut at %d: nondeterministic decode", m.Op(), cut)
			}
		}
	}
}

// FuzzReadFrame asserts the framing layer never panics on arbitrary
// streams.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, []byte("hello"))
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	// A frame header promising more bytes than the stream holds: the
	// reader must report truncation, not block or panic.
	full := buf.Bytes()
	if len(full) > 2 {
		f.Add(full[:len(full)-2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i < 4; i++ {
			if _, err := ReadFrame(r, nil); err != nil {
				return
			}
		}
	})
}
