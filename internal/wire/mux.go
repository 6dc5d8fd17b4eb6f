package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file defines the multiplexing envelope the session layer uses to
// interleave many logical exchanges on one connection. A muxed frame is
//
//	[OpMux uvarint][stream id uvarint][ordinary marshaled message]
//
// Stream id 0 is reserved for the Hello that opens a session (see
// flow.go). Stream ids are never reused within a session (they come from
// the process-wide call-id counter), which is what lets a late response
// to an abandoned exchange be recognized and dropped.

// ErrNotMux reports a frame that does not carry the mux envelope.
var ErrNotMux = errors.New("wire: frame is not mux-wrapped")

// AppendMuxHeader appends the mux envelope header — the OpMux op and the
// stream id — to dst. The ordinary marshaled message follows it.
func AppendMuxHeader(dst []byte, id uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(OpMux))
	dst = binary.AppendUvarint(dst, id)
	return dst
}

// IsMux reports whether frame starts with the mux envelope.
func IsMux(frame []byte) bool {
	op, n := binary.Uvarint(frame)
	return n > 0 && Op(op) == OpMux
}

// SplitMux splits a mux-wrapped frame into its stream id and the inner
// marshaled message. The returned payload aliases frame.
func SplitMux(frame []byte) (id uint64, payload []byte, err error) {
	op, n := binary.Uvarint(frame)
	if n <= 0 || Op(op) != OpMux {
		return 0, nil, ErrNotMux
	}
	id, m := binary.Uvarint(frame[n:])
	if m <= 0 {
		return 0, nil, fmt.Errorf("%w: bad mux stream id", ErrCorrupt)
	}
	return id, frame[n+m:], nil
}
