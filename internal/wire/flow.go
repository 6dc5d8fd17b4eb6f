package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file defines the session handshake and flow-control frames, in the
// HTTP/2 style. A session splits any muxed payload larger than the chunk
// size into bounded OpData frames
//
//	[OpData uvarint][stream id uvarint][flags uvarint][chunk bytes]
//
// interleaved round-robin across streams by the session writer, with
// credit granted back by the receiver through
//
//	[OpWindowUpdate uvarint][stream id uvarint][increment uvarint]
//
// (stream id 0 addresses the session-level window). Keepalives travel as
//
//	[OpFlowPing uvarint][token uvarint]  /  [OpFlowPong uvarint][token uvarint]
//
// None of these frames use the Message encode path: OpData is the bulk
// hot path and the others are tiny fixed-shape control frames, so all
// four are built with append-style helpers that allocate nothing.
//
// The windows a sender chunks against come from the peer's Hello, an
// ordinary Message wrapped in the mux envelope on reserved stream id 0:
// the first frame each side sends.

// Data frame flags.
const (
	// DataFlagLast marks the final chunk of a message: the receiver's
	// assembly is complete and is delivered to the stream.
	DataFlagLast = 1 << 0
	// DataFlagReset aborts the stream's partial assembly: the sender
	// abandoned the message mid-stream (deadline, cancel, stream close).
	// The receiver drops the assembly and tears the stream down.
	DataFlagReset = 1 << 1
)

// ErrNotFlow reports a frame that does not carry the expected flow op.
var ErrNotFlow = errors.New("wire: frame is not a flow frame")

// Version is the one protocol version this tree speaks. A Hello carrying
// any other fails the session. Version 2 carries a pipelined call as a
// Call answered by a Result, and every clean as a CleanBatch.
const Version = 2

// Hello is the first frame each endpoint of a session sends. It settles
// compatibility once, as the type fingerprint does at bind time, and
// carries what the peer needs before it can send freely: who we are and
// the windows to chunk against. Each direction is independent: a sender
// chunks using the windows the receiver advertised.
type Hello struct {
	// Version is the sender's protocol version.
	Version uint64
	// Space is the sender's space id, zero for an anonymous endpoint. The
	// identity lets the collector's liveness daemons treat a healthy
	// session as proof that this space is alive, without mistaking an
	// endpoint reused by a new incarnation for the space that used to
	// answer there.
	Space SpaceID
	// StreamWindow is the sender's per-stream receive window in bytes:
	// how many data bytes a peer may have in flight on one stream before
	// waiting for window updates.
	StreamWindow uint64
	// SessionWindow is the session-level receive window in bytes,
	// bounding total data bytes in flight across all streams.
	SessionWindow uint64
	// ChunkSize is the largest data chunk the sender is willing to
	// receive; peers must not send larger OpData frames.
	ChunkSize uint64
}

// Op returns OpHello.
func (*Hello) Op() Op { return OpHello }

func (m *Hello) encode(e *Encoder) {
	e.Uint(m.Version)
	e.Uint(uint64(m.Space))
	e.Uint(m.StreamWindow)
	e.Uint(m.SessionWindow)
	e.Uint(m.ChunkSize)
}

func (m *Hello) decode(d *Decoder) {
	m.Version = d.Uint()
	m.Space = SpaceID(d.Uint())
	m.StreamWindow = d.Uint()
	m.SessionWindow = d.Uint()
	m.ChunkSize = d.Uint()
}

// AppendDataHeader appends the data-frame header — op, stream id and
// flags — to dst. The chunk bytes follow it.
func AppendDataHeader(dst []byte, id uint64, flags uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(OpData))
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, flags)
	return dst
}

// SplitData splits a data frame into its stream id, flags and chunk. The
// returned chunk aliases frame.
func SplitData(frame []byte) (id, flags uint64, chunk []byte, err error) {
	op, n := binary.Uvarint(frame)
	if n <= 0 || Op(op) != OpData {
		return 0, 0, nil, ErrNotFlow
	}
	id, m := binary.Uvarint(frame[n:])
	if m <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: bad data stream id", ErrCorrupt)
	}
	flags, k := binary.Uvarint(frame[n+m:])
	if k <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: bad data flags", ErrCorrupt)
	}
	return id, flags, frame[n+m+k:], nil
}

// AppendWindowUpdate appends a complete window-update frame to dst.
// Stream id 0 addresses the session-level window.
func AppendWindowUpdate(dst []byte, id, increment uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(OpWindowUpdate))
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, increment)
	return dst
}

// SplitWindowUpdate decodes a window-update frame.
func SplitWindowUpdate(frame []byte) (id, increment uint64, err error) {
	op, n := binary.Uvarint(frame)
	if n <= 0 || Op(op) != OpWindowUpdate {
		return 0, 0, ErrNotFlow
	}
	id, m := binary.Uvarint(frame[n:])
	if m <= 0 {
		return 0, 0, fmt.Errorf("%w: bad window-update stream id", ErrCorrupt)
	}
	increment, k := binary.Uvarint(frame[n+m:])
	if k <= 0 {
		return 0, 0, fmt.Errorf("%w: bad window-update increment", ErrCorrupt)
	}
	if len(frame) != n+m+k {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes after window update", ErrCorrupt, len(frame)-n-m-k)
	}
	return id, increment, nil
}

// AppendFlowPing appends a complete keepalive probe frame to dst. When
// pong is set the frame is the answering OpFlowPong instead.
func AppendFlowPing(dst []byte, token uint64, pong bool) []byte {
	op := OpFlowPing
	if pong {
		op = OpFlowPong
	}
	dst = binary.AppendUvarint(dst, uint64(op))
	dst = binary.AppendUvarint(dst, token)
	return dst
}

// SplitFlowPing decodes a keepalive frame, reporting whether it was the
// answering pong.
func SplitFlowPing(frame []byte) (token uint64, pong bool, err error) {
	op, n := binary.Uvarint(frame)
	if n <= 0 || (Op(op) != OpFlowPing && Op(op) != OpFlowPong) {
		return 0, false, ErrNotFlow
	}
	token, m := binary.Uvarint(frame[n:])
	if m <= 0 {
		return 0, false, fmt.Errorf("%w: bad keepalive token", ErrCorrupt)
	}
	if len(frame) != n+m {
		return 0, false, fmt.Errorf("%w: %d trailing bytes after keepalive", ErrCorrupt, len(frame)-n-m)
	}
	return token, Op(op) == OpFlowPong, nil
}
