package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrame bounds a single protocol frame. Frames are length-prefixed, so
// the limit protects a receiver from a corrupt or hostile length word.
const MaxFrame = 256 << 20

// ErrFrameTooLarge reports a frame whose length prefix exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// AppendFrame appends one length-prefixed frame containing payload to dst
// and returns the extended slice, so callers assembling frames into
// reusable buffers avoid the per-frame allocation of WriteFrame's
// internal path.
func AppendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrame {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...), nil
}

// WriteFrame writes one length-prefixed frame containing payload. The
// header and payload are assembled in a pooled scratch buffer and issued
// as a single Write, so concurrent writers interleave at frame
// granularity when the caller serializes at a higher level anyway, TCP
// sees one buffer per small frame, and the steady state allocates
// nothing.
func WriteFrame(w io.Writer, payload []byte) error {
	bp := GetBuf()
	buf, err := AppendFrame((*bp)[:0], payload)
	if err != nil {
		PutBuf(bp)
		return err
	}
	*bp = buf
	_, err = w.Write(buf)
	PutBuf(bp)
	return err
}

// ReadFrame reads one length-prefixed frame, reusing buf when it has
// sufficient capacity. It returns the payload, which may alias buf.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The length prefix is read into buf too: an array of its own would
	// escape to the heap through r, an allocation a frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}
