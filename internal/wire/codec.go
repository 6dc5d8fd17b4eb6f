package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Codec errors. Decoding is defensive: all failures surface as errors
// wrapping ErrCorrupt rather than panics, because the bytes come off the
// network.
var (
	// ErrCorrupt reports undecodable input.
	ErrCorrupt = errors.New("wire: corrupt data")
	// ErrTooLarge reports a length field exceeding the configured limit.
	ErrTooLarge = errors.New("wire: length exceeds limit")
)

// MaxStringLen bounds any single length-prefixed string or byte field.
// It exists to stop a corrupt or hostile length prefix from driving a
// multi-gigabyte allocation.
const MaxStringLen = 64 << 20

// Encoder appends primitive values to a byte slice in the wire format:
// unsigned varints for integers, length-prefixed bytes for strings.
// The zero value is ready to use.
//
// An encoder that borrows (see Borrow) leaves large byte fields where
// they are: the encoding is then buf with each borrowed slice cut in at
// its offset, and Segments lists the pieces in order. The bytes are the
// same either way; an encoder that does not borrow is the case of one
// piece.
type Encoder struct {
	buf    []byte
	borrow bool
	cuts   []cut
}

// cut is one borrowed byte field: b belongs between buf[:at] and buf[at:].
type cut struct {
	at int
	b  []byte
}

// borrowMin is the shortest byte field a borrowing encoder leaves in
// place: half a default chunk, so that whatever is long enough to be sent
// in chunks is borrowed, and nothing much shorter. The F1 sweep
// (EXPERIMENTS.md) says there is no finer line to draw: borrowed or
// copied, a 16 KiB Bytes call takes the same 65–70 µs (and five more
// allocations borrowed); the copies spared are into warm pooled buffers.
// What borrowing buys is the megabyte those buffers stop being pooled at.
const borrowMin = 32 << 10

// NewEncoder returns an encoder writing into buf (which may be nil);
// passing a preallocated buffer lets callers reuse storage across messages.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf[:0]} }

// Reset points the encoder at buf (which may be nil), discarding any
// previous contents, so pooled encoders can be reused across messages.
func (e *Encoder) Reset(buf []byte) {
	e.buf = buf[:0]
	if len(e.cuts) > 0 {
		clear(e.cuts) // drop the borrowed slices, keep the backing array
		e.cuts = e.cuts[:0]
	}
}

// Borrow sets whether BytesField may leave a field of borrowMin bytes or
// more in the caller's memory instead of copying it. The caller must then
// take the encoding from Segments, and keep every borrowed slice
// unchanged until the pieces have been written out.
func (e *Encoder) Borrow(on bool) { e.borrow = on }

// Bytes returns the encoded contents. The slice aliases the encoder's
// internal buffer and is valid until the next call on the encoder. Where
// fields were borrowed it lacks them; Segments has the whole encoding.
func (e *Encoder) Bytes() []byte { return e.buf }

// Segments returns nil when no field was borrowed — Bytes is then the
// encoding — and otherwise the encoding in pieces, in order: the
// stretches of the encoder's own buffer and, between them, the borrowed
// fields. Their concatenation is what a non-borrowing encoder would hold
// in Bytes. The pieces alias the buffer and the borrowed slices.
func (e *Encoder) Segments() [][]byte {
	if len(e.cuts) == 0 {
		return nil
	}
	segs := make([][]byte, 0, 2*len(e.cuts)+1)
	at := 0
	for _, c := range e.cuts {
		if c.at > at {
			segs = append(segs, e.buf[at:c.at])
		}
		segs = append(segs, c.b)
		at = c.at
	}
	if at < len(e.buf) {
		segs = append(segs, e.buf[at:])
	}
	return segs
}

// Uint appends an unsigned varint.
func (e *Encoder) Uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int appends a signed varint (zig-zag encoded by AppendVarint).
func (e *Encoder) Int(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Bool appends a boolean as a single varint 0 or 1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint(1)
	} else {
		e.Uint(0)
	}
}

// Float appends a float64 as its IEEE-754 bits.
func (e *Encoder) Float(v float64) { e.Uint(math.Float64bits(v)) }

// Complex appends a complex128 as two float64s.
func (e *Encoder) Complex(v complex128) { e.Float(real(v)); e.Float(imag(v)) }

// BytesField appends a length-prefixed byte string. A borrowing encoder
// records a long one by reference instead of copying it.
func (e *Encoder) BytesField(b []byte) {
	e.Uint(uint64(len(b)))
	e.blob(b)
}

// blob appends b's bytes, or cuts b in by reference when the encoder
// borrows and b is long enough to be worth it.
func (e *Encoder) blob(b []byte) {
	if len(b) >= borrowMin && e.borrow {
		e.cuts = append(e.cuts, cut{len(e.buf), b})
		return
	}
	e.buf = append(e.buf, b...)
}

// tupleField appends a message's pickled tuple as one length-prefixed
// byte string: whole, or — segs non-nil — in the pieces a borrowing
// pickler returned it in. The bytes are those of BytesField of the pieces'
// concatenation; long pieces are borrowed again rather than copied.
func (e *Encoder) tupleField(whole []byte, segs [][]byte) {
	if segs == nil {
		e.BytesField(whole)
		return
	}
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	e.Uint(uint64(n))
	for _, s := range segs {
		e.blob(s)
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// StringSlice appends a count-prefixed slice of strings.
func (e *Encoder) StringSlice(ss []string) {
	e.Uint(uint64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// WireRep appends a wireRep.
func (e *Encoder) WireRep(w WireRep) {
	e.Uint(uint64(w.Owner))
	e.StringSlice(w.Endpoints)
	e.Uint(w.Index)
}

// Decoder consumes primitive values from a byte slice written by Encoder.
// Errors are sticky: after the first failure every subsequent read returns
// the same error, so call sites may decode a full message and check the
// error once at the end.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a decoder reading from buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset points the decoder at buf and clears any sticky error, so
// pooled decoders can be reused across messages.
func (d *Decoder) Reset(buf []byte) { d.buf, d.err = buf, nil }

// Err returns the first error encountered, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unconsumed bytes.
func (d *Decoder) Len() int { return len(d.buf) }

func (d *Decoder) fail(why string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, why)
	}
}

// Uint consumes an unsigned varint.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Int consumes a signed varint.
func (d *Decoder) Int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Bool consumes a boolean.
func (d *Decoder) Bool() bool {
	switch d.Uint() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool")
		return false
	}
}

// Float consumes a float64.
func (d *Decoder) Float() float64 { return math.Float64frombits(d.Uint()) }

// Complex consumes a complex128.
func (d *Decoder) Complex() complex128 {
	re := d.Float()
	im := d.Float()
	return complex(re, im)
}

// BytesField consumes a length-prefixed byte string. The result aliases the
// decoder's input buffer; callers that retain it beyond the buffer's
// lifetime must copy.
func (d *Decoder) BytesField() []byte {
	n := d.Uint()
	if d.err != nil {
		return nil
	}
	if n > MaxStringLen {
		d.err = fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
		return nil
	}
	if uint64(len(d.buf)) < n {
		d.fail("short bytes")
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// String consumes a length-prefixed string.
func (d *Decoder) String() string { return string(d.BytesField()) }

// StringSlice consumes a count-prefixed slice of strings.
func (d *Decoder) StringSlice() []string {
	n := d.Uint()
	if d.err != nil {
		return nil
	}
	if n > MaxStringLen/2 {
		d.err = fmt.Errorf("%w: %d strings", ErrTooLarge, n)
		return nil
	}
	// Cap the initial allocation; a hostile count cannot force a large
	// allocation because each element consumes at least one input byte.
	ss := make([]string, 0, min(n, 64))
	for i := uint64(0); i < n; i++ {
		ss = append(ss, d.String())
		if d.err != nil {
			return nil
		}
	}
	return ss
}

// WireRep consumes a wireRep.
func (d *Decoder) WireRep() WireRep {
	var w WireRep
	w.Owner = SpaceID(d.Uint())
	w.Endpoints = d.StringSlice()
	w.Index = d.Uint()
	return w
}
