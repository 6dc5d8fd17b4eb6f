// Package pickle implements the general-purpose value marshaling layer of
// the network objects runtime, playing the role of the Modula-3 pickles
// package in the original system.
//
// A pickle encodes an arbitrary Go data graph: scalars, strings, arrays,
// slices, maps, structs (exported fields), pointers and interfaces.
// Sharing between pointers and maps is preserved — if two fields point at
// the same value, they still do after a round trip — and cyclic structures
// reachable through pointers are supported. Interface values carry the name
// of their dynamic type, which must be registered with the same name on
// both sides (see Register).
//
// Network objects are marshaled by reference rather than by value: the
// pickler is configured with a NetRefs hook supplied by the runtime, and
// any value the hook claims is encoded as a wireRep. The pickler itself has
// no knowledge of spaces or surrogates; the hook keeps the layering of the
// original system, where the pickles package calls out to the network
// object runtime for "special" references.
package pickle

import (
	"errors"
	"fmt"
	"reflect"
	"sync"

	"netobjects/internal/wire"
)

// Marshaling errors.
var (
	// ErrUnsupported reports a type the pickler cannot encode.
	ErrUnsupported = errors.New("pickle: unsupported type")
	// ErrUnregistered reports an interface value whose dynamic type has not
	// been registered.
	ErrUnregistered = errors.New("pickle: unregistered type")
	// ErrTooDeep reports a value graph nested beyond MaxDepth, which in
	// practice means a cycle not broken by a pointer or map.
	ErrTooDeep = errors.New("pickle: value too deeply nested")
	// ErrCorrupt reports undecodable pickle bytes.
	ErrCorrupt = errors.New("pickle: corrupt data")
	// ErrNoRefs reports a network reference in the data when the pickler
	// has no NetRefs hook to resolve it.
	ErrNoRefs = errors.New("pickle: network reference with no NetRefs hook")
)

// MaxDepth bounds recursion while encoding and decoding. Cycles through
// pointers and maps are detected by sharing and never hit the limit; the
// limit exists to turn pathological graphs (such as a slice containing
// itself) into errors instead of stack exhaustion.
const MaxDepth = 10_000

// NetRefs is the runtime hook through which the pickler marshals network
// object references. Implementations report which static types they handle
// and convert between in-memory reference values and wireReps.
type NetRefs interface {
	// Handles reports whether values of type t are network references that
	// must be pickled as wireReps.
	Handles(t reflect.Type) bool
	// ToWire returns the wireRep for the reference value v, whose type was
	// accepted by Handles. The session value is the one the caller passed
	// to MarshalSession (nil otherwise); the runtime uses it to keep
	// references transiently dirty for the duration of one call.
	ToWire(session any, v reflect.Value) (wire.WireRep, error)
	// FromWire reconstructs a reference value assignable to type t from a
	// received wireRep. It is where surrogates are created, so it may block
	// while the reference is registered with its owner (the dirty call).
	// The session value is the one passed to UnmarshalSession.
	FromWire(session any, w wire.WireRep, t reflect.Type) (reflect.Value, error)
}

// A Pickler marshals and unmarshals value tuples. The zero value is not
// usable; construct with New. Picklers are safe for concurrent use.
type Pickler struct {
	reg   *Registry
	refs  NetRefs
	cache sync.Map // reflect.Type -> *typeCodec

	buildMu  sync.Mutex
	building map[reflect.Type]*typeCodec
}

// New returns a Pickler using the given type registry (nil means the
// package-level default registry) and network reference hook (nil disables
// network references).
func New(reg *Registry, refs NetRefs) *Pickler {
	if reg == nil {
		reg = DefaultRegistry
	}
	return &Pickler{reg: reg, refs: refs}
}

// Registry returns the type registry the pickler resolves dynamic type
// names against.
func (p *Pickler) Registry() *Registry { return p.reg }

// Marshal appends the pickled form of vals to buf (which may be nil) and
// returns the extended buffer. Each val is encoded as an interface value,
// so heterogeneous tuples — such as the argument list of a dynamic call —
// can be decoded by a peer that knows only the count.
func (p *Pickler) Marshal(buf []byte, vals ...any) ([]byte, error) {
	rvs := make([]reflect.Value, len(vals))
	for i, v := range vals {
		rvs[i] = reflect.ValueOf(&v).Elem() // interface-typed value
	}
	return p.MarshalValues(buf, rvs)
}

// MarshalValues appends the pickled form of the given values to buf.
// Values are encoded according to their static types.
func (p *Pickler) MarshalValues(buf []byte, vals []reflect.Value) ([]byte, error) {
	return p.MarshalSession(buf, vals, nil)
}

// emptyTuple is the pickled form of zero values: a single zero-count
// varint byte. Null calls (no arguments, no results) hit this constant
// on both sides without touching the codec machinery.
var emptyTuple = []byte{0}

// encScratch bundles the per-pickle encoding state with its encoder so
// one pool hit covers both; the sharing table is cleared, not
// reallocated, between pickles.
type encScratch struct {
	st  encState
	enc wire.Encoder
}

var encScratchPool = sync.Pool{New: func() any {
	sc := new(encScratch)
	sc.st.ptrID = make(map[ptrKey]uint64)
	return sc
}}

// MarshalSession is MarshalValues with a session value made visible to the
// NetRefs hook for every reference pickled.
func (p *Pickler) MarshalSession(buf []byte, vals []reflect.Value, session any) ([]byte, error) {
	out, _, err := p.marshal(buf, vals, session, false)
	return out, err
}

// MarshalBorrowed is MarshalSession for a sender that writes the pickle
// out before it returns to whoever owns vals: a large []byte among them is
// not copied into buf but left where it is. When that happened segs is
// the pickle in pieces — the stretches of out and, between them, the
// caller's own slices; their concatenation is byte for byte what
// MarshalSession returns — and out is only the buffer to recycle
// afterwards. When it did not, segs is nil and out is the pickle. The
// values must not change until the pieces have been sent.
func (p *Pickler) MarshalBorrowed(buf []byte, vals []reflect.Value, session any) (out []byte, segs [][]byte, err error) {
	return p.marshal(buf, vals, session, true)
}

func (p *Pickler) marshal(buf []byte, vals []reflect.Value, session any, borrow bool) ([]byte, [][]byte, error) {
	if len(vals) == 0 {
		// The empty tuple is a constant; no encoder state needed.
		return append(buf[:0], emptyTuple...), nil, nil
	}
	sc := encScratchPool.Get().(*encScratch)
	sc.enc.Reset(buf)
	sc.enc.Borrow(borrow)
	st := &sc.st
	st.p, st.e, st.session = p, &sc.enc, session
	st.nextID, st.depth = 0, 0
	clear(st.ptrID)
	sc.enc.Uint(uint64(len(vals)))
	var err error
	for _, v := range vals {
		c, cerr := p.codecFor(v.Type())
		if cerr != nil {
			err = cerr
			break
		}
		if err = c.enc(st, v); err != nil {
			break
		}
	}
	out, segs := sc.enc.Bytes(), sc.enc.Segments()
	// Detach everything the caller or the next pickle must not share.
	st.p, st.e, st.session = nil, nil, nil
	sc.enc.Reset(nil)
	encScratchPool.Put(sc)
	if err != nil {
		return nil, nil, err
	}
	return out, segs, nil
}

// Unmarshal decodes a pickle produced by Marshal into the pointed-to
// destinations. The number of outs must equal the number of pickled values.
// Each destination must be a non-nil pointer; a pickled value is assigned
// to the pointee, with numeric conversion applied when the pickled dynamic
// type differs from the destination type but converts losslessly.
func (p *Pickler) Unmarshal(data []byte, outs ...any) error {
	ptrs := make([]reflect.Value, len(outs))
	types := make([]reflect.Type, len(outs))
	for i, o := range outs {
		rv := reflect.ValueOf(o)
		if rv.Kind() != reflect.Pointer || rv.IsNil() {
			return fmt.Errorf("pickle: Unmarshal destination %d is not a non-nil pointer", i)
		}
		ptrs[i] = rv
		// Marshal encodes every slot as an interface value, so decode each
		// slot at interface type — unless the destination itself is an
		// interface, in which case decoding directly applies any
		// network-reference wrapping registered for that interface type.
		if rv.Type().Elem().Kind() == reflect.Interface {
			types[i] = rv.Type().Elem()
		} else {
			types[i] = anyType
		}
	}
	vals, err := p.UnmarshalValues(data, types)
	if err != nil {
		return err
	}
	for i, v := range vals {
		dst := ptrs[i].Elem()
		if types[i] == anyType {
			// Unwrap the decoded dynamic value and assign with lossless
			// conversion, so Marshal(int(5)) round-trips into an int32
			// destination and similar.
			if v.IsNil() {
				dst.SetZero()
				continue
			}
			if err := convertAssign(dst, v.Elem()); err != nil {
				return err
			}
			continue
		}
		dst.Set(v)
	}
	return nil
}

var anyType = reflect.TypeOf((*any)(nil)).Elem()

// UnmarshalValues decodes a pickle into freshly allocated values of the
// given types. It is the decoding dual of MarshalValues: types must match
// the static types used when encoding, except that any destination type may
// be decoded from an interface encoding when assignment or lossless
// conversion is possible.
func (p *Pickler) UnmarshalValues(data []byte, types []reflect.Type) ([]reflect.Value, error) {
	return p.UnmarshalView(data, types, nil, 0)
}

// decScratch bundles the per-pickle decoding state with its decoder so
// one pool hit covers both.
type decScratch struct {
	st  decState
	dec wire.Decoder
}

var decScratchPool = sync.Pool{New: func() any { return new(decScratch) }}

// release zeroes the retained references and returns the scratch to the
// pool.
func (sc *decScratch) release() {
	st := &sc.st
	for i := range st.shared {
		st.shared[i] = reflect.Value{}
	}
	st.shared = st.shared[:0]
	st.p, st.d, st.session = nil, nil, nil
	st.depth, st.viewMin = 0, 0
	sc.dec.Reset(nil)
	decScratchPool.Put(sc)
}

// UnmarshalSession is UnmarshalValues with a session value made visible to
// the NetRefs hook for every reference unpickled.
func (p *Pickler) UnmarshalSession(data []byte, types []reflect.Type, session any) ([]reflect.Value, error) {
	return p.UnmarshalView(data, types, session, 0)
}

// UnmarshalView is UnmarshalSession for a caller that gives data up to
// the values decoded from it: a []byte of at least viewMin bytes is
// returned as a view of data — capacity clipped to its length, so that
// appending to it cannot reach its neighbours — instead of a copy. Such a
// value keeps all of data's buffer alive, so the caller sets viewMin to
// the fraction of that buffer it will let one value pin, and makes sure
// nothing ever reuses the buffer. viewMin 0 copies every value, as
// UnmarshalSession does.
func (p *Pickler) UnmarshalView(data []byte, types []reflect.Type, session any, viewMin int) ([]reflect.Value, error) {
	if len(types) == 0 {
		// Null-tuple fast path: validate the count without codec state.
		d := wire.NewDecoder(data)
		n := d.Uint()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if n != 0 {
			return nil, fmt.Errorf("%w: pickle holds %d values, want 0", ErrCorrupt, n)
		}
		if d.Len() != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Len())
		}
		return nil, nil
	}
	sc := decScratchPool.Get().(*decScratch)
	defer sc.release()
	sc.dec.Reset(data)
	d := &sc.dec
	st := &sc.st
	st.p, st.d, st.session, st.viewMin = p, d, session, viewMin
	n := d.Uint()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n != uint64(len(types)) {
		return nil, fmt.Errorf("%w: pickle holds %d values, want %d", ErrCorrupt, n, len(types))
	}
	out := make([]reflect.Value, len(types))
	for i, t := range types {
		c, err := p.codecFor(t)
		if err != nil {
			return nil, err
		}
		v := reflect.New(t).Elem()
		if err := c.dec(st, v); err != nil {
			return nil, err
		}
		out[i] = v
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Len())
	}
	return out, nil
}

// MarshalAnySession pickles each value as an interface value, with a
// session visible to the NetRefs hook. It is the encoding of dynamic call
// tuples: the receiver needs no static type information to decode.
func (p *Pickler) MarshalAnySession(buf []byte, vals []any, session any) ([]byte, error) {
	out, _, err := p.marshal(buf, AnyValues(vals), session, false)
	return out, err
}

// MarshalAnyBorrowed is MarshalAnySession leaving large []byte values in
// place, as MarshalBorrowed does.
func (p *Pickler) MarshalAnyBorrowed(buf []byte, vals []any, session any) (out []byte, segs [][]byte, err error) {
	return p.marshal(buf, AnyValues(vals), session, true)
}

// AnyValues holds each of vals as an interface-typed value: what
// MarshalSession and MarshalBorrowed pickle self-describing, as the
// MarshalAny forms do.
func AnyValues(vals []any) []reflect.Value {
	rvs := make([]reflect.Value, len(vals))
	for i := range vals {
		rvs[i] = reflect.ValueOf(&vals[i]).Elem()
	}
	return rvs
}

// UnmarshalAnySession decodes a pickle whose slots were all encoded as
// interface values (Marshal or MarshalAnySession), returning the dynamic
// values. Network references decode to whatever the NetRefs hook produces
// for the empty interface.
func (p *Pickler) UnmarshalAnySession(data []byte, session any) ([]any, error) {
	return p.UnmarshalAnyView(data, session, 0)
}

// UnmarshalAnyView is UnmarshalAnySession returning large []byte values
// as views of data, on UnmarshalView's terms.
func (p *Pickler) UnmarshalAnyView(data []byte, session any, viewMin int) ([]any, error) {
	if len(data) == 1 && data[0] == 0 {
		// The empty tuple; nothing to decode.
		return nil, nil
	}
	sc := decScratchPool.Get().(*decScratch)
	defer sc.release()
	sc.dec.Reset(data)
	d := &sc.dec
	st := &sc.st
	st.p, st.d, st.session, st.viewMin = p, d, session, viewMin
	n := d.Uint()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > uint64(len(data))+1 {
		return nil, fmt.Errorf("%w: pickle claims %d values in %d bytes", ErrCorrupt, n, len(data))
	}
	c, err := p.codecFor(anyType)
	if err != nil {
		return nil, err
	}
	out := make([]any, 0, n)
	for i := uint64(0); i < n; i++ {
		v := reflect.New(anyType).Elem()
		if err := c.dec(st, v); err != nil {
			return nil, err
		}
		out = append(out, v.Interface())
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Len())
	}
	return out, nil
}

// encState carries per-pickle encoding state: the output encoder and the
// sharing table mapping already-seen pointer identities to reference ids.
type encState struct {
	p       *Pickler
	e       *wire.Encoder
	ptrID   map[ptrKey]uint64
	nextID  uint64
	depth   int
	session any
}

// decState carries per-pickle decoding state: the input decoder and the
// table of shared values indexed by reference id, in definition order.
type decState struct {
	p       *Pickler
	d       *wire.Decoder
	shared  []reflect.Value
	depth   int
	session any
	// viewMin, when positive, is the length from which a []byte is
	// returned as a view of the input instead of a copy (UnmarshalView).
	viewMin int
}

// typeCodec holds the compiled encode and decode functions for one type.
type typeCodec struct {
	enc encFunc
	dec decFunc
}

type encFunc func(st *encState, v reflect.Value) error

// decFunc decodes into v, which is always addressable and settable.
type decFunc func(st *decState, v reflect.Value) error

// codecFor returns the compiled codec for t, building and caching it on
// first use. Building is serialized by buildMu; recursive types terminate
// because an in-progress type is visible in the building map and resolves
// to a placeholder that is filled in before the codec is published.
func (p *Pickler) codecFor(t reflect.Type) (*typeCodec, error) {
	if c, ok := p.cache.Load(t); ok {
		return c.(*typeCodec), nil
	}
	p.buildMu.Lock()
	defer p.buildMu.Unlock()
	return p.codecForLocked(t)
}

func (p *Pickler) codecForLocked(t reflect.Type) (*typeCodec, error) {
	if c, ok := p.cache.Load(t); ok {
		return c.(*typeCodec), nil
	}
	if c, ok := p.building[t]; ok {
		return c, nil
	}
	if p.building == nil {
		p.building = make(map[reflect.Type]*typeCodec)
	}
	c := new(typeCodec)
	p.building[t] = c
	defer delete(p.building, t)
	built, err := p.buildCodec(t)
	if err != nil {
		return nil, err
	}
	*c = *built
	p.cache.Store(t, c)
	return c, nil
}
