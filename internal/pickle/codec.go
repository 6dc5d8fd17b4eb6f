package pickle

import (
	"encoding"
	"fmt"
	"reflect"
)

// Node tags for reference-like positions (pointers, maps, interfaces).
const (
	tagNil = 0 // nil value
	tagDef = 1 // first occurrence: definition follows
	tagRef = 2 // back-reference to an earlier definition, by id
	tagNet = 3 // network object reference: a wireRep follows
)

type ptrKey struct {
	p uintptr
	t reflect.Type
}

var (
	binMarshalerType   = reflect.TypeOf((*encoding.BinaryMarshaler)(nil)).Elem()
	binUnmarshalerType = reflect.TypeOf((*encoding.BinaryUnmarshaler)(nil)).Elem()
)

// buildCodec compiles the encoder and decoder for t. It runs with buildMu
// held; child lookups go through codecForLocked.
func (p *Pickler) buildCodec(t reflect.Type) (*typeCodec, error) {
	// Network references take precedence over every structural rule: a
	// type the runtime claims is marshaled as a wireRep no matter what it
	// looks like.
	if p.refs != nil && p.refs.Handles(t) {
		return p.refCodec(t), nil
	}
	switch t.Kind() {
	case reflect.Bool:
		return &typeCodec{
			enc: func(st *encState, v reflect.Value) error { st.e.Bool(v.Bool()); return nil },
			dec: func(st *decState, v reflect.Value) error { v.SetBool(st.d.Bool()); return nil },
		}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return &typeCodec{
			enc: func(st *encState, v reflect.Value) error { st.e.Int(v.Int()); return nil },
			dec: func(st *decState, v reflect.Value) error {
				n := st.d.Int()
				if v.OverflowInt(n) {
					return fmt.Errorf("%w: %d overflows %v", ErrCorrupt, n, v.Type())
				}
				v.SetInt(n)
				return nil
			},
		}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return &typeCodec{
			enc: func(st *encState, v reflect.Value) error { st.e.Uint(v.Uint()); return nil },
			dec: func(st *decState, v reflect.Value) error {
				n := st.d.Uint()
				if v.OverflowUint(n) {
					return fmt.Errorf("%w: %d overflows %v", ErrCorrupt, n, v.Type())
				}
				v.SetUint(n)
				return nil
			},
		}, nil
	case reflect.Float32, reflect.Float64:
		return &typeCodec{
			enc: func(st *encState, v reflect.Value) error { st.e.Float(v.Float()); return nil },
			dec: func(st *decState, v reflect.Value) error { v.SetFloat(st.d.Float()); return nil },
		}, nil
	case reflect.Complex64, reflect.Complex128:
		return &typeCodec{
			enc: func(st *encState, v reflect.Value) error { st.e.Complex(v.Complex()); return nil },
			dec: func(st *decState, v reflect.Value) error { v.SetComplex(st.d.Complex()); return nil },
		}, nil
	case reflect.String:
		return &typeCodec{
			enc: func(st *encState, v reflect.Value) error { st.e.String(v.String()); return nil },
			dec: func(st *decState, v reflect.Value) error { v.SetString(st.d.String()); return nil },
		}, nil
	case reflect.Slice:
		return p.sliceCodec(t)
	case reflect.Array:
		return p.arrayCodec(t)
	case reflect.Map:
		return p.mapCodec(t)
	case reflect.Struct:
		// Types with binary marshaling (time.Time and friends) pickle as
		// opaque bytes; this is also the hook for user types with hidden
		// state.
		if t.Implements(binMarshalerType) && reflect.PointerTo(t).Implements(binUnmarshalerType) {
			return binaryCodec(t), nil
		}
		return p.structCodec(t)
	case reflect.Pointer:
		return p.pointerCodec(t)
	case reflect.Interface:
		return p.interfaceCodec(t)
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnsupported, t)
	}
}

// refCodec pickles values of a network-reference type as bare wireReps.
func (p *Pickler) refCodec(t reflect.Type) *typeCodec {
	refs := p.refs
	return &typeCodec{
		enc: func(st *encState, v reflect.Value) error {
			w, err := refs.ToWire(st.session, v)
			if err != nil {
				return err
			}
			st.e.WireRep(w)
			return nil
		},
		dec: func(st *decState, v reflect.Value) error {
			w := st.d.WireRep()
			if err := st.d.Err(); err != nil {
				return err
			}
			rv, err := refs.FromWire(st.session, w, t)
			if err != nil {
				return err
			}
			return convertAssign(v, rv)
		},
	}
}

// binaryCodec pickles a type through its encoding.BinaryMarshaler
// implementation.
func binaryCodec(t reflect.Type) *typeCodec {
	return &typeCodec{
		enc: func(st *encState, v reflect.Value) error {
			b, err := v.Interface().(encoding.BinaryMarshaler).MarshalBinary()
			if err != nil {
				return fmt.Errorf("pickle: %v.MarshalBinary: %w", t, err)
			}
			st.e.BytesField(b)
			return nil
		},
		dec: func(st *decState, v reflect.Value) error {
			b := st.d.BytesField()
			if err := st.d.Err(); err != nil {
				return err
			}
			if err := v.Addr().Interface().(encoding.BinaryUnmarshaler).UnmarshalBinary(b); err != nil {
				return fmt.Errorf("pickle: %v.UnmarshalBinary: %w", t, err)
			}
			return nil
		},
	}
}

func (p *Pickler) sliceCodec(t reflect.Type) (*typeCodec, error) {
	elem := t.Elem()
	// Fast path for byte slices: one length-prefixed blob.
	if elem.Kind() == reflect.Uint8 && (p.refs == nil || !p.refs.Handles(elem)) {
		return &typeCodec{
			enc: func(st *encState, v reflect.Value) error {
				if v.IsNil() {
					st.e.Uint(tagNil)
					return nil
				}
				st.e.Uint(tagDef)
				st.e.BytesField(v.Bytes())
				return nil
			},
			dec: func(st *decState, v reflect.Value) error {
				switch tag := st.d.Uint(); tag {
				case tagNil:
					v.SetZero()
					return st.d.Err()
				case tagDef:
					b := st.d.BytesField()
					if err := st.d.Err(); err != nil {
						return err
					}
					// BytesField aliases the input buffer. A caller that
					// has given the buffer up (UnmarshalView) gets a long
					// value as that very stretch of it; everything else
					// is copied into freshly owned storage.
					if st.viewMin > 0 && len(b) >= st.viewMin {
						v.SetBytes(b[:len(b):len(b)])
						return nil
					}
					nb := reflect.MakeSlice(t, len(b), len(b))
					reflect.Copy(nb, reflect.ValueOf(b))
					v.Set(nb)
					return nil
				default:
					return fmt.Errorf("%w: slice tag %d", ErrCorrupt, tag)
				}
			},
		}, nil
	}
	ec, err := p.codecForLocked(elem)
	if err != nil {
		return nil, err
	}
	minSize := minEncodedSize(elem)
	return &typeCodec{
		enc: func(st *encState, v reflect.Value) error {
			if v.IsNil() {
				st.e.Uint(tagNil)
				return nil
			}
			if err := st.push(); err != nil {
				return err
			}
			defer st.pop()
			st.e.Uint(tagDef)
			n := v.Len()
			st.e.Uint(uint64(n))
			for i := 0; i < n; i++ {
				if err := ec.enc(st, v.Index(i)); err != nil {
					return err
				}
			}
			return nil
		},
		dec: func(st *decState, v reflect.Value) error {
			switch tag := st.d.Uint(); tag {
			case tagNil:
				v.SetZero()
				return st.d.Err()
			case tagDef:
				n := st.d.Uint()
				if err := st.d.Err(); err != nil {
					return err
				}
				if minSize > 0 && n > uint64(st.d.Len()) {
					return fmt.Errorf("%w: slice claims %d elements with %d bytes left", ErrCorrupt, n, st.d.Len())
				}
				if err := st.push(); err != nil {
					return err
				}
				defer st.pop()
				nv := reflect.MakeSlice(t, int(n), int(n))
				for i := 0; i < int(n); i++ {
					if err := ec.dec(st, nv.Index(i)); err != nil {
						return err
					}
				}
				v.Set(nv)
				return nil
			default:
				return fmt.Errorf("%w: slice tag %d", ErrCorrupt, tag)
			}
		},
	}, nil
}

func (p *Pickler) arrayCodec(t reflect.Type) (*typeCodec, error) {
	ec, err := p.codecForLocked(t.Elem())
	if err != nil {
		return nil, err
	}
	n := t.Len()
	return &typeCodec{
		enc: func(st *encState, v reflect.Value) error {
			if err := st.push(); err != nil {
				return err
			}
			defer st.pop()
			for i := 0; i < n; i++ {
				if err := ec.enc(st, v.Index(i)); err != nil {
					return err
				}
			}
			return nil
		},
		dec: func(st *decState, v reflect.Value) error {
			if err := st.push(); err != nil {
				return err
			}
			defer st.pop()
			for i := 0; i < n; i++ {
				if err := ec.dec(st, v.Index(i)); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

func (p *Pickler) mapCodec(t reflect.Type) (*typeCodec, error) {
	kc, err := p.codecForLocked(t.Key())
	if err != nil {
		return nil, err
	}
	vc, err := p.codecForLocked(t.Elem())
	if err != nil {
		return nil, err
	}
	minSize := minEncodedSize(t.Key()) + minEncodedSize(t.Elem())
	return &typeCodec{
		enc: func(st *encState, v reflect.Value) error {
			if v.IsNil() {
				st.e.Uint(tagNil)
				return nil
			}
			key := ptrKey{v.Pointer(), t}
			if id, ok := st.ptrID[key]; ok {
				st.e.Uint(tagRef)
				st.e.Uint(id)
				return nil
			}
			st.ptrID[key] = st.nextID
			st.nextID++
			if err := st.push(); err != nil {
				return err
			}
			defer st.pop()
			st.e.Uint(tagDef)
			st.e.Uint(uint64(v.Len()))
			it := v.MapRange()
			for it.Next() {
				if err := kc.enc(st, it.Key()); err != nil {
					return err
				}
				if err := vc.enc(st, it.Value()); err != nil {
					return err
				}
			}
			return nil
		},
		dec: func(st *decState, v reflect.Value) error {
			switch tag := st.d.Uint(); tag {
			case tagNil:
				v.SetZero()
				return st.d.Err()
			case tagRef:
				return st.backref(v, t)
			case tagDef:
				n := st.d.Uint()
				if err := st.d.Err(); err != nil {
					return err
				}
				if minSize > 0 && n > uint64(st.d.Len()) {
					return fmt.Errorf("%w: map claims %d entries with %d bytes left", ErrCorrupt, n, st.d.Len())
				}
				if err := st.push(); err != nil {
					return err
				}
				defer st.pop()
				m := reflect.MakeMapWithSize(t, int(n))
				v.Set(m)
				st.shared = append(st.shared, m)
				kv := reflect.New(t.Key()).Elem()
				vv := reflect.New(t.Elem()).Elem()
				for i := uint64(0); i < n; i++ {
					kv.SetZero()
					vv.SetZero()
					if err := kc.dec(st, kv); err != nil {
						return err
					}
					if err := vc.dec(st, vv); err != nil {
						return err
					}
					m.SetMapIndex(kv, vv)
				}
				return nil
			default:
				return fmt.Errorf("%w: map tag %d", ErrCorrupt, tag)
			}
		},
	}, nil
}

func (p *Pickler) structCodec(t reflect.Type) (*typeCodec, error) {
	type fieldCodec struct {
		index int
		c     *typeCodec
	}
	var fields []fieldCodec
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Tag.Get("pickle") == "-" {
			continue
		}
		fc, err := p.codecForLocked(f.Type)
		if err != nil {
			return nil, fmt.Errorf("field %s.%s: %w", t, f.Name, err)
		}
		fields = append(fields, fieldCodec{index: i, c: fc})
	}
	return &typeCodec{
		enc: func(st *encState, v reflect.Value) error {
			if err := st.push(); err != nil {
				return err
			}
			defer st.pop()
			for _, f := range fields {
				if err := f.c.enc(st, v.Field(f.index)); err != nil {
					return err
				}
			}
			return nil
		},
		dec: func(st *decState, v reflect.Value) error {
			if err := st.push(); err != nil {
				return err
			}
			defer st.pop()
			for _, f := range fields {
				if err := f.c.dec(st, v.Field(f.index)); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

func (p *Pickler) pointerCodec(t reflect.Type) (*typeCodec, error) {
	ec, err := p.codecForLocked(t.Elem())
	if err != nil {
		return nil, err
	}
	elem := t.Elem()
	return &typeCodec{
		enc: func(st *encState, v reflect.Value) error {
			if v.IsNil() {
				st.e.Uint(tagNil)
				return nil
			}
			key := ptrKey{v.Pointer(), t}
			if id, ok := st.ptrID[key]; ok {
				st.e.Uint(tagRef)
				st.e.Uint(id)
				return nil
			}
			st.ptrID[key] = st.nextID
			st.nextID++
			if err := st.push(); err != nil {
				return err
			}
			defer st.pop()
			st.e.Uint(tagDef)
			return ec.enc(st, v.Elem())
		},
		dec: func(st *decState, v reflect.Value) error {
			switch tag := st.d.Uint(); tag {
			case tagNil:
				v.SetZero()
				return st.d.Err()
			case tagRef:
				return st.backref(v, t)
			case tagDef:
				if err := st.push(); err != nil {
					return err
				}
				defer st.pop()
				np := reflect.New(elem)
				v.Set(np)
				// Record the pointer before decoding the pointee so cycles
				// resolve to it.
				st.shared = append(st.shared, np)
				return ec.dec(st, np.Elem())
			default:
				return fmt.Errorf("%w: pointer tag %d", ErrCorrupt, tag)
			}
		},
	}, nil
}

func (p *Pickler) interfaceCodec(t reflect.Type) (*typeCodec, error) {
	refs := p.refs
	reg := p.reg
	return &typeCodec{
		enc: func(st *encState, v reflect.Value) error {
			if v.IsNil() {
				st.e.Uint(tagNil)
				return nil
			}
			dv := v.Elem()
			dt := dv.Type()
			if refs != nil && refs.Handles(dt) {
				w, err := refs.ToWire(st.session, dv)
				if err != nil {
					return err
				}
				st.e.Uint(tagNet)
				st.e.WireRep(w)
				return nil
			}
			name, err := reg.nameOf(dt)
			if err != nil {
				return err
			}
			c, err := st.p.codecFor(dt)
			if err != nil {
				return err
			}
			if err := st.push(); err != nil {
				return err
			}
			defer st.pop()
			st.e.Uint(tagDef)
			st.e.String(name)
			return c.enc(st, dv)
		},
		dec: func(st *decState, v reflect.Value) error {
			switch tag := st.d.Uint(); tag {
			case tagNil:
				v.SetZero()
				return st.d.Err()
			case tagNet:
				w := st.d.WireRep()
				if err := st.d.Err(); err != nil {
					return err
				}
				if refs == nil {
					return ErrNoRefs
				}
				rv, err := refs.FromWire(st.session, w, t)
				if err != nil {
					return err
				}
				return convertAssign(v, rv)
			case tagDef:
				name := st.d.String()
				if err := st.d.Err(); err != nil {
					return err
				}
				dt, err := reg.typeOf(name)
				if err != nil {
					return err
				}
				c, err := st.p.codecFor(dt)
				if err != nil {
					return err
				}
				if err := st.push(); err != nil {
					return err
				}
				defer st.pop()
				dv := reflect.New(dt).Elem()
				if err := c.dec(st, dv); err != nil {
					return err
				}
				return convertAssign(v, dv)
			default:
				return fmt.Errorf("%w: interface tag %d", ErrCorrupt, tag)
			}
		},
	}, nil
}

func (st *encState) push() error {
	st.depth++
	if st.depth > MaxDepth {
		return ErrTooDeep
	}
	return nil
}

func (st *encState) pop() { st.depth-- }

func (st *decState) push() error {
	st.depth++
	if st.depth > MaxDepth {
		return ErrTooDeep
	}
	return nil
}

func (st *decState) pop() { st.depth-- }

// backref resolves a tagRef back-reference into v, checking that the
// referenced definition has the expected type.
func (st *decState) backref(v reflect.Value, want reflect.Type) error {
	id := st.d.Uint()
	if err := st.d.Err(); err != nil {
		return err
	}
	if id >= uint64(len(st.shared)) {
		return fmt.Errorf("%w: back-reference %d of %d", ErrCorrupt, id, len(st.shared))
	}
	sv := st.shared[id]
	if sv.Type() != want {
		return fmt.Errorf("%w: back-reference %d has type %v, want %v", ErrCorrupt, id, sv.Type(), want)
	}
	v.Set(sv)
	return nil
}

// minEncodedSize reports a lower bound on the encoded size of a value of
// type t, used to sanity-check attacker-controlled element counts. Only
// zero-size types (empty structs, arrays of them) can encode to zero bytes.
func minEncodedSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Tag.Get("pickle") == "-" {
				continue
			}
			if minEncodedSize(f.Type) > 0 {
				return 1
			}
		}
		return 0
	case reflect.Array:
		if t.Len() == 0 {
			return 0
		}
		return minEncodedSize(t.Elem())
	default:
		return 1
	}
}

// ConvertAssign sets dst (which must be settable) to src, applying
// lossless conversions when the types differ: numeric widening/narrowing
// that preserves the value, and string/byte-slice conversions. It is how a
// pickled int64 lands in an int parameter on the receiving side; the
// runtime also uses it to bind dynamically decoded arguments.
func ConvertAssign(dst, src reflect.Value) error {
	return convertAssign(dst, src)
}

// convertAssign implements ConvertAssign.
func convertAssign(dst, src reflect.Value) error {
	dt := dst.Type()
	if src.Type().AssignableTo(dt) {
		dst.Set(src)
		return nil
	}
	if src.Type().ConvertibleTo(dt) {
		conv := src.Convert(dt)
		// Verify the round trip for numeric kinds so silent truncation
		// cannot occur.
		if isNumeric(src.Kind()) && isNumeric(conv.Kind()) {
			back := conv.Convert(src.Type())
			if !reflect.DeepEqual(back.Interface(), src.Interface()) {
				return fmt.Errorf("pickle: value %v does not fit in %v", src.Interface(), dt)
			}
		}
		dst.Set(conv)
		return nil
	}
	return fmt.Errorf("pickle: cannot assign %v to %v", src.Type(), dt)
}

func isNumeric(k reflect.Kind) bool {
	switch k {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	}
	return false
}
