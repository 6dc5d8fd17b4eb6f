package pickle

import (
	"reflect"
	"testing"
)

// FuzzUnmarshalAny asserts the pickle decoder never panics on arbitrary
// bytes, at both dynamic and struct-typed destinations.
func FuzzUnmarshalAny(f *testing.F) {
	p := New(NewRegistry(), nil)
	registerDeep(p, reflect.TypeOf(outer{}), map[reflect.Type]bool{})
	seed1, _ := p.Marshal(nil, outer{Name: "x", Ptr: &inner{N: 1}, Tags: []string{"a"}})
	seed2, _ := p.Marshal(nil, map[string]any{"k": int64(1)}, "s", []byte{1, 2})
	shared := &inner{N: 2}
	seed3, _ := p.Marshal(nil, [2]*inner{shared, shared})
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	registerDeep(p, reflect.TypeOf(twoBlobs{}), map[reflect.Type]bool{})
	for _, vals := range borrowShapes() {
		// The borrowing pickler's shapes, as the pieces it sends.
		if out, segs, err := p.MarshalAnyBorrowed(nil, vals, nil); err == nil && len(out) < 300<<10 {
			if segs != nil {
				out = join(segs)
			}
			f.Add(out)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := New(NewRegistry(), nil)
		registerDeep(dec, reflect.TypeOf(outer{}), map[reflect.Type]bool{})
		_, _ = dec.UnmarshalAnySession(data, nil)
		_, _ = dec.UnmarshalAnyView(data, nil, 1+len(data)/4)
		var o outer
		_ = dec.Unmarshal(data, &o)
		var m map[string]any
		var s string
		var b []byte
		_ = dec.Unmarshal(data, &m, &s, &b)
	})
}
