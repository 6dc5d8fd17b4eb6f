package pickle

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"
)

// twoBlobs is a struct with two byte slices around small fields.
type twoBlobs struct {
	Name  string
	First []byte
	N     int64
	Last  []byte
	Tags  []string
}

func seeded(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i>>8) ^ byte(i) ^ salt
	}
	return b
}

// borrowShapes are the value tuples the borrowing pickler must encode
// byte for byte as the copying one does: nil and empty slices, sizes on
// both sides of every power of two the threshold might be, many small
// pieces, blobs inside a struct, and a blob inside an interface value.
func borrowShapes() [][]any {
	shapes := [][]any{
		{[]byte(nil)},
		{[]byte{}},
		{seeded(1<<20, 1)},
		{twoBlobs{Name: "n", First: seeded(100<<10, 2), N: -5, Last: seeded(300<<10, 3), Tags: []string{"a", "b"}}},
		{&twoBlobs{First: seeded(64<<10, 4)}, "tail"},
		{any(seeded(200<<10, 5)), int64(7)},
		{map[string][]byte{"k": seeded(128<<10, 6)}},
	}
	for k := 10; k <= 18; k++ {
		for d := -1; d <= 1; d++ {
			shapes = append(shapes, []any{seeded(1<<k+d, byte(k))})
		}
	}
	many := make([][]byte, 256)
	for i := range many {
		many[i] = seeded(4<<10, byte(i))
	}
	return append(shapes, []any{many})
}

func join(segs [][]byte) []byte {
	var out []byte
	for _, s := range segs {
		out = append(out, s...)
	}
	return out
}

func within(p, b []byte) bool {
	if len(p) == 0 || len(b) == 0 {
		return false
	}
	p0, b0 := uintptr(unsafe.Pointer(&p[0])), uintptr(unsafe.Pointer(&b[0]))
	return p0 >= b0 && p0+uintptr(len(p)) <= b0+uintptr(len(b))
}

// TestBorrowedPickleEqualsFlat: the send side changes no wire bytes. For
// every shape, typed and dynamic, the pieces MarshalBorrowed returns
// concatenate to what MarshalSession returns, and decode to the value.
func TestBorrowedPickleEqualsFlat(t *testing.T) {
	p := New(NewRegistry(), nil)
	registerDeep(p, reflect.TypeOf(twoBlobs{}), map[reflect.Type]bool{})
	for i, vals := range borrowShapes() {
		rvs := make([]reflect.Value, len(vals))
		types := make([]reflect.Type, len(vals))
		for j, v := range vals {
			rvs[j] = reflect.ValueOf(v)
			types[j] = rvs[j].Type()
		}
		flat, err := p.MarshalSession(nil, rvs, nil)
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		out, segs, err := p.MarshalBorrowed(make([]byte, 0, 64), rvs, nil)
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		got := out
		if segs != nil {
			got = join(segs)
			for _, s := range segs {
				if len(s) > 0 && !within(s, out) && len(s) < 1<<10 {
					t.Fatalf("shape %d: a %d-byte value was borrowed", i, len(s))
				}
			}
		}
		if !bytes.Equal(got, flat) {
			t.Fatalf("shape %d: borrowed pickle differs from the flat one (%d vs %d bytes)", i, len(got), len(flat))
		}
		back, err := p.UnmarshalSession(got, types, nil)
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		for j := range back {
			if !reflect.DeepEqual(back[j].Interface(), vals[j]) {
				t.Fatalf("shape %d: value %d did not survive the round trip", i, j)
			}
		}

		dynFlat, err := p.MarshalAnySession(nil, vals, nil)
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		dynOut, dynSegs, err := p.MarshalAnyBorrowed(nil, vals, nil)
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		if dynSegs != nil {
			dynOut = join(dynSegs)
		}
		if !bytes.Equal(dynOut, dynFlat) {
			t.Fatalf("shape %d: borrowed dynamic pickle differs from the flat one", i)
		}
	}
}

// TestBorrowedPickleReadsTheCallersBuffer: a megabyte argument is not
// copied — the piece carrying it is the caller's slice — and a tuple
// with nothing large comes back whole, with no pieces at all.
func TestBorrowedPickleReadsTheCallersBuffer(t *testing.T) {
	p := New(NewRegistry(), nil)
	big := seeded(1<<20, 1)
	_, segs, err := p.MarshalBorrowed(nil, []reflect.Value{reflect.ValueOf(big), reflect.ValueOf("s")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range segs {
		if len(s) == len(big) && &s[0] == &big[0] {
			found = true
		}
	}
	if !found {
		t.Fatalf("a 1 MiB argument was copied: %d pieces, none the caller's slice", len(segs))
	}
	out, segs, err := p.MarshalBorrowed(nil, []reflect.Value{reflect.ValueOf(seeded(100, 2)), reflect.ValueOf(int64(3))}, nil)
	if err != nil || segs != nil || len(out) == 0 {
		t.Fatalf("small tuple: out %d bytes, pieces %v, err %v", len(out), segs, err)
	}
}

// TestUnmarshalViewAliasesOnlyLongValues: with a viewMin, a []byte at
// least that long is the very stretch of the input it was decoded from,
// clipped so that appending to it cannot touch what follows; anything
// shorter — here each of 256 4 KiB pieces of a megabyte — is a copy, as
// is everything when viewMin is zero.
func TestUnmarshalViewAliasesOnlyLongValues(t *testing.T) {
	p := New(NewRegistry(), nil)
	registerDeep(p, reflect.TypeOf(twoBlobs{}), map[reflect.Type]bool{})
	val := twoBlobs{Name: "x", First: seeded(600<<10, 1), N: 9, Last: seeded(100<<10, 2)}
	data, err := p.MarshalSession(nil, []reflect.Value{reflect.ValueOf(val)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	types := []reflect.Type{reflect.TypeOf(val)}
	decode := func(viewMin int) twoBlobs {
		vs, err := p.UnmarshalView(data, types, nil, viewMin)
		if err != nil {
			t.Fatal(err)
		}
		got := vs[0].Interface().(twoBlobs)
		if !reflect.DeepEqual(got, val) {
			t.Fatal("decoded value differs")
		}
		return got
	}
	got := decode(len(data) / 4)
	if !within(got.First, data) {
		t.Fatal("a value over a quarter of the input was copied")
	}
	if cap(got.First) != len(got.First) {
		t.Fatal("a view's capacity runs on into the rest of the input")
	}
	if within(got.Last, data) {
		t.Fatal("a value under viewMin aliases the input")
	}
	// Appending to the view must not write into the input.
	before := bytes.Clone(data)
	_ = append(got.First, 0xEE)
	if !bytes.Equal(data, before) {
		t.Fatal("append to a view wrote into the input")
	}
	if got := decode(0); within(got.First, data) || within(got.Last, data) {
		t.Fatal("viewMin 0 returned a view")
	}

	many := make([][]byte, 256)
	for i := range many {
		many[i] = seeded(4<<10, byte(i))
	}
	data, err = p.MarshalSession(nil, []reflect.Value{reflect.ValueOf(many)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := p.UnmarshalView(data, []reflect.Type{reflect.TypeOf(many)}, nil, len(data)/4)
	if err != nil {
		t.Fatal(err)
	}
	for i, piece := range vs[0].Interface().([][]byte) {
		if within(piece, data) {
			t.Fatalf("piece %d of 256 x 4 KiB aliases the input: together they would pin it for 4 KiB", i)
		}
		if !bytes.Equal(piece, many[i]) {
			t.Fatalf("piece %d differs", i)
		}
	}

	// Dynamic decoding follows the same rule.
	data, err = p.MarshalAnySession(nil, []any{val.First, int64(1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	anys, err := p.UnmarshalAnyView(data, nil, len(data)/4)
	if err != nil {
		t.Fatal(err)
	}
	if b := anys[0].([]byte); !within(b, data) || !bytes.Equal(b, val.First) {
		t.Fatal("a large []byte inside an interface value was not returned as a view")
	}
}
