package pickle

import (
	"reflect"
	"testing"
)

type ifaceA interface {
	Get(key string) (int, error)
	Put(key string, v int) error
}

type ifaceASame interface {
	Get(key string) (int, error)
	Put(key string, v int) error
}

type ifaceB interface {
	Get(key string) (int64, error) // differs in result type
	Put(key string, v int) error
}

type implA struct{}

func (implA) Get(string) (int, error)     { return 0, nil }
func (implA) Put(string, int) error       { return nil }
func (implA) extraUnexported() (int, int) { return 0, 0 }

func ifType[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

func TestFingerprintStability(t *testing.T) {
	a1 := Fingerprint(ifType[ifaceA]())
	a2 := Fingerprint(ifType[ifaceA]())
	if a1 != a2 {
		t.Fatal("fingerprint not deterministic")
	}
	if a1 == 0 {
		t.Fatal("zero fingerprint is reserved")
	}
}

func TestFingerprintStructuralEquality(t *testing.T) {
	if Fingerprint(ifType[ifaceA]()) != Fingerprint(ifType[ifaceASame]()) {
		t.Fatal("structurally identical interfaces should fingerprint equal")
	}
}

func TestFingerprintDetectsSignatureChange(t *testing.T) {
	if Fingerprint(ifType[ifaceA]()) == Fingerprint(ifType[ifaceB]()) {
		t.Fatal("different signatures should fingerprint differently")
	}
}

func TestFingerprintConcreteMatchesInterface(t *testing.T) {
	// A concrete implementation whose exported method set equals the
	// interface's must produce the same fingerprint, so dispatchers can
	// check a stub fingerprint against the concrete object.
	got := Fingerprint(reflect.TypeOf(implA{}))
	want := Fingerprint(ifType[ifaceA]())
	if got != want {
		t.Fatalf("concrete %x != interface %x", got, want)
	}
}

// TestFingerprintMemoMatchesDescription: the memoized fingerprint of every
// type is the one its method set describes, on the first call and after.
func TestFingerprintMemoMatchesDescription(t *testing.T) {
	for _, typ := range []reflect.Type{
		ifType[ifaceA](), ifType[ifaceASame](), ifType[ifaceB](), ifType[any](), ifType[error](),
		reflect.TypeOf(implA{}), reflect.TypeOf(&implA{}), reflect.TypeOf(0), reflect.TypeOf(&Registry{}),
	} {
		for i := 0; i < 2; i++ {
			if got, want := Fingerprint(typ), fingerprint(typ); got != want {
				t.Fatalf("%v, call %d: memoized %x, described %x", typ, i+1, got, want)
			}
		}
	}
}

func TestFingerprintEmptyInterface(t *testing.T) {
	if Fingerprint(ifType[any]()) == 0 {
		t.Fatal("empty method set must still fingerprint non-zero")
	}
}
