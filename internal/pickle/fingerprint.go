package pickle

import (
	"hash/fnv"
	"reflect"
	"strings"
	"sync"
)

// fingerprints memoizes Fingerprint (reflect.Type -> uint64): a type's
// method set never changes, so neither does its fingerprint.
var fingerprints sync.Map

// Fingerprint computes a stable hash of a type's method set: method names
// plus parameter and result type names, in declaration order. Stubs embed
// the fingerprint of the interface they were generated from in every call,
// and the dispatcher rejects calls whose fingerprint does not match the
// exported object's — the network objects analogue of stub version
// checking. A zero fingerprint in a call means "unchecked". Each type is
// described once per process; later calls are a map lookup.
func Fingerprint(t reflect.Type) uint64 {
	if fp, ok := fingerprints.Load(t); ok {
		return fp.(uint64)
	}
	fp := fingerprint(t)
	fingerprints.Store(t, fp)
	return fp
}

// fingerprint is Fingerprint without the memo.
func fingerprint(t reflect.Type) uint64 {
	h := fnv.New64a()
	h.Write([]byte(describeMethodSet(t)))
	fp := h.Sum64()
	if fp == 0 {
		// Zero is reserved for "unchecked"; remap the (vanishingly
		// unlikely) colliding hash.
		fp = 1
	}
	return fp
}

// describeMethodSet renders the method set of t canonically. For interface
// types the receiver is absent from the signature; for concrete types the
// exported method set is used, skipping the receiver parameter, so a
// concrete implementation and the interface it satisfies produce the same
// description for their shared methods.
func describeMethodSet(t reflect.Type) string {
	var b strings.Builder
	isIface := t.Kind() == reflect.Interface
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		if !m.IsExported() {
			continue
		}
		b.WriteString(m.Name)
		b.WriteByte('(')
		ft := m.Type
		first := 0
		if !isIface {
			first = 1 // skip the receiver
		}
		for j := first; j < ft.NumIn(); j++ {
			if j > first {
				b.WriteByte(',')
			}
			b.WriteString(TypeName(ft.In(j)))
		}
		b.WriteString(")(")
		for j := 0; j < ft.NumOut(); j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(TypeName(ft.Out(j)))
		}
		b.WriteString(");")
	}
	return b.String()
}
