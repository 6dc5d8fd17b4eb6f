// Package distarray is the bulk data plane of the network objects
// runtime: partitioned distributed byte arrays whose partitions are
// network objects owned by worker spaces, while the coordinating host
// holds only references. An Array descriptor pickles as a vector of
// partition references, so passing an array in any call is a third-party
// transfer of every partition — the receiver talks to each owner
// directly and the sender never relays a byte. On top of the array layer
// sits a bulk-synchronous phase Driver (one-way kickoffs fenced by
// pipelined barriers) and a distributed LSD radix sort whose shuffle is
// pure worker-to-worker traffic: the host computes histogram-sized plans
// and provably moves O(workers x buckets) bytes while the workers move
// O(data).
package distarray

import (
	"context"
	"fmt"

	"netobjects"
	"netobjects/internal/pickle"
)

func init() {
	// Let descriptors travel in dynamically-typed calls (Ref.Call and
	// friends) as well as in the generated typed stubs.
	pickle.Register(Array{})
	pickle.Register(Digest{})
	pickle.Register(StoreReport{})
}

// Register declares the package's remote interfaces on sp and installs
// their stub factories. Every participating space — host and workers —
// must call it before exchanging distarray references.
func Register(sp *netobjects.Space) error {
	// Spaces constructed over a private registry miss the init()
	// registrations above; install the descriptors there too, so dynamic
	// calls can carry them regardless of the space's registry.
	for _, v := range []any{Array{}, Digest{}, StoreReport{}} {
		sp.Pickler().Registry().Register(v)
	}
	if err := RegisterPartition(sp); err != nil {
		return err
	}
	if err := RegisterStore(sp); err != nil {
		return err
	}
	return RegisterSorter(sp)
}

// StoreReport summarises a store's live partitions.
type StoreReport struct {
	// Partitions is the number of live root partitions (views excluded).
	Partitions int64
	// Bytes is the total backing storage held.
	Bytes int64
	// FetchBytes and PutBytes count payload bytes served since creation.
	FetchBytes int64
	PutBytes   int64
}

// Digest is a worker's order-and-content fingerprint of its local keys,
// enough for the host to verify a distributed sort without reading any
// element: per-worker sortedness plus boundary keys prove the global
// order, and the count/sum/xor conservation proves the multiset
// survived the shuffles.
type Digest struct {
	Count  int64
	First  uint32
	Last   uint32
	Sum    uint64
	Xor    uint32
	Sorted bool
}

// Array describes a partitioned distributed array: the ordered
// partitions and their lengths in bytes. The descriptor is plain data —
// pickling it emits one wireRep per partition, each pinned transiently
// dirty while in transit like any reference argument — so an Array can
// travel in calls, inside other structures, or through the name agent, and
// every receiver ends up holding direct references to the owners.
type Array struct {
	Parts []Partition
	Lens  []int64
}

// New allocates an n-byte array split across stores into contiguous,
// near-equal partitions (earlier stores get the remainder bytes). The
// caller's space holds only the returned references.
func New(ctx context.Context, stores []Store, n int64) (Array, error) {
	if len(stores) == 0 {
		return Array{}, fmt.Errorf("distarray: no stores")
	}
	if n < 0 {
		return Array{}, fmt.Errorf("distarray: negative length %d", n)
	}
	p := int64(len(stores))
	per, extra := n/p, n%p
	a := Array{Parts: make([]Partition, 0, p), Lens: make([]int64, 0, p)}
	for i, st := range stores {
		sz := per
		if int64(i) < extra {
			sz++
		}
		part, err := st.Alloc(ctx, sz)
		if err != nil {
			return Array{}, fmt.Errorf("distarray: alloc on store %d: %w", i, err)
		}
		a.Parts = append(a.Parts, part)
		a.Lens = append(a.Lens, sz)
	}
	return a, nil
}

// Len is the array's total length in bytes.
func (a Array) Len() int64 {
	var n int64
	for _, l := range a.Lens {
		n += l
	}
	return n
}

// locate maps a global offset to (partition index, local offset).
func (a Array) locate(off int64) (int, int64, error) {
	for i, l := range a.Lens {
		if off < l {
			return i, off, nil
		}
		off -= l
	}
	return 0, 0, fmt.Errorf("distarray: offset beyond array end")
}

// Fetch reads [off, off+n) across partition boundaries. It is a
// convenience for verification and small reads — a host that calls it on
// bulk data is, by definition, touching the data.
func (a Array) Fetch(ctx context.Context, off, n int64) ([]byte, error) {
	if n < 0 || off < 0 || off+n > a.Len() {
		return nil, fmt.Errorf("distarray: fetch [%d,%d) out of range", off, off+n)
	}
	out := make([]byte, 0, n)
	for n > 0 {
		i, lo, err := a.locate(off)
		if err != nil {
			return nil, err
		}
		take := min(n, a.Lens[i]-lo)
		b, err := a.Parts[i].Fetch(ctx, lo, take)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
		off += take
		n -= take
	}
	return out, nil
}

// Put writes data at off across partition boundaries.
func (a Array) Put(ctx context.Context, off int64, data []byte) error {
	if off < 0 || off+int64(len(data)) > a.Len() {
		return fmt.Errorf("distarray: put [%d,%d) out of range", off, off+int64(len(data)))
	}
	for len(data) > 0 {
		i, lo, err := a.locate(off)
		if err != nil {
			return err
		}
		take := min(int64(len(data)), a.Lens[i]-lo)
		if err := a.Parts[i].Put(ctx, lo, data[:take]); err != nil {
			return err
		}
		off += take
		data = data[take:]
	}
	return nil
}
