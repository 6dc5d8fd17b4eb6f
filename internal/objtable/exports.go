// Package objtable implements the per-space object tables of the network
// objects runtime: the export table an owner keeps for its concrete
// objects, and the import table a client keeps for its surrogates.
//
// The export table records, per exported object, the dirty set — which
// client spaces hold surrogates — together with the largest dirty/clean
// sequence number seen from each client, and a pin count standing in for
// the transient dirty entries that keep an object alive while a reference
// to it is in transit. The import table drives each remote reference
// through the life cycle of Birrell's algorithm, including the ccitnil
// state ("clean call in transit, reference wanted again") that the
// formalisation showed is required for correctness.
//
// Both tables are striped across a power-of-two number of shards so that
// a space holding millions of live objects under hundreds of concurrent
// callers never funnels every call through one mutex. Each entry lives
// wholly inside one shard — the export table allocates indices per shard
// with a stride equal to the shard count, so an object's identity slot
// (byObj) and its index slot (byIndex) are always guarded by the same
// lock — which keeps every state transition the same atomic critical
// section the formal rules require, just striped.
//
// The package is pure bookkeeping: it performs no I/O and holds no locks
// while the runtime is on the network.
package objtable

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"netobjects/internal/obs"
	"netobjects/internal/wire"
)

// DefaultShards is the shard count tables are created with. Power of two;
// sized so that 256 concurrent callers rarely collide on a shard while
// the per-space footprint stays trivial (two small maps per shard).
const DefaultShards = 128

// Export table errors.
var (
	// ErrNoSuchObject reports an operation on an index absent from the
	// export table (never exported, withdrawn, or already collected).
	ErrNoSuchObject = errors.New("objtable: no such exported object")
	// ErrNotExportable reports an attempt to export a value that cannot be
	// tracked by identity.
	ErrNotExportable = errors.New("objtable: object is not exportable (must be a pointer or other comparable reference type)")
	// ErrIndexInUse reports an ExportAt collision on a well-known index.
	ErrIndexInUse = errors.New("objtable: index already in use")
)

// normShards clamps a shard count to a power of two, defaulting when
// non-positive. A count of 1 is a valid (unsharded) configuration, used
// by benchmarks as the contention baseline.
func normShards(n int) int {
	if n <= 0 {
		return DefaultShards
	}
	p := 1
	for p < n && p < 1<<16 {
		p <<= 1
	}
	return p
}

// objHash distributes an exportable object's identity word across shards.
// Exportable kinds (pointer, chan, map, unsafe pointer) all carry their
// identity as a single pointer word; a Fibonacci multiply spreads the
// allocator's alignment patterns across the shard space.
func objHash(obj any) uint64 {
	h := uint64(reflect.ValueOf(obj).Pointer())
	h ^= h >> 33
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h
}

// ExportEntry is the owner-side record for one exported object.
// All mutation goes through Exports methods; an entry obtained from
// Lookup must be treated as read-only snapshot data.
type ExportEntry struct {
	// Index is the object's slot in the table.
	Index uint64
	// Obj is the concrete object.
	Obj any
	// Fingerprints are the method-set fingerprints accepted on typed
	// calls: the concrete object's own, plus those of the remote
	// interfaces it was exported as implementing.
	Fingerprints []uint64
	// Pinned marks well-known objects (such as the agent) that are never
	// withdrawn even with an empty dirty set.
	Pinned bool

	clients map[wire.SpaceID]*clientInfo
	pins    int
}

// clientInfo tracks one client space's relationship to an exported object.
type clientInfo struct {
	// inSet reports current dirty-set membership.
	inSet bool
	// lastSeq is the largest dirty/clean sequence number seen from the
	// client; operations with seq <= lastSeq are ignored (Birrell's
	// sequence-number rule for out-of-order calls).
	lastSeq uint64
	// endpoints is where the owner can ping the client.
	endpoints []string
}

// exportShard is one stripe of the table: a slice of the index space
// (indices congruent to the shard's position, modulo the shard count)
// plus the identity map for the objects whose entries live here. Both
// maps are made at their first insert (setIndex, setObj): a space is
// built with every shard empty, and most stay so.
type exportShard struct {
	mu      sync.Mutex
	next    uint64
	byIndex map[uint64]*ExportEntry
	byObj   map[any]uint64
}

func (s *exportShard) setIndex(ix uint64, e *ExportEntry) {
	if s.byIndex == nil {
		s.byIndex = make(map[uint64]*ExportEntry)
	}
	s.byIndex[ix] = e
}

func (s *exportShard) setObj(obj any, ix uint64) {
	if s.byObj == nil {
		s.byObj = make(map[any]uint64)
	}
	s.byObj[obj] = ix
}

// Exports is the export table of one space. The zero value is not usable;
// construct with NewExports. Exports is safe for concurrent use.
type Exports struct {
	shards []exportShard
	mask   uint64

	// contention counts lock acquisitions that found their shard already
	// held — the signal that the shard count is too low for the load.
	contention atomic.Uint64

	// OnWithdraw, if non-nil, is called (without any shard lock) after an
	// entry is removed from the table because its dirty set emptied. The
	// runtime uses it for tracing; tests use it to observe collection.
	OnWithdraw func(index uint64, obj any)
}

// NewExports returns an empty export table with the default shard count.
func NewExports() *Exports { return NewExportsSharded(DefaultShards) }

// NewExportsSharded returns an empty export table striped across n shards
// (rounded up to a power of two; n <= 1 yields a single-shard table, the
// benchmark baseline).
func NewExportsSharded(n int) *Exports {
	n = normShards(n)
	e := &Exports{shards: make([]exportShard, n), mask: uint64(n - 1)}
	for i := range e.shards {
		s := &e.shards[i]
		// The smallest index >= FirstUserIndex congruent to i (mod n), so
		// every index this shard allocates hashes back to it.
		s.next = uint64(i)
		for s.next < wire.FirstUserIndex {
			s.next += uint64(n)
		}
	}
	return e
}

// ShardCount reports the table's shard count.
func (e *Exports) ShardCount() int { return len(e.shards) }

// Contention reports how many lock acquisitions found their shard busy.
func (e *Exports) Contention() uint64 { return e.contention.Load() }

// shardForIndex returns the shard guarding index.
func (e *Exports) shardForIndex(index uint64) *exportShard {
	return &e.shards[index&e.mask]
}

// shardForObj returns the shard a fresh export of obj would live in.
func (e *Exports) shardForObj(obj any) *exportShard {
	return &e.shards[objHash(obj)&e.mask]
}

// lock acquires a shard, counting the acquisitions that had to wait.
func (e *Exports) lock(s *exportShard) {
	if !s.mu.TryLock() {
		e.contention.Add(1)
		s.mu.Lock()
	}
}

// exportable reports whether obj can be used as an identity map key.
func exportable(obj any) bool {
	if obj == nil {
		return false
	}
	switch reflect.TypeOf(obj).Kind() {
	case reflect.Pointer, reflect.Chan, reflect.Map, reflect.UnsafePointer:
		return true
	default:
		// Values are copied on interface conversion, so identity would be
		// meaningless even when the kind is comparable.
		return false
	}
}

// Export adds obj to the table (or finds its existing entry) and returns
// its index. Export is idempotent per object: marshaling the same concrete
// object twice yields the same wireRep while the entry lives.
func (e *Exports) Export(obj any, fingerprints []uint64) (uint64, error) {
	if !exportable(obj) {
		return 0, fmt.Errorf("%w: %T", ErrNotExportable, obj)
	}
	s := e.shardForObj(obj)
	e.lock(s)
	defer s.mu.Unlock()
	if ix, ok := s.byObj[obj]; ok {
		return ix, nil
	}
	ix := s.next
	for {
		// Skip over indices claimed by ExportAt (well-known slots may land
		// anywhere in the index space).
		if _, taken := s.byIndex[ix]; !taken {
			break
		}
		ix += uint64(len(e.shards))
	}
	s.next = ix + uint64(len(e.shards))
	s.setIndex(ix, &ExportEntry{
		Index:        ix,
		Obj:          obj,
		Fingerprints: fingerprints,
		clients:      make(map[wire.SpaceID]*clientInfo),
	})
	s.setObj(obj, ix)
	return ix, nil
}

// ExportAt places obj at a specific well-known index and pins it there.
// It is how the bootstrap agent claims wire.AgentIndex. A pinned entry is
// never withdrawn, so — uniquely — its identity slot may live in a
// different shard from its index slot; the two inserts are sequential.
func (e *Exports) ExportAt(obj any, index uint64, fingerprints []uint64) error {
	if !exportable(obj) {
		return fmt.Errorf("%w: %T", ErrNotExportable, obj)
	}
	if index == wire.InvalidIndex {
		return fmt.Errorf("objtable: cannot export at the invalid index")
	}
	objShard := e.shardForObj(obj)
	e.lock(objShard)
	if _, ok := objShard.byObj[obj]; ok {
		objShard.mu.Unlock()
		return fmt.Errorf("objtable: object already exported")
	}
	// Reserve the identity slot first so a concurrent Export of the same
	// object cannot race past; roll it back if the index is taken.
	objShard.setObj(obj, index)
	objShard.mu.Unlock()

	ixShard := e.shardForIndex(index)
	e.lock(ixShard)
	if _, ok := ixShard.byIndex[index]; ok {
		ixShard.mu.Unlock()
		e.lock(objShard)
		delete(objShard.byObj, obj)
		objShard.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrIndexInUse, index)
	}
	ixShard.setIndex(index, &ExportEntry{
		Index:        index,
		Obj:          obj,
		Fingerprints: fingerprints,
		Pinned:       true,
		clients:      make(map[wire.SpaceID]*clientInfo),
	})
	ixShard.mu.Unlock()
	return nil
}

// AcceptsFingerprint reports whether fp is one of the entry's accepted
// method-set fingerprints.
func (ent *ExportEntry) AcceptsFingerprint(fp uint64) bool {
	for _, f := range ent.Fingerprints {
		if f == fp {
			return true
		}
	}
	return false
}

// Lookup returns the entry at index. The returned entry must be treated as
// read-only.
func (e *Exports) Lookup(index uint64) (*ExportEntry, bool) {
	s := e.shardForIndex(index)
	e.lock(s)
	ent, ok := s.byIndex[index]
	s.mu.Unlock()
	return ent, ok
}

// IndexOf returns the index obj is currently exported at, if any.
func (e *Exports) IndexOf(obj any) (uint64, bool) {
	if !exportable(obj) {
		return 0, false
	}
	s := e.shardForObj(obj)
	e.lock(s)
	ix, ok := s.byObj[obj]
	s.mu.Unlock()
	return ix, ok
}

// Dirty applies a dirty call: client joins the dirty set of the object at
// index, provided seq exceeds the largest sequence number already seen
// from that client. Stale calls are ignored without error, per the paper.
func (e *Exports) Dirty(index uint64, client wire.SpaceID, seq uint64, endpoints []string) error {
	s := e.shardForIndex(index)
	e.lock(s)
	defer s.mu.Unlock()
	ent, ok := s.byIndex[index]
	if !ok {
		return fmt.Errorf("%w: index %d", ErrNoSuchObject, index)
	}
	ci := ent.clients[client]
	if ci == nil {
		ci = &clientInfo{}
		ent.clients[client] = ci
	}
	if seq <= ci.lastSeq {
		return nil // out-of-order duplicate: no effect
	}
	ci.lastSeq = seq
	ci.inSet = true
	if len(endpoints) > 0 {
		ci.endpoints = endpoints
	}
	return nil
}

// Clean applies a clean call: client leaves the dirty set if seq exceeds
// the largest sequence number seen. Cleans for unknown objects or clients
// are no-ops, as the paper specifies ("if it is not in the set, the clean
// call is a no-op"). Withdrawn objects are reported via OnWithdraw.
func (e *Exports) Clean(index uint64, client wire.SpaceID, seq uint64, strong bool) {
	s := e.shardForIndex(index)
	e.lock(s)
	ent, ok := s.byIndex[index]
	if !ok {
		s.mu.Unlock()
		return
	}
	ci := ent.clients[client]
	if ci == nil {
		// A strong clean must leave a tombstone so the dirty call it
		// cancels is ignored if it arrives later.
		if strong {
			ent.clients[client] = &clientInfo{lastSeq: seq}
		}
		s.mu.Unlock()
		return
	}
	// The sequence rule applies to strong cleans too: a strong clean that
	// has been overtaken by a later dirty call (a fresh registration)
	// must not clear it. "Strong" only changes the handling of unknown
	// clients above, where a tombstone must be left for the dirty call
	// the strong clean cancels.
	if seq <= ci.lastSeq {
		s.mu.Unlock()
		return
	}
	ci.lastSeq = seq
	ci.inSet = false
	withdrawn := e.maybeWithdrawLocked(s, ent)
	s.mu.Unlock()
	if withdrawn != nil && e.OnWithdraw != nil {
		e.OnWithdraw(withdrawn.Index, withdrawn.Obj)
	}
}

// Pin adds a transient dirty entry: the object at index must survive while
// a reference to it is in transit. Pins nest.
func (e *Exports) Pin(index uint64) error {
	s := e.shardForIndex(index)
	e.lock(s)
	defer s.mu.Unlock()
	ent, ok := s.byIndex[index]
	if !ok {
		return fmt.Errorf("%w: index %d", ErrNoSuchObject, index)
	}
	ent.pins++
	return nil
}

// Unpin removes a transient dirty entry, withdrawing the object if that
// leaves it unreferenced.
func (e *Exports) Unpin(index uint64) {
	s := e.shardForIndex(index)
	e.lock(s)
	ent, ok := s.byIndex[index]
	if !ok {
		s.mu.Unlock()
		return
	}
	if ent.pins > 0 {
		ent.pins--
	}
	withdrawn := e.maybeWithdrawLocked(s, ent)
	s.mu.Unlock()
	if withdrawn != nil && e.OnWithdraw != nil {
		e.OnWithdraw(withdrawn.Index, withdrawn.Obj)
	}
}

// maybeWithdrawLocked removes ent from its shard if nothing references it:
// no dirty-set member, no transient pin, not a pinned well-known object.
// It returns the entry if it was withdrawn. The caller holds s.mu; every
// non-pinned entry's byIndex and byObj slots live in the same shard, so
// the removal is one critical section.
func (e *Exports) maybeWithdrawLocked(s *exportShard, ent *ExportEntry) *ExportEntry {
	if ent.Pinned || ent.pins > 0 {
		return nil
	}
	for _, ci := range ent.clients {
		if ci.inSet {
			return nil
		}
	}
	delete(s.byIndex, ent.Index)
	delete(s.byObj, ent.Obj)
	return ent
}

// Sweep withdraws every unpinned entry whose dirty set is empty and that
// has no reference in transit, returning the withdrawn indices. Emptiness
// is normally acted on at clean/unpin transitions; Sweep is the
// local-collector integration point for entries that never made those
// transitions (exported but never imported) — the "object table cleanup"
// of the paper. Shards are swept one at a time; the table is never
// globally locked.
func (e *Exports) Sweep() []uint64 {
	var withdrawn []*ExportEntry
	for i := range e.shards {
		s := &e.shards[i]
		e.lock(s)
		for _, ent := range s.byIndex {
			if w := e.maybeWithdrawLocked(s, ent); w != nil {
				withdrawn = append(withdrawn, w)
			}
		}
		s.mu.Unlock()
	}
	ixs := make([]uint64, 0, len(withdrawn))
	for _, w := range withdrawn {
		ixs = append(ixs, w.Index)
		if e.OnWithdraw != nil {
			e.OnWithdraw(w.Index, w.Obj)
		}
	}
	return ixs
}

// DropClient removes client from every dirty set — the owner's response to
// a client it believes has terminated — and returns the indices withdrawn
// as a result.
func (e *Exports) DropClient(client wire.SpaceID) []uint64 {
	var withdrawn []*ExportEntry
	for i := range e.shards {
		s := &e.shards[i]
		e.lock(s)
		for _, ent := range s.byIndex {
			if _, ok := ent.clients[client]; !ok {
				continue
			}
			delete(ent.clients, client)
			if w := e.maybeWithdrawLocked(s, ent); w != nil {
				withdrawn = append(withdrawn, w)
			}
		}
		s.mu.Unlock()
	}
	ixs := make([]uint64, 0, len(withdrawn))
	for _, w := range withdrawn {
		ixs = append(ixs, w.Index)
		if e.OnWithdraw != nil {
			e.OnWithdraw(w.Index, w.Obj)
		}
	}
	return ixs
}

// Clients snapshots every client currently in some dirty set, with the
// endpoints it can be pinged at. The ping daemon drives on this.
func (e *Exports) Clients() map[wire.SpaceID][]string {
	out := make(map[wire.SpaceID][]string)
	for i := range e.shards {
		s := &e.shards[i]
		e.lock(s)
		for _, ent := range s.byIndex {
			for id, ci := range ent.clients {
				if ci.inSet && out[id] == nil {
					out[id] = ci.endpoints
				}
			}
		}
		s.mu.Unlock()
	}
	return out
}

// HoldsDirty reports whether client is in the dirty set of the object at
// index; exposed for tests and the benchmark harness.
func (e *Exports) HoldsDirty(index uint64, client wire.SpaceID) bool {
	s := e.shardForIndex(index)
	e.lock(s)
	defer s.mu.Unlock()
	ent, ok := s.byIndex[index]
	if !ok {
		return false
	}
	ci := ent.clients[client]
	return ci != nil && ci.inSet
}

// DebugDump renders the table state for tests and troubleshooting.
func (e *Exports) DebugDump() string {
	var b strings.Builder
	for i := range e.shards {
		s := &e.shards[i]
		e.lock(s)
		for ix, ent := range s.byIndex {
			fmt.Fprintf(&b, "ix=%d obj=%T pins=%d pinned=%v members=[", ix, ent.Obj, ent.pins, ent.Pinned)
			for id, ci := range ent.clients {
				if ci.inSet {
					fmt.Fprintf(&b, "%v ", id)
				}
			}
			b.WriteString("]\n")
		}
		s.mu.Unlock()
	}
	return b.String()
}

// Len reports the number of live export entries.
func (e *Exports) Len() int {
	n := 0
	for i := range e.shards {
		s := &e.shards[i]
		e.lock(s)
		n += len(s.byIndex)
		s.mu.Unlock()
	}
	return n
}

// Snapshot dumps the table for the live debug page, sorted by index, with
// each entry's dirty-set members sorted by client id.
func (e *Exports) Snapshot() []obs.ExportInfo {
	var out []obs.ExportInfo
	for i := range e.shards {
		s := &e.shards[i]
		e.lock(s)
		for _, ent := range s.byIndex {
			info := obs.ExportInfo{
				Index:  ent.Index,
				Type:   fmt.Sprintf("%T", ent.Obj),
				Pinned: ent.Pinned,
				Pins:   ent.pins,
			}
			for id, ci := range ent.clients {
				if !ci.inSet {
					continue
				}
				info.Dirty = append(info.Dirty, obs.DirtyInfo{
					Client:    id.String(),
					Seq:       ci.lastSeq,
					Endpoints: append([]string(nil), ci.endpoints...),
				})
			}
			sort.Slice(info.Dirty, func(i, j int) bool { return info.Dirty[i].Client < info.Dirty[j].Client })
			out = append(out, info)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
