package objtable

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"netobjects/internal/obs"
	"netobjects/internal/wire"
)

// State is a remote reference's position in the life cycle of Birrell's
// algorithm, as refined by the formalisation. The absent-from-table state
// (⊥, "pre-existence") is represented by the entry not existing.
type State int

// Reference life-cycle states.
const (
	// StateNone is ⊥: the reference does not exist in this space. Entries
	// never carry this state; it is returned by StateOf for absent keys.
	StateNone State = iota
	// StateNil: the reference has been received but the dirty call that
	// registers it with the owner has not completed; unmarshaling blocks.
	StateNil
	// StateOK: registered and usable.
	StateOK
	// StateOKQueued: usable but locally released — a clean call has been
	// scheduled (clean_call_todo) and not yet sent, so a newly received
	// copy can still resurrect the reference without any messages.
	StateOKQueued
	// StateCcit: "clean call in transit" — the clean call has been sent
	// and its acknowledgement is pending; the reference is unusable.
	StateCcit
	// StateCcitNil: a clean call is in transit but a new copy of the
	// reference arrived; after the clean ack a fresh dirty call is made.
	// This is the state Birrell's description lacked.
	StateCcitNil
)

// String names the state, matching the paper's vocabulary.
func (s State) String() string {
	switch s {
	case StateNone:
		return "⊥"
	case StateNil:
		return "nil"
	case StateOK:
		return "OK"
	case StateOKQueued:
		return "OK+todo"
	case StateCcit:
		return "ccit"
	case StateCcitNil:
		return "ccitnil"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Action tells an Acquire caller what to do next.
type Action int

// Acquire outcomes.
const (
	// ActionUse: the reference is usable now; take the surrogate.
	ActionUse Action = iota
	// ActionRegister: the caller created the entry and owns registration —
	// it must perform the dirty call and report through FinishRegister.
	ActionRegister
	// ActionWait: another goroutine (or the cleaner) is driving the life
	// cycle; block in Wait until the state settles.
	ActionWait
)

// Import errors.
var (
	// ErrReleased reports a call through a reference after Release.
	ErrReleased = errors.New("objtable: reference has been released")
	// ErrNotUsable reports an operation requiring StateOK on a reference
	// in another state.
	ErrNotUsable = errors.New("objtable: reference is not usable")
	// ErrRegistration wraps a failed dirty call reported to waiters.
	ErrRegistration = errors.New("objtable: reference registration failed")
)

// ImportEntry is the client-side record for one remote reference.
// All fields are guarded by the entry's shard in the owning Imports table.
type ImportEntry struct {
	Key       wire.Key
	Endpoints []string

	state     State
	surrogate any
	gen       uint64
	pins      int
	// holds counts independent local claims on the reference (Retain adds
	// one, Release drops one); the life-cycle release transition fires only
	// when the last hold is dropped. A usable entry normally carries one.
	holds       int
	wantRelease bool
	dead        bool
	err         error
}

// importShard is one stripe of the import table. Each key lives wholly in
// one shard; the shard's condition variable carries the state-change
// broadcasts for the keys it guards. The maps are made at their first
// insert: most shards of most tables never see one, and a table is built
// for every space.
type importShard struct {
	mu      sync.Mutex
	cond    sync.Cond // L is &mu
	entries map[wire.Key]*ImportEntry
	// lastSeq survives entry deletion: Birrell's sequence numbers must
	// increase across successive lifecycles of the same reference at the
	// same client, or the owner would discard a re-registration as stale.
	lastSeq map[wire.Key]uint64
	// lastGen survives entry deletion for the same reason lastSeq does,
	// but for the surrogate generation counter: a finalizer-driven cleanup
	// armed in one lifecycle may fire after the reference has been
	// released and re-imported, and generations must keep increasing or
	// the stale cleanup would match the fresh entry and release it out
	// from under live users.
	lastGen map[wire.Key]uint64
}

// Imports is the import (surrogate) table of one space. Construct with
// NewImports; safe for concurrent use.
type Imports struct {
	shards []importShard
	mask   uint64

	// contention counts lock acquisitions that found their shard held.
	contention atomic.Uint64
}

// NewImports returns an empty import table with the default shard count.
func NewImports() *Imports { return NewImportsSharded(DefaultShards) }

// NewImportsSharded returns an empty import table striped across n shards
// (rounded up to a power of two; n <= 1 yields a single-shard table).
func NewImportsSharded(n int) *Imports {
	n = normShards(n)
	im := &Imports{shards: make([]importShard, n), mask: uint64(n - 1)}
	for i := range im.shards {
		im.shards[i].cond.L = &im.shards[i].mu
	}
	return im
}

// ShardCount reports the table's shard count.
func (im *Imports) ShardCount() int { return len(im.shards) }

// Contention reports how many lock acquisitions found their shard busy.
func (im *Imports) Contention() uint64 { return im.contention.Load() }

// keyHash spreads keys across shards: indices are sequential per owner,
// so both halves feed the mix.
func keyHash(k wire.Key) uint64 {
	h := k.Index ^ (uint64(k.Owner) * 0xC2B2AE3D27D4EB4F)
	h ^= h >> 33
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h
}

// shardFor returns the shard guarding key.
func (im *Imports) shardFor(key wire.Key) *importShard {
	return &im.shards[keyHash(key)&im.mask]
}

// lock acquires a shard, counting the acquisitions that had to wait.
func (im *Imports) lock(s *importShard) {
	if !s.mu.TryLock() {
		im.contention.Add(1)
		s.mu.Lock()
	}
}

// nextSeqLocked allocates the next dirty/clean sequence number for key.
func (s *importShard) nextSeqLocked(key wire.Key) uint64 {
	if s.lastSeq == nil {
		s.lastSeq = make(map[wire.Key]uint64)
	}
	s.lastSeq[key]++
	return s.lastSeq[key]
}

// dropLocked removes key's entry, banking its generation counter so the
// next lifecycle of the same key resumes from it rather than from zero.
func (s *importShard) dropLocked(key wire.Key, e *ImportEntry) {
	if e.gen > 0 {
		if s.lastGen == nil {
			s.lastGen = make(map[wire.Key]uint64)
		}
		s.lastGen[key] = e.gen
	}
	delete(s.entries, key)
}

// NextSeq allocates a sequence number outside any entry lifecycle; the
// runtime uses it for strong cleans after a failed dirty call.
func (im *Imports) NextSeq(key wire.Key) uint64 {
	s := im.shardFor(key)
	im.lock(s)
	defer s.mu.Unlock()
	return s.nextSeqLocked(key)
}

// Acquire is the receive_copy transition: a wireRep for key has arrived.
// It returns the entry and the action the caller must take. For
// ActionRegister the returned seq is the dirty call's sequence number.
func (im *Imports) Acquire(key wire.Key, endpoints []string) (ent *ImportEntry, act Action, seq uint64) {
	s := im.shardFor(key)
	im.lock(s)
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		// gen resumes where the previous lifecycle left off (see lastGen),
		// so a cleanup armed before the entry died can never match again.
		e = &ImportEntry{Key: key, Endpoints: endpoints, state: StateNil, gen: s.lastGen[key]}
		if s.entries == nil {
			s.entries = make(map[wire.Key]*ImportEntry)
		}
		s.entries[key] = e
		return e, ActionRegister, s.nextSeqLocked(key)
	}
	if len(endpoints) > 0 {
		e.Endpoints = endpoints
	}
	switch e.state {
	case StateNil, StateCcitNil:
		return e, ActionWait, 0
	case StateOK:
		if e.holds == 0 {
			// A fully released entry that has not yet transitioned (all
			// holds dropped while pinned): the new copy resurrects it.
			e.holds = 1
			e.wantRelease = false
		}
		return e, ActionUse, 0
	case StateOKQueued:
		// Resurrection: cancel the scheduled clean call by reverting to
		// StateOK; the cleaner skips queue entries whose state moved on.
		e.state = StateOK
		e.wantRelease = false
		e.holds = 1
		return e, ActionUse, 0
	case StateCcit:
		e.state = StateCcitNil
		return e, ActionWait, 0
	default:
		// Unreachable: entries never carry StateNone.
		panic(fmt.Sprintf("objtable: entry in impossible state %v", e.state))
	}
}

// FinishRegister completes an ActionRegister: the dirty call either
// succeeded (surrogate becomes usable) or failed (the entry dies and every
// waiter gets the error). On failure the caller must schedule a strong
// clean using NextSeq.
func (im *Imports) FinishRegister(key wire.Key, surrogate any, err error) (gen uint64) {
	s := im.shardFor(key)
	im.lock(s)
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return 0
	}
	if err != nil {
		e.dead = true
		e.err = fmt.Errorf("%w: %v", ErrRegistration, err)
		s.dropLocked(key, e)
	} else {
		e.state = StateOK
		e.surrogate = surrogate
		e.gen++
		e.holds = 1
		gen = e.gen
	}
	s.cond.Broadcast()
	return gen
}

// UseOrRebind returns the surrogate for a usable entry, giving the caller
// a chance — atomically with the lookup — to replace a surrogate whose
// weak referent has been collected. revive receives the stored surrogate;
// returning a non-nil replacement rebinds the entry under a fresh
// generation. It exists for finalizer-driven release (the paper's weak
// refs): the generation ties each surrogate incarnation to its cleanup,
// so a stale cleanup cannot release a successor.
func (im *Imports) UseOrRebind(key wire.Key, revive func(old any) (replacement any)) (s any, gen uint64, err error) {
	sh := im.shardFor(key)
	im.lock(sh)
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %v", ErrReleased, key)
	}
	switch e.state {
	case StateOK, StateOKQueued:
	default:
		return nil, 0, fmt.Errorf("%w: %v is %v", ErrNotUsable, key, e.state)
	}
	if ns := revive(e.surrogate); ns != nil {
		e.surrogate = ns
		e.gen++
		// A fresh strong surrogate exists: cancel any release queued for
		// the dead incarnation (the cleanup may have fired between the
		// caller's Acquire and this rebind), exactly like receive_copy's
		// resurrection.
		if e.state == StateOKQueued {
			e.state = StateOK
		}
		e.wantRelease = false
		if e.holds == 0 {
			e.holds = 1
		}
	}
	return e.surrogate, e.gen, nil
}

// ReleaseGen is Release guarded by generation: it acts only when the
// entry still carries the surrogate incarnation the caller observed.
// Finalizer-driven cleanups use it so that a cleanup for a collected
// surrogate cannot release a rebound successor. The generation match is
// ground truth — the surrogate object is unreachable, so no holder can
// still use the reference — and therefore overrides any remaining holds.
func (im *Imports) ReleaseGen(key wire.Key, gen uint64) (needClean bool) {
	s := im.shardFor(key)
	im.lock(s)
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || e.gen != gen || e.state != StateOK {
		return false
	}
	e.holds = 0
	if e.pins > 0 {
		e.wantRelease = true
		return false
	}
	e.state = StateOKQueued
	return true
}

// Wait blocks until ent becomes usable or dies, returning the surrogate or
// the terminal error.
func (im *Imports) Wait(ent *ImportEntry) (any, error) {
	s := im.shardFor(ent.Key)
	im.lock(s)
	defer s.mu.Unlock()
	for {
		if ent.dead {
			return nil, ent.err
		}
		if ent.state == StateOK || ent.state == StateOKQueued {
			return ent.surrogate, nil
		}
		s.cond.Wait()
	}
}

// Use returns the surrogate for key if it is currently usable; calls
// through released or in-flight references fail.
func (im *Imports) Use(key wire.Key) (any, error) {
	s := im.shardFor(key)
	im.lock(s)
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrReleased, key)
	}
	switch e.state {
	case StateOK:
		return e.surrogate, nil
	case StateOKQueued, StateCcit, StateCcitNil:
		return nil, fmt.Errorf("%w: %v is %v", ErrReleased, key, e.state)
	default:
		return nil, fmt.Errorf("%w: %v is %v", ErrNotUsable, key, e.state)
	}
}

// Pin marks the reference in transit (a transient dirty entry on the
// sending side): Release is deferred until every pin is dropped.
func (im *Imports) Pin(key wire.Key) error {
	s := im.shardFor(key)
	im.lock(s)
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || e.state != StateOK {
		return fmt.Errorf("%w: cannot pin %v", ErrNotUsable, key)
	}
	e.pins++
	return nil
}

// Unpin drops a transient pin. It reports whether a deferred release is
// now due, in which case the caller must enqueue a clean call.
func (im *Imports) Unpin(key wire.Key) (needClean bool) {
	s := im.shardFor(key)
	im.lock(s)
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return false
	}
	if e.pins > 0 {
		e.pins--
	}
	if e.pins == 0 && e.wantRelease && e.state == StateOK {
		e.state = StateOKQueued
		e.wantRelease = false
		return true
	}
	return false
}

// Release is the finalize transition: the reference is locally dead. It
// reports whether a clean call must be enqueued now; a pinned reference
// defers the release to the final Unpin, and releasing a non-usable
// reference is a no-op. When Retain has added extra holds, Release drops
// one hold and the life-cycle transition waits for the last.
func (im *Imports) Release(key wire.Key) (needClean bool) {
	s := im.shardFor(key)
	im.lock(s)
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || e.state != StateOK {
		return false
	}
	if e.holds > 1 {
		e.holds--
		return false
	}
	e.holds = 0
	if e.pins > 0 {
		e.wantRelease = true
		return false
	}
	e.state = StateOKQueued
	return true
}

// Retain adds an independent hold on a usable reference: the entry will
// not release until a matching Release drops it. It is the table half of
// core's Ref.Dup — directories and caches use it to keep a binding alive
// across their clients' Releases.
func (im *Imports) Retain(key wire.Key) error {
	s := im.shardFor(key)
	im.lock(s)
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return fmt.Errorf("%w: %v", ErrReleased, key)
	}
	if e.state != StateOK {
		return fmt.Errorf("%w: %v is %v", ErrNotUsable, key, e.state)
	}
	if e.holds == 0 {
		// All prior holds dropped while the entry was pinned: retaining
		// revives it, cancelling the deferred release.
		e.wantRelease = false
	}
	e.holds++
	return nil
}

// BeginClean is the do_clean_call transition, executed by the cleaner when
// it dequeues a scheduled clean. It returns the sequence number and
// endpoints for the clean message, or ok=false if the entry was
// resurrected (or died) since it was queued and the clean must be skipped.
func (im *Imports) BeginClean(key wire.Key) (seq uint64, endpoints []string, ok bool) {
	s := im.shardFor(key)
	im.lock(s)
	defer s.mu.Unlock()
	e, present := s.entries[key]
	if !present || e.state != StateOKQueued {
		return 0, nil, false
	}
	e.state = StateCcit
	return s.nextSeqLocked(key), e.Endpoints, true
}

// FinishClean is the receive_clean_ack transition. With err == nil:
// a ccit entry dies (⊥) and a ccitnil entry re-enters StateNil, in which
// case FinishClean returns redo=true and the new dirty sequence number —
// the caller must perform the dirty call and report via FinishRegister.
// A non-nil err (the clean was abandoned) kills the entry and wakes
// waiters with the error.
func (im *Imports) FinishClean(key wire.Key, err error) (redo bool, seq uint64) {
	s := im.shardFor(key)
	im.lock(s)
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return false, 0
	}
	if err != nil {
		e.dead = true
		e.err = fmt.Errorf("%w: clean call abandoned: %v", ErrRegistration, err)
		s.dropLocked(key, e)
		s.cond.Broadcast()
		return false, 0
	}
	switch e.state {
	case StateCcit:
		s.dropLocked(key, e)
		s.cond.Broadcast()
		return false, 0
	case StateCcitNil:
		e.state = StateNil
		s.cond.Broadcast()
		return true, s.nextSeqLocked(key)
	default:
		// BeginClean put the entry in StateCcit; only receive_copy can
		// move it (to StateCcitNil), so anything else is a logic error.
		panic(fmt.Sprintf("objtable: FinishClean in state %v", e.state))
	}
}

// StateOf reports the current life-cycle state of key (StateNone when the
// entry is absent). Exposed for tests, tracing and the gcdemo example.
func (im *Imports) StateOf(key wire.Key) State {
	s := im.shardFor(key)
	im.lock(s)
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return StateNone
	}
	return e.state
}

// Len reports the number of live import entries.
func (im *Imports) Len() int {
	n := 0
	for i := range im.shards {
		s := &im.shards[i]
		im.lock(s)
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Snapshot dumps the table for the live debug page, sorted by owner then
// index.
func (im *Imports) Snapshot() []obs.ImportInfo {
	var out []obs.ImportInfo
	for i := range im.shards {
		s := &im.shards[i]
		im.lock(s)
		for k, e := range s.entries {
			out = append(out, obs.ImportInfo{
				Owner:     k.Owner.String(),
				Index:     k.Index,
				State:     e.state.String(),
				Pins:      e.pins,
				Endpoints: append([]string(nil), e.Endpoints...),
			})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Owner != out[j].Owner {
			return out[i].Owner < out[j].Owner
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// Keys snapshots the keys of all live entries.
func (im *Imports) Keys() []wire.Key {
	var keys []wire.Key
	for i := range im.shards {
		s := &im.shards[i]
		im.lock(s)
		for k := range s.entries {
			keys = append(keys, k)
		}
		s.mu.Unlock()
	}
	return keys
}
