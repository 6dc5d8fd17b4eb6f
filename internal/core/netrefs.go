package core

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"netobjects/internal/objtable"
	"netobjects/internal/obs"
	"netobjects/internal/pickle"
	"netobjects/internal/wire"
)

// netRefs adapts a Space to the pickle.NetRefs hook. It decides which
// types are network references, exports concrete objects on the way out
// (holding them transiently dirty for the duration of the call), and
// creates or reuses surrogates on the way in (making the blocking dirty
// call for new ones).
type netRefs Space

var (
	refPtrType     = reflect.TypeOf((*Ref)(nil))
	referencerType = reflect.TypeOf((*Referencer)(nil)).Elem()
	anyType        = reflect.TypeOf((*any)(nil)).Elem()
	errorType      = reflect.TypeOf((*error)(nil)).Elem()
)

// Handles reports whether values of type t pass by reference.
func (nr *netRefs) Handles(t reflect.Type) bool {
	sp := (*Space)(nr)
	if t == refPtrType {
		return true
	}
	if t.Kind() == reflect.Interface {
		if t == anyType || t == errorType {
			return false
		}
		if t.Implements(referencerType) {
			return true
		}
		_, ok := sp.remoteIfaceFor(t)
		return ok
	}
	if t.Implements(referencerType) {
		return true
	}
	return sp.implementsRemote(t)
}

// callSession tracks the references pinned while marshaling one call's
// arguments or results; they stay transiently dirty until the exchange
// completes and unpinAll runs.
type callSession struct {
	sp            *Space
	pinnedExports []uint64
	pinnedImports []wire.Key

	// viewMin is what the unpickler may leave as views of this call's
	// received frame: see viewMin in serve.go. Zero copies everything.
	viewMin int

	// dispatch is the call's deadline and cancellation on the serving
	// side; unused on the calling side.
	dispatch dispatch
	// pipe is the serving session's pipelining state when the call is
	// pipelined (see handleCall); nil for a plain call.
	pipe *pipeInbound
}

// callSessionPool recycles call sessions across dispatches; one session
// is created and retired per call on both sides, so pooling it keeps the
// null-call path allocation-free.
var callSessionPool = sync.Pool{New: func() any { return new(callSession) }}

// getCallSession returns a pooled session bound to sp.
func (sp *Space) getCallSession() *callSession {
	s := callSessionPool.Get().(*callSession)
	s.sp = sp
	return s
}

// recycle returns the session to the pool. Callers must be past
// unpinAll: the session must hold no pins, its call must have left the
// inflight table, and no other goroutine may still reference it.
func (s *callSession) recycle() {
	s.dispatch.end()
	s.sp = nil
	s.pinnedExports = s.pinnedExports[:0]
	s.pinnedImports = s.pinnedImports[:0]
	s.viewMin = 0
	s.pipe = nil
	callSessionPool.Put(s)
}

func (s *callSession) pinned() bool {
	return len(s.pinnedExports)+len(s.pinnedImports) > 0
}

// unpinAll drops every transient dirty entry taken during marshaling,
// scheduling clean calls for surrogates whose release was deferred.
func (s *callSession) unpinAll() {
	tr := s.sp.tracer
	for _, ix := range s.pinnedExports {
		s.sp.exports.Unpin(ix)
		if tr != nil {
			tr.Emit(obs.Event{Kind: obs.EvTransientClean, Time: time.Now(),
				Key: fmt.Sprintf("%v/%d", s.sp.id, ix)})
		}
	}
	for _, key := range s.pinnedImports {
		if s.sp.imports.Unpin(key) {
			// A Release arrived while the reference was in transit; the
			// release transition commits here, so this is where the
			// surrogate-released event belongs (Ref.Release returned
			// before the transition and emitted nothing — a trace
			// checker must see the release before the clean call it
			// causes, or the clean-triggered withdraw at the owner looks
			// like reclaiming from a live holder). The cleaner recovers
			// the owner endpoints from the import entry when it dequeues.
			s.sp.metrics.SurrogatesReleased.Inc()
			if tr != nil {
				tr.Emit(obs.Event{Kind: obs.EvSurrogateReleased, Time: time.Now(),
					Key: key.String()})
			}
			s.sp.cleaner.Schedule(key, nil)
		}
		if tr != nil {
			tr.Emit(obs.Event{Kind: obs.EvTransientClean, Time: time.Now(), Key: key.String()})
		}
	}
	s.pinnedExports = s.pinnedExports[:0]
	s.pinnedImports = s.pinnedImports[:0]
}

// ToWire marshals a reference value: the object is exported (owner side)
// or its surrogate validated (client side), pinned for the duration of
// the call, and its wireRep emitted.
func (nr *netRefs) ToWire(session any, v reflect.Value) (wire.WireRep, error) {
	sp := (*Space)(nr)
	if v.Kind() == reflect.Interface {
		if v.IsNil() {
			return wire.WireRep{}, nil
		}
		v = v.Elem()
	}
	var ref *Ref
	switch {
	case v.Type() == refPtrType:
		r := v.Interface().(*Ref)
		if r == nil {
			return wire.WireRep{}, nil
		}
		ref = r
	case v.Type().Implements(referencerType):
		if v.Kind() == reflect.Pointer && v.IsNil() {
			return wire.WireRep{}, nil
		}
		ref = v.Interface().(Referencer).NetObjRef()
		if ref == nil {
			return wire.WireRep{}, nil
		}
	default:
		// A concrete implementation of a registered remote interface:
		// auto-export, per the paper's pass-by-reference rule for
		// (subtypes of) network objects.
		if !sp.implementsRemote(v.Type()) {
			return wire.WireRep{}, fmt.Errorf("netobjects: %v is not a network reference", v.Type())
		}
		r, err := sp.Export(v.Interface())
		if err != nil {
			return wire.WireRep{}, err
		}
		ref = r
	}
	if ref.sp != sp {
		return wire.WireRep{}, fmt.Errorf("%w: %v", ErrForeignRef, ref)
	}
	w, err := ref.WireRep()
	if err != nil {
		return wire.WireRep{}, err
	}
	// Keep the reference alive while it is in transit (the transient
	// dirty entry of the formalisation). Without a session (bare
	// Pickler.Marshal) the reference is emitted unprotected; the runtime
	// always marshals through sessions.
	if cs, ok := session.(*callSession); ok && cs != nil {
		if ref.IsOwner() {
			if err := sp.exports.Pin(w.Index); err != nil {
				return wire.WireRep{}, err
			}
			cs.pinnedExports = append(cs.pinnedExports, w.Index)
		} else {
			if err := sp.imports.Pin(ref.key); err != nil {
				return wire.WireRep{}, fmt.Errorf("netobjects: marshaling unusable reference %v: %w", ref.key, err)
			}
			cs.pinnedImports = append(cs.pinnedImports, ref.key)
		}
		if sp.tracer != nil {
			sp.tracer.Emit(obs.Event{Kind: obs.EvTransientDirty, Time: time.Now(),
				Key: fmt.Sprintf("%v/%d", w.Owner, w.Index)})
		}
	}
	return w, nil
}

// FromWire unmarshals a wireRep into a usable reference value of type t,
// creating and registering a surrogate when this space has none.
func (nr *netRefs) FromWire(session any, w wire.WireRep, t reflect.Type) (reflect.Value, error) {
	sp := (*Space)(nr)
	if w.IsZero() {
		return reflect.Zero(t), nil
	}
	ref, err := sp.resolve(w)
	if err != nil {
		return reflect.Value{}, err
	}
	return sp.wrapRef(ref, t)
}

// resolve maps a wireRep to this space's handle for the object: the owner
// handle when the object is local, or the (possibly new) surrogate.
func (sp *Space) resolve(w wire.WireRep) (*Ref, error) {
	if w.Owner == sp.id {
		// The owner unmarshals its own wireRep to the concrete object; no
		// surrogate, no dirty call.
		ent, ok := sp.exports.Lookup(w.Index)
		if !ok {
			return nil, fmt.Errorf("%w: index %d (withdrawn?)", ErrNoSuchObject, w.Index)
		}
		return sp.ownedRef(ent.Obj, ent.Fingerprints), nil
	}
	key := w.Key()
	ent, act, seq := sp.imports.Acquire(key, w.Endpoints)
	switch act {
	case objtable.ActionUse, objtable.ActionWait:
		s, err := sp.imports.Wait(ent)
		if err != nil {
			return nil, err
		}
		return sp.surrogateRef(key, w.Endpoints, s)
	case objtable.ActionRegister:
		return sp.register(key, w.Endpoints, seq)
	default:
		panic(fmt.Sprintf("netobjects: unknown acquire action %v", act))
	}
}

// register performs the dirty call for a brand-new surrogate and settles
// the import entry. On failure it schedules the strong clean the paper
// prescribes: the dirty call may have reached the owner, so a clean with a
// later sequence number must cancel it whenever it lands.
func (sp *Space) register(key wire.Key, endpoints []string, seq uint64) (*Ref, error) {
	err := sp.sendDirty(key, endpoints, seq)
	if err != nil {
		sp.imports.FinishRegister(key, nil, err)
		strongSeq := sp.imports.NextSeq(key)
		sp.cleaner.ScheduleStrong(key, endpoints, strongSeq)
		return nil, fmt.Errorf("netobjects: registering %v with owner: %w", key, err)
	}
	ref := &Ref{sp: sp, key: key, endpoints: endpoints}
	sp.bindSurrogate(key, ref)
	sp.metrics.SurrogatesMade.Inc()
	if sp.tracer != nil {
		sp.tracer.Emit(obs.Event{Kind: obs.EvSurrogateMade, Time: time.Now(), Key: key.String()})
	}
	return ref, nil
}

// redoDirty re-registers a reference that re-entered StateNil after a
// clean acknowledgement (the ccitnil redo); the cleaner invokes it.
func (sp *Space) redoDirty(key wire.Key, endpoints []string, seq uint64) {
	if _, err := sp.register(key, endpoints, seq); err != nil {
		sp.log.Warn("re-registration after ccitnil failed", "key", key.String(), "err", err)
	}
}

// wrapRef converts this space's handle into a value of static type t.
func (sp *Space) wrapRef(ref *Ref, t reflect.Type) (reflect.Value, error) {
	switch {
	case t == refPtrType:
		return reflect.ValueOf(ref), nil
	case t == anyType:
		return reflect.ValueOf(&ref).Elem().Convert(anyType), nil
	case t.Kind() == reflect.Interface:
		if ref.IsOwner() {
			ct := reflect.TypeOf(ref.concrete)
			if ct.Implements(t) {
				return reflect.ValueOf(ref.concrete), nil
			}
			return reflect.Value{}, fmt.Errorf("netobjects: concrete %v does not implement %v", ct, t)
		}
		if ri, ok := sp.remoteIfaceFor(t); ok && ri.factory != nil {
			stub := ri.factory(ref)
			sv := reflect.ValueOf(stub)
			if !sv.Type().Implements(t) {
				return reflect.Value{}, fmt.Errorf("netobjects: stub %v does not implement %v", sv.Type(), t)
			}
			return sv, nil
		}
		return reflect.Value{}, fmt.Errorf("%w: %v", ErrNoStub, t)
	default:
		return reflect.Value{}, fmt.Errorf("netobjects: cannot deliver a network reference as %v", t)
	}
}

// assignArg binds a dynamically decoded argument to a parameter of type
// pt, wrapping references for remote interfaces and applying the pickler's
// lossless conversions for plain data.
func (sp *Space) assignArg(pt reflect.Type, v any) (reflect.Value, error) {
	if ref, ok := v.(*Ref); ok && pt != refPtrType && pt.Kind() == reflect.Interface && pt != anyType {
		return sp.wrapRef(ref, pt)
	}
	dst := reflect.New(pt).Elem()
	if v == nil {
		return dst, nil
	}
	if err := pickle.ConvertAssign(dst, reflect.ValueOf(v)); err != nil {
		return reflect.Value{}, err
	}
	return dst, nil
}
