package core

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"netobjects/internal/obs"
	"netobjects/internal/pickle"
	"netobjects/internal/wire"
)

// Ref is a handle on a network object: either the owner's handle on its
// own concrete object, or a surrogate for an object owned elsewhere.
// There is at most one surrogate per object per space, so two Refs for the
// same remote object compare equal as pointers while the reference lives.
//
// Refs are created by Space.Export (owner side) and by unmarshaling
// wireReps (client side); the zero value is not usable.
type Ref struct {
	sp *Space

	// concrete is the owned object; non-nil exactly for owner handles.
	concrete any
	// fingerprints are the method-set fingerprints the export accepts:
	// the concrete object's own plus those of the remote interfaces it
	// implements.
	fingerprints []uint64

	// key and endpoints identify a surrogate's remote object; unused for
	// owner handles (whose index may change across export epochs).
	key       wire.Key
	endpoints []string
}

// NetObjRef returns the reference itself; it makes *Ref satisfy
// Referencer so generated stubs and raw refs marshal uniformly.
func (r *Ref) NetObjRef() *Ref { return r }

// Referencer is implemented by values that carry a network reference —
// *Ref itself and every generated stub. The pickler marshals such values
// as wireReps.
type Referencer interface {
	// NetObjRef returns the underlying reference.
	NetObjRef() *Ref
}

// Caller is the typed invocation surface generated stubs bind to. *Ref
// implements it directly; values that locate their reference dynamically
// — notably the registry's rebinding Handle, whose calls re-resolve a
// name across owner restarts — implement it too, so one generated stub
// type works over either a fixed reference or a registry name.
type Caller interface {
	// InvokeTyped performs a typed call under the space-wide timeout.
	InvokeTyped(method string, fingerprint uint64, args []reflect.Value, resultTypes []reflect.Type) ([]reflect.Value, error)
	// InvokeTypedCtx performs a typed call under ctx: its deadline
	// travels to the owner and cancelling it alerts the remote dispatch.
	InvokeTypedCtx(ctx context.Context, method string, fingerprint uint64, args []reflect.Value, resultTypes []reflect.Type) ([]reflect.Value, error)
	// InvokeTypedPipe issues a typed pipelined call, returning its
	// promise immediately.
	InvokeTypedPipe(ctx context.Context, method string, fingerprint uint64, args []reflect.Value, resultTypes []reflect.Type) *Promise
}

var _ Caller = (*Ref)(nil)

// IsOwner reports whether the reference is the owner's handle on a
// concrete object (as opposed to a surrogate).
func (r *Ref) IsOwner() bool { return r.concrete != nil }

// Owner returns the id of the space owning the referenced object.
func (r *Ref) Owner() wire.SpaceID {
	if r.IsOwner() {
		return r.sp.id
	}
	return r.key.Owner
}

// Concrete returns the concrete object when the reference is an owner
// handle, or nil for surrogates. It is how a server recovers its own
// object from a reference a client passed back — the paper's "no
// surrogate is created at the owner".
func (r *Ref) Concrete() any { return r.concrete }

// String renders the reference for logs.
func (r *Ref) String() string {
	if r.IsOwner() {
		return fmt.Sprintf("ref(owner %T)", r.concrete)
	}
	return fmt.Sprintf("ref(surrogate %v)", r.key)
}

// Release declares the surrogate locally dead: a clean call is scheduled
// and the reference becomes unusable (unless a copy of it arrives before
// the clean call is sent, which resurrects it for the new holder).
// Releasing an owner handle is a no-op: owners do not hold dirty entries
// for themselves.
func (r *Ref) Release() {
	if r.IsOwner() || r.sp.isClosed() {
		return
	}
	if r.sp.imports.Release(r.key) {
		r.sp.metrics.SurrogatesReleased.Inc()
		if r.sp.tracer != nil {
			r.sp.tracer.Emit(obs.Event{Kind: obs.EvSurrogateReleased, Time: time.Now(),
				Key: r.key.String()})
		}
		r.sp.cleaner.Schedule(r.key, r.endpoints)
	}
}

// Dup adds an independent hold on the reference and returns it. The same
// *Ref pointer comes back — a space has at most one surrogate per remote
// object — but the import entry now requires one extra Release before the
// clean call is scheduled, so a holder that hands copies of a reference to
// in-process clients (a name directory, a resolver cache) survives those
// clients releasing theirs. Dup on an owner handle is a no-op (owners hold
// no dirty entry for themselves); Dup on a released or in-transition
// surrogate fails.
func (r *Ref) Dup() (*Ref, error) {
	if r.IsOwner() || r.sp.isClosed() {
		return r, nil
	}
	if err := r.sp.imports.Retain(r.key); err != nil {
		return nil, err
	}
	return r, nil
}

// Export makes obj remotely invocable and returns the owner handle for
// it. Export is idempotent while the object remains exported: marshaling
// the same object always yields the same remote identity. Objects must be
// pointers (or other reference kinds) so identity is well defined.
func (sp *Space) Export(obj any) (*Ref, error) {
	if sp.isClosed() {
		return nil, ErrSpaceClosed
	}
	fps := sp.fingerprintsFor(obj)
	if _, err := sp.exports.Export(obj, fps); err != nil {
		return nil, err
	}
	return sp.ownedRef(obj, fps), nil
}

// exportAt places obj at a well-known index (the bootstrap agent).
func (sp *Space) exportAt(obj any, index uint64) (*Ref, error) {
	fps := sp.fingerprintsFor(obj)
	if err := sp.exports.ExportAt(obj, index, fps); err != nil {
		return nil, err
	}
	return sp.ownedRef(obj, fps), nil
}

// fingerprintsFor returns the fingerprints an export of obj accepts: the
// concrete method set's own fingerprint plus the fingerprint of every
// registered remote interface the object implements, so typed calls from
// stubs generated against any of those interfaces pass the version check.
// The list is worked out once per type and shared by every caller, which
// must not modify it, until the next RegisterRemoteInterface.
func (sp *Space) fingerprintsFor(obj any) []uint64 {
	t := reflect.TypeOf(obj)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if fps, ok := sp.fingerprints[t]; ok {
		return fps
	}
	fps := []uint64{pickle.Fingerprint(t)}
	for _, ri := range sp.remote {
		if t.Implements(ri.t) {
			fps = append(fps, pickle.Fingerprint(ri.t))
		}
	}
	if sp.fingerprints == nil {
		sp.fingerprints = make(map[reflect.Type][]uint64)
	}
	sp.fingerprints[t] = fps
	return fps
}

// ExportAgent installs obj as the space's bootstrap agent at the
// well-known agent index. At most one agent can be installed per space.
func (sp *Space) ExportAgent(obj any) (*Ref, error) {
	if sp.isClosed() {
		return nil, ErrSpaceClosed
	}
	return sp.exportAt(obj, wire.AgentIndex)
}

// ownedRef returns the canonical owner handle for obj, creating it if
// needed.
func (sp *Space) ownedRef(obj any, fps []uint64) *Ref {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if r, ok := sp.ownedRefs[obj]; ok {
		return r
	}
	r := &Ref{sp: sp, concrete: obj, fingerprints: fps}
	sp.ownedRefs[obj] = r
	return r
}

// WireRep returns the reference's current wire representation. For owner
// handles this (re-)exports the object, so the result is valid until the
// dirty set next empties.
func (r *Ref) WireRep() (wire.WireRep, error) {
	if r.IsOwner() {
		ix, err := r.sp.exports.Export(r.concrete, r.fingerprints)
		if err != nil {
			return wire.WireRep{}, err
		}
		return wire.WireRep{Owner: r.sp.id, Endpoints: r.sp.endpoints, Index: ix}, nil
	}
	return wire.WireRep{Owner: r.key.Owner, Endpoints: r.endpoints, Index: r.key.Index}, nil
}

// Import obtains this space's reference for the object a wireRep names:
// the concrete object's handle when this space owns it, the existing
// surrogate when one lives in the import table, or a brand-new surrogate —
// in which case Import blocks until the dirty call registering it with the
// owner completes. It is the out-of-band import path used when a wireRep
// arrives other than inside a call (a name server, a file, a test).
func (sp *Space) Import(w wire.WireRep) (*Ref, error) {
	if sp.isClosed() {
		return nil, ErrSpaceClosed
	}
	if w.IsZero() {
		return nil, fmt.Errorf("netobjects: importing the zero wireRep")
	}
	return sp.resolve(w, nil)
}

// remoteIface records a registered remote interface type: values
// implementing it pass by reference, and surrogates unmarshaled at it are
// wrapped by the stub factory (when one is registered).
type remoteIface struct {
	t       reflect.Type
	factory func(*Ref) any
}

// RegisterRemoteInterface declares iface (an interface type) remote:
// any value implementing it is marshaled as a network reference, with
// concrete implementations auto-exported by their owner. factory, which
// may be nil, wraps a surrogate *Ref into a value implementing iface —
// generated stubs register themselves this way. Registration must happen
// before the space marshals values involving the interface, because
// pickling decisions are compiled per type and cached.
func (sp *Space) RegisterRemoteInterface(iface reflect.Type, factory func(*Ref) any) error {
	if iface == nil || iface.Kind() != reflect.Interface {
		return fmt.Errorf("netobjects: RegisterRemoteInterface needs an interface type, got %v", iface)
	}
	if iface.NumMethod() == 0 {
		return fmt.Errorf("netobjects: refusing to register the empty interface as remote")
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.remote[iface.String()] = &remoteIface{t: iface, factory: factory}
	sp.fingerprints = nil // a type may implement the new interface
	return nil
}

// remoteIfaceFor returns the registration matching t exactly (t is an
// interface type).
func (sp *Space) remoteIfaceFor(t reflect.Type) (*remoteIface, bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	ri, ok := sp.remote[t.String()]
	if ok && ri.t == t {
		return ri, true
	}
	return nil, false
}

// implementsRemote reports whether concrete type t implements any
// registered remote interface.
func (sp *Space) implementsRemote(t reflect.Type) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, ri := range sp.remote {
		if t.Implements(ri.t) {
			return true
		}
	}
	return false
}
