// Package naming implements the bootstrap agent of the network objects
// system: a per-space directory object exported at the well-known agent
// index, through which processes publish and import objects by name.
//
// The original system ran one agent per machine (the netobjd daemon);
// here any space can serve an agent, and the cmd/netobjd command runs a
// dedicated one. Importing by name needs only an endpoint string — the
// agent call is bootstrapped by index, and the reference it returns
// carries the full wireRep of the named object, after which the normal
// registration path (dirty call, surrogate creation) applies. An agent
// is one unreplicated directory, as in the paper: if its space dies, its
// bindings die with it and owners bind again at a restarted agent.
package naming

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"netobjects/internal/core"
	"netobjects/internal/wire"
)

// Directory errors.
var (
	// ErrNotFound reports a lookup of an unbound name.
	ErrNotFound = errors.New("naming: name not bound")
	// ErrExists reports a Bind over an existing binding (use Rebind).
	ErrExists = errors.New("naming: name already bound")
)

// Agent is the directory object. Bindings hold live references, so a
// bound object stays in its owner's export table (the agent's space sits
// in the dirty set) until unbound.
//
// Ownership convention: Bind/Rebind take ownership of the reference they
// are given — the directory's hold is the caller's transferred hold. A
// caller that keeps using the reference independently must Dup it first.
// Lookup returns a Dup'd reference the caller owns and must Release.
type Agent struct {
	mu       sync.Mutex
	bindings map[string]*core.Ref
}

// NewAgent returns an empty directory.
func NewAgent() *Agent {
	return &Agent{bindings: make(map[string]*core.Ref)}
}

// Bind publishes ref under name, taking ownership of ref; it fails if the
// name is taken.
func (a *Agent) Bind(name string, ref *core.Ref) error {
	if name == "" || ref == nil {
		return errors.New("naming: empty name or nil reference")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.bindings[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	a.bindings[name] = ref
	return nil
}

// Rebind publishes ref under name, taking ownership of ref and replacing
// (and releasing) any previous binding. Rebinding the same reference that
// is already bound keeps the existing hold rather than double-releasing
// it.
func (a *Agent) Rebind(name string, ref *core.Ref) error {
	if name == "" || ref == nil {
		return errors.New("naming: empty name or nil reference")
	}
	a.mu.Lock()
	old := a.bindings[name]
	a.bindings[name] = ref
	a.mu.Unlock()
	if old != nil && old != ref {
		old.Release()
	}
	return nil
}

// Unbind removes a binding and releases the directory's reference to the
// object.
func (a *Agent) Unbind(name string) error {
	a.mu.Lock()
	ref, ok := a.bindings[name]
	delete(a.bindings, name)
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	ref.Release()
	return nil
}

// Lookup resolves name to its bound reference. The returned reference is
// Dup'd: the caller owns it and must Release it when done — releasing it
// does not disturb the directory's own hold on the binding.
func (a *Agent) Lookup(name string) (*core.Ref, error) {
	bound, err := a.binding(name)
	if err != nil {
		return nil, err
	}
	ref, err := bound.Dup()
	if err != nil {
		// The binding's reference died under us (owner crashed and the
		// surrogate was withdrawn): report the name unbound.
		return nil, fmt.Errorf("%w: %q (binding unusable: %v)", ErrNotFound, name, err)
	}
	return ref, nil
}

// binding returns the directory's own reference for name, borrowed: it is
// valid only while the binding persists and must not be Released by the
// caller. The remote Lookup uses it — a reply marshal pins the reference
// for the duration of the send, so handing out the directory's hold is
// safe there, whereas a Dup'd result would leak a hold per remote lookup
// (nothing on the serve side releases results after marshaling).
func (a *Agent) binding(name string) (*core.Ref, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ref, ok := a.bindings[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return ref, nil
}

// List returns the bound names in sorted order.
func (a *Agent) List() ([]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.bindings))
	for n := range a.bindings {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Len reports the number of bindings.
func (a *Agent) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.bindings)
}

// directory is the agent's remote face. It exists so the wire API can
// diverge from the in-process one where ownership demands it: remote
// Lookup replies marshal the directory's own (borrowed, pinned-for-send)
// reference, while in-process Agent.Lookup returns a Dup the caller owns.
type directory struct {
	a *Agent
}

// Bind publishes ref under name; the decoded argument surrogate becomes
// the directory's hold.
func (d *directory) Bind(name string, ref *core.Ref) error { return d.a.Bind(name, ref) }

// Rebind publishes ref under name, replacing any existing binding.
func (d *directory) Rebind(name string, ref *core.Ref) error { return d.a.Rebind(name, ref) }

// Unbind removes a binding.
func (d *directory) Unbind(name string) error { return d.a.Unbind(name) }

// Lookup resolves name for a remote client.
func (d *directory) Lookup(name string) (*core.Ref, error) { return d.a.binding(name) }

// List returns the bound names in sorted order.
func (d *directory) List() ([]string, error) { return d.a.List() }

// Serve installs a fresh agent on sp at the well-known agent index and
// returns it. A space serves at most one agent.
func Serve(sp *core.Space) (*Agent, error) {
	a := NewAgent()
	if _, err := sp.ExportAgent(&directory{a: a}); err != nil {
		return nil, err
	}
	return a, nil
}

// Lookup imports the object bound to name at the agent reachable via
// endpoint, registering this space with the object's owner.
func Lookup(sp *core.Space, endpoint, name string) (*core.Ref, error) {
	return LookupCtx(context.Background(), sp, endpoint, name)
}

// LookupCtx is Lookup bounded by ctx: the deadline travels on the wire
// and the wait is abandoned on cancellation.
func LookupCtx(ctx context.Context, sp *core.Space, endpoint, name string) (*core.Ref, error) {
	out, err := sp.CallEndpointCtx(ctx, endpoint, wire.AgentIndex, "Lookup", name)
	if err != nil {
		return nil, err
	}
	ref, ok := out[0].(*core.Ref)
	if !ok {
		return nil, fmt.Errorf("naming: agent returned %T", out[0])
	}
	return ref, nil
}

// Bind publishes ref at the agent reachable via endpoint.
func Bind(sp *core.Space, endpoint, name string, ref *core.Ref) error {
	return BindCtx(context.Background(), sp, endpoint, name, ref)
}

// BindCtx is Bind bounded by ctx.
func BindCtx(ctx context.Context, sp *core.Space, endpoint, name string, ref *core.Ref) error {
	_, err := sp.CallEndpointCtx(ctx, endpoint, wire.AgentIndex, "Bind", name, ref)
	return err
}

// Rebind publishes ref at the agent reachable via endpoint, replacing any
// existing binding.
func Rebind(sp *core.Space, endpoint, name string, ref *core.Ref) error {
	return RebindCtx(context.Background(), sp, endpoint, name, ref)
}

// RebindCtx is Rebind bounded by ctx.
func RebindCtx(ctx context.Context, sp *core.Space, endpoint, name string, ref *core.Ref) error {
	_, err := sp.CallEndpointCtx(ctx, endpoint, wire.AgentIndex, "Rebind", name, ref)
	return err
}

// Unbind removes a binding at the agent reachable via endpoint.
func Unbind(sp *core.Space, endpoint, name string) error {
	return UnbindCtx(context.Background(), sp, endpoint, name)
}

// UnbindCtx is Unbind bounded by ctx.
func UnbindCtx(ctx context.Context, sp *core.Space, endpoint, name string) error {
	_, err := sp.CallEndpointCtx(ctx, endpoint, wire.AgentIndex, "Unbind", name)
	return err
}

// List returns the names bound at the agent reachable via endpoint.
func List(sp *core.Space, endpoint string) ([]string, error) {
	return ListCtx(context.Background(), sp, endpoint)
}

// ListCtx is List bounded by ctx.
func ListCtx(ctx context.Context, sp *core.Space, endpoint string) ([]string, error) {
	out, err := sp.CallEndpointCtx(ctx, endpoint, wire.AgentIndex, "List")
	if err != nil {
		return nil, err
	}
	names, ok := out[0].([]string)
	if !ok && out[0] != nil {
		return nil, fmt.Errorf("naming: agent returned %T", out[0])
	}
	return names, nil
}
