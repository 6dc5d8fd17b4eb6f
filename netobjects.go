// Package netobjects is a Go implementation of Network Objects (Birrell,
// Nelson, Owicki, Wobber — SOSP 1993): distributed objects with
// surrogates, transparent marshaling by pickles, transport independence,
// third-party reference transfers, and a distributed reference-listing
// garbage collector with dirty and clean calls.
//
// # Quickstart
//
//	owner, _ := netobjects.New(netobjects.Options{})
//	defer owner.Close()
//	ref, _ := owner.Export(&Counter{})
//	w, _ := ref.WireRep()               // ship this to another process
//
//	client, _ := netobjects.New(netobjects.Options{})
//	defer client.Close()
//	c, _ := client.Import(w)            // registers with the owner
//	out, _ := c.Call("Incr", int64(1))  // remote invocation
//
// Invocations are context-first underneath: Ref.CallCtx (and stub
// methods declared with a leading context.Context) propagate the
// caller's deadline to the owner as a remaining-time budget and forward
// cancellation across the wire — the paper's Thread.Alert semantics —
// so a cancelled call's serving handler observes ctx.Done() and the
// caller gets an error satisfying errors.Is(err, context.Canceled).
// Plain Call is CallCtx under context.Background() bounded by
// Options.CallTimeout.
//
// Objects are passed by reference whenever they are network objects (a
// *Ref, a generated stub, or a value implementing a registered remote
// interface) and by value otherwise, with sharing and cycles preserved by
// the pickler. A per-space agent (see the naming package and the netobjd
// daemon) publishes objects by name for bootstrapping.
//
// The life cycle of every remote reference follows Birrell's distributed
// reference listing algorithm as formalised by Moreau, Dickman and Jones,
// including the ccitnil state, transient dirty entries for references in
// transit (covering results as well as arguments), sequence numbers
// against message reordering, strong cleans after failed dirty calls, and
// ping-based reclamation of crashed clients. The abstract machine itself
// is implemented in internal/refmodel and model-checked in its tests.
package netobjects

import (
	"reflect"

	"netobjects/internal/core"
	"netobjects/internal/obs"
	"netobjects/internal/pickle"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// Core types re-exported as the public API surface.
type (
	// Space is one participant in the network objects system: it owns
	// exported objects, holds surrogates, and runs the collector daemons.
	Space = core.Space
	// Options configures a Space; the zero value listens on loopback TCP.
	Options = core.Options
	// Ref is a handle on a network object: the owner's handle or a
	// surrogate.
	Ref = core.Ref
	// Referencer is implemented by values carrying a network reference
	// (stubs and *Ref itself).
	Referencer = core.Referencer
	// Caller is the typed invocation surface generated stubs bind to:
	// *Ref implements it directly, and the registry's rebinding Handle
	// implements it with re-resolve-and-retry, so a stub can wrap either
	// a fixed reference or a registry name.
	Caller = core.Caller
	// Promise is the pending result of a pipelined invocation: it is
	// returned immediately by Ref.PipeCall and generated ...Pipe stub
	// methods, and dependent pipelined calls may target it before it
	// resolves so a K-deep chain costs one round trip.
	Promise = core.Promise
	// RemoteError is an application error returned by a remote method.
	RemoteError = core.RemoteError
	// CallError is a runtime-level invocation failure.
	CallError = core.CallError
	// Stats counts a space's call and collector events.
	Stats = core.Stats
	// WireRep is the marshaled form of a network object reference.
	WireRep = wire.WireRep
	// SpaceID identifies a space instance.
	SpaceID = wire.SpaceID
	// Transport is a pluggable communication protocol.
	Transport = transport.Transport
	// MemTransport is the in-process transport, for tests, examples and
	// same-machine composition.
	MemTransport = transport.Mem
	// Metrics is a space's live metrics set: atomic counters, gauges and
	// latency histograms (see Options.Metrics and Space.Metrics).
	Metrics = obs.Metrics
	// Tracer receives structured lifecycle events for remote calls,
	// collector traffic and pool activity (see Options.Tracer).
	Tracer = obs.Tracer
	// TraceEvent is one structured lifecycle event delivered to a Tracer.
	TraceEvent = obs.Event
	// RingTracer keeps the most recent trace events in a fixed buffer; the
	// debug page renders it.
	RingTracer = obs.Ring
	// Observability bundles a space's metrics, tracer and live debug dump;
	// its Handler serves /metrics and /debug/netobj.
	Observability = obs.Observability
)

// Sentinel errors re-exported for errors.Is.
var (
	ErrSpaceClosed    = core.ErrSpaceClosed
	ErrNoSuchObject   = core.ErrNoSuchObject
	ErrNoSuchMethod   = core.ErrNoSuchMethod
	ErrBadFingerprint = core.ErrBadFingerprint
	ErrNoStub         = core.ErrNoStub
)

// New creates and starts a space.
func New(opts Options) (*Space, error) { return core.NewSpace(opts) }

// NewTCP returns the TCP transport ("tcp:host:port" endpoints).
func NewTCP() Transport { return transport.NewTCP() }

// NewMem returns a fresh in-process transport namespace ("inmem:name"
// endpoints). Spaces sharing the instance can reach each other.
func NewMem() *MemTransport { return transport.NewMem() }

// NewMetrics returns a fresh metrics set. Pass it as Options.Metrics to
// several spaces to aggregate their counters, or leave Options.Metrics
// nil for a per-space set.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NewRingTracer returns a tracer buffering the last n events; install it
// via Options.Tracer (alone, or fanned out with MultiTracer).
func NewRingTracer(n int) *RingTracer { return obs.NewRing(n) }

// MultiTracer fans trace events out to several tracers.
func MultiTracer(ts ...Tracer) Tracer { return obs.MultiTracer(ts...) }

// Register records a type in the default pickle registry so it can travel
// inside interface-typed values — the analogue of gob.Register. Both
// sides of a connection must register the same types.
func Register(v any) { pickle.Register(v) }

// RegisterName records a type under an explicit wire name.
func RegisterName(name string, v any) { pickle.RegisterName(name, v) }

// RegisterRemoteInterface declares the interface type T remote on sp:
// values implementing it pass by reference (concrete implementations are
// auto-exported by their owner) and surrogates received at T are wrapped
// with factory. Generated stubs call this from their Register functions;
// factory may be nil when only dynamic calls are needed.
func RegisterRemoteInterface[T any](sp *Space, factory func(*Ref) T) error {
	t := reflect.TypeOf((*T)(nil)).Elem()
	var f func(*Ref) any
	if factory != nil {
		f = func(r *Ref) any { return factory(r) }
	}
	return sp.RegisterRemoteInterface(t, f)
}

// FingerprintOf computes the stub fingerprint of interface type T, the
// version stamp generated stubs embed in every typed call.
func FingerprintOf[T any]() uint64 {
	return pickle.Fingerprint(reflect.TypeOf((*T)(nil)).Elem())
}

// ArgValue wraps v in a reflect.Value that keeps T as its static type —
// unlike reflect.ValueOf, which would substitute the dynamic type and
// break the typed encoding of interface-typed parameters. Generated stubs
// build their argument lists with it.
func ArgValue[T any](v T) reflect.Value { return reflect.ValueOf(&v).Elem() }

// TypeFor returns the reflection type of T; generated stubs use it to
// declare their result-type tables.
func TypeFor[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }
