package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"netobjects/internal/objtable"
	"netobjects/internal/pickle"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// counter is the canonical test service.
type counter struct {
	mu sync.Mutex
	n  int64
}

func (c *counter) Incr(delta int64) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += delta
	return c.n, nil
}

func (c *counter) Value() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n, nil
}

func (c *counter) Fail(msg string) error { return errors.New(msg) }

func (c *counter) Boom() { panic("kaboom") }

// testNet is a little in-process internetwork of spaces.
type testNet struct {
	t   *testing.T
	mem *transport.Mem
}

func newTestNet(t *testing.T) *testNet {
	t.Helper()
	return &testNet{t: t, mem: transport.NewMem()}
}

func (tn *testNet) space(name string, opt func(*Options)) *Space {
	tn.t.Helper()
	opts := Options{
		Name:         name,
		Transports:   []transport.Transport{tn.mem},
		Registry:     pickle.NewRegistry(),
		CallTimeout:  5 * time.Second,
		PingInterval: time.Hour, // tests drive pings explicitly
	}
	if opt != nil {
		opt(&opts)
	}
	sp, err := NewSpace(opts)
	if err != nil {
		tn.t.Fatalf("space %s: %v", name, err)
	}
	tn.t.Cleanup(func() { _ = sp.Close() })
	return sp
}

// handoff marshals a ref out of owner and imports it into client, the way
// a name service would.
func handoff(t *testing.T, ref *Ref, into *Space) *Ref {
	t.Helper()
	w, err := ref.WireRep()
	if err != nil {
		t.Fatal(err)
	}
	r, err := into.Import(w)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBasicRemoteCall(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)

	ref, err := owner.Export(&counter{})
	if err != nil {
		t.Fatal(err)
	}
	cref := handoff(t, ref, client)

	got, err := cref.Call("Incr", int64(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].(int64) != 5 {
		t.Fatalf("got %v", got)
	}
	got, err = cref.Call("Incr", int64(2))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].(int64) != 7 {
		t.Fatalf("got %v", got)
	}
}

func TestArgumentConversion(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	ref, _ := owner.Export(&counter{})
	cref := handoff(t, ref, client)

	// Plain int converts into the int64 parameter.
	got, err := cref.Call("Incr", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].(int64) != 3 {
		t.Fatalf("got %v", got)
	}
	// Wrong arity fails cleanly.
	if _, err := cref.Call("Incr"); !errors.Is(err, ErrNoSuchMethod) {
		t.Fatalf("arity: got %v", err)
	}
	// Unconvertible argument fails cleanly.
	if _, err := cref.Call("Incr", "not a number"); err == nil {
		t.Fatal("want conversion error")
	}
}

func TestApplicationErrorCrossesWire(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	ref, _ := owner.Export(&counter{})
	cref := handoff(t, ref, client)

	_, err := cref.Call("Fail", "out of cheese")
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "out of cheese" {
		t.Fatalf("got %v", err)
	}
}

func TestPanicBecomesInternalError(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	ref, _ := owner.Export(&counter{})
	cref := handoff(t, ref, client)

	_, err := cref.Call("Boom")
	var ce *CallError
	if !errors.As(err, &ce) || ce.Status != wire.StatusInternal {
		t.Fatalf("got %v", err)
	}
	// The space survives.
	if _, err := cref.Call("Value"); err != nil {
		t.Fatalf("space damaged by panic: %v", err)
	}
}

func TestNoSuchMethodAndObject(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	ref, _ := owner.Export(&counter{})
	cref := handoff(t, ref, client)

	if _, err := cref.Call("NoSuchThing"); !errors.Is(err, ErrNoSuchMethod) {
		t.Fatalf("got %v", err)
	}
	w, _ := ref.WireRep()
	w.Index = 9999
	if _, err := client.Import(w); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("got %v", err)
	}
}

func TestSurrogateIdentity(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	ref, _ := owner.Export(&counter{})

	r1 := handoff(t, ref, client)
	r2 := handoff(t, ref, client)
	if r1 != r2 {
		t.Fatal("two imports produced distinct surrogates")
	}
	// The owner importing its own wireRep gets the concrete handle, not a
	// surrogate.
	w, _ := ref.WireRep()
	r3, err := owner.Import(w)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.IsOwner() || r3 != ref {
		t.Fatalf("owner import: %v", r3)
	}
}

func TestDirtySetMaintained(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	ref, _ := owner.Export(&counter{})
	w, _ := ref.WireRep()

	cref := handoff(t, ref, client)
	if !owner.Exports().HoldsDirty(w.Index, client.ID()) {
		t.Fatal("client not in dirty set after import")
	}

	cref.Release()
	if !waitFor(2*time.Second, func() bool { return owner.Exports().Len() == 0 }) {
		t.Fatal("object not withdrawn after release")
	}
	// Calls through the released surrogate fail locally.
	if _, err := cref.Call("Value"); !errors.Is(err, objtable.ErrReleased) {
		t.Fatalf("got %v", err)
	}
}

func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

func TestReimportAfterRelease(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	ref, _ := owner.Export(&counter{n: 10})

	cref := handoff(t, ref, client)
	cref.Release()
	if !waitFor(2*time.Second, func() bool { return owner.Exports().Len() == 0 }) {
		t.Fatal("not withdrawn")
	}
	// A fresh import must restart the life cycle (re-export at the owner,
	// new dirty call) and work.
	cref2 := handoff(t, ref, client)
	got, err := cref2.Call("Value")
	if err != nil {
		t.Fatal(err)
	}
	if got[0].(int64) != 10 {
		t.Fatalf("got %v", got)
	}
}

// remote interface used for typed reference passing.
type Adder interface {
	Incr(delta int64) (int64, error)
}

// adderStub is a hand-written stand-in for a generated stub.
type adderStub struct{ ref *Ref }

func (s *adderStub) NetObjRef() *Ref { return s.ref }

func (s *adderStub) Incr(delta int64) (int64, error) {
	out, err := s.ref.Call("Incr", delta)
	if err != nil {
		return 0, err
	}
	return out[0].(int64), nil
}

// relay passes references around: the third-party in transfer tests.
type relay struct {
	mu   sync.Mutex
	held *Ref
	a    Adder
}

func (r *relay) Put(ref *Ref) error {
	r.mu.Lock()
	old := r.held
	r.held = ref
	r.mu.Unlock()
	if old != nil && old != ref {
		old.Release()
	}
	return nil
}

// Drop releases whatever the relay holds.
func (r *relay) Drop() error {
	r.mu.Lock()
	old := r.held
	r.held = nil
	r.mu.Unlock()
	if old != nil {
		old.Release()
	}
	return nil
}

func (r *relay) Get() (*Ref, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.held, nil
}

func (r *relay) PutAdder(a Adder) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.a = a
	return nil
}

func (r *relay) UseAdder(delta int64) (int64, error) {
	r.mu.Lock()
	a := r.a
	r.mu.Unlock()
	if a == nil {
		return 0, errors.New("no adder held")
	}
	return a.Incr(delta)
}

func registerAdder(sp *Space) {
	err := sp.RegisterRemoteInterface(reflect.TypeOf((*Adder)(nil)).Elem(),
		func(r *Ref) any { return &adderStub{ref: r} })
	if err != nil {
		panic(err)
	}
}

func TestThirdPartyTransfer(t *testing.T) {
	// A (owner of counter), B (relay), C (consumer): A's reference reaches
	// C through B, and C talks to A directly.
	tn := newTestNet(t)
	a := tn.space("A", nil)
	b := tn.space("B", nil)
	c := tn.space("C", nil)

	cnt := &counter{}
	aRef, _ := a.Export(cnt)
	relayImpl := &relay{}
	bRelayRef, _ := b.Export(relayImpl)

	// A-side client of the relay stores A's counter ref into B.
	relayAtA := handoff(t, bRelayRef, a)
	if _, err := relayAtA.Call("Put", aRef); err != nil {
		t.Fatal(err)
	}
	// C fetches it from B. The result is a reference owned by A.
	relayAtC := handoff(t, bRelayRef, c)
	out, err := relayAtC.Call("Get")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out[0].(*Ref)
	if !ok {
		t.Fatalf("got %T", out[0])
	}
	if got.Owner() != a.ID() {
		t.Fatalf("owner %v, want %v", got.Owner(), a.ID())
	}
	// C invokes directly on A.
	res, err := got.Call("Incr", int64(4))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 4 {
		t.Fatalf("got %v", res)
	}
	// All three clients are in A's dirty set for the counter.
	w, _ := aRef.WireRep()
	for _, cl := range []*Space{b, c} {
		if !a.Exports().HoldsDirty(w.Index, cl.ID()) {
			t.Fatalf("space %v missing from dirty set", cl.ID())
		}
	}
}

func TestRemoteInterfaceAutoExportAndStubs(t *testing.T) {
	tn := newTestNet(t)
	a := tn.space("A", nil)
	b := tn.space("B", nil)
	registerAdder(a)
	registerAdder(b)

	relayImpl := &relay{}
	bRef, _ := b.Export(relayImpl)
	relayAtA := handoff(t, bRef, a)

	// A passes a concrete *counter at Adder position: auto-export.
	cnt := &counter{}
	if _, err := relayAtA.Call("PutAdder", Adder(cnt)); err != nil {
		t.Fatal(err)
	}
	// B's relay got a stub wrapping a surrogate for A's counter; B can use
	// it server-side.
	out, err := relayAtA.Call("UseAdder", int64(9))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int64) != 9 {
		t.Fatalf("got %v", out)
	}
	// The concrete object really mutated at A.
	if cnt.n != 9 {
		t.Fatalf("concrete n=%d", cnt.n)
	}
	if relayImpl.a == nil {
		t.Fatal("relay holds no adder")
	}
	if _, isStub := relayImpl.a.(*adderStub); !isStub {
		t.Fatalf("relay holds %T, want stub", relayImpl.a)
	}
}

func TestResultRefNeedsAck(t *testing.T) {
	// When a call returns a reference, the server holds it transiently
	// dirty until the client acks; afterwards the pin must be gone and the
	// dirty set must contain the client.
	tn := newTestNet(t)
	b := tn.space("B", nil)
	c := tn.space("C", nil)

	relayImpl := &relay{}
	bRef, _ := b.Export(relayImpl)
	own := &counter{}
	ownRef, _ := b.Export(own) // B owns the counter it hands out
	relayImpl.held = ownRef

	relayAtC := handoff(t, bRef, c)
	out, err := relayAtC.Call("Get")
	if err != nil {
		t.Fatal(err)
	}
	ref := out[0].(*Ref)
	if _, err := ref.Call("Incr", int64(1)); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.ResultAcksWaited == 0 {
		t.Fatal("owner never waited for a result ack")
	}
	cst := c.Stats()
	if cst.ResultAcksSent == 0 {
		t.Fatal("client never sent a result ack")
	}
}

func TestTypedInvocation(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	cnt := &counter{}
	ref, _ := owner.Export(cnt)
	cref := handoff(t, ref, client)

	fp := pickle.Fingerprint(reflect.TypeOf((*Adder)(nil)).Elem())
	_ = fp // counter has more methods than Adder; use object fingerprint 0 here
	args := []reflect.Value{reflect.ValueOf(int64(11))}
	rts := []reflect.Type{reflect.TypeOf(int64(0))}
	out, err := cref.InvokeTyped("Incr", 0, args, rts)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Int() != 11 {
		t.Fatalf("got %v", out[0])
	}
	// A wrong fingerprint is rejected.
	if _, err := cref.InvokeTyped("Incr", 12345, args, rts); !errors.Is(err, ErrBadFingerprint) {
		t.Fatalf("got %v", err)
	}
	// Typed app error.
	_, err = cref.InvokeTyped("Fail", 0,
		[]reflect.Value{reflect.ValueOf("nope")}, nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "nope" {
		t.Fatalf("got %v", err)
	}
}

func TestTypedInvocationWithInterfaceFingerprint(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	registerAdder(owner) // must precede Export so the fingerprint set includes Adder
	cnt := &counter{}
	ref, _ := owner.Export(cnt)
	cref := handoff(t, ref, client)

	fp := pickle.Fingerprint(reflect.TypeOf((*Adder)(nil)).Elem())
	out, err := cref.InvokeTyped("Incr", fp,
		[]reflect.Value{reflect.ValueOf(int64(5))},
		[]reflect.Type{reflect.TypeOf(int64(0))})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Int() != 5 {
		t.Fatalf("got %v", out[0])
	}
}

// TestLateInterfaceWidensLaterExports: the fingerprints a space accepts
// for a type are worked out once and shared, until a remote interface is
// registered. Exports made after the registration accept the interface's
// fingerprint; one made before keeps what it accepted. Exports from many
// goroutines at once share the list without racing.
func TestLateInterfaceWidensLaterExports(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	adder := pickle.Fingerprint(reflect.TypeOf((*Adder)(nil)).Elem())
	accepts := func(obj any) bool {
		t.Helper()
		ref, err := owner.Export(obj)
		if err != nil {
			t.Fatal(err)
		}
		w, err := ref.WireRep()
		if err != nil {
			t.Fatal(err)
		}
		ent, ok := owner.exports.Lookup(w.Index)
		if !ok {
			t.Fatal("export vanished")
		}
		return ent.AcceptsFingerprint(adder)
	}
	early := &counter{}
	if accepts(early) || accepts(&counter{}) {
		t.Fatal("an export accepts an interface nobody registered")
	}
	registerAdder(owner)
	if !accepts(&counter{}) {
		t.Fatal("an export made after the registration does not accept the interface")
	}
	if accepts(early) {
		t.Fatal("an export made before the registration was widened")
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				obj := &counter{}
				if _, err := owner.Export(obj); err != nil {
					t.Error(err)
					return
				}
				if !acceptsFingerprint(owner, obj, adder) {
					t.Error("a concurrent export does not accept the interface")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentCalls(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	cnt := &counter{}
	ref, _ := owner.Export(cnt)
	cref := handoff(t, ref, client)

	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := cref.Call("Incr", int64(1)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cnt.n != goroutines*iters {
		t.Fatalf("n=%d want %d", cnt.n, goroutines*iters)
	}
}

func TestGracefulCloseSendsCleans(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	ref, _ := owner.Export(&counter{})
	handoff(t, ref, client)
	if owner.Exports().Len() != 1 {
		t.Fatal("no export entry")
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if !waitFor(2*time.Second, func() bool { return owner.Exports().Len() == 0 }) {
		t.Fatal("owner kept the entry after client's graceful close")
	}
}

func TestDeadClientReclaimedByPing(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", func(o *Options) {
		o.PingMaxFailures = 2
		o.PingTimeout = 200 * time.Millisecond
	})
	client := tn.space("client", nil)
	ref, _ := owner.Export(&counter{})
	handoff(t, ref, client)

	client.Abort() // crash: no parting cleans
	if owner.Exports().Len() != 1 {
		t.Fatal("entry vanished without ping")
	}
	// Drive ping rounds until the owner gives up on the client. A fixed
	// number of back-to-back rounds is not enough: each can be subsumed by
	// the client's session until the owner has seen that session die.
	if !waitFor(2*time.Second, func() bool {
		owner.pinger.Poke()
		return owner.Exports().Len() == 0
	}) {
		t.Fatal("dead client never reclaimed")
	}
	if owner.Stats().ClientsDropped == 0 {
		t.Fatal("drop not recorded")
	}
}

func TestImportFromDeadOwnerFails(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", func(o *Options) { o.CallTimeout = 300 * time.Millisecond })
	ref, _ := owner.Export(&counter{})
	w, _ := ref.WireRep()
	owner.Abort()

	if _, err := client.Import(w); err == nil {
		t.Fatal("import from dead owner succeeded")
	}
	// The failed registration left no entry behind; the strong clean was
	// scheduled and eventually abandoned.
	if st := client.Imports().StateOf(w.Key()); st != objtable.StateNone {
		t.Fatalf("state %v after failed import", st)
	}
}

func TestMarshalReleasedRefFails(t *testing.T) {
	tn := newTestNet(t)
	a := tn.space("A", nil)
	b := tn.space("B", nil)
	c := tn.space("C", nil)
	cnt := &counter{}
	aRef, _ := a.Export(cnt)
	relayRef, _ := b.Export(&relay{})

	cRefToCnt := handoff(t, aRef, c)
	cRefToRelay := handoff(t, relayRef, c)
	cRefToCnt.Release()
	if _, err := cRefToRelay.Call("Put", cRefToCnt); err == nil {
		t.Fatal("marshaled a released reference")
	}
}

func TestStatsPlausible(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	ref, _ := owner.Export(&counter{})
	cref := handoff(t, ref, client)
	for i := 0; i < 3; i++ {
		if _, err := cref.Call("Incr", int64(1)); err != nil {
			t.Fatal(err)
		}
	}
	ost, cst := owner.Stats(), client.Stats()
	if cst.CallsSent != 3 || ost.CallsServed != 3 {
		t.Fatalf("calls: sent=%d served=%d", cst.CallsSent, ost.CallsServed)
	}
	if cst.DirtySent != 1 || ost.DirtyServed != 1 {
		t.Fatalf("dirty: sent=%d served=%d", cst.DirtySent, ost.DirtyServed)
	}
	if cst.SurrogatesMade != 1 {
		t.Fatalf("surrogates=%d", cst.SurrogatesMade)
	}
}

func TestCallEndpointBootstrap(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)

	cnt := &counter{}
	ownRef, _ := owner.Export(cnt)
	agent := &relay{held: ownRef}
	if _, err := owner.ExportAgent(agent); err != nil {
		t.Fatal(err)
	}
	out, err := client.CallEndpoint(owner.Endpoints()[0], wire.AgentIndex, "Get")
	if err != nil {
		t.Fatal(err)
	}
	ref := out[0].(*Ref)
	res, err := ref.Call("Incr", int64(2))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 2 {
		t.Fatalf("got %v", res)
	}
}

func TestDataArgumentsRoundTrip(t *testing.T) {
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	e := &echo{}
	ref, _ := owner.Export(e)
	cref := handoff(t, ref, client)

	payload := map[string]any{"k": int64(1), "s": "v", "xs": []int{1, 2, 3}}
	// Both registries must know the types inside `any`.
	for _, sp := range []*Space{owner, client} {
		sp.Pickler().Registry().Register([]int{})
	}
	out, err := cref.Call("Echo", payload)
	if err != nil {
		t.Fatal(err)
	}
	got := out[0].(map[string]any)
	if got["k"].(int64) != 1 || got["s"].(string) != "v" {
		t.Fatalf("got %#v", got)
	}
	if xs := got["xs"].([]int); len(xs) != 3 || xs[2] != 3 {
		t.Fatalf("got %#v", got)
	}
}

type echo struct{}

func (echo) Echo(m map[string]any) (map[string]any, error) { return m, nil }

func TestCcitNilResurrectionUnderRace(t *testing.T) {
	// Hammer release/import cycles so the ccit/ccitnil edges get exercised
	// with a real network between the parties.
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	cnt := &counter{}
	ref, _ := owner.Export(cnt)
	w, _ := ref.WireRep()

	for i := 0; i < 100; i++ {
		r, err := client.Import(w)
		if err != nil {
			// The owner may have withdrawn between release and import;
			// re-exporting refreshes the wireRep.
			w, _ = ref.WireRep()
			r, err = client.Import(w)
			if err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
		}
		if _, err := r.Call("Incr", int64(1)); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		r.Release()
	}
	// Let the dust settle: eventually no imports remain and the owner
	// table empties.
	if !waitFor(5*time.Second, func() bool {
		return client.Imports().Len() == 0 && owner.Exports().Len() == 0
	}) {
		t.Fatalf("leftover state: imports=%d exports=%d",
			client.Imports().Len(), owner.Exports().Len())
	}
}
