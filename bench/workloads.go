package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"netobjects"
	"netobjects/internal/baseline/srcrpc"
	"netobjects/internal/transport"
)

// A workload is one set of inputs the benchmark runs. The names are fixed:
// later issues refer to them.
type workload struct {
	name, why string
	setup     func(seed int64, tf tracerFor) (*instance, error)
}

var workloads = []workload{
	{"null_inmem", "1 caller, dynamic Null over the in-memory transport: fixed per-call cost of core, wire and the session hop, beside srcrpc on the same transport", setupNullInmem},
	{"mixed_tcp", "8 callers share one mux session over loopback TCP with a seeded typed mix: writer queue, demux, concurrent serve and the kernel round trip", setupMixedTCP},
	{"bulk_tcp", "1 MiB Bytes calls beside a Null probe on one TCP session: flow chunking, credit, the []byte pickle path and small frames overtaking large ones", setupBulkTCP},
	{"refs_tcp", "reference cycles across three spaces with 2^17 resident exports: dirty/clean traffic, object tables and third-party transfer", setupRefsTCP},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// tracerFor supplies the tracer each space is built with; a nil tracerFor
// (the untraced run) builds spaces without one.
type tracerFor func() netobjects.Tracer

// closers are undone in reverse order.
type closers []func()

func (c closers) close() {
	for i := len(c) - 1; i >= 0; i-- {
		c[i]()
	}
}

type role int

const (
	roleOp    role = iota // runs the workload's operation
	roleProbe             // runs a small call beside the operation (bulk_tcp)
)

// opInputs are the generated inputs of one call and its expected reply.
// The caller keeps the inputs of its latest operation so the traced run
// can replay the layer functions on them.
type opInputs struct {
	obj         uint64 // export index of the target at its owner
	method      string
	fp          uint64
	typed       bool
	args        []reflect.Value
	argTypes    []reflect.Type
	resultTypes []reflect.Type
	want        int64  // first result
	want2       uint64 // second result, when the method has one
	payload     int    // argument payload bytes delivered by the call
}

// caller is the state of one closed-loop caller goroutine.
type caller struct {
	id   int
	role role
	rng  *rand.Rand
	n    int64    // operations started
	last opInputs // inputs of the operation just run

	ops, probes, refs []sample
	attempted, failed int
	firstErr          error
	payload           int64
	roots             []rootSpan
	scratch           scratch // for the traced run's replays
}

// opID names the caller's current operation in span lists.
func (c *caller) opID() int64 { return int64(c.id)<<32 | c.n }

// instance is one set-up of a workload: its spaces, its callers'
// operations and the checks that run when the window has closed.
type instance struct {
	tr     netobjects.Transport // the workload's transport
	spaces []*netobjects.Space  // every space; the invoked service's owner first
	client *netobjects.Space    // where the callers run
	target uint64               // export index, at spaces[0], of the object the callers invoke
	roles  []role               // one per caller goroutine
	sample func(rng *rand.Rand) opInputs

	op    func(c *caller) (alsoProbe bool, err error)
	probe func(c *caller) error // roleProbe callers
	ref   func(c *caller) error // reference call alternating with op, or nil

	// drained reports, once the window has closed, whether every
	// reference the operations created has been collected again.
	drained func() error
	closers
	tf tracerFor
}

// space builds a space with default Options: only the name, the transport
// and (in the traced run) the tracer are set, so the benchmark measures
// what users run.
func (in *instance) space(name string) (*netobjects.Space, error) {
	opts := netobjects.Options{Name: name, Transports: []netobjects.Transport{in.tr}}
	if in.tf != nil {
		opts.Tracer = in.tf()
	}
	sp, err := netobjects.New(opts)
	if err != nil {
		return nil, fmt.Errorf("space %s: %w", name, err)
	}
	in.spaces = append(in.spaces, sp)
	in.closers = append(in.closers, func() { _ = sp.Close() })
	return sp, nil
}

// importAt exports obj at its owner and imports it at to, which makes the
// dirty call.
func importAt(owner *netobjects.Space, obj any, to *netobjects.Space) (*netobjects.Ref, error) {
	r, err := owner.Export(obj)
	if err != nil {
		return nil, err
	}
	w, err := r.WireRep()
	if err != nil {
		return nil, err
	}
	return to.Import(w)
}

func indexOf(r *netobjects.Ref) uint64 {
	w, _ := r.WireRep()
	return w.Index
}

var errWrongReply = errors.New("reply does not match the generated inputs")

// --- the invoked service ------------------------------------------------

// Service is the remote interface the call-path workloads invoke; the
// typed workloads call it the way generated stubs do.
type Service interface {
	Null() error
	FourInts(a, b, c, d int64) (int64, error)
	Text(s string) (int64, error)
	Struct(p Payload) (int64, error)
	Bytes(b []byte) (int64, uint64, error)
}

// Payload is the small struct argument of the mix.
type Payload struct {
	A string
	B int64
	C float64
	D []int32
}

func (p Payload) sum() int64 {
	s := p.B + int64(len(p.A)) + int64(p.C)
	for _, d := range p.D {
		s += int64(d)
	}
	return s
}

type service struct{}

func (*service) Null() error                              { return nil }
func (*service) FourInts(a, b, c, d int64) (int64, error) { return a + b + c + d, nil }
func (*service) Text(s string) (int64, error)             { return textSum(s), nil }
func (*service) Struct(p Payload) (int64, error)          { return p.sum(), nil }
func (*service) Bytes(b []byte) (int64, uint64, error) {
	return int64(len(b)), uint64(crc32.Checksum(b, castagnoli)), nil
}

func textSum(s string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return int64(h.Sum64() >> 1)
}

// castagnoli is hardware-assisted, so checking all of a 1 MiB payload
// costs the owner a few percent of the call instead of the fifth that
// FNV's byte-serial loop would.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	serviceFP    = netobjects.FingerprintOf[Service]()
	int64Result  = []reflect.Type{netobjects.TypeFor[int64]()}
	bytesResults = []reflect.Type{netobjects.TypeFor[int64](), netobjects.TypeFor[uint64]()}
)

// serviceAt exports a service at owner, declared remote there so that the
// stub fingerprint of Service is accepted, and imports it at client.
func serviceAt(owner, client *netobjects.Space) (*netobjects.Ref, error) {
	if err := netobjects.RegisterRemoteInterface[Service](owner, nil); err != nil {
		return nil, err
	}
	return importAt(owner, &service{}, client)
}

// invoke performs the call in and checks its reply against the inputs.
func invoke(ref *netobjects.Ref, in *opInputs) error {
	if !in.typed {
		args := make([]any, len(in.args))
		for i, a := range in.args {
			args[i] = a.Interface()
		}
		outs, err := ref.Call(in.method, args...)
		if err != nil {
			return err
		}
		if len(outs) != len(in.resultTypes) || (len(outs) > 0 && outs[0] != any(in.want)) {
			return errWrongReply
		}
		return nil
	}
	outs, err := ref.InvokeTyped(in.method, in.fp, in.args, in.resultTypes)
	if err != nil {
		return err
	}
	if len(outs) != len(in.resultTypes) ||
		(len(outs) > 0 && outs[0].Int() != in.want) ||
		(len(outs) > 1 && outs[1].Uint() != in.want2) {
		return errWrongReply
	}
	return nil
}

// dynamicArgs holds vals the way Ref.Call pickles them: each as an
// interface value.
func dynamicArgs(vals ...any) ([]reflect.Value, []reflect.Type) {
	args := make([]reflect.Value, len(vals))
	types := make([]reflect.Type, len(vals))
	for i := range vals {
		args[i] = reflect.ValueOf(&vals[i]).Elem()
		types[i] = args[i].Type()
	}
	return args, types
}

// --- null_inmem ----------------------------------------------------------

func setupNullInmem(seed int64, tf tracerFor) (*instance, error) {
	mem := netobjects.NewMem()
	in := &instance{tr: mem, roles: []role{roleOp}, tf: tf}
	owner, err := in.space("owner")
	if err != nil {
		return nil, err
	}
	if in.client, err = in.space("client"); err != nil {
		return in, err
	}
	ref, err := importAt(owner, &service{}, in.client)
	if err != nil {
		return in, err
	}
	in.target = indexOf(ref)
	null := opInputs{obj: in.target, method: "Null"}
	in.sample = func(*rand.Rand) opInputs { return null }
	in.op = func(c *caller) (bool, error) {
		c.last = null
		return true, invoke(ref, &null)
	}

	// The plain-RPC reference: srcrpc's null call on the same Mem.
	raw, ep, err := rawRPC(in, mem)
	if err != nil {
		return in, err
	}
	in.ref = func(*caller) error {
		out, err := raw.Call(ep, "null", nil)
		if err == nil && len(out) != 0 {
			err = errWrongReply
		}
		return err
	}
	return in, nil
}

// rawRPC starts a srcrpc server and client on tr, the plain-RPC baseline
// the paper measures the object layer against.
func rawRPC(in *instance, tr netobjects.Transport) (*srcrpc.Client, string, error) {
	reg := transport.NewRegistry(tr)
	l, err := reg.Listen(tr.Proto() + ":")
	if err != nil {
		return nil, "", err
	}
	srv := srcrpc.NewServer()
	srv.Handle("null", func([]byte) ([]byte, error) { return nil, nil })
	srv.Serve(l)
	cl := srcrpc.NewClient(reg, 30*time.Second)
	in.closers = append(in.closers, srv.Close, cl.Close)
	return cl, l.Endpoint(), nil
}

// --- mixed_tcp -----------------------------------------------------------

const mixedCallers = 8

func setupMixedTCP(seed int64, tf tracerFor) (*instance, error) {
	in := &instance{tr: netobjects.NewTCP(), roles: make([]role, mixedCallers), tf: tf}
	owner, err := in.space("owner")
	if err != nil {
		return nil, err
	}
	if in.client, err = in.space("client"); err != nil {
		return in, err
	}
	ref, err := serviceAt(owner, in.client)
	if err != nil {
		return in, err
	}
	obj := indexOf(ref)
	in.target = obj

	// Sixteen seeded 1 KB texts and structs; each call draws one.
	rng := rand.New(rand.NewSource(seed))
	texts := make([]string, 16)
	structs := make([]Payload, 16)
	for i := range texts {
		b := make([]byte, 1024)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		texts[i] = string(b)
		structs[i] = Payload{A: texts[i][:8], B: rng.Int63n(1 << 40), C: float64(rng.Intn(1000)),
			D: []int32{rng.Int31(), rng.Int31(), rng.Int31(), rng.Int31()}}
	}
	in.sample = func(rng *rand.Rand) opInputs {
		o := opInputs{obj: obj, fp: serviceFP, typed: true}
		switch p := rng.Intn(100); {
		case p < 60:
			o.method = "Null"
		case p < 80:
			a, b, c, d := rng.Int63n(1<<40), rng.Int63n(1<<40), rng.Int63n(1<<40), rng.Int63n(1<<40)
			o.method, o.resultTypes, o.want = "FourInts", int64Result, a+b+c+d
			o.args = []reflect.Value{netobjects.ArgValue(a), netobjects.ArgValue(b), netobjects.ArgValue(c), netobjects.ArgValue(d)}
			o.payload = 32
		case p < 95:
			t := texts[rng.Intn(len(texts))]
			o.method, o.resultTypes, o.want = "Text", int64Result, textSum(t)
			o.args = []reflect.Value{netobjects.ArgValue(t)}
			o.payload = len(t)
		default:
			s := structs[rng.Intn(len(structs))]
			o.method, o.resultTypes, o.want = "Struct", int64Result, s.sum()
			o.args = []reflect.Value{netobjects.ArgValue(s)}
			o.payload = len(s.A) + 8 + 8 + 4*len(s.D)
		}
		for _, a := range o.args {
			o.argTypes = append(o.argTypes, a.Type())
		}
		return o
	}
	in.op = func(c *caller) (bool, error) {
		c.last = in.sample(c.rng)
		c.payload += int64(c.last.payload)
		return c.last.method == "Null", invoke(ref, &c.last)
	}
	return in, nil
}

// --- bulk_tcp ------------------------------------------------------------

const bulkBytes = 1 << 20

func setupBulkTCP(seed int64, tf tracerFor) (*instance, error) {
	in := &instance{tr: netobjects.NewTCP(), roles: []role{roleOp, roleProbe}, tf: tf}
	owner, err := in.space("owner")
	if err != nil {
		return nil, err
	}
	if in.client, err = in.space("client"); err != nil {
		return in, err
	}
	ref, err := serviceAt(owner, in.client)
	if err != nil {
		return in, err
	}
	obj := indexOf(ref)
	in.target = obj

	// One seeded megabyte; every call stamps its number into the last
	// eight bytes, so each reply's checksum is its own and the expected
	// value costs one short CRC update.
	buf := make([]byte, bulkBytes)
	rand.New(rand.NewSource(seed)).Read(buf)
	head := crc32.Update(0, castagnoli, buf[:bulkBytes-8])
	bulk := func(n int64) opInputs {
		binary.LittleEndian.PutUint64(buf[bulkBytes-8:], uint64(n))
		return opInputs{obj: obj, method: "Bytes", fp: serviceFP, typed: true,
			args: []reflect.Value{netobjects.ArgValue(buf)}, argTypes: []reflect.Type{reflect.TypeOf(buf)},
			resultTypes: bytesResults, want: bulkBytes,
			want2: uint64(crc32.Update(head, castagnoli, buf[bulkBytes-8:])), payload: bulkBytes}
	}
	in.sample = func(*rand.Rand) opInputs { return bulk(0) }
	in.op = func(c *caller) (bool, error) {
		c.last = bulk(c.n)
		c.payload += bulkBytes
		return false, invoke(ref, &c.last)
	}
	null := opInputs{obj: obj, method: "Null", fp: serviceFP, typed: true}
	in.probe = func(c *caller) error {
		c.last = null
		return invoke(ref, &null)
	}
	return in, nil
}

// --- refs_tcp ------------------------------------------------------------

// residentExports is the size of A's export table while the reference
// cycles run, so lookups and the new exports land in a large table.
const residentExports = 1 << 17

type counter struct {
	mu sync.Mutex
	n  int64
}

func (c *counter) Incr(d int64) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += d
	return c.n, nil
}

// factory hands out fresh network objects owned by its space.
type factory struct{ sp *netobjects.Space }

func (f *factory) New() (*netobjects.Ref, error) { return f.sp.Export(&counter{}) }

// sink receives a reference from a third party, registers with the
// object's owner, uses it and lets it go.
type sink struct{}

func (*sink) Take(obj *netobjects.Ref, want int64) (int64, error) {
	defer obj.Release()
	out, err := obj.Call("Incr", int64(1))
	if err != nil {
		return 0, err
	}
	got, _ := out[0].(int64)
	if got != want {
		return got, fmt.Errorf("sink: Incr returned %d, want %d", got, want)
	}
	return got, nil
}

func setupRefsTCP(seed int64, tf tracerFor) (*instance, error) {
	in := &instance{tr: netobjects.NewTCP(), roles: []role{roleOp, roleOp}, tf: tf}
	a, err := in.space("A")
	if err != nil {
		return nil, err
	}
	b, err := in.space("B")
	if err != nil {
		return in, err
	}
	in.client = b
	c, err := in.space("C")
	if err != nil {
		return in, err
	}
	resident := make([]*counter, residentExports)
	for i := range resident {
		resident[i] = &counter{}
		if _, err := a.Export(resident[i]); err != nil {
			return in, err
		}
	}
	in.closers = append(in.closers, func() { resident = nil })
	fac, err := importAt(a, &factory{a}, b)
	if err != nil {
		return in, err
	}
	snk, err := importAt(c, &sink{}, b)
	if err != nil {
		return in, err
	}
	in.target = indexOf(fac)
	exports, importsB, importsC := a.Exports().Len(), b.Imports().Len(), c.Imports().Len()
	dirty0 := b.Stats().DirtySent + c.Stats().DirtySent
	var cycles atomic.Uint64

	// The layer probes and the trace replay use the shape of the
	// third-party call, with the long-lived factory surrogate standing in
	// for the counter the cycle has already released.
	takeArgs, takeTypes := dynamicArgs(fac, int64(2))
	take := opInputs{obj: indexOf(snk), method: "Take", args: takeArgs, argTypes: takeTypes,
		resultTypes: int64Result, want: 2, payload: 16}
	in.sample = func(*rand.Rand) opInputs { return take }
	in.op = func(cl *caller) (bool, error) {
		cl.last = take
		d := 1 + cl.rng.Int63n(1000)
		out, err := fac.Call("New")
		if err != nil {
			return false, err
		}
		cycles.Add(1)
		obj, ok := out[0].(*netobjects.Ref)
		if !ok {
			return false, errWrongReply
		}
		defer obj.Release()
		t0 := time.Now()
		out, err = obj.Call("Incr", d)
		cl.probes = append(cl.probes, sample{dur: int64(time.Since(t0))})
		if err != nil {
			return false, err
		}
		if got, _ := out[0].(int64); got != d {
			return false, errWrongReply
		}
		out, err = snk.Call("Take", obj, d+1)
		if err != nil {
			return false, err
		}
		if got, _ := out[0].(int64); got != d+1 {
			return false, errWrongReply
		}
		cl.payload += 16
		return false, nil
	}
	in.drained = func() error {
		deadline := time.Now().Add(5 * time.Second)
		for {
			ea, ib, ic := a.Exports().Len(), b.Imports().Len(), c.Imports().Len()
			if ea == exports && ib == importsB && ic == importsC {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("not drained after 5s: A exports %d (want %d), B imports %d (want %d), C imports %d (want %d)",
					ea, exports, ib, importsB, ic, importsC)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if dirty, want := b.Stats().DirtySent+c.Stats().DirtySent-dirty0, 2*cycles.Load(); dirty != want {
			return fmt.Errorf("%d dirty calls for %d cycles, want %d", dirty, cycles.Load(), want)
		}
		return nil
	}
	return in, nil
}
