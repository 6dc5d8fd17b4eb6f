// Benchmarks regenerating the evaluation of the paper (see EXPERIMENTS.md
// for the experiment index). Table T1 measures invocation latency by
// argument type against the raw-RPC baseline; T2 measures pickling; F1 is
// the throughput-vs-payload figure; T3 measures the collector's protocol
// costs; T4 benchmarks the model checker itself. Run with:
//
//	go test -bench=. -benchmem .
package netobjects_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"netobjects"
	"netobjects/internal/baseline/srcrpc"
	"netobjects/internal/pickle"
	"netobjects/internal/refmodel"
	"netobjects/internal/transport"
)

// benchService is the server object all invocation benchmarks target.
type benchService struct {
	mu   sync.Mutex
	held []*netobjects.Ref
}

func (s *benchService) Null() error                          { return nil }
func (s *benchService) FourInts(a, b, c, d int64) error      { return nil }
func (s *benchService) Text(t string) (int64, error)         { return int64(len(t)), nil }
func (s *benchService) Bytes(b []byte) (int64, error)        { return int64(len(b)), nil }
func (s *benchService) Struct(p benchPayload) (int64, error) { return p.B, nil }
func (s *benchService) TakeRef(r *netobjects.Ref) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.held = append(s.held, r)
	if len(s.held) > 64 {
		old := s.held[0]
		s.held = s.held[1:]
		old.Release()
	}
	return nil
}

// benchPayload is the "small struct" argument of T1.
type benchPayload struct {
	A string
	B int64
	C float64
	D []int32
}

// benchEnv is a connected owner/client pair plus a raw-RPC pair over the
// same transport.
type benchEnv struct {
	owner, client *netobjects.Space
	svc           *benchService
	ref           *netobjects.Ref // client's surrogate for svc
	raw           *srcrpc.Client
	rawEP         string
	rawSrv        *srcrpc.Server
}

func newBenchEnv(b *testing.B, proto string) *benchEnv {
	b.Helper()
	var tr netobjects.Transport
	switch proto {
	case "inmem":
		tr = netobjects.NewMem()
	case "tcp":
		tr = netobjects.NewTCP()
	default:
		b.Fatalf("unknown proto %s", proto)
	}
	mk := func(name string) *netobjects.Space {
		sp, err := netobjects.New(netobjects.Options{
			Name:         name,
			Transports:   []netobjects.Transport{tr},
			PingInterval: time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = sp.Close() })
		return sp
	}
	env := &benchEnv{owner: mk("owner"), client: mk("client"), svc: &benchService{}}
	ref, err := env.owner.Export(env.svc)
	if err != nil {
		b.Fatal(err)
	}
	w, err := ref.WireRep()
	if err != nil {
		b.Fatal(err)
	}
	env.ref, err = env.client.Import(w)
	if err != nil {
		b.Fatal(err)
	}

	// Raw RPC server over the same transport kind.
	reg := transport.NewRegistry(tr.(transport.Transport))
	l, err := reg.Listen(proto + ":")
	if err != nil {
		b.Fatal(err)
	}
	env.rawSrv = srcrpc.NewServer()
	env.rawSrv.Handle("null", func(p []byte) ([]byte, error) { return nil, nil })
	env.rawSrv.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	env.rawSrv.Handle("sink", func(p []byte) ([]byte, error) { return nil, nil })
	env.rawSrv.Serve(l)
	b.Cleanup(env.rawSrv.Close)
	env.raw = srcrpc.NewClient(reg, 30*time.Second)
	b.Cleanup(env.raw.Close)
	env.rawEP = l.Endpoint()
	return env
}

func eachProto(b *testing.B, f func(b *testing.B, env *benchEnv)) {
	for _, proto := range []string{"inmem", "tcp"} {
		b.Run(proto, func(b *testing.B) { f(b, newBenchEnv(b, proto)) })
	}
}

// --- T1: invocation latency by argument type ---------------------------

func BenchmarkT1_NullCall_NetObj(b *testing.B) {
	eachProto(b, func(b *testing.B, env *benchEnv) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := env.ref.Call("Null"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkT1_NullCall_Traced measures the fully observed call path: the
// always-on metrics plus a ring tracer receiving every lifecycle event.
// Compare against BenchmarkT1_NullCall_NetObj (metrics only, no tracer)
// to see the tracer's marginal cost; it should stay within a few percent.
func BenchmarkT1_NullCall_Traced(b *testing.B) {
	mem := netobjects.NewMem()
	mk := func(name string) *netobjects.Space {
		sp, err := netobjects.New(netobjects.Options{
			Name:         name,
			Transports:   []netobjects.Transport{mem},
			PingInterval: time.Hour,
			Tracer:       netobjects.NewRingTracer(1024),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = sp.Close() })
		return sp
	}
	owner, client := mk("owner"), mk("client")
	ref, err := owner.Export(&benchService{})
	if err != nil {
		b.Fatal(err)
	}
	w, err := ref.WireRep()
	if err != nil {
		b.Fatal(err)
	}
	sur, err := client.Import(w)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sur.Call("Null"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT1_NullCall_SRCRPC(b *testing.B) {
	eachProto(b, func(b *testing.B, env *benchEnv) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := env.raw.Call(env.rawEP, "null", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkT1_NullCall_TypedStub(b *testing.B) {
	eachProto(b, func(b *testing.B, env *benchEnv) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := env.ref.InvokeTyped("Null", 0, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkT1_FourInts(b *testing.B) {
	eachProto(b, func(b *testing.B, env *benchEnv) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := env.ref.Call("FourInts", int64(1), int64(2), int64(3), int64(4)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkT1_Text1K(b *testing.B) {
	text := string(bytes.Repeat([]byte("x"), 1024))
	eachProto(b, func(b *testing.B, env *benchEnv) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := env.ref.Call("Text", text); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkT1_Text10K(b *testing.B) {
	text := string(bytes.Repeat([]byte("x"), 10*1024))
	eachProto(b, func(b *testing.B, env *benchEnv) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := env.ref.Call("Text", text); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkT1_SmallStruct(b *testing.B) {
	netobjects.Register(benchPayload{})
	p := benchPayload{A: "name", B: 42, C: 2.5, D: []int32{1, 2, 3, 4}}
	eachProto(b, func(b *testing.B, env *benchEnv) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := env.ref.Call("Struct", p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkT1_RefArgExisting(b *testing.B) {
	// Passing a reference the callee already has a surrogate for: table
	// hit, no dirty call, but transient-dirty pinning on the sender.
	eachProto(b, func(b *testing.B, env *benchEnv) {
		other := &benchService{}
		oref, err := env.owner.Export(other)
		if err != nil {
			b.Fatal(err)
		}
		w, _ := oref.WireRep()
		cref, err := env.client.Import(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := env.ref.Call("TakeRef", cref); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- T2: marshaling (pickle) costs --------------------------------------

type deepStruct struct {
	Name   string
	Vals   []float64
	Attrs  map[string]int64
	Nested *deepStruct
}

func benchPickleValue(b *testing.B, v any) {
	p := pickle.New(pickle.NewRegistry(), nil)
	reg := p.Registry()
	reg.Register(deepStruct{})
	reg.Register(benchPayload{})
	buf, err := p.Marshal(nil, v)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)))
		var out []byte
		for i := 0; i < b.N; i++ {
			out, err = p.Marshal(out[:0], v)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)))
		out := reflect.New(reflect.TypeOf(v))
		for i := 0; i < b.N; i++ {
			if err := p.Unmarshal(buf, out.Interface()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkT2_Int64(b *testing.B)    { benchPickleValue(b, int64(123456)) }
func BenchmarkT2_String1K(b *testing.B) { benchPickleValue(b, string(bytes.Repeat([]byte("a"), 1024))) }
func BenchmarkT2_Bytes64K(b *testing.B) { benchPickleValue(b, bytes.Repeat([]byte("a"), 64*1024)) }
func BenchmarkT2_IntSlice1000(b *testing.B) {
	xs := make([]int, 1000)
	for i := range xs {
		xs[i] = i
	}
	benchPickleValue(b, xs)
}
func BenchmarkT2_Map100(b *testing.B) {
	m := make(map[string]int64, 100)
	for i := 0; i < 100; i++ {
		m[fmt.Sprintf("key-%03d", i)] = int64(i)
	}
	benchPickleValue(b, m)
}
func BenchmarkT2_DeepStruct(b *testing.B) {
	root := &deepStruct{Name: "root", Vals: []float64{1, 2, 3}, Attrs: map[string]int64{"a": 1}}
	cur := root
	for i := 0; i < 10; i++ {
		cur.Nested = &deepStruct{Name: fmt.Sprintf("n%d", i), Vals: []float64{4, 5}}
		cur = cur.Nested
	}
	benchPickleValue(b, root)
}

// BenchmarkT2_GobStruct provides the encoding/gob number for context: the
// pickle codec should be in the same league.
func BenchmarkT2_GobStruct(b *testing.B) {
	p := benchPayload{A: "name", B: 42, C: 2.5, D: []int32{1, 2, 3, 4}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(p); err != nil {
			b.Fatal(err)
		}
		var out benchPayload
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT2_PickleStruct(b *testing.B) {
	benchPickleValue(b, benchPayload{A: "name", B: 42, C: 2.5, D: []int32{1, 2, 3, 4}})
}

// --- F1: throughput vs payload size -------------------------------------

func BenchmarkF1_Throughput_NetObj(b *testing.B) {
	for _, size := range []int{64, 1 << 10, 16 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			env := newBenchEnv(b, "tcp")
			payload := bytes.Repeat([]byte("p"), size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.ref.Call("Bytes", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkF1_Throughput_SRCRPC(b *testing.B) {
	for _, size := range []int{64, 1 << 10, 16 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			env := newBenchEnv(b, "tcp")
			payload := bytes.Repeat([]byte("p"), size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.raw.Call(env.rawEP, "sink", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T3: collector protocol costs ---------------------------------------

// BenchmarkT3_ImportReleaseCycle measures one full reference life cycle:
// export at the owner, dirty call + surrogate creation at the client,
// release, clean call, withdrawal.
func BenchmarkT3_ImportReleaseCycle(b *testing.B) {
	eachProto(b, func(b *testing.B, env *benchEnv) {
		objs := make([]*benchService, b.N)
		reps := make([]netobjects.WireRep, b.N)
		for i := range objs {
			objs[i] = &benchService{}
			r, err := env.owner.Export(objs[i])
			if err != nil {
				b.Fatal(err)
			}
			reps[i], err = r.WireRep()
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ref, err := env.client.Import(reps[i])
			if err != nil {
				b.Fatal(err)
			}
			ref.Release()
		}
	})
}

// BenchmarkT3_ImportExisting measures re-importing a reference the client
// already holds: pure table hit, no messages.
func BenchmarkT3_ImportExisting(b *testing.B) {
	eachProto(b, func(b *testing.B, env *benchEnv) {
		w, err := env.ref.WireRep()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := env.client.Import(w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkT3_ThirdParty measures handing a fresh reference to a party
// that must register it: one copy, one dirty round trip at the receiver,
// transient pinning at the sender, plus the result-ack discipline.
func BenchmarkT3_ThirdParty(b *testing.B) {
	mem := netobjects.NewMem()
	mk := func(name string) *netobjects.Space {
		sp, err := netobjects.New(netobjects.Options{
			Name:         name,
			Transports:   []netobjects.Transport{mem},
			PingInterval: time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = sp.Close() })
		return sp
	}
	ownerA, relayB, _ := mk("A"), mk("B"), mk("C")
	svc := &benchService{}
	bref, err := relayB.Export(svc)
	if err != nil {
		b.Fatal(err)
	}
	w, _ := bref.WireRep()
	relayAtA, err := ownerA.Import(w)
	if err != nil {
		b.Fatal(err)
	}
	objs := make([]*benchService, b.N)
	refs := make([]*netobjects.Ref, b.N)
	for i := range objs {
		objs[i] = &benchService{}
		refs[i], err = ownerA.Export(objs[i])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relayAtA.Call("TakeRef", refs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T4: model checking throughput ---------------------------------------

// BenchmarkT4_ModelExploration reports how fast the abstract machine can
// be explored with all invariant checks on (states per second).
func BenchmarkT4_ModelExploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := refmodel.NewConfig(3, []refmodel.Proc{0}, 1)
		res := refmodel.Explore(cfg, refmodel.ExploreOptions{CheckInvariants: true})
		if res.Violation != nil {
			b.Fatal(res.Violation.Err)
		}
	}
}
