package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"time"

	"netobjects/internal/flow"
	"netobjects/internal/objtable"
	"netobjects/internal/pickle"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// The layers are measured from outside: by timing calls into each layer's
// public functions with the workload's own values. layerEnv holds what
// those calls need that outlives one of them.
type layerEnv struct {
	pickler *pickle.Pickler   // the callers' space's
	exports *objtable.Exports // the owner's, at the workload's table size
	target  uint64            // index of the invoked object in exports
	imports *objtable.Imports // a private table: the live one belongs to the protocol
	session *transport.Session
	closers
}

// newLayerEnv opens a private session pair on the workload's transport,
// flow-enabled with default parameters like the sessions spaces dial. Its
// server end answers every stream with at most 16 bytes of what it
// received, the size of a small Result.
func newLayerEnv(in *instance) (*layerEnv, error) {
	e := &layerEnv{pickler: in.client.Pickler(), exports: in.spaces[0].Exports(),
		target: in.target, imports: objtable.NewImports()}
	reg := transport.NewRegistry(in.tr)
	l, err := reg.Listen(in.tr.Proto() + ":")
	if err != nil {
		return nil, err
	}
	e.closers = append(e.closers, func() { _ = l.Close() })
	accepted := make(chan *transport.Session, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- transport.NewSession(c, transport.SessionOptions{Flow: &flow.Params{}, Accept: func(st *transport.Stream) {
			defer st.Close()
			if b, err := st.Recv(nil); err == nil {
				_ = st.Send(b[:min(len(b), 16)])
			}
		}})
	}()
	c, err := reg.Dial(l.Endpoint())
	if err != nil {
		e.close()
		return nil, err
	}
	e.session = transport.NewSession(c, transport.SessionOptions{Flow: &flow.Params{}})
	e.closers = append(e.closers, func() { _ = e.session.Close() })
	if srv, ok := <-accepted; ok {
		e.closers = append(e.closers, func() { _ = srv.Close() })
	}
	return e, nil
}

// scratch is one goroutine's reusable buffers for the layer functions, so
// that the allocations counted are the layer's own.
type scratch struct {
	args, results, msg, frame, out []byte
	call, gotCall                  wire.Call
	gotRes                         wire.Result
}

// pickleArgs marshals and unmarshals the call's arguments at their static
// types, leaving the pickle in s.args.
func (e *layerEnv) pickleArgs(o *opInputs, s *scratch) error {
	var err error
	if s.args, err = e.pickler.MarshalValues(s.args[:0], o.args); err != nil {
		return err
	}
	_, err = e.pickler.UnmarshalValues(s.args, o.argTypes)
	return err
}

// pickleResults leaves the pickle of the call's expected results in
// s.results.
func (e *layerEnv) pickleResults(o *opInputs, s *scratch) error {
	var vals []reflect.Value
	for i := range o.resultTypes {
		switch {
		case !o.typed:
			dyn, _ := dynamicArgs(o.want)
			vals = append(vals, dyn...)
		case i == 0:
			vals = append(vals, reflect.ValueOf(o.want))
		default:
			vals = append(vals, reflect.ValueOf(o.want2))
		}
	}
	var err error
	s.results, err = e.pickler.MarshalValues(s.results[:0], vals)
	return err
}

// wireCodec encodes and decodes the Call and the Result of one
// invocation, given their pickles, with their mux envelopes and frame
// headers. It leaves the Call in s.call.
func wireCodec(o *opInputs, args, results []byte, s *scratch) error {
	s.call = wire.Call{Obj: o.obj, Method: o.method, Fingerprint: o.fp, Typed: o.typed, Args: args, ID: 1 << 20, DeadlineMillis: 30000}
	for _, m := range []wire.Message{&s.call, &wire.Result{Status: wire.StatusOK, Results: results}} {
		s.msg = wire.Marshal(s.msg[:0], m)
		s.frame = append(wire.AppendMuxHeader(s.frame[:0], s.call.ID), s.msg...)
		var err error
		if s.out, err = wire.AppendFrame(s.out[:0], s.frame); err != nil {
			return err
		}
		_, payload, err := wire.SplitMux(s.out[4:])
		if err != nil {
			return err
		}
		into := wire.Message(&s.gotCall)
		if m.Op() == wire.OpResult {
			into = &s.gotRes
		}
		if err := wire.UnmarshalInto(payload, into); err != nil {
			return err
		}
	}
	return nil
}

// acquireRelease takes one reference through its whole life in the
// private import table: received, registered, released, cleaned.
func (e *layerEnv) acquireRelease(i int) {
	key := wire.Key{Owner: 1, Index: uint64(i % 4096)}
	e.imports.Acquire(key, nil)
	e.imports.FinishRegister(key, e, nil)
	e.imports.Release(key)
	e.imports.BeginClean(key)
	e.imports.FinishClean(key, nil)
}

// flowSched passes payload through the sender's chunk scheduler and the
// receiver's stream and session ledgers at the default chunk size and
// windows, granting credit back as the ledgers release it. It returns the
// number of chunks.
func flowSched(payload []byte) int {
	sched := flow.NewScheduler(flow.DefaultChunkSize, flow.DefaultStreamWindow, flow.DefaultSessionWindow)
	stream, sess := flow.NewRecvLedger(flow.DefaultStreamWindow), flow.NewRecvLedger(flow.DefaultSessionWindow)
	sched.Enqueue(1, payload)
	chunks := 0
	for {
		it, chunk, last, ok := sched.Next()
		if !ok {
			return chunks
		}
		chunks++
		if g := stream.Chunk(len(chunk)); g > 0 {
			sched.Grant(1, g)
		}
		if g := sess.Chunk(len(chunk)); g > 0 {
			sched.GrantSession(g)
		}
		if last {
			sched.Finish(it, nil)
			<-it.Done()
			return chunks
		}
	}
}

// streamRTT opens a stream on the private session, sends frame, awaits
// the short echo and closes the stream.
func (e *layerEnv) streamRTT(frame []byte) error {
	st, err := e.session.Open()
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.Send(frame); err != nil {
		return err
	}
	_, err = st.Recv(nil)
	return err
}

// measure runs f repeatedly for about d and returns the mean time and
// heap allocations of one run.
func measure(d time.Duration, f func(i int)) (ns, allocs float64) {
	f(0)
	for n := 1; ; {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&after)
		if el >= d || n >= 1<<26 {
			return float64(el) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
		}
		n = max(2*n, min(100*n, int(float64(n)*1.2*float64(d)/float64(el+1))))
	}
}

// timeEach runs f repeatedly for about d, timing every run, and returns
// the median time and the mean heap allocations of one run.
func timeEach(d time.Duration, f func() error) (p50ns, allocs float64, err error) {
	var durs []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for end := time.Now().Add(d); ; {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		durs = append(durs, float64(t1.Sub(t0)))
		if !t1.Before(end) {
			break
		}
	}
	runtime.ReadMemStats(&after)
	sort.Float64s(durs)
	return quantile(durs, 0.5), float64(after.Mallocs-before.Mallocs) / float64(len(durs)), nil
}

// prepared is one drawn call with its pickles and its Call frame.
type prepared struct {
	in                   opInputs
	args, results, frame []byte
}

// layerMetrics times each layer's functions on calls drawn from the
// workload's seed, while no caller runs, and derives the metrics that
// set those times against the window's end-to-end figures.
func layerMetrics(res *result, in *instance, cfg config, win *window) {
	m := res.Metrics
	check := func(err error) {
		if err != nil {
			res.fail("layer probes: %v", err)
		}
	}
	env, err := newLayerEnv(in)
	if err != nil {
		check(err)
		return
	}
	defer env.close()

	// Up to 64 drawn calls, fewer when they are large.
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &scratch{}
	var calls []prepared
	for total := 0; len(calls) < 64 && total < 4*bulkBytes; total += len(s.args) {
		p := prepared{in: in.sample(rng)}
		check(env.pickleArgs(&p.in, s))
		check(env.pickleResults(&p.in, s))
		check(wireCodec(&p.in, s.args, s.results, s))
		p.args, p.results = bytes.Clone(s.args), bytes.Clone(s.results)
		p.frame = wire.Marshal(nil, &s.call)
		calls = append(calls, p)
	}
	pick := func(i int) *prepared { return &calls[i%len(calls)] }

	var argBytes int
	for i := range calls {
		argBytes += len(calls[i].args)
	}
	m["pickle.args_bytes"] = float64(argBytes) / float64(len(calls))
	m["pickle.args_ns"], _ = measure(cfg.probe, func(i int) { _ = env.pickleArgs(&pick(i).in, s) })
	m["wire.codec_ns"], m["wire.codec_allocs"] = measure(cfg.probe, func(i int) {
		p := pick(i)
		_ = wireCodec(&p.in, p.args, p.results, s)
	})
	m["objtable.lookup_ns"], _ = measure(cfg.probe, func(int) { env.exports.Lookup(env.target) })
	m["objtable.acquire_release_ns"], _ = measure(cfg.probe, env.acquireRelease)

	megabyte := make([]byte, bulkBytes)
	chunks := flowSched(megabyte)
	ns, _ := measure(cfg.probe, func(int) { flowSched(megabyte) })
	m["flow.sched_ns_per_chunk"] = ns / float64(chunks)

	i := 0
	rtt, allocs, err := timeEach(cfg.probe, func() error { i++; return env.streamRTT(pick(i).frame) })
	check(err)
	m["transport.stream_rtt_us"], m["transport.stream_allocs"] = rtt/1e3, allocs

	// Plain RPC on the same transport with arguments of the same size:
	// from the window where the workload alternates with it, else probed.
	if len(win.refs) > 0 {
		m["rawrpc_p50_us"] = quantile(durations(win.refs), 0.5) / 1e3
	} else if raw, ep, err := rawRPC(in, in.tr); err != nil {
		check(err)
	} else {
		p50, _, err := timeEach(cfg.probe, func() error { i++; _, err := raw.Call(ep, "null", pick(i).args); return err })
		check(err)
		m["rawrpc_p50_us"] = p50 / 1e3
	}
	m["object_overhead_us"] = m["op_p50_us"] - m["rawrpc_p50_us"]
	m["core.client_residual_us"] = m["op_p50_us"] - m["core.serve_p50_us"] - m["transport.stream_rtt_us"]
}

// replaySpan is one timed step of a replay.
type replaySpan struct {
	name       string
	start, end int64
}

// replay times each layer's functions once on the inputs of an operation
// that has just completed. The first span returned encloses the others.
func (e *layerEnv) replay(o *opInputs, s *scratch, since func(time.Time) int64) ([]replaySpan, error) {
	spans := []replaySpan{{name: "replay"}}
	var firstErr error
	step := func(name string, f func() error) {
		t0 := time.Now()
		err := f()
		spans = append(spans, replaySpan{name, since(t0), since(time.Now())})
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("replay %s: %w", name, err)
		}
	}
	start := time.Now()
	step("pickle.args", func() error { return e.pickleArgs(o, s) })
	if err := e.pickleResults(o, s); err != nil && firstErr == nil {
		firstErr = err
	}
	step("wire.codec", func() error { return wireCodec(o, s.args, s.results, s) })
	step("objtable.lookup", func() error { e.exports.Lookup(e.target); return nil })
	if len(s.args) > flow.DefaultChunkSize {
		step("flow.sched", func() error { flowSched(s.args); return nil })
	}
	s.msg = wire.Marshal(s.msg[:0], &s.call)
	step("transport.stream", func() error { return e.streamRTT(s.msg) })
	spans[0].start, spans[0].end = since(start), since(time.Now())
	return spans, firstErr
}
