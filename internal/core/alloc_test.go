package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

type nullSvc struct{}

func (*nullSvc) Ping() {}

// TestNullCallLoopAllocFree pins the steady-state null call at zero
// allocations across the whole client→serve→reply loop. It composes the
// exact production functions the remote path runs — client argument
// marshal and frame encode, server frame decode, executeCall dispatch and
// result encode, client reply decode — synchronously, without the
// transport in between (goroutine wakeups and stream channels are the
// link's own cost, not the call path's). Every pooled resource is taken
// and returned the way the real call sites do it, so a regression in any
// pool (call frames, results, sessions, pickle scratch, wire buffers,
// dispatch argv) fails this pin.
func TestNullCallLoopAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in non-race builds")
	}
	tn := newTestNet(t)
	sp := tn.space("owner", nil)
	ref, err := sp.Export(&nullSvc{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := ref.WireRep()
	if err != nil {
		t.Fatal(err)
	}
	idx := w.Index
	start := time.Now()

	loop := func() {
		// Client: marshal arguments and assemble the call frame, as
		// dynamicCall/InvokeTypedCtx + exchange do.
		csess := sp.getCallSession()
		abp := wire.GetBuf()
		argBytes, err := sp.pickler.MarshalSession((*abp)[:0], nil, csess)
		if err != nil {
			t.Fatal(err)
		}
		*abp = argBytes
		call := callPool.Get().(*wire.Call)
		call.Obj, call.Method, call.Typed, call.Args = idx, "Ping", true, argBytes
		fbp := wire.GetBuf()
		frame := wire.Marshal((*fbp)[:0], call)
		*fbp = frame
		putCall(call)
		wire.PutBuf(abp)

		// Server: decode the frame, dispatch, encode the reply, as
		// serveStream + handleCall + executeCall do.
		scall := callPool.Get().(*wire.Call)
		if err := wire.UnmarshalInto(frame, scall); err != nil {
			t.Fatal(err)
		}
		ssess := sp.getCallSession()
		res := resultPool.Get().(*wire.Result)
		rbp := wire.GetBuf()
		sp.executeCall(sp.beginDispatch(ssess, start, 0), scall, ssess, res, (*rbp)[:0])
		if res.Status != wire.StatusOK {
			t.Fatalf("null call failed: %v %s", res.Status, res.Err)
		}
		res.NeedAck = ssess.pinned()
		ssess.unpinAll()
		ssess.recycle()
		putCall(scall)
		rfbp := wire.GetBuf()
		reply := wire.Marshal((*rfbp)[:0], res)
		*rfbp = reply
		if cap(res.Results) != 0 {
			*rbp = res.Results[:0]
		}
		wire.PutBuf(rbp)
		putResult(res)
		wire.PutBuf(fbp)

		// Client: decode the reply, as exchange + the result decoder do.
		cres := resultPool.Get().(*wire.Result)
		if err := wire.UnmarshalInto(reply, cres); err != nil {
			t.Fatal(err)
		}
		if _, err := sp.pickler.UnmarshalSession(cres.Results, nil, csess); err != nil {
			t.Fatal(err)
		}
		csess.unpinAll()
		csess.recycle()
		putResult(cres)
		wire.PutBuf(rfbp)
	}
	loop() // warm the pools, the dispatch cache and the intern table
	if n := testing.AllocsPerRun(200, loop); n != 0 {
		t.Fatalf("null call loop: %v allocations per run, want 0", n)
	}
}

// TestNullCallSessionAllocs pins what a dynamic null call costs over a
// real inmem session, both spaces and everything between them included:
// the link's own cost, which TestNullCallLoopAllocFree leaves out. With
// streams recycled with their channels and timer, no serving context and
// inmem frames held by value the measured figure is 0.0 allocations and
// 2 bytes a call; the bounds leave room for a pool refilled after a
// collection, and sit far below the 17–19 allocations (1.9 KB) a call cost
// when each made two streams, a receive timer and a serving context.
func TestNullCallSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in non-race builds")
	}
	tn := newTestNet(t)
	owner := tn.space("owner", nil)
	client := tn.space("client", nil)
	ref, err := owner.Export(&nullSvc{})
	if err != nil {
		t.Fatal(err)
	}
	cref := handoff(t, ref, client)
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cref.Call("Ping"); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(1000) // warm the pools and the caches
	const calls = 10000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(calls)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / calls
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("null call over an inmem session: %.1f allocations, %.0f bytes", allocs, bytes)
	if allocs > 6 || bytes > 600 {
		t.Fatalf("null call over an inmem session: %.1f allocations and %.0f bytes per call, want at most 6 and 600",
			allocs, bytes)
	}
}

// newSpaceOpts is a space as the benchmark builds one: default options on
// the inmem transport.
func newSpaceOpts() Options {
	return Options{Transports: []transport.Transport{transport.NewMem()}}
}

// TestNewSpaceAllocs pins what constructing a space allocates: its
// tables, daemons and listener, with the metrics set one allocation until
// something renders it and the in-flight table's shards made on first
// use. Measured at 88; the same space cost 270 when each of its ~80
// metrics was registered with two allocations of its own.
func TestNewSpaceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in non-race builds")
	}
	opts := newSpaceOpts()
	spaces := make([]*Space, 0, 32)
	defer func() {
		for _, sp := range spaces {
			sp.Abort()
		}
	}()
	build := func() {
		sp, err := NewSpace(opts)
		if err != nil {
			t.Fatal(err)
		}
		spaces = append(spaces, sp)
	}
	build() // lazy process-wide set-up: metric names, type tables
	n := testing.AllocsPerRun(20, build)
	t.Logf("NewSpace: %.0f allocations", n)
	if n > 110 {
		t.Fatalf("NewSpace allocates %.0f times, want at most 110", n)
	}
}

func BenchmarkNewSpace(b *testing.B) {
	opts := newSpaceOpts()
	b.ReportAllocs()
	for b.Loop() {
		sp, err := NewSpace(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		sp.Abort()
		b.StartTimer()
	}
}

// TestBulkCallAllocs pins what a typed call with a 1 MiB []byte argument
// allocates over a real inmem session: the slab the argument is
// assembled in, which the handler then owns, and little else. The caller's
// buffer is read in place, chunk by chunk, into pooled frames; the
// receiver keeps the chunks in pooled buffers until the handler's
// goroutine copies them out once. The bound sits above the measured
// figure (1.06 MB) and far below the 8.4 MB the same call cost when the
// payload was pickled, marshaled, assembled by regrowth and unpickled
// through a copy each.
func TestBulkCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in non-race builds")
	}
	_, ref := bulkPair(t, "inmem", nil)
	payload := make([]byte, 1<<20)
	args := []reflect.Value{reflect.ValueOf(payload)}
	results := []reflect.Type{reflect.TypeOf(uint32(0))}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := ref.InvokeTyped("Sum", 0, args, results); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(20) // warm the pools
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(calls)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("1 MiB typed call over an inmem session: %.0f bytes, %.0f allocations",
		bytes, float64(after.Mallocs-before.Mallocs)/calls)
	if bytes > 1.25e6 {
		t.Fatalf("1 MiB typed call over an inmem session allocates %.0f bytes, want at most 1.25 MB", bytes)
	}
}

// TestExportLookupAllocFree pins the sharded export-table lookup — the
// per-call table operation — at zero allocations.
func TestExportLookupAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in non-race builds")
	}
	tn := newTestNet(t)
	sp := tn.space("owner", nil)
	ref, err := sp.Export(&nullSvc{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := ref.WireRep()
	if err != nil {
		t.Fatal(err)
	}
	idx := w.Index
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := sp.exports.Lookup(idx); !ok {
			t.Fatal("export vanished")
		}
	}); n != 0 {
		t.Fatalf("export lookup: %v allocations per run, want 0", n)
	}
}
