package chaos

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"netobjects/internal/core"
	"netobjects/internal/obs"
	"netobjects/internal/pickle"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// collectServer accepts connections on l and records every frame it
// receives, answering each with a CleanAck so duplicate replays complete.
// It is not a session: the hello a replay opens with is skipped.
type collectServer struct {
	mu     sync.Mutex
	frames [][]byte
}

func serveCollect(t *testing.T, l transport.Listener) *collectServer {
	t.Helper()
	s := &collectServer{}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					f, err := c.Recv(nil)
					if err != nil {
						return
					}
					if wire.PeekOp(f) == wire.OpHello {
						continue
					}
					s.mu.Lock()
					s.frames = append(s.frames, append([]byte(nil), f...))
					s.mu.Unlock()
					if err := c.Send(wire.Marshal(nil, &wire.CleanAck{})); err != nil {
						return
					}
				}
			}()
		}
	}()
	return s
}

func (s *collectServer) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

func TestRollDeterministicAndSeedSensitive(t *testing.T) {
	a := roll(1, "sp0", "x", wire.OpCleanBatch, 7, saltDrop)
	if b := roll(1, "sp0", "x", wire.OpCleanBatch, 7, saltDrop); a != b {
		t.Fatalf("same inputs rolled %v then %v", a, b)
	}
	if a < 0 || a >= 1 {
		t.Fatalf("roll out of range: %v", a)
	}
	// Different seed, link, op, seq or salt must each decorrelate.
	diff := 0
	for i, v := range []float64{
		roll(2, "sp0", "x", wire.OpCleanBatch, 7, saltDrop),
		roll(1, "sp1", "x", wire.OpCleanBatch, 7, saltDrop),
		roll(1, "sp0", "y", wire.OpCleanBatch, 7, saltDrop),
		roll(1, "sp0", "x", wire.OpDirty, 7, saltDrop),
		roll(1, "sp0", "x", wire.OpCleanBatch, 8, saltDrop),
		roll(1, "sp0", "x", wire.OpCleanBatch, 7, saltReset),
	} {
		if v != a {
			diff++
		} else {
			t.Logf("variant %d collided (possible but unlikely)", i)
		}
	}
	if diff < 5 {
		t.Fatalf("rolls insufficiently sensitive to inputs: %d/6 differ", diff)
	}
}

// cleanMsg is a clean call for one object: a CleanBatch of one key.
func cleanMsg(obj, seq uint64) *wire.CleanBatch {
	return &wire.CleanBatch{Client: 1, Objs: []uint64{obj}, Seqs: []uint64{seq}, Strongs: []bool{false}}
}

// runDropSchedule sends n clean frames through a fresh wrapper with the
// given seed and returns which indices were dropped.
func runDropSchedule(t *testing.T, seed uint64, n int) []int {
	t.Helper()
	mem := transport.NewMem()
	l, err := mem.Listen("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveCollect(t, l)

	ct := New(mem, "client", seed)
	ct.SetRules(Rules{Drop: 0.5})
	c, err := ct.Dial("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var dropped []int
	for i := 0; i < n; i++ {
		frame := wire.Marshal(nil, cleanMsg(uint64(i), 1))
		if err := c.Send(frame); err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(50 * time.Millisecond))
		if _, err := c.Recv(nil); err != nil {
			dropped = append(dropped, i) // no ack: the frame was swallowed
		}
		_ = c.SetDeadline(time.Time{})
	}
	return dropped
}

func TestDropScheduleDeterministic(t *testing.T) {
	a := runDropSchedule(t, 42, 40)
	b := runDropSchedule(t, 42, 40)
	if len(a) == 0 || len(a) == 40 {
		t.Fatalf("drop=0.5 dropped %d/40 — schedule degenerate", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed dropped %d then %d frames", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule: %v vs %v", a, b)
		}
	}
	c := runDropSchedule(t, 43, 40)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestPerOpMatching(t *testing.T) {
	mem := transport.NewMem()
	l, err := mem.Listen("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := serveCollect(t, l)

	ct := New(mem, "client", 7)
	// Drop every clean; leave dirties untouched.
	ct.SetRules(Rules{Drop: 1.0, Ops: []wire.Op{wire.OpCleanBatch}})
	c, err := ct.Dial("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Send(wire.Marshal(nil, cleanMsg(1, 1))); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(wire.Marshal(nil, &wire.Dirty{Obj: 1, Client: 1, Seq: 2})); err != nil {
		t.Fatal(err)
	}
	_ = c.SetDeadline(time.Now().Add(time.Second))
	if _, err := c.Recv(nil); err != nil {
		t.Fatalf("dirty should pass through: %v", err)
	}
	if n := srv.count(); n != 1 {
		t.Fatalf("server saw %d frames, want 1 (the dirty)", n)
	}
	if s := ct.Stats(); s.Drops != 1 {
		t.Fatalf("drops=%d, want 1", s.Drops)
	}
}

func TestResetClosesConnection(t *testing.T) {
	mem := transport.NewMem()
	l, err := mem.Listen("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveCollect(t, l)

	ct := New(mem, "client", 7)
	ct.SetRules(Rules{Reset: 1.0})
	c, err := ct.Dial("owner")
	if err != nil {
		t.Fatal(err)
	}
	err = c.Send(wire.Marshal(nil, &wire.Ping{From: 1}))
	if err == nil {
		t.Fatal("reset fault should surface as a send error")
	}
	if !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("reset error should wrap ErrClosed: %v", err)
	}
	if err := c.Send([]byte{1}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("connection should be closed after reset: %v", err)
	}
	if s := ct.Stats(); s.Resets != 1 {
		t.Fatalf("resets=%d, want 1", s.Resets)
	}
}

func TestDuplicateReplaysCollectorOps(t *testing.T) {
	mem := transport.NewMem()
	l, err := mem.Listen("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := serveCollect(t, l)

	ct := New(mem, "client", 7)
	ct.SetRules(Rules{Duplicate: 1.0})
	c, err := ct.Dial("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Send(wire.Marshal(nil, cleanMsg(5, 3))); err != nil {
		t.Fatal(err)
	}
	_ = c.SetDeadline(time.Now().Add(time.Second))
	if _, err := c.Recv(nil); err != nil {
		t.Fatal(err)
	}
	// Original plus one replay on a fresh connection.
	deadline := time.Now().Add(2 * time.Second)
	for srv.count() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := srv.count(); n != 2 {
		t.Fatalf("server saw %d frames, want 2 (original + duplicate)", n)
	}
	// A Call must never be duplicated, whatever the schedule says.
	if err := c.Send(wire.Marshal(nil, &wire.Call{Obj: 1, Method: "M"})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if n := srv.count(); n != 3 {
		t.Fatalf("server saw %d frames, want 3 (calls are not duplicated)", n)
	}
	if s := ct.Stats(); s.Duplicates != 1 {
		t.Fatalf("duplicates=%d, want 1", s.Duplicates)
	}
}

func TestDelayAndThrottle(t *testing.T) {
	mem := transport.NewMem()
	l, err := mem.Listen("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveCollect(t, l)

	ct := New(mem, "client", 7)
	ct.SetRules(Rules{Delay: 30 * time.Millisecond})
	c, err := ct.Dial("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Send(wire.Marshal(nil, &wire.Ping{From: 1})); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delayed send took %v, want >= 30ms", d)
	}

	// 1000 B/s: a ~10-byte frame costs ~10ms.
	ct.SetRules(Rules{BandwidthBps: 1000})
	start = time.Now()
	if err := c.Send(wire.Marshal(nil, cleanMsg(1, 1))); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("throttled send took %v, want >= 5ms", d)
	}
	s := ct.Stats()
	if s.Delays < 2 || s.Throttles != 1 {
		t.Fatalf("delays=%d throttles=%d", s.Delays, s.Throttles)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	mem := transport.NewMem()
	l, err := mem.Listen("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveCollect(t, l)

	ring := obs.NewRing(32)
	ct := New(mem, "client", 7)
	ct.SetObserver(ring)

	c, err := ct.Dial("owner")
	if err != nil {
		t.Fatal(err)
	}
	ct.Partition("owner")
	// Existing connections are severed...
	if err := c.Send([]byte{1}); err == nil {
		t.Fatal("partition should sever open connections")
	}
	if transport.Healthy(c) {
		t.Fatal("severed connection should report unhealthy")
	}
	// ...and new dials refused.
	if _, err := ct.Dial("owner"); !errors.Is(err, transport.ErrNoEndpoint) {
		t.Fatalf("partitioned dial: %v", err)
	}
	if s := ct.Stats(); s.Refusals != 1 {
		t.Fatalf("refusals=%d, want 1", s.Refusals)
	}

	ct.Heal("owner")
	c2, err := ct.Dial("owner")
	if err != nil {
		t.Fatalf("healed dial: %v", err)
	}
	defer c2.Close()
	if err := c2.Send(wire.Marshal(nil, &wire.Ping{From: 1})); err != nil {
		t.Fatal(err)
	}
	if ring.CountKind(obs.EvChaosPartition) != 1 || ring.CountKind(obs.EvChaosHeal) != 1 {
		t.Fatal("partition/heal events not traced")
	}
}

func TestHealAllClearsRules(t *testing.T) {
	mem := transport.NewMem()
	ct := New(mem, "client", 7)
	ct.SetRules(Rules{Drop: 1.0})
	ct.SetLinkRules("owner", Rules{Reset: 1.0})
	ct.Partition("owner")
	ct.HealAll()
	if ct.Partitioned("owner") {
		t.Fatal("HealAll left a partition")
	}
	if r := ct.rulesFor("owner"); r.active() {
		t.Fatalf("HealAll left rules active: %v", r)
	}
}

func TestFaultEventsAndDebugSection(t *testing.T) {
	mem := transport.NewMem()
	l, err := mem.Listen("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveCollect(t, l)

	ring := obs.NewRing(32)
	ct := New(mem, "client", 7)
	ct.SetObserver(ring)
	ct.SetRules(Rules{Drop: 1.0, Ops: []wire.Op{wire.OpCleanBatch}})
	c, err := ct.Dial("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(wire.Marshal(nil, cleanMsg(1, 1))); err != nil {
		t.Fatal(err)
	}
	evs := ring.Events()
	if len(evs) != 1 || evs[0].Kind != obs.EvChaosFault {
		t.Fatalf("events=%v", evs)
	}
	if evs[0].Key != "drop" || evs[0].Method != "clean-batch" || !strings.Contains(evs[0].Peer, "owner") {
		t.Fatalf("fault event fields: %+v", evs[0])
	}

	reg := obs.NewRegistry()
	ct.RegisterMetrics(reg)
	var b strings.Builder
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), "netobj_chaos_drops_total 1") {
		t.Fatalf("metrics missing drop counter:\n%s", b.String())
	}

	dbg := ct.DebugSection()
	for _, want := range []string{"seed 7", "drop=1.00", "drops 1"} {
		if !strings.Contains(dbg, want) {
			t.Fatalf("debug section missing %q:\n%s", want, dbg)
		}
	}
}

// TestMuxEnvelopeClassification checks per-op fault rules see through the
// session mux envelope: a multiplexed frame is classified by its inner
// message type, so schedules written against collector ops keep working
// when the traffic rides shared peer sessions.
func TestMuxEnvelopeClassification(t *testing.T) {
	mem := transport.NewMem()
	l, err := mem.Listen("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := serveCollect(t, l)

	ct := New(mem, "client", 7)
	ct.SetRules(Rules{Drop: 1.0, Ops: []wire.Op{wire.OpCleanBatch}})
	c, err := ct.Dial("owner")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wrap := func(id uint64, m wire.Message) []byte {
		return append(wire.AppendMuxHeader(nil, id), wire.Marshal(nil, m)...)
	}
	// A mux-wrapped clean must be recognized as a clean and dropped: no
	// frame reaches the server, no ack comes back.
	if err := c.Send(wrap(1, cleanMsg(1, 1))); err != nil {
		t.Fatal(err)
	}
	_ = c.SetDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := c.Recv(nil); err == nil {
		t.Fatal("mux-wrapped clean was delivered despite drop rule")
	}
	_ = c.SetDeadline(time.Time{})
	if n := srv.count(); n != 0 {
		t.Fatalf("server received %d frames, want 0", n)
	}

	// A mux-wrapped dirty does not match the clean-only rule and passes
	// through with its envelope intact.
	if err := c.Send(wrap(2, &wire.Dirty{Obj: 1, Client: 1, Seq: 1})); err != nil {
		t.Fatal(err)
	}
	_ = c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Recv(nil); err != nil {
		t.Fatalf("mux-wrapped dirty not delivered: %v", err)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.frames) != 1 {
		t.Fatalf("server received %d frames, want 1", len(srv.frames))
	}
	if !wire.IsMux(srv.frames[0]) {
		t.Fatal("envelope stripped in transit")
	}
	if op := wire.PeekOp(srv.frames[0]); op != wire.OpDirty {
		t.Fatalf("delivered frame classifies as %v, want dirty", op)
	}
}

// TestDuplicateReachesCollector drives the duplication fault through the
// real stack: every collector message the client sends is replayed once
// on a fresh connection, and the replay must get past the owner's
// handshake to handleDirty / handleClean — otherwise the fault that
// exists to test the sequence-number defences tests nothing.
func TestDuplicateReachesCollector(t *testing.T) {
	inner := transport.NewMem()
	ct := New(inner, "client", 7)
	ct.SetRules(Rules{Duplicate: 1})
	mk := func(name string, tr transport.Transport) *core.Space {
		sp, err := core.NewSpace(core.Options{
			Name:            name,
			Transports:      []transport.Transport{tr},
			ListenEndpoints: []string{wire.JoinEndpoint(tr.Proto(), name)},
			Registry:        pickle.NewRegistry(),
			CallTimeout:     2 * time.Second,
			PingInterval:    time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sp.Close() })
		return sp
	}
	owner := mk("owner", inner)
	client := mk("client", ct)

	ref, err := owner.Export(&soakCounter{})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := ref.WireRep()
	cref, err := client.Import(w)
	if err != nil {
		t.Fatal(err)
	}
	cref.Release()

	deadline := time.Now().Add(5 * time.Second)
	for {
		o, c := owner.Stats(), client.Stats()
		if c.DirtySent > 0 && c.CleanSent > 0 && o.DirtyServed > c.DirtySent && o.CleanServed > c.CleanSent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner served %d dirty / %d clean for %d / %d sent: the duplicates never reached the collector (%d injected)",
				o.DirtyServed, o.CleanServed, c.DirtySent, c.CleanSent, ct.Stats().Duplicates)
		}
		time.Sleep(time.Millisecond)
	}
	if owner.Exports().HoldsDirty(w.Index, client.ID()) {
		t.Fatal("a replayed dirty outlived the clean that followed it")
	}
}
