package chaos

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netobjects/internal/flow"
	"netobjects/internal/obs"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// Transport wraps an inner transport and injects faults into outbound
// traffic according to a seeded deterministic schedule. Each space in a
// chaos experiment gets its own wrapper around the shared inner
// transport; the wrapper's name identifies the sending side of every
// link it perturbs. Rules may be swapped at runtime with SetRules and
// SetLinkRules, and whole links cut with Partition.
//
// Listen and inbound connections are delegated untouched: faults are
// injected on the sender's side only, so a link's failure behaviour is
// controlled by exactly one wrapper per direction, which is what makes
// asymmetric partitions expressible.
type Transport struct {
	inner transport.Transport
	name  string
	seed  uint64

	mu          sync.Mutex
	rules       Rules
	linkRules   map[string]Rules
	blocked     map[string]bool
	conns       map[string][]*conn
	seqs        map[seqKey]uint64
	tracer      obs.Tracer
	wrapAccepts bool

	messages   atomic.Uint64
	drops      atomic.Uint64
	resets     atomic.Uint64
	duplicates atomic.Uint64
	reorders   atomic.Uint64
	delays     atomic.Uint64
	throttles  atomic.Uint64
	refusals   atomic.Uint64
}

type seqKey struct {
	addr string
	op   wire.Op
}

// New wraps inner with a fault injector. name identifies the sending
// side (conventionally the wrapping space's name) and enters the fault
// hash, so two wrappers sharing a seed still make independent decisions.
func New(inner transport.Transport, name string, seed uint64) *Transport {
	return &Transport{
		inner:     inner,
		name:      name,
		seed:      seed,
		linkRules: make(map[string]Rules),
		blocked:   make(map[string]bool),
		conns:     make(map[string][]*conn),
		seqs:      make(map[seqKey]uint64),
	}
}

// Proto delegates to the inner transport, so endpoints keep their
// ordinary form and the wrapper is invisible to endpoint routing.
func (t *Transport) Proto() string { return t.inner.Proto() }

// Listen delegates to the inner transport. By default inbound
// connections are untouched; with WrapAccepts the reply side of each
// accepted connection also passes through the fault schedule.
func (t *Transport) Listen(addr string) (transport.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &listener{t: t, inner: l}, nil
}

// WrapAccepts makes the wrapper perturb outbound frames of accepted
// connections too. Faults normally ride the dialer's side of each link,
// which cannot touch response traffic — a Result travels from the
// accepting space back over the dialer's connection. Experiments that
// drop responses (e.g. swallowing OpResult to break pipelined chains)
// enable this on the responder's wrapper. The
// link identifier entering the fault hash is the accepted connection's
// remote label, so the schedule stays a pure function of seed and
// traffic. Must be set before Listen.
func (t *Transport) WrapAccepts(on bool) {
	t.mu.Lock()
	t.wrapAccepts = on
	t.mu.Unlock()
}

// wrapsAccepts reports whether accepted connections are fault-injected.
func (t *Transport) wrapsAccepts() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wrapAccepts
}

// listener wraps accepted connections when WrapAccepts is on.
type listener struct {
	t     *Transport
	inner transport.Listener
}

func (l *listener) Accept() (transport.Conn, error) {
	ic, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	if !l.t.wrapsAccepts() {
		return ic, nil
	}
	return &conn{t: l.t, addr: ic.RemoteLabel(), inner: ic}, nil
}

func (l *listener) Close() error     { return l.inner.Close() }
func (l *listener) Endpoint() string { return l.inner.Endpoint() }

// Dial connects through the inner transport unless the link is
// partitioned, wrapping the connection so its outbound frames pass
// through the fault schedule.
func (t *Transport) Dial(addr string) (transport.Conn, error) {
	if t.Partitioned(addr) {
		t.refusals.Add(1)
		t.emitFault("refuse", wire.OpInvalid, addr)
		return nil, fmt.Errorf("%w: chaos partition blocks %q", transport.ErrNoEndpoint, addr)
	}
	ic, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &conn{t: t, addr: addr, inner: ic}
	t.mu.Lock()
	t.conns[addr] = append(t.conns[addr], c)
	if len(t.conns[addr])%32 == 0 {
		live := t.conns[addr][:0]
		for _, oc := range t.conns[addr] {
			if !oc.closed.Load() {
				live = append(live, oc)
			}
		}
		t.conns[addr] = live
	}
	t.mu.Unlock()
	return c, nil
}

// SetObserver installs a tracer receiving one EvChaos* event per
// injected fault. May be nil to disable.
func (t *Transport) SetObserver(tr obs.Tracer) {
	t.mu.Lock()
	t.tracer = tr
	t.mu.Unlock()
}

// SetRules installs the default fault schedule, replacing the previous
// one; it applies to every link without a per-link override. Safe to
// call while traffic flows — this is how an experiment turns faults on,
// reshapes them mid-run, and heals for the quiescence phase.
func (t *Transport) SetRules(r Rules) {
	t.mu.Lock()
	t.rules = r
	t.mu.Unlock()
}

// SetLinkRules overrides the schedule for one destination address.
func (t *Transport) SetLinkRules(addr string, r Rules) {
	t.mu.Lock()
	t.linkRules[addr] = r
	t.mu.Unlock()
}

// ClearLinkRules removes a per-link override.
func (t *Transport) ClearLinkRules(addr string) {
	t.mu.Lock()
	delete(t.linkRules, addr)
	t.mu.Unlock()
}

// rulesFor returns the schedule governing traffic to addr.
func (t *Transport) rulesFor(addr string) Rules {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.linkRules[addr]; ok {
		return r
	}
	return t.rules
}

// Partition cuts this wrapper's link to addr: open connections are
// severed and new dials refused until Heal. Partitioning one side only
// is an asymmetric partition; partition both wrappers for a full one.
func (t *Transport) Partition(addr string) {
	t.mu.Lock()
	t.blocked[addr] = true
	sever := t.conns[addr]
	delete(t.conns, addr)
	tr := t.tracer
	t.mu.Unlock()
	for _, c := range sever {
		_ = c.Close()
	}
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.EvChaosPartition, Time: time.Now(), Peer: addr, N: len(sever)})
	}
}

// Heal lifts the partition around addr.
func (t *Transport) Heal(addr string) {
	t.mu.Lock()
	delete(t.blocked, addr)
	tr := t.tracer
	t.mu.Unlock()
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.EvChaosHeal, Time: time.Now(), Peer: addr})
	}
}

// HealAll lifts every partition and clears every fault rule, default and
// per-link: the network becomes perfect. Soak runs call it before the
// quiescence phase.
func (t *Transport) HealAll() {
	t.mu.Lock()
	t.blocked = make(map[string]bool)
	t.linkRules = make(map[string]Rules)
	t.rules = Rules{}
	tr := t.tracer
	t.mu.Unlock()
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.EvChaosHeal, Time: time.Now()})
	}
}

// Partitioned reports whether the link to addr is cut.
func (t *Transport) Partitioned(addr string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.blocked[addr]
}

// Stats snapshots the fault counters.
func (t *Transport) Stats() Stats {
	return Stats{
		Messages:   t.messages.Load(),
		Drops:      t.drops.Load(),
		Resets:     t.resets.Load(),
		Duplicates: t.duplicates.Load(),
		Reorders:   t.reorders.Load(),
		Delays:     t.delays.Load(),
		Throttles:  t.throttles.Load(),
		Refusals:   t.refusals.Load(),
	}
}

// RegisterMetrics exposes the fault counters as scrape-time gauges in
// reg under netobj_chaos_* names. Several wrappers registering into one
// registry sum, giving experiment-wide totals on /metrics.
func (t *Transport) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("netobj_chaos_messages_total", "Frames through the chaos transport.",
		func() int64 { return int64(t.messages.Load()) })
	reg.GaugeFunc("netobj_chaos_drops_total", "Frames dropped by fault injection.",
		func() int64 { return int64(t.drops.Load()) })
	reg.GaugeFunc("netobj_chaos_resets_total", "Connections reset mid-message by fault injection.",
		func() int64 { return int64(t.resets.Load()) })
	reg.GaugeFunc("netobj_chaos_duplicates_total", "Collector messages duplicated by fault injection.",
		func() int64 { return int64(t.duplicates.Load()) })
	reg.GaugeFunc("netobj_chaos_reorders_total", "Frames held back to reorder across connections.",
		func() int64 { return int64(t.reorders.Load()) })
	reg.GaugeFunc("netobj_chaos_delays_total", "Frames delayed by fault injection.",
		func() int64 { return int64(t.delays.Load()) })
	reg.GaugeFunc("netobj_chaos_throttles_total", "Frames throttled by the bandwidth cap.",
		func() int64 { return int64(t.throttles.Load()) })
	reg.GaugeFunc("netobj_chaos_dial_refusals_total", "Dials refused by chaos partitions.",
		func() int64 { return int64(t.refusals.Load()) })
}

// DebugSection renders the live schedule, partitions and counters for
// the /debug/netobj page (install with Observability.SetDebugSection).
func (t *Transport) DebugSection() string {
	t.mu.Lock()
	rules := t.rules
	var blocked []string
	for addr := range t.blocked {
		blocked = append(blocked, addr)
	}
	links := make(map[string]Rules, len(t.linkRules))
	for addr, r := range t.linkRules {
		links[addr] = r
	}
	t.mu.Unlock()
	sort.Strings(blocked)

	var b strings.Builder
	s := t.Stats()
	fmt.Fprintf(&b, "wrapper %s seed %d\n", t.name, t.seed)
	fmt.Fprintf(&b, "rules: %s\n", rules)
	linkAddrs := make([]string, 0, len(links))
	for addr := range links {
		linkAddrs = append(linkAddrs, addr)
	}
	sort.Strings(linkAddrs)
	for _, addr := range linkAddrs {
		fmt.Fprintf(&b, "link %s: %s\n", addr, links[addr])
	}
	if len(blocked) > 0 {
		fmt.Fprintf(&b, "partitioned: %s\n", strings.Join(blocked, " "))
	}
	fmt.Fprintf(&b, "messages %d  drops %d  resets %d  dups %d  reorders %d  delays %d  throttles %d  refusals %d\n",
		s.Messages, s.Drops, s.Resets, s.Duplicates, s.Reorders, s.Delays, s.Throttles, s.Refusals)
	return b.String()
}

// nextSeq advances the per-link per-op message counter. The counter, not
// wall-clock time, indexes the fault schedule, which is what makes the
// schedule a pure function of the seed and the traffic.
func (t *Transport) nextSeq(addr string, op wire.Op) uint64 {
	k := seqKey{addr: addr, op: op}
	t.mu.Lock()
	t.seqs[k]++
	n := t.seqs[k]
	t.mu.Unlock()
	return n
}

// emitFault traces one injected fault.
func (t *Transport) emitFault(kind string, op wire.Op, addr string) {
	t.mu.Lock()
	tr := t.tracer
	t.mu.Unlock()
	if tr != nil {
		method := ""
		if op != wire.OpInvalid {
			method = op.String()
		}
		tr.Emit(obs.Event{
			Kind: obs.EvChaosFault, Time: time.Now(),
			Key: kind, Method: method, Peer: t.name + "->" + addr,
		})
	}
}

// duplicable reports whether a message may safely be replayed: the
// sequence-numbered, idempotent collector ops. Calls are never
// duplicated — the runtime does not promise application methods are
// idempotent, and the collector's defences are what the duplication
// fault exists to test — pipelined calls among them. A replayed OneWay
// would likewise re-run an application method, a replayed Result could
// resolve a reused promise id with stale results, and a hello is said
// once per session.
func duplicable(op wire.Op) bool {
	switch op {
	case wire.OpDirty, wire.OpCleanBatch, wire.OpPing:
		return true
	}
	return false
}

// replay delivers a copy of payload to addr on a fresh inner connection,
// reading and discarding the reply, as a network that duplicated a
// datagram would. The connection opens with an anonymous hello, as the
// receiving session demands of any peer. It bypasses the fault schedule so
// a duplicate cannot recursively duplicate.
func (t *Transport) replay(addr string, payload []byte) {
	go func() {
		ic, err := t.inner.Dial(addr)
		if err != nil {
			return
		}
		defer ic.Close()
		_ = ic.SetDeadline(time.Now().Add(2 * time.Second))
		if ic.Send(transport.HelloFrame(0, flow.Params{})) != nil || ic.Send(payload) != nil {
			return
		}
		// The receiver's own hello, then its reply.
		for i := 0; i < 2; i++ {
			if _, err := ic.Recv(nil); err != nil {
				return
			}
		}
	}()
}

// conn is one fault-injected outbound connection.
type conn struct {
	t      *Transport
	addr   string
	inner  transport.Conn
	closed atomic.Bool
}

// Send runs the frame through the fault schedule, then forwards it.
func (c *conn) Send(payload []byte) error {
	t := c.t
	if c.closed.Load() {
		// Already severed (reset or partition): no further schedule
		// decisions, so counters reflect injected faults only.
		return transport.ErrClosed
	}
	if t.Partitioned(c.addr) {
		// The partition severed this link; connections racing it die here.
		_ = c.Close()
		return fmt.Errorf("chaos: link to %q partitioned: %w", c.addr, transport.ErrClosed)
	}
	op := wire.PeekOp(payload)
	seq := t.nextSeq(c.addr, op)
	t.messages.Add(1)
	r := t.rulesFor(c.addr)
	if !r.active() || !r.matches(op) {
		return c.inner.Send(payload)
	}
	if r.Drop > 0 && roll(t.seed, t.name, c.addr, op, seq, saltDrop) < r.Drop {
		t.drops.Add(1)
		t.emitFault("drop", op, c.addr)
		// Swallowed: the sender sees success and waits out its deadline,
		// exactly as with a lost datagram.
		return nil
	}
	if r.Reset > 0 && roll(t.seed, t.name, c.addr, op, seq, saltReset) < r.Reset {
		t.resets.Add(1)
		t.emitFault("reset", op, c.addr)
		_ = c.Close()
		return fmt.Errorf("chaos: connection to %q reset mid-message: %w", c.addr, transport.ErrClosed)
	}
	if r.Duplicate > 0 && duplicable(op) &&
		roll(t.seed, t.name, c.addr, op, seq, saltDup) < r.Duplicate {
		t.duplicates.Add(1)
		t.emitFault("duplicate", op, c.addr)
		t.replay(c.addr, append([]byte(nil), payload...))
	}
	delay := r.Delay
	if r.Jitter > 0 {
		delay += time.Duration(roll(t.seed, t.name, c.addr, op, seq, saltJitter) * float64(r.Jitter))
	}
	if r.Reorder > 0 && roll(t.seed, t.name, c.addr, op, seq, saltReorder) < r.Reorder {
		t.reorders.Add(1)
		t.emitFault("reorder", op, c.addr)
		w := r.ReorderWindow
		if w <= 0 {
			w = 20 * time.Millisecond
		}
		delay += time.Duration(roll(t.seed, t.name, c.addr, op, seq, saltReorderHold) * float64(w))
	}
	if r.BandwidthBps > 0 {
		t.throttles.Add(1)
		delay += time.Duration(len(payload)) * time.Second / time.Duration(r.BandwidthBps)
	}
	if delay > 0 {
		t.delays.Add(1)
		time.Sleep(delay)
	}
	return c.inner.Send(payload)
}

// Recv delegates: faults ride the sender's side of each link.
func (c *conn) Recv(scratch []byte) ([]byte, error) { return c.inner.Recv(scratch) }

// SetDeadline delegates to the inner connection.
func (c *conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// Close closes the inner connection.
func (c *conn) Close() error {
	c.closed.Store(true)
	return c.inner.Close()
}

// RemoteLabel delegates to the inner connection.
func (c *conn) RemoteLabel() string { return c.inner.RemoteLabel() }

// Healthy reports the inner connection's health, and false once the link
// is partitioned, so pooled idle connections to a cut link are reaped
// rather than handed out.
func (c *conn) Healthy() bool {
	if c.closed.Load() || c.t.Partitioned(c.addr) {
		return false
	}
	return transport.Healthy(c.inner)
}
