// Package chaos provides deterministic fault injection for the network
// objects runtime, and a soak harness that runs the real stack under a
// fault schedule while checking collector invariants against a trace
// model.
//
// The centrepiece is Transport, a wrapper around any transport.Transport
// that perturbs outbound traffic — dropping, delaying, duplicating,
// reordering, throttling and resetting messages, and partitioning whole
// links — according to a schedule derived purely from a seed. Every fault
// decision is a hash of (seed, wrapper name, link, message op, per-link
// message sequence number), so two runs with the same seed and the same
// per-link traffic make identical decisions regardless of goroutine
// interleaving: a failing soak reproduces from its seed alone.
//
// Faults are classified per message type by peeking the leading op of
// each frame (wire.PeekOp), so a schedule can, say, drop only clean
// calls or reset only pings. Each wrapper injects on its own outbound
// side only; an asymmetric partition is one wrapper blocking a link, a
// full partition is both sides blocking it.
//
// The schedule applies to a session's hello like any other frame. A
// swallowed hello does not degrade the link: the peer sees something else
// first and fails the session, which to the sender is a reset — the next
// call redials, and collector traffic takes its retry path. A duplicate
// travels on a connection of its own and so leads with a hello of its own
// (see replay), or the receiver would refuse it before the collector saw
// it.
package chaos

import (
	"fmt"
	"time"

	"netobjects/internal/wire"
)

// Rules is one fault schedule: probabilities and delays applied to
// matching outbound messages. The zero value injects nothing. Rules are
// applied per message; each probability is rolled independently from the
// deterministic hash stream, so enabling one fault class does not shift
// another's schedule.
type Rules struct {
	// Drop is the probability ([0,1]) that a frame is silently swallowed.
	// The sender believes the send succeeded and times out waiting for
	// the reply — the classic lost-datagram failure.
	Drop float64
	// Reset is the probability that the connection is closed mid-message:
	// the frame is not delivered and the sender gets an error, exercising
	// the retry and connection-discard paths.
	Reset float64
	// Duplicate is the probability that a collector message (dirty,
	// clean, ping, lease — the idempotent, sequence-numbered ops) is
	// replayed once on a fresh connection, exercising the sequence-number
	// defences. Method calls are never duplicated: the runtime does not
	// promise they are idempotent.
	Duplicate float64
	// Reorder is the probability that a message is held back for a
	// random slice of ReorderWindow, letting traffic on other
	// connections overtake it. Same-connection ordering is preserved —
	// connections are lock-step — matching a network that reorders
	// across flows.
	Reorder float64
	// ReorderWindow bounds the reorder hold-back (default 20ms).
	ReorderWindow time.Duration
	// Delay is a fixed latency added to every matching message.
	Delay time.Duration
	// Jitter adds a deterministic pseudo-random latency in [0, Jitter).
	Jitter time.Duration
	// BandwidthBps, when positive, throttles matching messages to the
	// given payload bytes per second.
	BandwidthBps int
	// Ops restricts the rules to the listed message types; empty matches
	// every message.
	Ops []wire.Op
}

// active reports whether the rules can perturb anything at all.
func (r Rules) active() bool {
	return r.Drop > 0 || r.Reset > 0 || r.Duplicate > 0 || r.Reorder > 0 ||
		r.Delay > 0 || r.Jitter > 0 || r.BandwidthBps > 0
}

// matches reports whether the rules apply to a message of the given op.
func (r Rules) matches(op wire.Op) bool {
	if len(r.Ops) == 0 {
		return true
	}
	for _, o := range r.Ops {
		if o == op {
			return true
		}
	}
	return false
}

// String renders the schedule compactly for the debug page.
func (r Rules) String() string {
	if !r.active() {
		return "none"
	}
	s := ""
	add := func(format string, args ...any) {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf(format, args...)
	}
	if r.Drop > 0 {
		add("drop=%.2f", r.Drop)
	}
	if r.Reset > 0 {
		add("reset=%.2f", r.Reset)
	}
	if r.Duplicate > 0 {
		add("dup=%.2f", r.Duplicate)
	}
	if r.Reorder > 0 {
		add("reorder=%.2f", r.Reorder)
	}
	if r.Delay > 0 || r.Jitter > 0 {
		add("delay=%v+%v", r.Delay, r.Jitter)
	}
	if r.BandwidthBps > 0 {
		add("bw=%dB/s", r.BandwidthBps)
	}
	if len(r.Ops) > 0 {
		add("ops=%v", r.Ops)
	}
	return s
}

// Stats counts injected faults; all fields are monotonically increasing.
type Stats struct {
	// Messages is the number of outbound frames that passed through the
	// wrapper (faulted or not).
	Messages uint64
	// Drops, Resets, Duplicates, Reorders, Delays and Throttles count
	// messages perturbed by each fault class. One message may count in
	// several (a duplicated message may also be delayed).
	Drops      uint64
	Resets     uint64
	Duplicates uint64
	Reorders   uint64
	Delays     uint64
	Throttles  uint64
	// Refusals counts dials refused because the link was partitioned.
	Refusals uint64
}

// Faults is the total number of fault injections.
func (s Stats) Faults() uint64 {
	return s.Drops + s.Resets + s.Duplicates + s.Reorders + s.Throttles + s.Refusals
}

// Distinct salts decorrelate the per-fault-class hash rolls: each class
// sees an independent deterministic stream for the same (link, op, seq).
const (
	saltDrop uint64 = iota + 0xC0DE
	saltReset
	saltDup
	saltReorder
	saltReorderHold
	saltJitter
)

// mix64 is the splitmix64 finalizer: a cheap, high-quality bijection used
// to derive fault decisions from the seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString is FNV-1a, inlined to keep the package dependency-free.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// roll returns a deterministic pseudo-uniform value in [0,1) for one
// fault decision. It depends only on the seed, the wrapper name, the
// link, the message op, the per-link-per-op sequence number and the
// fault-class salt — never on wall-clock time or scheduling.
func roll(seed uint64, name, addr string, op wire.Op, seq, salt uint64) float64 {
	h := mix64(seed ^ hashString(name))
	h = mix64(h ^ hashString(addr))
	h = mix64(h ^ uint64(op)<<8 ^ salt)
	h = mix64(h ^ seq)
	return float64(h>>11) / float64(uint64(1)<<53)
}
