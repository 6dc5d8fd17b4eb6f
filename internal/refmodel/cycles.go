package refmodel

import (
	"fmt"
	"sort"
	"strings"

	"netobjects/internal/wire"
)

// This file models cross-space cycle collection: a small distributed
// object graph where each space owns one object, applications and objects
// hold references across spaces, and the only collectors are the local
// one (withdraw an export nothing references) and a trial-deletion pass
// (GarbageCycles below). The runtime has no cycle collector: like the
// paper's, its reference-listing collector leaks a dead cycle that spans
// spaces. The model keeps the decision procedure a runtime detector would
// build on, and the exhaustive exploration here is its safety argument.
//
// Abstractions, stated honestly: the dirty/clean bookkeeping is taken as
// exact (its correctness is established by the main refmodel machine, so
// dirty sets here always equal the true holder sets), and a reference
// transfer is atomic with its pin — a reference in transit keeps its
// export pinned, and trial deletion must treat pinned exports as rooted,
// which is the Pinned flag here. The pass runs atomically over a
// snapshot of the whole graph, which a runtime would have to assemble
// with a multi-space snapshot protocol; the pin/unpin transitions of this
// machine interleave adversarially with detection, so a collector that
// re-verifies pins before it reclaims is covered.

// CycleKey identifies one exported object in a detection graph.
type CycleKey struct {
	Space wire.SpaceID
	Index uint64
}

// CycleNode is one exported object with the facts trial deletion needs.
type CycleNode struct {
	// Rooted marks a node that must stay alive for a reason other than
	// being held by another node in the graph: an application reference,
	// a pin (reference in transit), a pinned well-known export, or any
	// holder that could not be accounted for. Rootedness is the
	// conservative side — when in doubt, a node is rooted.
	Rooted bool
	// Holders are the exported objects holding a reference to this one.
	// A holder absent from the graph is treated as a root for this node.
	Holders []CycleKey
}

// GarbageCycles returns the nodes unreachable from any root: liveness
// seeds at rooted nodes and flows from holder to held, and whatever it
// never reaches is garbage — dead cross-space cycles (and any dead
// acyclic debris snapshotted with them). The result is sorted for
// deterministic reporting.
func GarbageCycles(nodes map[CycleKey]*CycleNode) []CycleKey {
	live := make(map[CycleKey]bool)
	var stack []CycleKey
	mark := func(k CycleKey) {
		if !live[k] {
			live[k] = true
			stack = append(stack, k)
		}
	}
	// held[h] lists the nodes h holds, inverting the Holders edges so
	// liveness can propagate forward.
	held := make(map[CycleKey][]CycleKey)
	for k, n := range nodes {
		if n.Rooted {
			mark(k)
		}
		for _, h := range n.Holders {
			if _, ok := nodes[h]; !ok {
				// Unknown holder: conservatively a root.
				mark(k)
				continue
			}
			held[h] = append(held[h], k)
		}
	}
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range held[h] {
			mark(k)
		}
	}
	var garbage []CycleKey
	for k := range nodes {
		if !live[k] {
			garbage = append(garbage, k)
		}
	}
	sort.Slice(garbage, func(i, j int) bool {
		if garbage[i].Space != garbage[j].Space {
			return garbage[i].Space < garbage[j].Space
		}
		return garbage[i].Index < garbage[j].Index
	})
	return garbage
}

// CycleConfig is one state of the machine: n spaces, space i owning
// object i.
type CycleConfig struct {
	N int
	// Exists[i]: object i's export entry is live (or the object is still
	// locally rooted). Once false the object is collected and can never
	// return.
	Exists []bool
	// LocalRoot[i]: space i's application holds its own object directly.
	LocalRoot []bool
	// AppRef[i][j]: space i's application holds a surrogate for object j.
	AppRef [][]bool
	// ObjRef[i][j]: object i holds a surrogate for object j — the edges a
	// cross-space cycle is made of.
	ObjRef [][]bool
	// Pinned[i]: a reference to object i is in transit; trial deletion
	// must treat it as rooted.
	Pinned []bool
	// CopyBudget bounds how many new application references the mutator
	// may still create, keeping the state space finite.
	CopyBudget int
}

// NewCycleConfig returns a configuration of n spaces with no references;
// callers add edges and roots before exploring.
func NewCycleConfig(n, copyBudget int) *CycleConfig {
	c := &CycleConfig{
		N:          n,
		Exists:     make([]bool, n),
		LocalRoot:  make([]bool, n),
		AppRef:     make([][]bool, n),
		ObjRef:     make([][]bool, n),
		Pinned:     make([]bool, n),
		CopyBudget: copyBudget,
	}
	for i := 0; i < n; i++ {
		c.Exists[i] = true
		c.AppRef[i] = make([]bool, n)
		c.ObjRef[i] = make([]bool, n)
	}
	return c
}

func (c *CycleConfig) clone() *CycleConfig {
	n := &CycleConfig{
		N:          c.N,
		Exists:     append([]bool(nil), c.Exists...),
		LocalRoot:  append([]bool(nil), c.LocalRoot...),
		AppRef:     make([][]bool, c.N),
		ObjRef:     make([][]bool, c.N),
		Pinned:     append([]bool(nil), c.Pinned...),
		CopyBudget: c.CopyBudget,
	}
	for i := 0; i < c.N; i++ {
		n.AppRef[i] = append([]bool(nil), c.AppRef[i]...)
		n.ObjRef[i] = append([]bool(nil), c.ObjRef[i]...)
	}
	return n
}

func (c *CycleConfig) key() string {
	return fmt.Sprintf("e%v|l%v|a%v|o%v|p%v|b%d",
		c.Exists, c.LocalRoot, c.AppRef, c.ObjRef, c.Pinned, c.CopyBudget)
}

// heldBySomeone reports whether any live party references object j: an
// application anywhere, or an existing object. This is exactly "j's dirty
// set is non-empty or j is locally rooted" under the exact-bookkeeping
// abstraction.
func (c *CycleConfig) heldBySomeone(j int) bool {
	if c.LocalRoot[j] {
		return true
	}
	for i := 0; i < c.N; i++ {
		if c.AppRef[i][j] {
			return true
		}
		if i != j && c.Exists[i] && c.ObjRef[i][j] {
			return true
		}
	}
	return false
}

// live computes true reachability: an object is live iff reachable from
// an application root (LocalRoot, AppRef or a pin) through edges of
// existing objects. This is the specification the collectors are judged
// against, never an input to them.
func (c *CycleConfig) live() []bool {
	live := make([]bool, c.N)
	var stack []int
	mark := func(j int) {
		if c.Exists[j] && !live[j] {
			live[j] = true
			stack = append(stack, j)
		}
	}
	for j := 0; j < c.N; j++ {
		if c.LocalRoot[j] || c.Pinned[j] {
			mark(j)
		}
		for i := 0; i < c.N; i++ {
			if c.AppRef[i][j] {
				mark(j)
			}
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j := 0; j < c.N; j++ {
			if i != j && c.ObjRef[i][j] {
				mark(j)
			}
		}
	}
	return live
}

// unsafe reports the violation every collector must avoid: an object that
// is still live (reachable from an application root) has been collected.
func (c *CycleConfig) unsafe() bool {
	live := c.live()
	for j := 0; j < c.N; j++ {
		if live[j] && !c.Exists[j] {
			return true
		}
	}
	return false
}

// detect runs a trial-deletion pass over the current graph and collects
// its verdicts.
func (c *CycleConfig) detect() {
	nodes := make(map[CycleKey]*CycleNode)
	for j := 0; j < c.N; j++ {
		if !c.Exists[j] {
			continue
		}
		rooted := c.LocalRoot[j] || c.Pinned[j]
		for i := 0; i < c.N; i++ {
			if c.AppRef[i][j] {
				rooted = true
			}
		}
		n := &CycleNode{Rooted: rooted}
		for i := 0; i < c.N; i++ {
			if i != j && c.Exists[i] && c.ObjRef[i][j] {
				n.Holders = append(n.Holders, CycleKey{Space: wire.SpaceID(i + 1)})
			}
		}
		nodes[CycleKey{Space: wire.SpaceID(j + 1)}] = n
	}
	for _, k := range GarbageCycles(nodes) {
		c.Exists[int(k.Space)-1] = false
	}
}

type cycleTransition struct {
	name  string
	apply func(*CycleConfig)
}

func (c *CycleConfig) enabled() []cycleTransition {
	var ts []cycleTransition
	for i := 0; i < c.N; i++ {
		i := i
		if c.LocalRoot[i] {
			ts = append(ts, cycleTransition{
				name:  fmt.Sprintf("drop_local(%d)", i),
				apply: func(c *CycleConfig) { c.LocalRoot[i] = false },
			})
		}
		if c.Pinned[i] {
			ts = append(ts, cycleTransition{
				name:  fmt.Sprintf("unpin(%d)", i),
				apply: func(c *CycleConfig) { c.Pinned[i] = false },
			})
		}
		// Local collection: an existing object nobody holds is withdrawn.
		if c.Exists[i] && !c.heldBySomeone(i) {
			ts = append(ts, cycleTransition{
				name:  fmt.Sprintf("local_gc(%d)", i),
				apply: func(c *CycleConfig) { c.Exists[i] = false },
			})
		}
		for j := 0; j < c.N; j++ {
			if i == j {
				continue
			}
			j := j
			if c.AppRef[i][j] {
				ts = append(ts, cycleTransition{
					name:  fmt.Sprintf("drop_app(%d,%d)", i, j),
					apply: func(c *CycleConfig) { c.AppRef[i][j] = false },
				})
			}
			if c.Exists[i] && c.ObjRef[i][j] {
				ts = append(ts, cycleTransition{
					name:  fmt.Sprintf("drop_obj(%d,%d)", i, j),
					apply: func(c *CycleConfig) { c.ObjRef[i][j] = false },
				})
			}
			// The mutator copies a reference: space i's application
			// acquires a surrogate for object j, which some live party
			// must currently hold to hand over. The transfer pins j for
			// its duration; modelled atomically (see file comment), with
			// the pin left set so unpin interleaves with later detection.
			if c.CopyBudget > 0 && !c.AppRef[i][j] && c.Exists[j] && c.heldBySomeone(j) {
				ts = append(ts, cycleTransition{
					name: fmt.Sprintf("copy_app(%d,%d)", i, j),
					apply: func(c *CycleConfig) {
						c.CopyBudget--
						c.AppRef[i][j] = true
						c.Pinned[j] = true
					},
				})
			}
		}
	}
	// Detection may run at any moment, from any interleaving.
	ts = append(ts, cycleTransition{name: "detect", apply: func(c *CycleConfig) { c.detect() }})
	return ts
}

// CycleExplore exhaustively explores every interleaving from init and
// returns the state count and a trace to the first safety violation (a
// live object collected), nil when the space is clean.
func CycleExplore(init *CycleConfig, maxStates int) (states int, counterexample []string) {
	if maxStates <= 0 {
		maxStates = 2_000_000
	}
	type node struct {
		cfg   *CycleConfig
		trace []string
	}
	visited := map[string]bool{init.key(): true}
	queue := []node{{cfg: init}}
	states = 1
	if init.unsafe() {
		return states, []string{"initial state unsafe"}
	}
	for len(queue) > 0 && states < maxStates {
		n := queue[0]
		queue = queue[1:]
		for _, t := range n.cfg.enabled() {
			succ := n.cfg.clone()
			t.apply(succ)
			tr := append(append([]string(nil), n.trace...), t.name)
			if succ.unsafe() {
				return states, tr
			}
			k := succ.key()
			if visited[k] {
				continue
			}
			visited[k] = true
			states++
			queue = append(queue, node{cfg: succ, trace: tr})
		}
	}
	return states, nil
}

// CycleCollectsAll reports whether repeated detection and local
// collection from c reclaims every object, i.e. no leak remains once the
// mutator has quiesced. It fires detect and local_gc to fixpoint.
func CycleCollectsAll(c *CycleConfig) bool {
	cur := c.clone()
	for steps := 0; steps < 4*cur.N+8; steps++ {
		cur.detect()
		fired := false
		for _, t := range cur.enabled() {
			if strings.HasPrefix(t.name, "local_gc(") {
				t.apply(cur)
				fired = true
			}
		}
		done := true
		for i := 0; i < cur.N; i++ {
			if cur.Exists[i] {
				done = false
			}
		}
		if done {
			return true
		}
		if !fired {
			// One more detect might still make progress; give the loop
			// its remaining iterations.
			continue
		}
	}
	for i := 0; i < cur.N; i++ {
		if cur.Exists[i] {
			return false
		}
	}
	return true
}

// cycleRing builds the canonical n-space cycle: object i holds object
// (i+1) mod n, every object unrooted. The reference-listing collector
// alone leaks all of it.
func cycleRing(n int) *CycleConfig {
	c := NewCycleConfig(n, 0)
	for i := 0; i < n; i++ {
		c.ObjRef[i][(i+1)%n] = true
	}
	return c
}
