package core

import (
	"fmt"
	"sort"

	"netobjects/internal/dgc"
	"netobjects/internal/objtable"
	"netobjects/internal/wire"
)

// Cross-space cycle detection. The reference-listing collector reclaims
// everything except cycles that cross space boundaries: object A at space
// 1 holds a surrogate for object B at space 2 and vice versa, each
// export's dirty set names the other space, and both entries survive any
// amount of pinging or leasing, because each space really is alive and
// really does hold the reference. This file runs the trial-deletion pass
// over such graphs: the detector snapshots the local exports whose only
// liveness is their dirty sets (the suspects), asks each dirty-set member
// which of its own exported objects hold those references (CycleQuery),
// assembles the answers into a graph, and lets dgc.GarbageCycles decide —
// the same decision procedure internal/refmodel drives through every
// interleaving of a small object graph.
//
// The scheme needs the application's help on exactly one point: Go's
// collector cannot enumerate which heap objects reference a surrogate, so
// exported objects that hold network references declare them by
// implementing NetRefHolder. Rootedness then falls out of accounting: a
// surrogate whose independent claims (import-table holds) are exactly the
// claims its space's declared holders stand for is held only by exported
// objects; any surplus, any pin, any in-transition state, or any holder
// the pass cannot see (a third space, in this one-round pairwise pass)
// conservatively roots it.

// NetRefHolder is implemented by exported objects that hold network
// references. NetRefs returns the references (or stubs — anything
// carrying a *Ref) the object currently holds; nil entries are ignored.
// The cycle detector uses the declaration to trace reference chains that
// leave the local space. Objects that do not implement it simply keep
// whatever they hold alive, exactly as before.
type NetRefHolder interface {
	NetRefs() []*Ref
}

// maxCycleIndices bounds the indices one CycleQuery carries, mirroring
// the wire decoder's cap.
const maxCycleIndices = wire.MaxStringLen / 3

// handleCycleQuery answers the responder side of a detection pass: for
// each queried index of the querier's export table, report whether this
// space's surrogate is rooted (held beyond what its declared exported
// holders account for) and the back-reference edges from those holders.
func (sp *Space) handleCycleQuery(m *wire.CycleQuery) *wire.CycleAnswer {
	sp.metrics.CycleQueriesServed.Inc()
	if m.Owner != 0 && m.Owner != sp.id {
		// Addressed to a previous incarnation at this endpoint: its
		// surrogates are gone, and answering for them would let the
		// querier collect objects the real addressee still holds.
		sp.metrics.StaleRejected.Inc()
		return &wire.CycleAnswer{Status: wire.StatusNoSuchObject, From: sp.id}
	}
	queried := make(map[uint64]bool, len(m.Indices))
	for _, ix := range m.Indices {
		queried[ix] = true
	}
	// One walk over the export table collects, per queried index, how many
	// declared holder references stand for it and from which exports.
	declared := make(map[uint64]int)
	var refs []wire.CycleRef
	holders := make(map[uint64]*wire.CycleHolder)
	for _, ent := range sp.exports.CycleExports() {
		h, ok := ent.Obj.(NetRefHolder)
		if !ok {
			continue
		}
		for _, r := range h.NetRefs() {
			if r == nil || r.IsOwner() || r.key.Owner != m.From || !queried[r.key.Index] {
				continue
			}
			declared[r.key.Index]++
			refs = append(refs, wire.CycleRef{RefIndex: r.key.Index, HolderIndex: ent.Index})
			if holders[ent.Index] == nil {
				holders[ent.Index] = &wire.CycleHolder{
					Index:   ent.Index,
					Rooted:  ent.Rooted,
					Clients: ent.Clients,
				}
			}
		}
	}
	ans := &wire.CycleAnswer{Status: wire.StatusOK, From: sp.id, Refs: refs}
	for _, h := range holders {
		ans.Holders = append(ans.Holders, *h)
	}
	for _, ix := range m.Indices {
		holds, pins, state := sp.imports.HoldInfo(wire.Key{Owner: m.From, Index: ix})
		switch {
		case state == objtable.StateNone:
			// No entry: the surrogate is gone and a clean call is on its
			// way (or already arrived). Rooted only if a stale holder still
			// declares it — then the accounting cannot be trusted.
			if declared[ix] > 0 {
				ans.Rooted = append(ans.Rooted, ix)
			}
		case state != objtable.StateOK, pins > 0, holds != declared[ix]:
			// In transition, in transit, or claims beyond (or short of)
			// the declared holders: conservatively rooted.
			ans.Rooted = append(ans.Rooted, ix)
		}
	}
	return ans
}

// handleCycleCollect reclaims exports a completed trial-deletion pass
// condemned: for each named index, the dirty entries of the cycle's
// member spaces are dropped. Forget re-verifies pins entry by entry, so a
// verdict gone stale since the pass cannot free a live object.
func (sp *Space) handleCycleCollect(m *wire.CycleCollect) *wire.CleanAck {
	if m.Owner != 0 && m.Owner != sp.id {
		sp.metrics.StaleRejected.Inc()
		return &wire.CleanAck{Status: wire.StatusNoSuchObject,
			Err: fmt.Sprintf("cycle collect addressed to space %v; this endpoint now serves %v", m.Owner, sp.id)}
	}
	for _, ix := range m.Indices {
		for _, member := range m.Members {
			if sp.exports.Forget(ix, member) {
				sp.metrics.CyclesCollected.Inc()
			}
		}
	}
	return &wire.CleanAck{Status: wire.StatusOK}
}

// sendCycleQuery runs one query exchange with a dirty-set member.
func (sp *Space) sendCycleQuery(id wire.SpaceID, endpoints []string, indices []uint64) (*wire.CycleAnswer, error) {
	sp.metrics.CycleQueriesSent.Inc()
	req := &wire.CycleQuery{From: sp.id, Indices: indices, Owner: id}
	resp, err := sp.rpcRetry(endpoints, req, sp.opts.CallTimeout)
	if err != nil {
		return nil, err
	}
	ans, ok := resp.(*wire.CycleAnswer)
	if !ok {
		return nil, fmt.Errorf("netobjects: cycle query answered with %v", resp.Op())
	}
	if ans.Status != wire.StatusOK {
		return nil, fmt.Errorf("netobjects: cycle query refused by %v: status %v", id, ans.Status)
	}
	return ans, nil
}

// sendCycleCollect tells owner id to reclaim its members of a dead cycle.
func (sp *Space) sendCycleCollect(id wire.SpaceID, endpoints []string, indices []uint64, members []wire.SpaceID) error {
	req := &wire.CycleCollect{From: sp.id, Indices: indices, Members: members, Owner: id}
	resp, err := sp.rpcRetry(endpoints, req, sp.opts.CallTimeout)
	if err != nil {
		return err
	}
	ack, ok := resp.(*wire.CleanAck)
	if !ok {
		return fmt.Errorf("netobjects: cycle collect answered with %v", resp.Op())
	}
	if ack.Status != wire.StatusOK {
		return fmt.Errorf("netobjects: cycle collect refused by %v: %s", id, ack.Err)
	}
	return nil
}

// localHolders resolves this space's own claim on a remote holder object:
// it reports whether the local surrogate for key is rooted here (claims
// beyond what declared exported holders account for, a pin, a transition)
// and, when it is not, the export indices of the local objects declaring
// it. The scan reuses a single snapshot of the export table taken once
// per pass.
func localHolders(snapshot []objtable.CycleExport, sp *Space, key wire.Key) (rooted bool, holderIx []uint64) {
	holds, pins, state := sp.imports.HoldInfo(key)
	declared := 0
	for _, ent := range snapshot {
		h, ok := ent.Obj.(NetRefHolder)
		if !ok {
			continue
		}
		for _, r := range h.NetRefs() {
			if r != nil && !r.IsOwner() && r.key == key {
				declared++
				holderIx = append(holderIx, ent.Index)
			}
		}
	}
	if state != objtable.StateOK || pins > 0 || holds != declared {
		return true, nil
	}
	return false, holderIx
}

// cyclePass runs one trial-deletion pass from this space: snapshot the
// suspects, query each dirty-set member once, assemble the pairwise
// graph, and act on the verdicts. The pass is one-round: holders held by
// spaces other than this one and the queried member are conservatively
// rooted, so only cycles spanning two spaces are detected per pass —
// longer rings survive (safely) and are left for future rounds of the
// protocol. Detection is always-on once enabled; actual collection is a
// separate opt-in (Options.CycleCollect).
func (sp *Space) cyclePass() {
	suspects := sp.exports.Suspects()
	if len(suspects) == 0 {
		return
	}
	// Per-peer query batches: every suspect held by peer P contributes its
	// index to P's query.
	type peerQuery struct {
		endpoints []string
		indices   []uint64
	}
	peers := make(map[wire.SpaceID]*peerQuery)
	nodes := make(map[dgc.CycleKey]*dgc.CycleNode)
	suspectClients := make(map[uint64][]wire.SpaceID)
	for _, s := range suspects {
		nodes[dgc.CycleKey{Space: sp.id, Index: s.Index}] = &dgc.CycleNode{}
		for id, eps := range s.Clients {
			suspectClients[s.Index] = append(suspectClients[s.Index], id)
			pq := peers[id]
			if pq == nil {
				pq = &peerQuery{endpoints: eps}
				peers[id] = pq
			}
			if len(pq.indices) < maxCycleIndices {
				pq.indices = append(pq.indices, s.Index)
			} else {
				// Over the per-query cap: the overflow stays unqueried, so
				// its node must be rooted this round.
				nodes[dgc.CycleKey{Space: sp.id, Index: s.Index}].Rooted = true
			}
		}
	}
	// The local export snapshot backs every local-holder resolution below.
	snapshot := sp.exports.CycleExports()
	for id, pq := range peers {
		ans, err := sp.sendCycleQuery(id, pq.endpoints, pq.indices)
		if err != nil {
			// Peer unreachable or refused: everything it was asked about is
			// conservatively rooted; liveness of the peer itself is the
			// pinger's business, not the detector's.
			sp.log.Debug("cycle query failed", "peer", id.String(), "err", err)
			for _, ix := range pq.indices {
				nodes[dgc.CycleKey{Space: sp.id, Index: ix}].Rooted = true
			}
			continue
		}
		for _, ix := range ans.Rooted {
			if n := nodes[dgc.CycleKey{Space: sp.id, Index: ix}]; n != nil {
				n.Rooted = true
			}
		}
		for _, h := range ans.Holders {
			hk := dgc.CycleKey{Space: id, Index: h.Index}
			node := &dgc.CycleNode{Rooted: h.Rooted}
			for _, c := range h.Clients {
				switch c {
				case sp.id:
					rooted, holderIx := localHolders(snapshot, sp, wire.Key{Owner: id, Index: h.Index})
					if rooted {
						node.Rooted = true
						continue
					}
					for _, lh := range holderIx {
						// A local holder that is not itself in the graph (it
						// is pinned, or has an empty dirty set) counts as an
						// unknown holder, which GarbageCycles roots.
						node.Holders = append(node.Holders, dgc.CycleKey{Space: sp.id, Index: lh})
					}
				default:
					// A third space holds the peer's object: out of this
					// one-round pairwise pass's reach.
					node.Rooted = true
				}
			}
			nodes[hk] = node
		}
		for _, r := range ans.Refs {
			if n := nodes[dgc.CycleKey{Space: sp.id, Index: r.RefIndex}]; n != nil {
				n.Holders = append(n.Holders, dgc.CycleKey{Space: id, Index: r.HolderIndex})
			}
		}
	}
	garbage := dgc.GarbageCycles(nodes)
	if len(garbage) == 0 {
		return
	}
	sp.metrics.CyclesDetected.Add(uint64(len(garbage)))
	members := make([]wire.SpaceID, 0, 2)
	seen := make(map[wire.SpaceID]bool)
	for _, k := range garbage {
		if !seen[k.Space] {
			seen[k.Space] = true
			members = append(members, k.Space)
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	sp.log.Info("dgc: dead cross-space cycle detected",
		"members", len(garbage), "spaces", len(members), "collect", sp.opts.CycleCollect)
	if !sp.opts.CycleCollect {
		return
	}
	// Reclaim: local members drop the cycle spaces from their dirty sets
	// directly; remote members get a CycleCollect each. Forget re-verifies
	// pins at the moment of reclamation.
	remote := make(map[wire.SpaceID][]uint64)
	for _, k := range garbage {
		if k.Space == sp.id {
			for _, c := range suspectClients[k.Index] {
				if seen[c] && sp.exports.Forget(k.Index, c) {
					sp.metrics.CyclesCollected.Inc()
				}
			}
			continue
		}
		remote[k.Space] = append(remote[k.Space], k.Index)
	}
	for id, indices := range remote {
		if pq := peers[id]; pq != nil {
			if err := sp.sendCycleCollect(id, pq.endpoints, indices, members); err != nil {
				sp.log.Debug("cycle collect failed", "peer", id.String(), "err", err)
			}
		}
	}
}

// PokeCycles runs one detection pass immediately (tests and demos). It is
// a no-op unless the space was built with Options.CycleDetect.
func (sp *Space) PokeCycles() {
	if sp.detector != nil {
		sp.detector.Poke()
	}
}
