package wire

// This file defines the cross-space cycle detector's query/collect
// exchange.

// maxCycleKeys bounds the keys one cycle query or collect may carry, so a
// malformed length prefix cannot balloon the decoder.
const maxCycleKeys = MaxStringLen / 3

// CycleQuery asks a client space to report the back-references behind its
// surrogates for the sender's objects. The owner sends it while running a
// trial-deletion pass over exports whose only liveness is remote dirty
// entries; the answer tells it whether those entries stand for references
// the client's application actually holds, or only for references held by
// the client's own exported objects — the edges a cross-space cycle is
// made of.
type CycleQuery struct {
	// From identifies the querying owner; Indices name its objects.
	From SpaceID
	// Indices are the owner's export indices to report on.
	Indices []uint64
	// Owner names the space the query is addressed to (the client being
	// asked), guarding against endpoint reuse by a new incarnation. Zero
	// means unaddressed.
	Owner SpaceID
}

// Op returns OpCycleQuery.
func (*CycleQuery) Op() Op { return OpCycleQuery }

func (m *CycleQuery) encode(e *Encoder) {
	e.Uint(uint64(m.From))
	e.Uint(uint64(len(m.Indices)))
	for _, ix := range m.Indices {
		e.Uint(ix)
	}
	e.Uint(uint64(m.Owner))
}

func (m *CycleQuery) decode(d *Decoder) {
	m.From = SpaceID(d.Uint())
	n := d.Uint()
	if n > maxCycleKeys {
		d.fail("cycle query too large")
		return
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		m.Indices = append(m.Indices, d.Uint())
	}
	m.Owner = SpaceID(d.Uint())
}

// CycleRef reports one back-reference edge: the responder's exported
// object at HolderIndex holds a reference to the queried object at
// RefIndex (an index in the *querier's* export table).
type CycleRef struct {
	// RefIndex is the queried owner's export index the edge points at.
	RefIndex uint64
	// HolderIndex is the responder's own export index of the holding
	// object.
	HolderIndex uint64
}

// CycleHolder describes one of the responder's exported objects that
// holds queried references, with the facts the querier's trial deletion
// needs about it: whether it is pinned locally and which spaces hold it.
type CycleHolder struct {
	// Index is the holder's index in the responder's export table.
	Index uint64
	// Rooted reports that the holder is alive for reasons other than its
	// dirty set: a well-known pinned export, or a reference in transit.
	Rooted bool
	// Clients are the spaces in the holder's dirty set.
	Clients []SpaceID
}

// CycleAnswer reports the responder's side of a cycle query. For each
// queried index: whether the surrogate is rooted (held by the responding
// application beyond what its exported objects declare, or unaccountable
// — both conservatively keep the object alive) and the back-reference
// edges from the responder's own exports.
type CycleAnswer struct {
	// Status is StatusOK when the responder ran the scan; anything else
	// aborts the pass conservatively.
	Status Status
	// From identifies the responding client.
	From SpaceID
	// Rooted lists the queried indices whose surrogates the responder
	// cannot prove to be held only by its exported objects.
	Rooted []uint64
	// Refs are the back-reference edges from the responder's exports to
	// the queried objects.
	Refs []CycleRef
	// Holders describes each distinct holder appearing in Refs.
	Holders []CycleHolder
}

// Op returns OpCycleAnswer.
func (*CycleAnswer) Op() Op { return OpCycleAnswer }

func (m *CycleAnswer) encode(e *Encoder) {
	e.Uint(uint64(m.Status))
	e.Uint(uint64(m.From))
	e.Uint(uint64(len(m.Rooted)))
	for _, ix := range m.Rooted {
		e.Uint(ix)
	}
	e.Uint(uint64(len(m.Refs)))
	for _, r := range m.Refs {
		e.Uint(r.RefIndex)
		e.Uint(r.HolderIndex)
	}
	e.Uint(uint64(len(m.Holders)))
	for _, h := range m.Holders {
		e.Uint(h.Index)
		e.Bool(h.Rooted)
		e.Uint(uint64(len(h.Clients)))
		for _, c := range h.Clients {
			e.Uint(uint64(c))
		}
	}
}

func (m *CycleAnswer) decode(d *Decoder) {
	m.Status = Status(d.Uint())
	m.From = SpaceID(d.Uint())
	n := d.Uint()
	if n > maxCycleKeys {
		d.fail("cycle answer too large")
		return
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		m.Rooted = append(m.Rooted, d.Uint())
	}
	n = d.Uint()
	if n > maxCycleKeys {
		d.fail("cycle answer too large")
		return
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		m.Refs = append(m.Refs, CycleRef{RefIndex: d.Uint(), HolderIndex: d.Uint()})
	}
	n = d.Uint()
	if n > maxCycleKeys {
		d.fail("cycle answer too large")
		return
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		h := CycleHolder{Index: d.Uint(), Rooted: d.Bool()}
		c := d.Uint()
		if c > maxCycleKeys {
			d.fail("cycle answer too large")
			return
		}
		for j := uint64(0); j < c && d.Err() == nil; j++ {
			h.Clients = append(h.Clients, SpaceID(d.Uint()))
		}
		m.Holders = append(m.Holders, h)
	}
}

// CycleCollect instructs the receiving owner to reclaim exported objects
// that a completed trial-deletion pass proved to be members of a dead
// cross-space cycle. The receiver re-verifies each entry locally (it must
// be unpinned, with no reference in transit) before dropping the dirty
// entries held by the cycle's member spaces. Answered with a CleanAck.
type CycleCollect struct {
	// From identifies the space that ran the detection pass.
	From SpaceID
	// Indices are the receiver's export indices to reclaim.
	Indices []uint64
	// Members are the spaces participating in the dead cycle; only their
	// dirty entries are dropped, so a concurrent import by an outside
	// space survives.
	Members []SpaceID
	// Owner names the addressed space, guarding against endpoint reuse by
	// a new incarnation. Zero means unaddressed.
	Owner SpaceID
}

// Op returns OpCycleCollect.
func (*CycleCollect) Op() Op { return OpCycleCollect }

func (m *CycleCollect) encode(e *Encoder) {
	e.Uint(uint64(m.From))
	e.Uint(uint64(len(m.Indices)))
	for _, ix := range m.Indices {
		e.Uint(ix)
	}
	e.Uint(uint64(len(m.Members)))
	for _, s := range m.Members {
		e.Uint(uint64(s))
	}
	e.Uint(uint64(m.Owner))
}

func (m *CycleCollect) decode(d *Decoder) {
	m.From = SpaceID(d.Uint())
	n := d.Uint()
	if n > maxCycleKeys {
		d.fail("cycle collect too large")
		return
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		m.Indices = append(m.Indices, d.Uint())
	}
	n = d.Uint()
	if n > maxCycleKeys {
		d.fail("cycle collect too large")
		return
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		m.Members = append(m.Members, SpaceID(d.Uint()))
	}
	m.Owner = SpaceID(d.Uint())
}
