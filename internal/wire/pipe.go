package wire

// OneWay requests invocation with no reply: no result, no error report,
// no acknowledgement. The receiver executes one-way calls from a session
// in Seq order relative to each other; a later pipelined Call can fence on
// them through its Barrier field. It is the one invocation message with no
// reply leg, and so the one that is not a Call.
type OneWay struct {
	// Obj is the target's index in the receiving space's export table.
	Obj uint64
	// Method is the method name on the exported object.
	Method string
	// Fingerprint is the caller's stub fingerprint; zero means unchecked.
	Fingerprint uint64
	// Typed reports how Args is encoded (see Call.Typed).
	Typed bool
	// Args is the pickled argument tuple.
	Args []byte
	// ArgSegs, when non-nil, is the argument pickle in pieces, sent in
	// place of Args (see Call.ArgSegs). Send side only.
	ArgSegs [][]byte
	// Seq numbers this session's one-way calls from 1 upward, fixing
	// their execution order and giving Call.Barrier its meaning.
	Seq uint64
}

// Op returns OpOneWay.
func (*OneWay) Op() Op { return OpOneWay }

func (m *OneWay) encode(e *Encoder) {
	e.Uint(m.Obj)
	e.String(m.Method)
	e.Uint(m.Fingerprint)
	e.Bool(m.Typed)
	e.tupleField(m.Args, m.ArgSegs)
	e.Uint(m.Seq)
}

func (m *OneWay) decode(d *Decoder) {
	m.Obj = d.Uint()
	m.Method = d.InternedString()
	m.Fingerprint = d.Uint()
	m.Typed = d.Bool()
	m.Args = d.BytesField()
	m.Seq = d.Uint()
}
