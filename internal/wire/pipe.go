package wire

// This file defines the promise-pipelining message set.
//
// A pipelined call chain rides one mux session: each PipeCall names the
// session-scoped promise id its result should resolve, and may name
// earlier promise ids as its receiver or among its arguments. The owner
// chains dependent calls against its per-session completion table, so a
// K-deep dependent chain costs one round trip instead of K. Results
// travel back as PromiseResolve frames on the call's own stream.
//
// OneWay requests fire-and-forget invocation: no result frame ever comes
// back. One-way calls on a session execute in send order relative to each
// other; a later PipeCall can fence on them through its Barrier field.

// PipeCall requests invocation of a method whose receiver or arguments
// may be unresolved promises from earlier pipelined calls on the same
// session. It is shaped like a Call plus the promise plumbing.
type PipeCall struct {
	// Obj is the target's index in the receiving space's export table,
	// meaningful only when TargetPromise is zero.
	Obj uint64
	// TargetPromise, when nonzero, names the promise whose resolved value
	// is the call's receiver: the owner waits for that promise's local
	// completion and invokes the method on its first result.
	TargetPromise uint64
	// Method is the method name on the target object.
	Method string
	// Fingerprint is the caller's stub fingerprint; zero means unchecked.
	Fingerprint uint64
	// Typed reports how Args is encoded (see Call.Typed).
	Typed bool
	// Args is the pickled argument tuple. Argument positions listed in
	// ArgPromisePos are pickled as nil placeholders; the owner substitutes
	// the promises' resolved values before invoking.
	Args []byte
	// ArgPromisePos and ArgPromiseIDs are parallel: the argument at
	// position ArgPromisePos[i] (0-based, excluding any leading context)
	// is the resolved value of promise ArgPromiseIDs[i].
	ArgPromisePos []uint64
	ArgPromiseIDs []uint64
	// Promise is the session-scoped promise id this call resolves. The
	// client allocates it; the owner records the call's outcome under it
	// in the session's completion table.
	Promise uint64
	// ID correlates this call with a CancelCall and trace events.
	ID uint64
	// DeadlineMillis is the caller's remaining time budget (see
	// Call.DeadlineMillis).
	DeadlineMillis uint64
	// Barrier is the number of one-way calls sent on this session before
	// this call; the owner delays invocation until that many one-ways
	// have finished executing, giving one-way → two-way ordering.
	Barrier uint64
}

// Op returns OpPipeCall.
func (*PipeCall) Op() Op { return OpPipeCall }

func (m *PipeCall) encode(e *Encoder) {
	e.Uint(m.Obj)
	e.Uint(m.TargetPromise)
	e.String(m.Method)
	e.Uint(m.Fingerprint)
	e.Bool(m.Typed)
	e.BytesField(m.Args)
	e.Uint(uint64(len(m.ArgPromisePos)))
	for i := range m.ArgPromisePos {
		e.Uint(m.ArgPromisePos[i])
		e.Uint(m.ArgPromiseIDs[i])
	}
	e.Uint(m.Promise)
	e.Uint(m.ID)
	e.Uint(m.DeadlineMillis)
	e.Uint(m.Barrier)
}

func (m *PipeCall) decode(d *Decoder) {
	m.Obj = d.Uint()
	m.TargetPromise = d.Uint()
	m.Method = d.InternedString()
	m.Fingerprint = d.Uint()
	m.Typed = d.Bool()
	m.Args = d.BytesField()
	n := d.Uint()
	if n > MaxStringLen/2 {
		d.fail("pipe call promise-argument list too large")
		return
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		m.ArgPromisePos = append(m.ArgPromisePos, d.Uint())
		m.ArgPromiseIDs = append(m.ArgPromiseIDs, d.Uint())
	}
	m.Promise = d.Uint()
	m.ID = d.Uint()
	m.DeadlineMillis = d.Uint()
	m.Barrier = d.Uint()
}

// PromiseResolve carries the outcome of a pipelined call, resolving the
// promise id the client assigned. Shaped like a Result plus the id.
type PromiseResolve struct {
	// Promise is the session-scoped promise id being resolved.
	Promise uint64
	// Status classifies the outcome; StatusPromiseBroken means the call
	// never ran because a dependency failed.
	Status Status
	// Err is the error text when Status != StatusOK.
	Err string
	// Results is the pickled result tuple (see Result.Results).
	Results []byte
	// NeedAck is set when Results carries network references; the client
	// answers with a ResultAck on the same stream (see Result.NeedAck).
	NeedAck bool
}

// Op returns OpPromiseResolve.
func (*PromiseResolve) Op() Op { return OpPromiseResolve }

func (m *PromiseResolve) encode(e *Encoder) {
	e.Uint(m.Promise)
	e.Uint(uint64(m.Status))
	e.String(m.Err)
	e.BytesField(m.Results)
	e.Bool(m.NeedAck)
}

func (m *PromiseResolve) decode(d *Decoder) {
	m.Promise = d.Uint()
	m.Status = Status(d.Uint())
	m.Err = d.String()
	m.Results = d.BytesField()
	m.NeedAck = d.Bool()
}

// OneWay requests invocation with no reply: no result, no error report,
// no acknowledgement. The receiver executes one-way calls from a session
// in Seq order relative to each other.
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
	// their execution order and giving PipeCall.Barrier its meaning.
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
