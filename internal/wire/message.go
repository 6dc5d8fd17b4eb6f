package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Op identifies a protocol message kind.
type Op uint8

// The protocol message set. A remote method invocation is a Call/Result
// pair, pipelined or not. The distributed collector uses Dirty/DirtyAck to
// register a client in an object's dirty set and CleanBatch/CleanAck to
// remove it; Ping/PingAck let an owner probe clients that hold surrogates
// for its objects.
const (
	OpInvalid Op = iota
	OpCall
	OpResult
	OpDirty
	OpDirtyAck
	// Op 5 was version 1's single-key Clean; every clean is a CleanBatch
	// now. Retired numbers are not reused, so the ops that remain keep
	// their numbers and a version-1 frame never decodes as another message.
	_
	// OpCleanAck acknowledges a CleanBatch or a CycleCollect.
	OpCleanAck
	OpPing
	OpPingAck
	// OpResultAck acknowledges receipt of a Result that carried network
	// references: the sender keeps those references transiently dirty until
	// the ack arrives, closing the window Birrell's presentation left open
	// for references returned as results.
	OpResultAck
	// OpCleanBatch carries the clean calls of one client to one owner — a
	// single key or several, the batching cost reduction of the paper.
	// Answered with a CleanAck.
	OpCleanBatch
	// OpLease renews a client's liveness lease at an owner — the
	// RMI-style alternative to owner-driven pinging.
	OpLease
	// OpLeaseAck acknowledges a lease renewal with the granted duration.
	OpLeaseAck
	// OpCancelCall forwards a caller's alert to the owner: the call
	// identified by its id should stop as soon as it can (the paper's
	// Thread.Alert propagated across the wire). Connections are lock-step,
	// so the cancel travels on its own connection, not the call's.
	OpCancelCall
	// OpCancelAck answers a CancelCall; StatusOK means the call was found
	// in flight and its context cancelled, StatusNoSuchObject that it had
	// already finished (or never arrived) — both are fine outcomes.
	OpCancelAck
	// OpMux wraps any other message in a multiplexing envelope: the op is
	// followed by a stream-id uvarint and then the ordinary marshaled
	// message. Sessions tag every frame on a shared connection with the id
	// so interleaved responses find their waiting callers. Envelopes do
	// not nest.
	OpMux
	// OpData carries one bounded chunk of a large muxed message:
	// [OpData][stream id][flags][chunk bytes]. Sessions split any payload
	// larger than the negotiated chunk size into OpData frames
	// so a bulk argument cannot monopolize the shared writer. Flags bit 0
	// (DataFlagLast) marks the final chunk of a message; bit 1
	// (DataFlagReset) aborts the stream's partial assembly (the sender
	// abandoned the message mid-stream).
	OpData
	// OpWindowUpdate grants flow-control credit:
	// [OpWindowUpdate][stream id][increment bytes]. Stream id 0 replenishes
	// the session-level window; any other id replenishes that stream's
	// window. Receivers issue grants as the dispatcher consumes, so a slow
	// callee backpressures exactly one stream rather than the link.
	OpWindowUpdate
	// OpFlowPing is the session keepalive probe: [OpFlowPing][token]. The
	// HTTP/2 PING analog — named FlowPing because OpPing is already the
	// collector's liveness probe. Answered with an OpFlowPong echoing the
	// token. Session keepalives retire the per-call connection health
	// probe on mux links and detect dead peers between calls.
	OpFlowPing
	// OpFlowPong answers an OpFlowPing: [OpFlowPong][token].
	OpFlowPong
	// OpHello opens a session: each side's first frame is a Hello, wrapped
	// in the mux envelope on reserved stream id 0 — [OpMux][0][marshaled
	// Hello] — carrying the protocol version, the sender's space identity
	// and its receive windows. A session whose first inbound frame is
	// anything else, or a Hello of another version, fails at once.
	OpHello
	// Ops 20 and 21 were version 1's PipeCall and PromiseResolve: a
	// pipelined call is a Call answered by a Result now.
	_
	_
	// OpOneWay requests invocation with no reply at all: no result frame,
	// no error report, no acknowledgement. One-way calls on a session are
	// executed in send order relative to each other, and a later pipelined
	// call can fence on them via Call.Barrier.
	OpOneWay
	// OpCycleQuery asks a client space for the back-references behind its
	// surrogates of the sender's objects — the cross-space cycle
	// detector's probe. Answered with an OpCycleAnswer.
	OpCycleQuery
	// OpCycleAnswer reports, per queried key, whether the surrogate is
	// rooted in the responding space's application and which of the
	// responder's own exported objects hold it.
	OpCycleAnswer
	// OpCycleCollect instructs an owner to reclaim the dirty entries of
	// exported objects that a completed trial-deletion pass proved to be
	// members of a dead cross-space cycle. Answered with a CleanAck.
	OpCycleCollect
)

// maxOp is the largest valid op, for PeekOp range checks.
const maxOp = OpCycleCollect

// String names the op for logs.
func (o Op) String() string {
	switch o {
	case OpCall:
		return "call"
	case OpResult:
		return "result"
	case OpDirty:
		return "dirty"
	case OpDirtyAck:
		return "dirty-ack"
	case OpCleanAck:
		return "clean-ack"
	case OpPing:
		return "ping"
	case OpPingAck:
		return "ping-ack"
	case OpResultAck:
		return "result-ack"
	case OpCleanBatch:
		return "clean-batch"
	case OpLease:
		return "lease"
	case OpLeaseAck:
		return "lease-ack"
	case OpCancelCall:
		return "cancel-call"
	case OpCancelAck:
		return "cancel-ack"
	case OpMux:
		return "mux"
	case OpData:
		return "data"
	case OpWindowUpdate:
		return "window-update"
	case OpFlowPing:
		return "flow-ping"
	case OpFlowPong:
		return "flow-pong"
	case OpHello:
		return "hello"
	case OpOneWay:
		return "one-way"
	case OpCycleQuery:
		return "cycle-query"
	case OpCycleAnswer:
		return "cycle-answer"
	case OpCycleCollect:
		return "cycle-collect"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Status classifies the outcome reported in a Result, DirtyAck or CleanAck.
type Status uint8

// Result statuses. StatusAppError carries an error returned by the remote
// method itself (the call executed); every other non-OK status reports a
// runtime-level failure (the call may not have executed).
const (
	StatusOK Status = iota
	StatusAppError
	StatusNoSuchObject
	StatusNoSuchMethod
	StatusBadFingerprint
	StatusMarshal
	StatusInternal
	// StatusCancelled reports that the call's context was cancelled — the
	// caller's alert reached the owner before the method finished.
	StatusCancelled
	// StatusDeadlineExceeded reports that the call's deadline expired at
	// the owner before the method finished.
	StatusDeadlineExceeded
	// StatusSpaceClosed reports that the receiving space is draining or
	// closed and accepts no new calls.
	StatusSpaceClosed
	// StatusPromiseBroken reports that a pipelined call was never executed
	// because a call it depended on failed (the chain was poisoned) or the
	// session carrying the chain died before the dependency resolved.
	StatusPromiseBroken
)

// String names the status for logs and errors.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusAppError:
		return "application error"
	case StatusNoSuchObject:
		return "no such object"
	case StatusNoSuchMethod:
		return "no such method"
	case StatusBadFingerprint:
		return "stub fingerprint mismatch"
	case StatusMarshal:
		return "marshaling error"
	case StatusInternal:
		return "internal error"
	case StatusCancelled:
		return "call cancelled"
	case StatusDeadlineExceeded:
		return "deadline exceeded"
	case StatusSpaceClosed:
		return "space closed"
	case StatusPromiseBroken:
		return "promise broken"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Message is implemented by every protocol message.
type Message interface {
	// Op returns the message kind.
	Op() Op
	encode(*Encoder)
	decode(*Decoder)
}

// Call requests invocation of a method on an exported object. A pipelined
// call is a Call whose promise fields are set (see Pipelined): it resolves
// a session-scoped promise the client allocated, and its receiver or
// arguments may be earlier promises on the same session, which the owner
// chains against its per-session completion table, so a K-deep dependent
// chain costs one round trip instead of K. Either way the answer is a
// Result on the call's own stream.
type Call struct {
	// Obj is the target's index in the receiving space's export table,
	// meaningful only when TargetPromise is zero.
	Obj uint64
	// Method is the method name on the exported object.
	Method string
	// Fingerprint is the caller's stub fingerprint for the object's type;
	// zero means "unchecked" (reflection stubs).
	Fingerprint uint64
	// Typed reports how Args is encoded: true means the caller pickled the
	// arguments at the method's declared parameter types (generated stubs,
	// the fast path); false means each argument is pickled as an interface
	// value (dynamic calls). The dispatcher answers in the same encoding.
	Typed bool
	// Args is the pickled argument tuple.
	Args []byte
	// ArgSegs, when non-nil, is the argument pickle in pieces, sent in
	// place of Args: what a borrowing pickler returns when a large []byte
	// argument stayed in the caller's memory. Send side only; a decoded
	// Call always has the tuple whole, in Args.
	ArgSegs [][]byte
	// ID correlates this call with a later CancelCall and with trace
	// events; zero means the caller will never cancel.
	ID uint64
	// DeadlineMillis is the caller's remaining time budget when the call
	// was sent, in milliseconds; zero means no deadline was propagated.
	// The owner treats it as advisory and caps it with its own bound — a
	// relative budget rather than an absolute time, so the two spaces'
	// clocks need not agree.
	DeadlineMillis uint64

	// TargetPromise, when nonzero, names the promise whose resolved value
	// is the call's receiver: the owner waits for that promise's completion
	// and invokes the method on its first result.
	TargetPromise uint64
	// ArgPromisePos and ArgPromiseIDs are parallel: the argument at
	// position ArgPromisePos[i] (0-based, excluding any leading context) is
	// pickled as nil and stands for the resolved value of promise
	// ArgPromiseIDs[i], which the owner substitutes before invoking.
	ArgPromisePos []uint64
	ArgPromiseIDs []uint64
	// Promise is the session-scoped promise id this call resolves. The
	// client allocates it; the owner records the call's outcome under it in
	// the session's completion table, for the calls chained on it.
	Promise uint64
	// Barrier is the number of one-way calls sent on this session before
	// this call; the owner delays invocation until that many one-ways have
	// finished executing, giving one-way → two-way ordering.
	Barrier uint64
}

// Op returns OpCall.
func (*Call) Op() Op { return OpCall }

// Pipelined reports whether any promise field is set: the call resolves a
// promise, chains on one or fences on one-way calls.
func (m *Call) Pipelined() bool {
	return m.Promise != 0 || m.TargetPromise != 0 || m.Barrier != 0 || len(m.ArgPromiseIDs) != 0
}

func (m *Call) encode(e *Encoder) {
	e.Uint(m.Obj)
	e.String(m.Method)
	e.Uint(m.Fingerprint)
	e.Bool(m.Typed)
	e.tupleField(m.Args, m.ArgSegs)
	e.Uint(m.ID)
	e.Uint(m.DeadlineMillis)
	// The promise fields: a byte each when zero, as on a plain call.
	e.Uint(m.TargetPromise)
	e.Uint(uint64(len(m.ArgPromisePos)))
	for i := range m.ArgPromisePos {
		e.Uint(m.ArgPromisePos[i])
		e.Uint(m.ArgPromiseIDs[i])
	}
	e.Uint(m.Promise)
	e.Uint(m.Barrier)
}

func (m *Call) decode(d *Decoder) {
	m.Obj = d.Uint()
	// Interned: the same method names arrive on every call, and the
	// dispatch cache, per-method metrics and trace events all key on the
	// string — one canonical copy serves them all without a per-call
	// allocation.
	m.Method = d.InternedString()
	m.Fingerprint = d.Uint()
	m.Typed = d.Bool()
	m.Args = d.BytesField()
	m.ID = d.Uint()
	m.DeadlineMillis = d.Uint()
	m.TargetPromise = d.Uint()
	n := d.Uint()
	if n > MaxStringLen/2 {
		d.fail("call promise-argument list too large")
		return
	}
	// Appended into what a pooled frame kept, so a decode that reuses one
	// allocates nothing for them.
	m.ArgPromisePos, m.ArgPromiseIDs = m.ArgPromisePos[:0], m.ArgPromiseIDs[:0]
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		m.ArgPromisePos = append(m.ArgPromisePos, d.Uint())
		m.ArgPromiseIDs = append(m.ArgPromiseIDs, d.Uint())
	}
	m.Promise = d.Uint()
	m.Barrier = d.Uint()
}

// Result carries the outcome of a Call.
type Result struct {
	// Status classifies the outcome.
	Status Status
	// Err is the error text when Status != StatusOK.
	Err string
	// Results is the pickled result tuple when Status == StatusOK or
	// StatusAppError (a method may return values alongside an error).
	Results []byte
	// ResultSegs, when non-nil, is the result pickle in pieces, sent in
	// place of Results (see Call.ArgSegs). Send side only.
	ResultSegs [][]byte
	// NeedAck is set when Results carries network references; the caller
	// must send a ResultAck on the same connection after unmarshaling so
	// the sender can drop its transient dirty entries for them.
	NeedAck bool
}

// Op returns OpResult.
func (*Result) Op() Op { return OpResult }

func (m *Result) encode(e *Encoder) {
	e.Uint(uint64(m.Status))
	e.String(m.Err)
	e.tupleField(m.Results, m.ResultSegs)
	e.Bool(m.NeedAck)
}

func (m *Result) decode(d *Decoder) {
	m.Status = Status(d.Uint())
	m.Err = d.String()
	m.Results = d.BytesField()
	m.NeedAck = d.Bool()
}

// Dirty registers the calling client in the dirty set of an exported
// object. It is sent by a space that has just received a wireRep for an
// object it holds no surrogate for, before the surrogate becomes usable.
type Dirty struct {
	// Obj is the object's index at the owner.
	Obj uint64
	// Client identifies the space acquiring the reference.
	Client SpaceID
	// ClientEndpoints are endpoints at which the owner can ping the client.
	ClientEndpoints []string
	// Seq orders this client's dirty and clean calls for the object;
	// the owner ignores operations whose Seq is not larger than the largest
	// already seen from this client.
	Seq uint64
	// Owner names the space this dirty call is addressed to. Space ids
	// are unique over time, so a receiver with a different id is a new
	// incarnation reusing the endpoint and must refuse the call rather
	// than register the client against an unrelated object that happens
	// to share the index. Every sender sets it; zero is refused like any
	// other mismatch.
	Owner SpaceID
}

// Op returns OpDirty.
func (*Dirty) Op() Op { return OpDirty }

func (m *Dirty) encode(e *Encoder) {
	e.Uint(m.Obj)
	e.Uint(uint64(m.Client))
	e.StringSlice(m.ClientEndpoints)
	e.Uint(m.Seq)
	e.Uint(uint64(m.Owner))
}

func (m *Dirty) decode(d *Decoder) {
	m.Obj = d.Uint()
	m.Client = SpaceID(d.Uint())
	m.ClientEndpoints = d.StringSlice()
	m.Seq = d.Uint()
	m.Owner = SpaceID(d.Uint())
}

// DirtyAck acknowledges a Dirty call.
type DirtyAck struct {
	// Status is StatusOK on success; StatusNoSuchObject if the object has
	// already been withdrawn from the owner's export table.
	Status Status
	// Err is the error text when Status != StatusOK.
	Err string
}

// Op returns OpDirtyAck.
func (*DirtyAck) Op() Op { return OpDirtyAck }

func (m *DirtyAck) encode(e *Encoder) {
	e.Uint(uint64(m.Status))
	e.String(m.Err)
}

func (m *DirtyAck) decode(d *Decoder) {
	m.Status = Status(d.Uint())
	m.Err = d.String()
}

// CleanAck acknowledges a CleanBatch.
type CleanAck struct {
	// Status is StatusOK on success. A clean for an absent entry is a
	// no-op and still reports StatusOK, as the paper specifies.
	Status Status
	// Err is the error text when Status != StatusOK.
	Err string
}

// Op returns OpCleanAck.
func (*CleanAck) Op() Op { return OpCleanAck }

func (m *CleanAck) encode(e *Encoder) {
	e.Uint(uint64(m.Status))
	e.String(m.Err)
}

func (m *CleanAck) decode(d *Decoder) {
	m.Status = Status(d.Uint())
	m.Err = d.String()
}

// Ping probes a client space believed to hold surrogates for the sender's
// objects. A client that cannot be reached for long enough is presumed dead
// and removed from all dirty sets at the owner.
type Ping struct {
	// From identifies the pinging owner.
	From SpaceID
}

// Op returns OpPing.
func (*Ping) Op() Op { return OpPing }

func (m *Ping) encode(e *Encoder) { e.Uint(uint64(m.From)) }
func (m *Ping) decode(d *Decoder) { m.From = SpaceID(d.Uint()) }

// PingAck answers a Ping; it carries the responder's space id so the owner
// can detect that a client endpoint has been reused by a new incarnation.
type PingAck struct {
	// From identifies the responding client.
	From SpaceID
}

// Op returns OpPingAck.
func (*PingAck) Op() Op { return OpPingAck }

func (m *PingAck) encode(e *Encoder) { e.Uint(uint64(m.From)) }
func (m *PingAck) decode(d *Decoder) { m.From = SpaceID(d.Uint()) }

// CleanBatch removes the calling client from the dirty sets of one or
// more objects at one owner — the clean call of the paper, several to an
// exchange where the cleaning daemon has them queued.
type CleanBatch struct {
	// Client identifies the space dropping the references.
	Client SpaceID
	// Objs, Seqs and Strongs are parallel: entry i cleans object Objs[i]
	// with sequence number Seqs[i], strongly if Strongs[i]. Seq orders
	// this client's dirty and clean calls for the object. A strong clean,
	// issued after a dirty call failed with unknown outcome, takes effect
	// even if that dirty call never arrived.
	Objs    []uint64
	Seqs    []uint64
	Strongs []bool
	// Owner names the space the batch is addressed to. A receiver with a
	// different id is a later incarnation at a reused endpoint; it must not
	// apply the cleans (the client's sequence counter for the dead owner is
	// unrelated to any counter at the new one, so a stale clean could
	// otherwise cancel a live registration).
	Owner SpaceID
}

// Op returns OpCleanBatch.
func (*CleanBatch) Op() Op { return OpCleanBatch }

func (m *CleanBatch) encode(e *Encoder) {
	e.Uint(uint64(m.Client))
	e.Uint(uint64(len(m.Objs)))
	for i := range m.Objs {
		e.Uint(m.Objs[i])
		e.Uint(m.Seqs[i])
		e.Bool(m.Strongs[i])
	}
	e.Uint(uint64(m.Owner))
}

func (m *CleanBatch) decode(d *Decoder) {
	m.Client = SpaceID(d.Uint())
	n := d.Uint()
	if n > MaxStringLen/3 {
		d.fail("clean batch too large")
		return
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		m.Objs = append(m.Objs, d.Uint())
		m.Seqs = append(m.Seqs, d.Uint())
		m.Strongs = append(m.Strongs, d.Bool())
	}
	m.Owner = SpaceID(d.Uint())
}

// Lease renews the calling client's liveness lease at the receiving
// owner, covering every dirty entry the owner holds for the client. In
// lease mode an owner drops the entries of clients whose lease lapses —
// the client-paced dual of the pinging design.
type Lease struct {
	// Client identifies the renewing space.
	Client SpaceID
	// ClientEndpoints refresh where the client can be reached.
	ClientEndpoints []string
	// Owner names the space the renewal is addressed to; a different
	// receiver is a new incarnation that holds none of this client's
	// dirty entries, and the renewal must fail rather than silently
	// succeed against it.
	Owner SpaceID
}

// Op returns OpLease.
func (*Lease) Op() Op { return OpLease }

func (m *Lease) encode(e *Encoder) {
	e.Uint(uint64(m.Client))
	e.StringSlice(m.ClientEndpoints)
	e.Uint(uint64(m.Owner))
}

func (m *Lease) decode(d *Decoder) {
	m.Client = SpaceID(d.Uint())
	m.ClientEndpoints = d.StringSlice()
	m.Owner = SpaceID(d.Uint())
}

// LeaseAck acknowledges a Lease with the granted duration.
type LeaseAck struct {
	// Status is StatusOK when the lease was renewed.
	Status Status
	// GrantedMillis is the renewed lease's time-to-live.
	GrantedMillis uint64
}

// Op returns OpLeaseAck.
func (*LeaseAck) Op() Op { return OpLeaseAck }

func (m *LeaseAck) encode(e *Encoder) {
	e.Uint(uint64(m.Status))
	e.Uint(m.GrantedMillis)
}

func (m *LeaseAck) decode(d *Decoder) {
	m.Status = Status(d.Uint())
	m.GrantedMillis = d.Uint()
}

// CancelCall asks the receiving space to cancel an in-flight call it is
// serving. It arrives on a separate connection from the call itself (the
// call's connection is busy awaiting the Result) and is answered with a
// CancelAck. Cancellation is cooperative: the served method observes it
// through its context.
type CancelCall struct {
	// ID is the Call.ID of the invocation to cancel.
	ID uint64
}

// Op returns OpCancelCall.
func (*CancelCall) Op() Op { return OpCancelCall }

func (m *CancelCall) encode(e *Encoder) { e.Uint(m.ID) }
func (m *CancelCall) decode(d *Decoder) { m.ID = d.Uint() }

// CancelAck answers a CancelCall.
type CancelAck struct {
	// Status is StatusOK when the call was found in flight and alerted;
	// StatusNoSuchObject when it had already finished or never arrived.
	Status Status
}

// Op returns OpCancelAck.
func (*CancelAck) Op() Op { return OpCancelAck }

func (m *CancelAck) encode(e *Encoder) { e.Uint(uint64(m.Status)) }
func (m *CancelAck) decode(d *Decoder) { m.Status = Status(d.Uint()) }

// ResultAck acknowledges a Result whose NeedAck flag was set, confirming
// that the caller has unmarshaled the returned network references and
// registered itself with their owners.
type ResultAck struct{}

// Op returns OpResultAck.
func (*ResultAck) Op() Op { return OpResultAck }

func (m *ResultAck) encode(*Encoder) {}
func (m *ResultAck) decode(*Decoder) {}

// encPool recycles Encoder headers. Marshal is on the per-call hot path
// and msg.encode is an interface call, so a stack-allocated encoder would
// escape; pooling keeps the steady state allocation-free when the caller
// also supplies a reusable buf.
var encPool = sync.Pool{New: func() any { return new(Encoder) }}

// Marshal encodes msg, including its op byte, appending to buf (which may
// be nil). The result is a complete frame payload.
func Marshal(buf []byte, msg Message) []byte {
	out, _ := marshal(buf, msg, false)
	return out
}

// MarshalSegments is Marshal by a borrowing encoder: byte fields of the
// message that are long, or were themselves handed over in pieces (see
// Call.ArgSegs), are not copied into buf. When that happened segs is the
// frame payload in pieces — the same bytes Marshal would have produced —
// and out is only the buffer to recycle once they have been sent; when it
// did not, segs is nil and out is the payload, as from Marshal.
func MarshalSegments(buf []byte, msg Message) (out []byte, segs [][]byte) {
	return marshal(buf, msg, true)
}

func marshal(buf []byte, msg Message, borrow bool) (out []byte, segs [][]byte) {
	e := encPool.Get().(*Encoder)
	if buf != nil {
		e.buf = buf[:0]
	} else {
		e.buf = e.buf[:0]
	}
	e.borrow = borrow
	e.Uint(uint64(msg.Op()))
	msg.encode(e)
	out, segs = e.buf, e.Segments()
	// Detach before pooling so a future Marshal cannot scribble over the
	// bytes this caller still holds.
	e.Reset(nil)
	encPool.Put(e)
	return out, segs
}

// ErrUnknownOp reports a message with an unrecognized op byte.
var ErrUnknownOp = errors.New("wire: unknown message op")

// PeekOp returns the op of a marshaled frame without decoding the rest,
// so middleware (fault injection, tracing) can classify traffic cheaply.
// A mux envelope is transparent: PeekOp skips the header and reports the
// inner message's op, so per-message-type policies (chaos fault rules)
// behave identically whether or not a frame rides a session. It returns
// OpInvalid when the frame is empty, does not start with a valid uvarint,
// or carries a nested envelope.
func PeekOp(frame []byte) Op {
	op, n := binary.Uvarint(frame)
	if n <= 0 || op > uint64(maxOp) {
		return OpInvalid
	}
	if Op(op) != OpMux {
		// Session-control frames (OpData, OpWindowUpdate, OpFlowPing/Pong)
		// travel naked at the top level and classify as themselves.
		return Op(op)
	}
	rest := frame[n:]
	_, idn := binary.Uvarint(rest)
	if idn <= 0 {
		return OpInvalid
	}
	inner, m := binary.Uvarint(rest[idn:])
	if m <= 0 {
		return OpInvalid
	}
	// Inside the envelope only ordinary messages appear — plus the
	// stream-0 Hello. Envelopes do not nest; naked session-control ops
	// never appear wrapped.
	if inner > uint64(maxOp) {
		return OpInvalid
	}
	switch Op(inner) {
	case OpMux, OpData, OpWindowUpdate, OpFlowPing, OpFlowPong:
		return OpInvalid
	}
	return Op(inner)
}

// Unmarshal decodes a frame payload produced by Marshal.
func Unmarshal(b []byte) (Message, error) {
	d := NewDecoder(b)
	op := Op(d.Uint())
	var m Message
	switch op {
	case OpCall:
		m = new(Call)
	case OpResult:
		m = new(Result)
	case OpDirty:
		m = new(Dirty)
	case OpDirtyAck:
		m = new(DirtyAck)
	case OpCleanAck:
		m = new(CleanAck)
	case OpPing:
		m = new(Ping)
	case OpPingAck:
		m = new(PingAck)
	case OpResultAck:
		m = new(ResultAck)
	case OpCleanBatch:
		m = new(CleanBatch)
	case OpLease:
		m = new(Lease)
	case OpLeaseAck:
		m = new(LeaseAck)
	case OpCancelCall:
		m = new(CancelCall)
	case OpCancelAck:
		m = new(CancelAck)
	case OpHello:
		m = new(Hello)
	case OpOneWay:
		m = new(OneWay)
	case OpCycleQuery:
		m = new(CycleQuery)
	case OpCycleAnswer:
		m = new(CycleAnswer)
	case OpCycleCollect:
		m = new(CycleCollect)
	default:
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %d", ErrUnknownOp, uint8(op))
	}
	m.decode(d)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("wire: decoding %v: %w", op, err)
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("wire: decoding %v: %w: %d trailing bytes", op, ErrCorrupt, d.Len())
	}
	return m, nil
}

// ErrWrongOp reports a frame whose op does not match the message passed
// to UnmarshalInto.
var ErrWrongOp = errors.New("wire: frame op does not match message")

// UnmarshalInto decodes a frame payload into the caller-supplied
// message, whose type must match the frame's op byte. It is the hot-path
// twin of Unmarshal: callers that pool their Call and Result structs
// decode without allocating a message per frame. Decoded byte fields
// alias b, exactly as with Unmarshal.
func UnmarshalInto(b []byte, m Message) error {
	var d Decoder
	d.buf = b
	op := Op(d.Uint())
	if err := d.Err(); err != nil {
		return err
	}
	if op != m.Op() {
		return fmt.Errorf("%w: frame carries %v, want %v", ErrWrongOp, op, m.Op())
	}
	// Dispatch on the concrete hot types so the decoder never escapes
	// through an interface call and can live on this stack frame; any
	// other message type pays for its own heap decoder in the slow twin.
	switch t := m.(type) {
	case *Call:
		t.decode(&d)
	case *Result:
		t.decode(&d)
	case *ResultAck:
		t.decode(&d)
	default:
		return unmarshalIntoSlow(b, op, m)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("wire: decoding %v: %w", op, err)
	}
	if d.Len() != 0 {
		return fmt.Errorf("wire: decoding %v: %w: %d trailing bytes", op, ErrCorrupt, d.Len())
	}
	return nil
}

// unmarshalIntoSlow finishes an UnmarshalInto for the non-pooled message
// types through the Message interface, with its own decoder. Kept out of
// UnmarshalInto so the interface call cannot force the hot path's decoder
// to escape.
func unmarshalIntoSlow(b []byte, op Op, m Message) error {
	var d Decoder
	d.buf = b
	d.Uint() // skip the already-verified op
	m.decode(&d)
	if err := d.Err(); err != nil {
		return fmt.Errorf("wire: decoding %v: %w", op, err)
	}
	if d.Len() != 0 {
		return fmt.Errorf("wire: decoding %v: %w: %d trailing bytes", op, ErrCorrupt, d.Len())
	}
	return nil
}
