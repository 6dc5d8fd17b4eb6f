package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"netobjects/internal/obs"
	"netobjects/internal/pickle"
	"netobjects/internal/promise"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// callPool and resultPool recycle the request/response frames of the
// dispatch hot path; one of each is consumed per served call, so pooling
// them (with the pickle scratch and the callSession) makes the
// steady-state null-call serve path allocation-free.
var (
	callPool   = sync.Pool{New: func() any { return new(wire.Call) }}
	resultPool = sync.Pool{New: func() any { return new(wire.Result) }}
)

// putCall zeroes and pools a decoded call frame. The zeroing matters:
// Args aliases the receive buffer, which is recycled independently. The
// promise-argument lists keep their backing arrays, emptied, so the next
// pipelined call decoded into the frame does not allocate them again.
func putCall(call *wire.Call) {
	*call = wire.Call{ArgPromisePos: call.ArgPromisePos[:0], ArgPromiseIDs: call.ArgPromiseIDs[:0]}
	callPool.Put(call)
}

func putResult(res *wire.Result) {
	*res = wire.Result{}
	resultPool.Put(res)
}

// sendMsg marshals msg through a pooled buffer and sends it on st,
// counting the bytes on success. A long byte field of msg — a pickle, or
// a caller's []byte the pickle left in place — is borrowed, not copied:
// the stream reads it once, into the frame it writes, before Send
// returns. Nothing is read after that, so the buffer goes back to the
// pool here and msg's byte fields are the caller's again.
func (sp *Space) sendMsg(st *transport.Stream, msg wire.Message) error {
	bp := wire.GetBuf()
	out, segs := wire.MarshalSegments((*bp)[:0], msg)
	var err error
	n := len(out)
	if segs == nil {
		err = st.Send(out)
	} else {
		err = st.SendSegments(segs)
		n = 0
		for _, s := range segs {
			n += len(s)
		}
	}
	*bp = out
	wire.PutBuf(bp)
	if err == nil {
		sp.metrics.BytesSent.Add(uint64(n))
	}
	return err
}

// viewMin is the length from which a []byte decoded out of the frame st
// last received may stay a view of it instead of a copy: never, when the
// frame lies in a pooled buffer, which is recycled; and a quarter of the
// buffer when that is a slab of the frame's own, so that a value someone
// keeps pins at most four times its length.
func viewMin(st *transport.Stream) int {
	return (st.RecvSlab() + 3) / 4
}

// acceptLoop accepts connections on one listener until it closes.
func (sp *Space) acceptLoop(l transport.Listener) {
	defer sp.wg.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		sp.wg.Add(1)
		go sp.serveConn(c)
	}
}

// serveConn runs one inbound connection as a multiplexed session: every
// stream the peer opens is dispatched concurrently by serveStream, and
// responses leave in completion order — a slow method blocks neither the
// collector traffic nor faster calls sharing the link. It returns once the
// session has died, or the space has closed, and every dispatch has
// finished.
func (sp *Space) serveConn(c transport.Conn) {
	defer sp.wg.Done()
	s := transport.NewSession(c, transport.SessionOptions{
		Accept:      sp.serveStream,
		Flow:        sp.flowParams(),
		Metrics:     sp.metrics,
		LocalSpace:  sp.id,
		OnKeepalive: sp.keepaliveRenewed,
	})
	sp.mu.Lock()
	sp.muxServers[s] = struct{}{}
	sp.mu.Unlock()
	select {
	case <-s.Done():
	case <-sp.closedCh:
		_ = s.Close()
	}
	s.Wait()
	sp.mu.Lock()
	delete(sp.muxServers, s)
	sp.mu.Unlock()
	// Break the session's pipelining state last: every dispatch has
	// returned, so unresolved completions are now permanently unresolvable.
	sp.pipeInboundDrop(s)
}

// serveStream handles one inbound exchange on its own stream of a
// multiplexed session. A stream carries exactly one logical exchange
// (request and response, plus the ResultAck leg for reference-bearing
// results), so the per-message handlers run on it exactly as they do on a
// whole checked-out connection.
func (sp *Space) serveStream(st *transport.Stream) {
	defer st.Close()
	frame, err := st.Recv(nil)
	if err != nil {
		return
	}
	sp.metrics.BytesRecv.Add(uint64(len(frame)))
	if wire.PeekOp(frame) == wire.OpCall {
		call := callPool.Get().(*wire.Call)
		err := wire.UnmarshalInto(frame, call)
		if err != nil {
			sp.log.Debug("protocol error on inbound stream", "peer", st.RemoteLabel(), "err", err)
			putCall(call)
			return
		}
		sp.handleCall(st, call)
		putCall(call)
		return
	}
	msg, err := wire.Unmarshal(frame)
	if err != nil {
		sp.log.Debug("protocol error on inbound stream", "peer", st.RemoteLabel(), "err", err)
		return
	}
	var reply wire.Message
	switch m := msg.(type) {
	case *wire.OneWay:
		sp.handleOneWay(st, m)
		return
	case *wire.Dirty:
		reply = sp.handleDirty(m)
	case *wire.CleanBatch:
		reply = sp.handleCleanBatch(m)
	case *wire.Ping:
		sp.metrics.PingsServed.Inc()
		if sp.tracer != nil {
			sp.tracer.Emit(obs.Event{Kind: obs.EvPingRecv, Time: time.Now(), Peer: m.From.String()})
		}
		reply = &wire.PingAck{From: sp.id}
	case *wire.Lease:
		reply = sp.handleLease(m)
	case *wire.CycleQuery:
		reply = sp.handleCycleQuery(m)
	case *wire.CycleCollect:
		reply = sp.handleCycleCollect(m)
	case *wire.CancelCall:
		reply = sp.handleCancel(m)
	default:
		sp.log.Debug("unexpected message on stream", "op", msg.Op().String(), "peer", st.RemoteLabel())
		return
	}
	_ = sp.sendMsg(st, reply)
}

func (sp *Space) handleDirty(m *wire.Dirty) *wire.DirtyAck {
	sp.metrics.DirtyServed.Inc()
	if sp.tracer != nil {
		sp.tracer.Emit(obs.Event{Kind: obs.EvDirtyRecv, Time: time.Now(),
			Key: fmt.Sprintf("%v/%d", sp.id, m.Obj), Peer: m.Client.String()})
	}
	if sp.isClosed() {
		return &wire.DirtyAck{Status: wire.StatusNoSuchObject, Err: "space closing"}
	}
	// Space ids are unique over time: a dirty call addressed to another id
	// was meant for an earlier incarnation at this endpoint. Refusing it
	// here is what keeps a delayed or retried registration from attaching
	// a client to whatever unrelated object now occupies the same index.
	// Every sender addresses its collector messages, so zero is refused
	// like any other mismatch.
	if m.Owner != sp.id {
		sp.metrics.StaleRejected.Inc()
		return &wire.DirtyAck{Status: wire.StatusNoSuchObject,
			Err: fmt.Sprintf("dirty call addressed to space %v; this endpoint now serves %v", m.Owner, sp.id)}
	}
	if err := sp.exports.Dirty(m.Obj, m.Client, m.Seq, m.ClientEndpoints); err != nil {
		return &wire.DirtyAck{Status: wire.StatusNoSuchObject, Err: err.Error()}
	}
	// A dirty call implicitly starts the client's lease.
	if sp.leases != nil {
		sp.leases.Renew(m.Client)
	}
	return &wire.DirtyAck{Status: wire.StatusOK}
}

func (sp *Space) handleLease(m *wire.Lease) *wire.LeaseAck {
	sp.metrics.LeasesServed.Inc()
	if sp.tracer != nil {
		sp.tracer.Emit(obs.Event{Kind: obs.EvLeaseRecv, Time: time.Now(), Peer: m.Client.String()})
	}
	// A renewal addressed to a dead incarnation must fail: this space
	// holds none of the client's dirty entries, and an OK here would let
	// the client believe its (vanished) registrations stay covered.
	if m.Owner != sp.id {
		sp.metrics.StaleRejected.Inc()
		return &wire.LeaseAck{Status: wire.StatusNoSuchObject}
	}
	if sp.leases == nil {
		// Not in lease mode: renewals are harmless no-ops so mixed
		// deployments interoperate.
		return &wire.LeaseAck{Status: wire.StatusOK}
	}
	sp.leases.Renew(m.Client)
	return &wire.LeaseAck{
		Status:        wire.StatusOK,
		GrantedMillis: uint64(sp.leases.TTL().Milliseconds()),
	}
}

func (sp *Space) handleCleanBatch(m *wire.CleanBatch) *wire.CleanAck {
	sp.metrics.CleanServed.Add(uint64(len(m.Objs)))
	if sp.tracer != nil {
		// One event per key, exactly as if the cleans had arrived singly:
		// trace checkers correlate clean receipt per object, so a batch
		// must not collapse its members into one keyless event.
		now := time.Now()
		for _, obj := range m.Objs {
			sp.tracer.Emit(obs.Event{Kind: obs.EvCleanRecv, Time: now,
				Key: fmt.Sprintf("%v/%d", sp.id, obj), Peer: m.Client.String(), N: len(m.Objs)})
		}
	}
	// Cleans addressed to a dead incarnation must not touch this one's
	// dirty sets: the client's sequence counter for the old owner is
	// unrelated to its counter here, so a stale clean could carry a
	// larger Seq and cancel a live registration at the same index. The
	// addressee's dirty sets died with it, so the batch is acknowledged
	// as done — exactly like a clean for an absent entry.
	if m.Owner != sp.id {
		sp.metrics.StaleRejected.Inc()
		return &wire.CleanAck{Status: wire.StatusOK}
	}
	for i := range m.Objs {
		strong := false
		if i < len(m.Strongs) {
			strong = m.Strongs[i]
		}
		seq := uint64(0)
		if i < len(m.Seqs) {
			seq = m.Seqs[i]
		}
		sp.exports.Clean(m.Objs[i], m.Client, seq, strong)
	}
	return &wire.CleanAck{Status: wire.StatusOK}
}

// handleCancel forwards a caller's alert into the matching in-flight
// dispatch. StatusOK means the dispatch was found and alerted;
// StatusNoSuchObject means it already finished (or its result is in
// flight) — indistinguishable from the call winning the race, and equally
// fine: cancellation is best-effort by design.
func (sp *Space) handleCancel(m *wire.CancelCall) *wire.CancelAck {
	sp.metrics.CancelsServed.Inc()
	if sp.tracer != nil {
		sp.tracer.Emit(obs.Event{Kind: obs.EvCallCancel, Time: time.Now(), CallID: m.ID})
	}
	if m.ID != 0 && sp.inflight.cancel(m.ID) {
		return &wire.CancelAck{Status: wire.StatusOK}
	}
	return &wire.CancelAck{Status: wire.StatusNoSuchObject}
}

// handleCall dispatches one remote invocation, pipelined or not, and
// sends its Result. When the result carries network references it waits
// for the caller's ResultAck before releasing the transient dirty
// entries. It reads the clock twice, at the start and once the result is
// encoded; the deadline and the latency come from those two. Only a
// pipelined call touches the session's pipelining state: it records its
// outcome in the completion table, for the calls chained on it.
func (sp *Space) handleCall(c *transport.Stream, call *wire.Call) {
	sp.metrics.CallsServed.Inc()
	start := time.Now()
	if sp.tracer != nil {
		sp.tracer.Emit(obs.Event{Kind: obs.EvCallServe, Time: start,
			CallID: call.ID, Method: call.Method, Peer: c.RemoteLabel()})
	}
	stat := sp.metrics.Methods.Get(call.Method)
	stat.Calls.Inc()
	session := sp.getCallSession()
	session.viewMin = viewMin(c)
	if call.Pipelined() {
		session.pipe = sp.pipeInboundFor(c.Session())
	}
	res := resultPool.Get().(*wire.Result)
	rbp := wire.GetBuf()
	defer func() {
		// By here every path has passed unpinAll (or never pinned), so
		// the session holds nothing. The result's byte payload goes back
		// to the buffer pool it was encoded into.
		if cap(res.Results) != 0 {
			*rbp = res.Results[:0]
		}
		wire.PutBuf(rbp)
		putResult(res)
		session.recycle()
	}()
	var end time.Time
	var first any
	if sp.isClosed() {
		// Draining: refuse new work, but keep the connection usable so the
		// peer's parting clean calls still flow.
		res.Status, res.Err = wire.StatusSpaceClosed, "space closing"
		end = time.Now()
	} else {
		d := sp.beginDispatch(session, start, call.DeadlineMillis)
		if call.ID != 0 {
			sp.inflight.add(call.ID, d)
			// The entry outlives the method: it is removed only once the
			// result (and any ResultAck exchange) is off this function's
			// hands, so graceful drain waits for the whole exchange and
			// never hard-closes a connection with an unsent result.
			defer sp.inflight.remove(call.ID)
		}
		first = sp.executeCall(d, call, session, res, (*rbp)[:0])
		end = time.Now()
		if res.Status == wire.StatusOK || res.Status == wire.StatusAppError {
			if err := d.err(end); err != nil {
				// The caller is gone (alerted or timed out); its results are
				// undeliverable, so drop them and the pins they took.
				session.unpinAll()
				cancelResult(err, res)
			}
		}
	}
	if pipe := session.pipe; pipe != nil {
		// Record the outcome before the reply leaves: a dependent call may
		// already be waiting on this promise. Any failure poisons the
		// chain, an application error included — a dependent call has no
		// value to chain on.
		out := promise.Outcome{Val: first}
		if res.Status != wire.StatusOK {
			out.Err = statusError(res.Status, res.Err)
		}
		pipe.comp.Resolve(call.Promise, out)
	}
	res.NeedAck = session.pinned()
	sp.metrics.ServeLatency.Observe(end.Sub(start))
	stat.ObserveLatency(end.Sub(start))
	switch res.Status {
	case wire.StatusOK:
	case wire.StatusCancelled:
		stat.Cancelled.Inc()
	case wire.StatusDeadlineExceeded:
		stat.DeadlineExceeded.Inc()
	default:
		stat.Errors.Inc()
	}
	if sp.tracer != nil {
		sp.tracer.Emit(obs.Event{Kind: obs.EvCallDone, Time: end,
			CallID: call.ID, Method: call.Method, Dur: end.Sub(start), Err: res.Err})
	}

	// Borrowed: a large []byte the method returned is read from where the
	// method left it, by this Send, which is over before anything else
	// here runs. A method that returns a slice of state it goes on
	// mutating was racing with the pickler already; it must return a copy.
	if err := sp.sendMsg(c, res); err != nil {
		session.unpinAll()
		return
	}
	if !res.NeedAck {
		return
	}
	// Wait for the caller to confirm it has registered the returned
	// references; bound the wait so a dead caller cannot pin the entries
	// forever (its references are then protected by its own dirty calls,
	// made during unmarshaling, or were never created).
	sp.metrics.ResultAcksWaited.Inc()
	_ = c.SetDeadline(end.Add(sp.opts.CallTimeout))
	if frame, err := c.Recv(nil); err == nil {
		sp.metrics.BytesRecv.Add(uint64(len(frame)))
	}
	_ = c.SetDeadline(time.Time{})
	session.unpinAll()
}

// cancelResult renders a dispatch's alert or expiry (d.err) into res, in
// place of any results.
func cancelResult(err error, res *wire.Result) {
	res.Status = wire.StatusCancelled
	if err == context.DeadlineExceeded {
		res.Status = wire.StatusDeadlineExceeded
	}
	res.Err = err.Error()
	res.Results, res.ResultSegs = nil, nil
}

// executeCall runs one invocation end to end under the dispatch d: object
// lookup, fingerprint check, argument decoding, method invocation and
// result encoding. A dispatch alerted before the method turns into a
// cancellation result with the session's transient pins released — the
// alerted caller will not acknowledge them; one alerted or expired during
// it is the caller's to catch (d.err). A method that takes a context gets
// d's. The outcome lands in res (caller-owned, zeroed); encoded results
// go into resBuf, whose grown backing the caller recycles. Where the
// call's frame lies in a slab (session.viewMin), a large []byte argument
// is a view of it: the method owns it like any other argument, and may
// keep it.
//
// A pipelined call (session.pipe set) first fences on the session's
// one-way lane, its receiver may be a promise (TargetPromise) and its
// arguments promises too; it waits for them under d's context, and a
// failed one poisons the call, which then reports StatusPromiseBroken
// without running. It returns the call's first result, for the
// completion table.
func (sp *Space) executeCall(d *dispatch, call *wire.Call, session *callSession, res *wire.Result, resBuf []byte) (first any) {
	pipe := session.pipe
	if pipe != nil && pipe.lane.Done() < call.Barrier {
		// A pipelined call issued after N one-ways must observe their
		// effects.
		if err := pipe.lane.Wait(d.context(), call.Barrier); err != nil {
			cancelResult(err, res)
			return nil
		}
	}
	var obj any
	var proxy *Ref
	if call.TargetPromise == 0 {
		ent, ok := sp.exports.Lookup(call.Obj)
		if !ok {
			res.Status, res.Err = wire.StatusNoSuchObject, "object not in export table"
			return nil
		}
		if call.Fingerprint != 0 && !ent.AcceptsFingerprint(call.Fingerprint) {
			res.Status = wire.StatusBadFingerprint
			res.Err = "stub was generated from a different interface version"
			return nil
		}
		obj = ent.Obj
	} else if obj, proxy = sp.promisedReceiver(d, call, res, pipe); obj == nil && proxy == nil {
		return nil
	}
	if call.TargetPromise != 0 || len(call.ArgPromiseIDs) > 0 {
		sp.metrics.PipelineChained.Inc()
	}
	if proxy != nil {
		return sp.proxyPipeCall(d, call, session, res, resBuf, proxy)
	}
	mi, err := lookupMethod(obj, call.Method)
	if err != nil {
		res.Status, res.Err = wire.StatusNoSuchMethod, err.Error()
		return nil
	}

	var args []reflect.Value
	if call.Typed {
		if len(call.ArgPromiseIDs) > 0 {
			res.Status, res.Err = wire.StatusMarshal, "typed pipelined call "+call.Method+" cannot carry promise arguments"
			return nil
		}
		if args, err = sp.pickler.UnmarshalView(call.Args, mi.params, session, session.viewMin); err != nil {
			res.Status, res.Err = wire.StatusMarshal, "decoding arguments: "+err.Error()
			return nil
		}
	} else {
		anys, ok := sp.dynamicArgs(d, call, session, res)
		if !ok {
			return nil
		}
		if args, err = sp.bindArgs(mi, call.Method, anys); err != nil {
			res.Status, res.Err = wire.StatusMarshal, err.Error()
			if errors.Is(err, ErrNoSuchMethod) {
				res.Status = wire.StatusNoSuchMethod
			}
			return nil
		}
	}

	if err := d.err(d.start); err != nil {
		session.unpinAll()
		cancelResult(err, res)
		return nil
	}
	var ctx context.Context
	if mi.hasCtx {
		ctx = d.context()
	}
	outs, appErr, rerr := mi.invoke(ctx, reflect.ValueOf(obj), args)
	if rerr != nil {
		sp.log.Error("method panicked", "method", call.Method, "err", rerr)
		res.Status, res.Err = wire.StatusInternal, rerr.Error()
		return nil
	}

	var resultBytes []byte
	var resultSegs [][]byte
	vals := outs
	if !call.Typed {
		// A dynamic call's results travel self-describing.
		anys := make([]any, len(outs))
		for i, o := range outs {
			anys[i] = o.Interface()
		}
		vals = pickle.AnyValues(anys)
	}
	if pipe == nil {
		resultBytes, resultSegs, err = sp.pickler.MarshalBorrowed(resBuf, vals, session)
	} else {
		// Copied, not borrowed: a call chained on this one gets its first
		// result as a value, and may run while the reply's send is still
		// reading it.
		resultBytes, err = sp.pickler.MarshalSession(resBuf, vals, session)
	}
	if err != nil {
		session.unpinAll()
		res.Status, res.Err = wire.StatusMarshal, "encoding results: "+err.Error()
		return nil
	}
	res.Status, res.Results, res.ResultSegs = wire.StatusOK, resultBytes, resultSegs
	if appErr != nil {
		res.Status = wire.StatusAppError
		res.Err = appErr.Error()
	}
	if pipe != nil && len(outs) > 0 {
		return outs[0].Interface()
	}
	return nil
}

// acceptsFingerprint reports whether a typed call bearing fp may dispatch
// on obj: fp must match the concrete method set or a registered remote
// interface obj implements.
func acceptsFingerprint(sp *Space, obj any, fp uint64) bool {
	for _, f := range sp.fingerprintsFor(obj) {
		if f == fp {
			return true
		}
	}
	return false
}
