package core

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"netobjects/internal/obs"
	"netobjects/internal/promise"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// This file is the owner side of promise pipelining: executing pipelined
// calls, chaining them locally against the session's completion table,
// substituting resolved promise values into dependent calls' arguments,
// and running one-way calls in their session lane order. The client side
// lives in pipeline.go.

// pipeInbound is the per-inbound-session pipelining state: the completion
// table dependent calls chain on, and the ordered one-way lane.
type pipeInbound struct {
	comp *promise.Completions
	lane *promise.Lane
}

// pipeInboundFor returns the session's serve-side pipelining state,
// creating it on first use. Creation is lazy because a pipelined frame
// can be dispatched before serveConn finishes registering the session.
func (sp *Space) pipeInboundFor(s *transport.Session) *pipeInbound {
	sp.pipeMu.Lock()
	defer sp.pipeMu.Unlock()
	st := sp.pipeIn[s]
	if st == nil {
		st = &pipeInbound{comp: promise.NewCompletions(), lane: promise.NewLane()}
		sp.pipeIn[s] = st
	}
	return st
}

// pipeInboundDrop tears the session's pipelining state down once the
// session is dead: every unresolved completion breaks (waking dependent
// calls still blocked on it) and the one-way lane releases its waiters.
func (sp *Space) pipeInboundDrop(s *transport.Session) {
	sp.pipeMu.Lock()
	st := sp.pipeIn[s]
	delete(sp.pipeIn, s)
	sp.pipeMu.Unlock()
	if st != nil {
		st.comp.Close(brokenError("session closed", transport.ErrClosed))
		st.lane.Close()
	}
}

// handlePipeCall dispatches one pipelined invocation: resolve the
// receiver (an export entry or an earlier promise's local completion),
// substitute resolved promise arguments, invoke, record the outcome in
// the completion table for dependents, and answer with a PromiseResolve.
// Its clock reads and its dispatch are handleCall's.
func (sp *Space) handlePipeCall(st *transport.Stream, call *wire.PipeCall) {
	sp.metrics.CallsServed.Inc()
	start := time.Now()
	if sp.tracer != nil {
		sp.tracer.Emit(obs.Event{Kind: obs.EvCallServe, Time: start,
			CallID: call.ID, Method: call.Method, Peer: st.RemoteLabel()})
	}
	stat := sp.metrics.Methods.Get(call.Method)
	stat.Calls.Inc()
	state := sp.pipeInboundFor(st.Session())
	session := sp.getCallSession()
	// Runs last (before any defer registered below): every exit path has
	// passed unpinAll or never pinned.
	defer session.recycle()
	var res *wire.PromiseResolve
	var out promise.Outcome
	var end time.Time
	if sp.isClosed() {
		res = &wire.PromiseResolve{Promise: call.Promise, Status: wire.StatusSpaceClosed, Err: "space closing"}
		out = promise.Outcome{Err: ErrSpaceClosed, Broken: true}
		end = time.Now()
	} else {
		d := sp.beginDispatch(session, start, call.DeadlineMillis)
		if call.ID != 0 {
			sp.inflight.add(call.ID, d)
			defer sp.inflight.remove(call.ID)
		}
		res, out = sp.executePipeCall(d, call, session, state)
		end = time.Now()
		if res.Status == wire.StatusOK || res.Status == wire.StatusAppError {
			if err := d.err(end); err != nil {
				session.unpinAll()
				res, out = pipeCancelOutcome(err)
			}
		}
	}
	// Record the outcome before the reply leaves: a dependent call may
	// already be waiting on this promise.
	state.comp.Resolve(call.Promise, out)
	res.Promise = call.Promise
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
	session.waitPending()
	if err := sp.sendMsg(st, res); err != nil {
		session.unpinAll()
		return
	}
	if !res.NeedAck {
		return
	}
	sp.metrics.ResultAcksWaited.Inc()
	_ = st.SetDeadline(end.Add(sp.opts.CallTimeout))
	if b, err := st.Recv(nil); err == nil {
		sp.metrics.BytesRecv.Add(uint64(len(b)))
		_, _ = wire.Unmarshal(b)
	}
	_ = st.SetDeadline(time.Time{})
	session.unpinAll()
}

// brokenResolve renders a chain-poisoning failure: the call never ran
// because a dependency failed (or the serving context expired first).
func brokenResolve(err error) (*wire.PromiseResolve, promise.Outcome) {
	return &wire.PromiseResolve{Status: wire.StatusPromiseBroken, Err: errText(err)},
		promise.Outcome{Err: err, Broken: true}
}

// pipeCancelOutcome renders a dispatch's alert or expiry (d.err, or the
// error of a wait under its context).
func pipeCancelOutcome(err error) (*wire.PromiseResolve, promise.Outcome) {
	st := wire.StatusCancelled
	if err == context.DeadlineExceeded {
		st = wire.StatusDeadlineExceeded
	}
	return &wire.PromiseResolve{Status: st, Err: err.Error()},
		promise.Outcome{Err: err, Broken: true}
}

// executePipeCall runs one pipelined invocation under the dispatch d and
// returns both the wire reply and the outcome dependents chain on. Any
// failure poisons the chain: the outcome's error propagates to every
// dependent, which reports StatusPromiseBroken without running. A call
// that waits — on the one-way lane, on a promise — waits under d's
// context; one alerted or expired after it starts running is the
// caller's to catch (d.err).
func (sp *Space) executePipeCall(d *dispatch, call *wire.PipeCall, session *callSession, state *pipeInbound) (*wire.PromiseResolve, promise.Outcome) {
	// Fence on the session's one-way lane first: a pipelined call issued
	// after N one-ways must observe their effects.
	if call.Barrier > 0 && state.lane.Done() < call.Barrier {
		if err := state.lane.Wait(d.context(), call.Barrier); err != nil {
			return pipeCancelOutcome(err)
		}
	}

	chained := call.TargetPromise != 0 || len(call.ArgPromiseIDs) > 0

	// Resolve the receiver.
	var obj any
	var proxy *Ref
	if call.TargetPromise != 0 {
		tout, err := state.comp.Wait(d.context(), call.TargetPromise)
		if err != nil {
			return pipeCancelOutcome(err)
		}
		if tout.Err != nil {
			return brokenResolve(brokenError("dependency of "+call.Method+" failed", tout.Err))
		}
		switch tv := tout.Val.(type) {
		case nil:
			return brokenResolve(fmt.Errorf("netobjects: pipelined receiver of %s resolved to nil", call.Method))
		case Referencer:
			ref := tv.NetObjRef()
			if ref == nil {
				// A typed-nil reference (e.g. a method returning an empty
				// *Ref) must break the chain like an untyped nil, not crash
				// the serving space.
				return brokenResolve(fmt.Errorf("netobjects: pipelined receiver of %s resolved to nil", call.Method))
			}
			if ref.IsOwner() {
				obj = ref.Concrete()
			} else {
				// The chain's previous result lives in a third space: proxy
				// the dependent call there rather than failing the chain.
				proxy = ref
			}
		default:
			obj = tout.Val
		}
		if obj != nil && call.Fingerprint != 0 && !acceptsFingerprint(sp, obj, call.Fingerprint) {
			return brokenResolve(&CallError{Status: wire.StatusBadFingerprint,
				Msg: "stub was generated from a different interface version"})
		}
	} else {
		ent, ok := sp.exports.Lookup(call.Obj)
		if !ok {
			return &wire.PromiseResolve{Status: wire.StatusNoSuchObject, Err: "object not in export table"},
				promise.Outcome{Err: ErrNoSuchObject}
		}
		if call.Fingerprint != 0 && !ent.AcceptsFingerprint(call.Fingerprint) {
			err := &CallError{Status: wire.StatusBadFingerprint,
				Msg: "stub was generated from a different interface version"}
			return &wire.PromiseResolve{Status: wire.StatusBadFingerprint, Err: err.Msg},
				promise.Outcome{Err: err}
		}
		obj = ent.Obj
	}
	if chained {
		sp.metrics.PipelineChained.Inc()
	}

	if proxy != nil {
		return sp.proxyPipeCall(d, call, session, state, proxy)
	}

	mi, err := lookupMethod(obj, call.Method)
	if err != nil {
		return &wire.PromiseResolve{Status: wire.StatusNoSuchMethod, Err: err.Error()},
			promise.Outcome{Err: err}
	}

	var args []reflect.Value
	if call.Typed {
		if len(call.ArgPromiseIDs) > 0 {
			err := fmt.Errorf("netobjects: typed pipelined call %s cannot carry promise arguments", call.Method)
			return &wire.PromiseResolve{Status: wire.StatusMarshal, Err: err.Error()},
				promise.Outcome{Err: err}
		}
		vals, derr := sp.pickler.UnmarshalSession(call.Args, mi.params, session)
		if derr != nil {
			return &wire.PromiseResolve{Status: wire.StatusMarshal, Err: "decoding arguments: " + derr.Error()},
				promise.Outcome{Err: derr}
		}
		args = vals
	} else {
		anys, derr := sp.pickler.UnmarshalAnySession(call.Args, session)
		if derr != nil {
			return &wire.PromiseResolve{Status: wire.StatusMarshal, Err: "decoding arguments: " + derr.Error()},
				promise.Outcome{Err: derr}
		}
		if len(anys) != len(mi.params) {
			err := fmt.Errorf("wrong argument count for %s", call.Method)
			return &wire.PromiseResolve{Status: wire.StatusNoSuchMethod, Err: err.Error()},
				promise.Outcome{Err: err}
		}
		if res, out, ok := sp.substitutePromiseArgs(d, call, state, anys); !ok {
			return res, out
		}
		args = make([]reflect.Value, len(anys))
		for i, a := range anys {
			v, aerr := sp.assignArg(mi.params[i], a)
			if aerr != nil {
				return &wire.PromiseResolve{Status: wire.StatusMarshal, Err: "binding arguments: " + aerr.Error()},
					promise.Outcome{Err: aerr}
			}
			args[i] = v
		}
	}

	if err := d.err(d.start); err != nil {
		session.unpinAll()
		return pipeCancelOutcome(err)
	}
	var ctx context.Context
	if mi.hasCtx {
		ctx = d.context()
	}
	outs, appErr, rerr := mi.invoke(ctx, reflect.ValueOf(obj), args)
	if rerr != nil {
		sp.log.Error("method panicked", "method", call.Method, "err", rerr)
		return &wire.PromiseResolve{Status: wire.StatusInternal, Err: rerr.Error()},
			promise.Outcome{Err: rerr}
	}

	// Copied: the pickle outlives this call in the session's completion
	// table, for calls chained on it.
	var resultBytes []byte
	if call.Typed {
		resultBytes, err = sp.pickler.MarshalSession(nil, outs, session)
	} else {
		anys := make([]any, len(outs))
		for i, o := range outs {
			anys[i] = o.Interface()
		}
		resultBytes, err = sp.pickler.MarshalAnySession(nil, anys, session)
	}
	if err != nil {
		session.unpinAll()
		return &wire.PromiseResolve{Status: wire.StatusMarshal, Err: "encoding results: " + err.Error()},
			promise.Outcome{Err: err}
	}
	res := &wire.PromiseResolve{Status: wire.StatusOK, Results: resultBytes}
	out := promise.Outcome{}
	if len(outs) > 0 {
		out.Val = outs[0].Interface()
	}
	if appErr != nil {
		// An application error still poisons the chain: a dependent call
		// has no value to chain on.
		res.Status = wire.StatusAppError
		res.Err = appErr.Error()
		out.Err = &RemoteError{Msg: appErr.Error()}
	}
	return res, out
}

// substitutePromiseArgs replaces the nil placeholders of a dynamic
// pipelined call with the resolved values of the promises they name,
// waiting for them under d's context. A failed dependency poisons the
// call (ok false).
func (sp *Space) substitutePromiseArgs(d *dispatch, call *wire.PipeCall, state *pipeInbound, anys []any) (*wire.PromiseResolve, promise.Outcome, bool) {
	for i, pos := range call.ArgPromisePos {
		if pos >= uint64(len(anys)) || i >= len(call.ArgPromiseIDs) {
			err := fmt.Errorf("netobjects: promise argument position %d out of range for %s", pos, call.Method)
			res := &wire.PromiseResolve{Status: wire.StatusMarshal, Err: err.Error()}
			return res, promise.Outcome{Err: err}, false
		}
		aout, err := state.comp.Wait(d.context(), call.ArgPromiseIDs[i])
		if err != nil {
			res, out := pipeCancelOutcome(err)
			return res, out, false
		}
		if aout.Err != nil {
			res, out := brokenResolve(brokenError("argument promise of "+call.Method+" failed", aout.Err))
			return res, out, false
		}
		anys[pos] = aout.Val
	}
	return nil, promise.Outcome{}, true
}

// proxyPipeCall forwards a dependent call whose receiver resolved to an
// object owned by a third space: this space calls the true owner on the
// chain's behalf and relays the results. Dynamic calls only — a typed
// argument tuple cannot be re-encoded without the parameter types.
func (sp *Space) proxyPipeCall(d *dispatch, call *wire.PipeCall, session *callSession, state *pipeInbound, ref *Ref) (*wire.PromiseResolve, promise.Outcome) {
	if call.Typed {
		err := fmt.Errorf("netobjects: typed pipelined call %s chained onto a third-space result; await the promise and call it directly", call.Method)
		return &wire.PromiseResolve{Status: wire.StatusNoSuchMethod, Err: err.Error()},
			promise.Outcome{Err: err}
	}
	anys, derr := sp.pickler.UnmarshalAnySession(call.Args, session)
	if derr != nil {
		return &wire.PromiseResolve{Status: wire.StatusMarshal, Err: "decoding arguments: " + derr.Error()},
			promise.Outcome{Err: derr}
	}
	if res, out, ok := sp.substitutePromiseArgs(d, call, state, anys); !ok {
		return res, out
	}
	vals, err := ref.CallCtx(d.context(), call.Method, anys...)
	if err != nil {
		if re, ok := err.(*RemoteError); ok {
			// Relay the application error with the results it came with.
			resultBytes, merr := sp.pickler.MarshalAnySession(nil, vals, session)
			if merr == nil {
				return &wire.PromiseResolve{Status: wire.StatusAppError, Err: re.Msg, Results: resultBytes},
					promise.Outcome{Err: re}
			}
		}
		return brokenResolve(brokenError("proxied call "+call.Method+" failed", err))
	}
	resultBytes, merr := sp.pickler.MarshalAnySession(nil, vals, session)
	if merr != nil {
		session.unpinAll()
		return &wire.PromiseResolve{Status: wire.StatusMarshal, Err: "encoding results: " + merr.Error()},
			promise.Outcome{Err: merr}
	}
	out := promise.Outcome{}
	if len(vals) > 0 {
		out.Val = vals[0]
	}
	return &wire.PromiseResolve{Status: wire.StatusOK, Results: resultBytes}, out
}

// handleOneWay executes one no-reply invocation in its session lane
// order: one-way seq N runs only after seq N-1 has finished (or been
// abandoned), and the lane advances even when this call fails, so one
// lost or failed one-way never wedges its successors.
func (sp *Space) handleOneWay(st *transport.Stream, m *wire.OneWay) {
	sp.metrics.OneWaysServed.Inc()
	state := sp.pipeInboundFor(st.Session())
	defer state.lane.Advance(m.Seq)
	if sp.isClosed() {
		return
	}
	session := sp.getCallSession()
	defer func() {
		session.waitPending()
		session.unpinAll()
		session.recycle()
	}()
	d := sp.beginDispatch(session, time.Now(), 0)
	if m.Seq > 1 && state.lane.Done() < m.Seq-1 {
		if err := state.lane.Wait(d.context(), m.Seq-1); err != nil {
			return
		}
	}
	ent, ok := sp.exports.Lookup(m.Obj)
	if !ok {
		sp.log.Debug("one-way call to absent object", "obj", m.Obj, "method", m.Method)
		return
	}
	if m.Fingerprint != 0 && !ent.AcceptsFingerprint(m.Fingerprint) {
		sp.log.Debug("one-way call with stale fingerprint", "method", m.Method)
		return
	}
	mi, err := lookupMethod(ent.Obj, m.Method)
	if err != nil {
		sp.log.Debug("one-way call to unknown method", "method", m.Method, "err", err)
		return
	}
	var args []reflect.Value
	if m.Typed {
		args, err = sp.pickler.UnmarshalSession(m.Args, mi.params, session)
	} else {
		var anys []any
		anys, err = sp.pickler.UnmarshalAnySession(m.Args, session)
		if err == nil {
			if len(anys) != len(mi.params) {
				err = fmt.Errorf("wrong argument count for %s", m.Method)
			} else {
				args = make([]reflect.Value, len(anys))
				for i, a := range anys {
					if args[i], err = sp.assignArg(mi.params[i], a); err != nil {
						break
					}
				}
			}
		}
	}
	if err != nil {
		sp.log.Debug("one-way call arguments undecodable", "method", m.Method, "err", err)
		return
	}
	// Registration futures for received references settle before the
	// invoke, mirroring the ordinary call path's pre-reply wait.
	session.waitPending()
	if d.err(d.start) != nil {
		return
	}
	var ctx context.Context
	if mi.hasCtx {
		ctx = d.context()
	}
	if _, appErr, rerr := mi.invoke(ctx, reflect.ValueOf(ent.Obj), args); rerr != nil {
		sp.log.Error("one-way method panicked", "method", m.Method, "err", rerr)
	} else if appErr != nil {
		sp.log.Debug("one-way method returned error (discarded)", "method", m.Method, "err", appErr)
	}
}
