package core

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"netobjects/internal/promise"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// This file is the owner side of promise pipelining: the per-session
// state a pipelined call chains on, resolving a promised receiver,
// substituting resolved promise values into a call's arguments, and
// running one-way calls in their session lane order. A pipelined call is
// served by handleCall like any other; the client side lives in
// pipeline.go.

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

// breakResult reports in res a call that never ran because a call it
// depended on failed, or its receiver resolved to nothing it can run on.
func breakResult(res *wire.Result, err error) {
	res.Status, res.Err = wire.StatusPromiseBroken, err.Error()
}

// promisedReceiver waits, under d's context, for the promise a pipelined
// call names as its receiver, and returns the object it resolved to: a
// local one, or — when the chain's previous result lives in a third
// space — the reference to proxy the call through. On failure it fills
// res and returns neither.
func (sp *Space) promisedReceiver(d *dispatch, call *wire.Call, res *wire.Result, pipe *pipeInbound) (obj any, proxy *Ref) {
	out, err := pipe.comp.Wait(d.context(), call.TargetPromise)
	if err != nil {
		cancelResult(err, res)
		return nil, nil
	}
	if out.Err != nil {
		breakResult(res, brokenError("dependency of "+call.Method+" failed", out.Err))
		return nil, nil
	}
	obj = out.Val
	if r, ok := obj.(Referencer); ok {
		switch ref := r.NetObjRef(); {
		case ref == nil:
			// A typed-nil reference (a method returning an empty *Ref)
			// breaks the chain like an untyped nil, below.
			obj = nil
		case ref.IsOwner():
			obj = ref.Concrete()
		default:
			// The chain's previous result lives in a third space: proxy
			// the dependent call there rather than failing the chain.
			return nil, ref
		}
	}
	if obj == nil {
		breakResult(res, fmt.Errorf("netobjects: pipelined receiver of %s resolved to nil", call.Method))
		return nil, nil
	}
	if call.Fingerprint != 0 && !acceptsFingerprint(sp, obj, call.Fingerprint) {
		breakResult(res, &CallError{Status: wire.StatusBadFingerprint,
			Msg: "stub was generated from a different interface version"})
		return nil, nil
	}
	return obj, nil
}

// dynamicArgs decodes a dynamic call's arguments and, for a pipelined
// one, replaces the nil placeholders with the resolved values of the
// promises they name, waiting for them under d's context. On failure it
// fills res: a failed dependency poisons the call.
func (sp *Space) dynamicArgs(d *dispatch, call *wire.Call, session *callSession, res *wire.Result) ([]any, bool) {
	anys, err := sp.pickler.UnmarshalAnyView(call.Args, session, session.viewMin)
	if err != nil {
		res.Status, res.Err = wire.StatusMarshal, "decoding arguments: "+err.Error()
		return nil, false
	}
	for i, pos := range call.ArgPromisePos {
		if pos >= uint64(len(anys)) || i >= len(call.ArgPromiseIDs) {
			res.Status = wire.StatusMarshal
			res.Err = fmt.Sprintf("netobjects: promise argument position %d out of range for %s", pos, call.Method)
			return nil, false
		}
		out, err := session.pipe.comp.Wait(d.context(), call.ArgPromiseIDs[i])
		if err != nil {
			cancelResult(err, res)
			return nil, false
		}
		if out.Err != nil {
			breakResult(res, brokenError("argument promise of "+call.Method+" failed", out.Err))
			return nil, false
		}
		anys[pos] = out.Val
	}
	return anys, true
}

// proxyPipeCall forwards a dependent call whose receiver resolved to an
// object owned by a third space: this space calls the true owner on the
// chain's behalf and relays the results, an application error with them.
// Dynamic calls only — a typed argument tuple cannot be re-encoded
// without the parameter types.
func (sp *Space) proxyPipeCall(d *dispatch, call *wire.Call, session *callSession, res *wire.Result, resBuf []byte, ref *Ref) (first any) {
	if call.Typed {
		res.Status = wire.StatusNoSuchMethod
		res.Err = "netobjects: typed pipelined call " + call.Method + " chained onto a third-space result; await the promise and call it directly"
		return nil
	}
	anys, ok := sp.dynamicArgs(d, call, session, res)
	if !ok {
		return nil
	}
	vals, err := ref.CallCtx(d.context(), call.Method, anys...)
	re, isApp := err.(*RemoteError)
	if err != nil && !isApp {
		breakResult(res, brokenError("proxied call "+call.Method+" failed", err))
		return nil
	}
	if res.Results, err = sp.pickler.MarshalAnySession(resBuf, vals, session); err != nil {
		session.unpinAll()
		res.Results = nil
		res.Status, res.Err = wire.StatusMarshal, "encoding results: "+err.Error()
		return nil
	}
	if isApp {
		res.Status, res.Err = wire.StatusAppError, re.Msg
	}
	if len(vals) > 0 {
		return vals[0]
	}
	return nil
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
		if anys, err = sp.pickler.UnmarshalAnySession(m.Args, session); err == nil {
			args, err = sp.bindArgs(mi, m.Method, anys)
		}
	}
	if err != nil {
		sp.log.Debug("one-way call arguments undecodable", "method", m.Method, "err", err)
		return
	}
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
