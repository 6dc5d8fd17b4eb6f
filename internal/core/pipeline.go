package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"netobjects/internal/obs"
	"netobjects/internal/promise"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// This file is the client side of promise pipelining: issuing pipelined
// calls, chaining dependent calls on unresolved promises, one-way
// invocation, and the break-promise path when a session dies. The server
// side lives in pipeserve.go; the shared bookkeeping in internal/promise.
//
// A pipelined call ships immediately and returns a Promise. Dependent
// calls name the promise (as receiver or argument) instead of awaiting
// it, so a K-deep dependent chain costs one round trip: every PipeCall
// frame travels together and the owner chains them locally against its
// per-session completion table. A promise with no session behind it — an
// owner-local receiver's, or a FailedPromise — chains by resolve-then-call
// instead: the dependent call awaits it before going anywhere.

// Promise is the client's handle on the result of a pipelined call. It
// resolves when the owner's PromiseResolve frame arrives, when the chain
// is poisoned by an upstream failure, or when the session dies (the
// break-promise path). An unresolved Promise can be the receiver of the
// next pipelined call (Promise.PipeCall) or an argument to one on the
// same session; both ship without waiting.
type Promise struct {
	sp     *Space
	method string

	// sess and id place the promise on one mux session; both are zero for
	// a promise that never went to the wire (local receiver, FailedPromise).
	sess      *transport.Session
	endpoints []string
	id        uint64
	// callID correlates the pipelined call with CancelCall and traces; it
	// is also the call's stream id.
	callID uint64

	// resultTypes is non-nil for typed (stub-issued) promises and drives
	// result decoding.
	resultTypes []reflect.Type

	done  chan struct{}
	once  sync.Once
	vals  []any
	tvals []reflect.Value
	err   error
}

func newPromise(sp *Space, method string, resultTypes []reflect.Type) *Promise {
	return &Promise{sp: sp, method: method, resultTypes: resultTypes, done: make(chan struct{})}
}

// resolve settles the promise exactly once.
func (p *Promise) resolve(vals []any, tvals []reflect.Value, err error) {
	p.once.Do(func() {
		p.vals, p.tvals, p.err = vals, tvals, err
		close(p.done)
	})
}

// breakWith is the break-promise path: the session died (or the space
// closed) with the promise outstanding.
func (p *Promise) breakWith(cause error) {
	p.sp.metrics.PipelineBroken.Inc()
	p.resolve(nil, nil, cause)
}

// Done is closed once the promise has resolved (or broken).
func (p *Promise) Done() <-chan struct{} { return p.done }

// FailedPromise returns a promise already resolved with err. Callers
// that fail before a pipelined call can ship — a registry handle whose
// resolve failed, for instance — use it to keep the promise contract
// instead of inventing a second error path.
func (sp *Space) FailedPromise(method string, err error) *Promise {
	p := newPromise(sp, method, nil)
	p.resolve(nil, nil, err)
	return p
}

// Await blocks until the promise resolves and returns the call's
// dynamic results, following the Ref.Call error conventions. A promise
// may be awaited any number of times, from any goroutine. Typed promises
// (issued by generated ...Pipe stubs) resolve statically typed values;
// Await unwraps them so callers can treat every promise uniformly.
func (p *Promise) Await(ctx context.Context) ([]any, error) {
	select {
	case <-p.done:
	case <-ctx.Done():
		return nil, ctxCallError(ctx, p.method+" promise not awaited")
	}
	if p.vals == nil && p.tvals != nil {
		out := make([]any, len(p.tvals))
		for i, v := range p.tvals {
			out[i] = v.Interface()
		}
		return out, p.err
	}
	return p.vals, p.err
}

// AwaitTyped is Await for typed promises (issued by generated ...Pipe
// stubs): it returns the method's statically typed results.
func (p *Promise) AwaitTyped(ctx context.Context) ([]reflect.Value, error) {
	select {
	case <-p.done:
	case <-ctx.Done():
		return nil, ctxCallError(ctx, p.method+" promise not awaited")
	}
	return p.tvals, p.err
}

// resolved reports whether the promise has already settled.
func (p *Promise) resolved() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// firstVal returns the promise's first result value, for substitution
// into a dependent call issued outside the promise's own session.
func (p *Promise) firstVal() (any, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.resultTypes != nil {
		if len(p.tvals) == 0 {
			return nil, fmt.Errorf("netobjects: promise for %s has no result value", p.method)
		}
		return p.tvals[0].Interface(), nil
	}
	if len(p.vals) == 0 {
		return nil, fmt.Errorf("netobjects: promise for %s has no result value", p.method)
	}
	return p.vals[0], nil
}

// firstRef returns the promise's first result as a network reference, for
// chaining a dependent call on a session-less promise.
func (p *Promise) firstRef() (*Ref, error) {
	v, err := p.firstVal()
	if err != nil {
		return nil, err
	}
	if r, ok := v.(Referencer); ok && r.NetObjRef() != nil {
		return r.NetObjRef(), nil
	}
	return nil, fmt.Errorf("netobjects: promise for %s resolved to %T, not a network reference", p.method, v)
}

// brokenError wraps cause as the chain-poisoning error dependents report.
func brokenError(msg string, cause error) error {
	return &CallError{Status: wire.StatusPromiseBroken, Msg: msg, Cause: cause}
}

// pipeTableFor returns the session's outstanding-promise table, creating
// it (with its break-on-death watcher) on first use.
func (sp *Space) pipeTableFor(s *transport.Session) *promise.Table {
	sp.pipeMu.Lock()
	defer sp.pipeMu.Unlock()
	t := sp.pipeOut[s]
	if t == nil {
		t = promise.NewTable()
		sp.pipeOut[s] = t
		sp.wg.Add(1)
		go func() {
			defer sp.wg.Done()
			<-s.Done()
			t.Break(brokenError("session closed with promises outstanding", transport.ErrClosed))
			sp.pipeMu.Lock()
			delete(sp.pipeOut, s)
			sp.pipeMu.Unlock()
		}()
	}
	return t
}

// pipePending counts the space's unresolved promises, client side plus
// serve side — the netobj_promises_pending gauge and the leak-check
// quantity for chaos tests.
func (sp *Space) pipePending() int {
	sp.pipeMu.Lock()
	tables := make([]*promise.Table, 0, len(sp.pipeOut))
	for _, t := range sp.pipeOut {
		tables = append(tables, t)
	}
	states := make([]*pipeInbound, 0, len(sp.pipeIn))
	for _, st := range sp.pipeIn {
		states = append(states, st)
	}
	sp.pipeMu.Unlock()
	n := 0
	for _, t := range tables {
		n += t.Pending()
	}
	for _, st := range states {
		n += st.comp.Pending()
	}
	return n
}

// PromisesPending reports the space's unresolved promise count —
// outstanding client promises plus unresolved serve-side completions.
// Chaos tests use it as the leak-check quantity: after a fault window
// heals and in-flight chains settle, it must return to zero.
func (sp *Space) PromisesPending() int { return sp.pipePending() }

// pipeTarget names a pipelined call's receiver: an export-table index, or
// the promise whose resolved value is the receiver.
type pipeTarget struct {
	obj           uint64
	targetPromise uint64
}

// PipeCall issues method as a pipelined call and returns its Promise
// without waiting for the result. The arguments may include unresolved
// Promises from earlier pipelined calls on the same session — they travel
// as promise ids and the owner substitutes the resolved values; a Promise
// from another session (a third space) is awaited first and its value
// substituted here. Issuing the call may block briefly on first contact
// with a peer (the dial), never for a round trip.
func (r *Ref) PipeCall(ctx context.Context, method string, args ...any) *Promise {
	sp := r.sp
	p := newPromise(sp, method, nil)
	if r.IsOwner() {
		go func() {
			vals, err := sp.localDynamicCall(ctx, r.concrete, method, awaitLocalArgs(ctx, args))
			p.resolve(vals, nil, err)
		}()
		return p
	}
	if _, err := sp.imports.Use(r.key); err != nil {
		p.resolve(nil, nil, err)
		return p
	}
	s, _, err := sp.pool.Session(ctx, r.endpoints)
	if err != nil {
		p.resolve(nil, nil, err)
		return p
	}
	sp.startPipeCall(ctx, p, s, r.endpoints, pipeTarget{obj: r.key.Index}, 0, args, nil)
	return p
}

// PipeCall issues a dependent pipelined call whose receiver is this
// promise's (possibly still unresolved) result. The call ships
// immediately on the promise's session, naming the promise id; on a
// session-less promise it awaits the parent and calls the resulting
// reference.
func (p *Promise) PipeCall(ctx context.Context, method string, args ...any) *Promise {
	sp := p.sp
	child := newPromise(sp, method, nil)
	if p.sess == nil {
		sp.chainResolved(ctx, child, p, method, args)
		return child
	}
	sp.startPipeCall(ctx, child, p.sess, p.endpoints, pipeTarget{targetPromise: p.id}, 0, args, nil)
	return child
}

// InvokeTypedPipe is the generated-stub entry for pipelined calls: method
// ships with statically typed arguments, and the promise decodes results
// at resultTypes. Typed pipelined arguments cannot be promises (their
// static types are concrete); chain through the returned promise instead.
func (r *Ref) InvokeTypedPipe(ctx context.Context, method string, fingerprint uint64, args []reflect.Value, resultTypes []reflect.Type) *Promise {
	sp := r.sp
	p := newPromise(sp, method, resultTypes)
	if r.IsOwner() {
		go func() {
			vals, err := sp.localTypedCall(ctx, r.concrete, method, fingerprint, args)
			p.resolve(nil, vals, err)
		}()
		return p
	}
	if _, err := sp.imports.Use(r.key); err != nil {
		p.resolve(nil, nil, err)
		return p
	}
	s, _, err := sp.pool.Session(ctx, r.endpoints)
	if err != nil {
		p.resolve(nil, nil, err)
		return p
	}
	sp.startPipeCall(ctx, p, s, r.endpoints, pipeTarget{obj: r.key.Index}, fingerprint, nil, args)
	return p
}

// InvokeTypedPipe chains a typed pipelined call on this promise's result.
func (p *Promise) InvokeTypedPipe(ctx context.Context, method string, fingerprint uint64, args []reflect.Value, resultTypes []reflect.Type) *Promise {
	sp := p.sp
	child := newPromise(sp, method, resultTypes)
	if p.sess == nil {
		sp.metrics.PipelineFallbacks.Inc()
		go func() {
			<-p.done
			ref, err := p.firstRef()
			if err != nil {
				child.resolve(nil, nil, brokenError("dependency of "+method+" failed", err))
				return
			}
			vals, err := ref.InvokeTypedCtx(ctx, method, fingerprint, args, resultTypes)
			child.resolve(nil, vals, err)
		}()
		return child
	}
	sp.startPipeCall(ctx, child, p.sess, p.endpoints, pipeTarget{targetPromise: p.id}, fingerprint, nil, args)
	return child
}

// awaitLocalArgs resolves promise arguments for a local (owner-side)
// dynamic call; non-promise arguments pass through.
func awaitLocalArgs(ctx context.Context, args []any) []any {
	out := make([]any, len(args))
	for i, a := range args {
		if q, ok := a.(*Promise); ok {
			vals, err := q.Await(ctx)
			if err == nil && len(vals) > 0 {
				out[i] = vals[0]
				continue
			}
			out[i] = nil
			continue
		}
		out[i] = a
	}
	return out
}

// chainResolved chains a dynamic call on a promise that has no session
// for the owner to chain against: await the parent and every promise
// argument, then call the reference the parent resolved to.
func (sp *Space) chainResolved(ctx context.Context, p *Promise, parent *Promise, method string, args []any) {
	sp.metrics.PipelineFallbacks.Inc()
	go func() {
		<-parent.done
		ref, err := parent.firstRef()
		if err != nil {
			p.resolve(nil, nil, brokenError("dependency of "+method+" failed", err))
			return
		}
		resolved := make([]any, len(args))
		for i, a := range args {
			q, ok := a.(*Promise)
			if !ok {
				resolved[i] = a
				continue
			}
			if _, err := q.Await(ctx); err != nil {
				p.resolve(nil, nil, brokenError("argument promise of "+method+" failed", err))
				return
			}
			v, err := q.firstVal()
			if err != nil {
				p.resolve(nil, nil, brokenError("argument promise of "+method+" failed", err))
				return
			}
			resolved[i] = v
		}
		vals, err := ref.CallCtx(ctx, method, resolved...)
		p.resolve(vals, nil, err)
	}()
}

// startPipeCall registers the promise on its session and ships the
// PipeCall frame, spawning the goroutine that receives its resolution.
// Exactly one of dynArgs (dynamic) and typedArgs (stub) is used.
func (sp *Space) startPipeCall(ctx context.Context, p *Promise, s *transport.Session, endpoints []string, target pipeTarget, fingerprint uint64, dynArgs []any, typedArgs []reflect.Value) {
	p.sess = s
	p.endpoints = endpoints
	p.id = s.NextPromiseID()
	p.callID = obs.NextCallID()
	sp.metrics.PipelineCalls.Inc()
	sp.metrics.CallsSent.Inc()
	table := sp.pipeTableFor(s)
	if !table.Add(p.id, p.breakWith) {
		p.breakWith(brokenError(p.method+" not sent", table.Cause()))
		return
	}
	// Barrier: order this call after every one-way already issued on the
	// session, so a one-way followed by a pipelined call observes the
	// one-way's effects.
	barrier := s.OneWaysSent()
	go func() {
		defer table.Remove(p.id)
		p.resolvePipeCall(ctx, s, target, fingerprint, dynArgs, typedArgs, barrier)
	}()
}

// pipeArgs prepares a dynamic pipelined call's argument encoding:
// same-session unresolved promises become nil placeholders named by
// position and promise id; promises from elsewhere are awaited and their
// first values substituted (the resolve-then-call path, client side).
func (p *Promise) pipeArgs(ctx context.Context, args []any) ([]any, []uint64, []uint64, error) {
	out := make([]any, len(args))
	var pos, ids []uint64
	for i, a := range args {
		q, ok := a.(*Promise)
		if !ok {
			out[i] = a
			continue
		}
		if q.sess == p.sess && q.id != 0 {
			// The owner holds (or will hold) this promise's completion:
			// ship a placeholder, let the owner substitute locally.
			out[i] = nil
			pos = append(pos, uint64(i))
			ids = append(ids, q.id)
			continue
		}
		// Third-space promise: its owner cannot resolve it for this call's
		// owner, so await it here and pass the value.
		if _, err := q.Await(ctx); err != nil {
			return nil, nil, nil, err
		}
		v, err := q.firstVal()
		if err != nil {
			return nil, nil, nil, err
		}
		out[i] = v
	}
	return out, pos, ids, nil
}

// resolvePipeCall runs one pipelined exchange end to end: marshal, send,
// await the PromiseResolve, decode, resolve. It mirrors callRemoteMux
// (deadline budget, cancel forwarding via the shared inflight id, result
// acks for reference-bearing results) with the promise as the output.
func (p *Promise) resolvePipeCall(ctx context.Context, s *transport.Session, target pipeTarget, fingerprint uint64, dynArgs []any, typedArgs []reflect.Value, barrier uint64) {
	sp := p.sp
	start := time.Now()
	session := sp.getCallSession()
	defer func() {
		session.unpinAll()
		session.recycle()
	}()

	call := &wire.PipeCall{
		Obj:           target.obj,
		TargetPromise: target.targetPromise,
		Method:        p.method,
		Fingerprint:   fingerprint,
		Promise:       p.id,
		ID:            p.callID,
		Barrier:       barrier,
	}
	// Copied: this runs on the promise's goroutine after PipeCall has
	// handed the promise back, so the caller's buffers are its own again
	// and nothing here may go on reading them past the pickle.
	var err error
	if typedArgs != nil {
		call.Typed = true
		call.Args, err = sp.pickler.MarshalSession(nil, typedArgs, session)
	} else {
		var args []any
		args, call.ArgPromisePos, call.ArgPromiseIDs, err = p.pipeArgs(ctx, dynArgs)
		if err != nil {
			p.breakWith(brokenError("argument promise of "+p.method+" failed", err))
			return
		}
		call.Args, err = sp.pickler.MarshalAnySession(nil, args, session)
	}
	if err != nil {
		p.resolve(nil, nil, fmt.Errorf("netobjects: marshaling arguments for %s: %w", p.method, err))
		return
	}

	deadline := start.Add(sp.opts.CallTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	ms := time.Until(deadline).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	call.DeadlineMillis = uint64(ms)
	connDeadline := deadline
	if ctx.Done() != nil {
		connDeadline = connDeadline.Add(250 * time.Millisecond)
	}
	if sp.tracer != nil {
		sp.tracer.Emit(obs.Event{Kind: obs.EvCallSend, Time: start, CallID: p.callID, Method: p.method})
	}

	st, err := s.OpenID(p.callID)
	if err != nil {
		p.breakWith(brokenError(p.method+" not sent", err))
		return
	}
	_ = st.SetDeadline(connDeadline)
	var w *cancelWatch
	if ctx.Done() != nil {
		w = newCancelWatch()
		go func() {
			select {
			case <-ctx.Done():
				if w.fire() {
					sp.forwardCancel(p.callID, p.method, p.endpoints)
					_ = st.Close()
				}
			case <-w.stop:
			}
		}()
	}
	err = p.exchangePipe(st, call, session)
	cancelled := false
	if w != nil {
		cancelled = w.finish()
	}
	st.Release()
	_ = st.Close()
	sp.metrics.CallLatency.Observe(time.Since(start))
	if sp.tracer != nil {
		sp.tracer.Emit(obs.Event{Kind: obs.EvCallReply, Time: time.Now(),
			CallID: p.callID, Method: p.method, Dur: time.Since(start), Err: errString(err)})
	}
	if cancelled {
		sp.metrics.CallsCancelled.Inc()
		p.resolve(nil, nil, ctxCallError(ctx, p.method+" cancelled in flight"))
		return
	}
	if err != nil {
		p.breakWith(err)
	}
}

// exchangePipe performs the wire legs of one pipelined call on its
// stream: send, receive the PromiseResolve, decode and acknowledge. On
// success it resolves the promise itself and returns nil.
func (p *Promise) exchangePipe(st *transport.Stream, call *wire.PipeCall, session *callSession) error {
	sp := p.sp
	// call.Args is this goroutine's own copy (resolvePipeCall), so the
	// frame may borrow it for the length of the Send like any other.
	if err := sp.sendMsg(st, call); err != nil {
		return brokenError(p.method+" not sent", err)
	}
	b, err := st.Recv(nil)
	if err != nil {
		return brokenError(p.method+" resolution lost", err)
	}
	sp.metrics.BytesRecv.Add(uint64(len(b)))
	msg, err := wire.Unmarshal(b)
	if err != nil {
		return brokenError(p.method+" resolution corrupt", err)
	}
	res, ok := msg.(*wire.PromiseResolve)
	if !ok {
		return brokenError("", fmt.Errorf("netobjects: pipelined call answered with %v", msg.Op()))
	}

	var vals []any
	var tvals []reflect.Value
	var appErr, decodeErr error
	switch res.Status {
	case wire.StatusOK, wire.StatusAppError:
		if p.resultTypes != nil {
			tvals, decodeErr = sp.pickler.UnmarshalSession(res.Results, p.resultTypes, session)
		} else {
			vals, decodeErr = sp.pickler.UnmarshalAnySession(res.Results, session)
		}
		if decodeErr != nil {
			decodeErr = fmt.Errorf("netobjects: unmarshaling results of %s: %w", p.method, decodeErr)
		}
		if res.Status == wire.StatusAppError {
			appErr = &RemoteError{Msg: res.Err}
		}
	case wire.StatusPromiseBroken:
		decodeErr = &CallError{Status: wire.StatusPromiseBroken, Msg: res.Err}
	default:
		decodeErr = statusError(res.Status, res.Err)
	}
	session.waitPending()
	if res.NeedAck {
		sp.metrics.ResultAcksSent.Inc()
		_ = sp.sendMsg(st, &wire.ResultAck{})
	}
	if decodeErr != nil {
		if ce, ok := decodeErr.(*CallError); ok && ce.Status == wire.StatusPromiseBroken {
			sp.metrics.PipelineBroken.Inc()
			p.resolve(nil, nil, decodeErr)
			return nil
		}
		return decodeErr
	}
	sp.metrics.PipelineResolved.Inc()
	p.resolve(vals, tvals, appErr)
	return nil
}

// OneWay invokes method with no reply: no results, no error report, no
// acknowledgement — it returns once the frame is on the wire. One-way
// calls to one peer execute in issue order relative to each other, and a
// pipelined call issued afterwards observes their effects (its Barrier
// fences on them); delivery is best-effort beyond that.
func (r *Ref) OneWay(method string, args ...any) error {
	return r.OneWayCtx(context.Background(), method, args...)
}

// OneWayCtx is OneWay bounded by ctx (covering dial and frame write).
func (r *Ref) OneWayCtx(ctx context.Context, method string, args ...any) error {
	sp := r.sp
	if r.IsOwner() {
		// Local delivery: run synchronously, discard results and error,
		// preserving the in-order, no-reply semantics trivially.
		_, _ = sp.localDynamicCall(ctx, r.concrete, method, args)
		return nil
	}
	if _, err := sp.imports.Use(r.key); err != nil {
		return err
	}
	s, _, err := sp.pool.Session(ctx, r.endpoints)
	if err != nil {
		return err
	}
	session := sp.getCallSession()
	defer func() {
		session.unpinAll()
		session.recycle()
	}()
	// Borrowed: "on the wire" is when this returns, so a large []byte
	// argument is read from the caller's buffer by the Send below.
	abp := wire.GetBuf()
	argBytes, argSegs, err := sp.pickler.MarshalAnyBorrowed((*abp)[:0], args, session)
	if argBytes != nil {
		*abp = argBytes
	}
	defer wire.PutBuf(abp)
	if err != nil {
		return fmt.Errorf("netobjects: marshaling arguments for %s: %w", method, err)
	}
	msg := &wire.OneWay{Obj: r.key.Index, Method: method, Args: argBytes, ArgSegs: argSegs, Seq: s.NextOneWaySeq()}
	st, err := s.OpenID(obs.NextCallID())
	if err != nil {
		return err
	}
	defer st.Close()
	if d, ok := ctx.Deadline(); ok {
		_ = st.SetDeadline(d)
	}
	if err := sp.sendMsg(st, msg); err != nil {
		return err
	}
	sp.metrics.OneWaysSent.Inc()
	// No reply leg: registration futures for any references in the
	// arguments still settle before the pins release below.
	session.waitPending()
	return nil
}
