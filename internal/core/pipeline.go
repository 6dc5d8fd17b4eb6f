package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"

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
// it, so a K-deep dependent chain costs one round trip: every Call frame
// travels together and the owner chains them locally against its
// per-session completion table. A promise with no session behind it — an
// owner-local receiver's — chains by resolve-then-call instead: the
// dependent call awaits it before going anywhere.

// Promise is the client's handle on the result of a pipelined call. It
// resolves when the owner's Result arrives, when the chain is poisoned by
// an upstream failure, or when the session dies (the break-promise path).
// An unresolved Promise can be the receiver of the next pipelined call
// (Promise.PipeCall) or an argument to one on the same session; both ship
// without waiting.
type Promise struct {
	sp     *Space
	method string

	// sess and id place the promise on one mux session; both are zero for
	// a promise that never went to the wire (a local receiver's, or one
	// that failed before it could ship).
	sess      *transport.Session
	endpoints []string
	id        uint64

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

// Await blocks until the promise resolves and returns the call's
// dynamic results, following the Ref.Call error conventions. A promise
// may be awaited any number of times, from any goroutine. Typed promises
// (issued by generated ...Pipe stubs) resolve statically typed values;
// Await unwraps them so callers can treat every promise uniformly.
func (p *Promise) Await(ctx context.Context) ([]any, error) {
	if err := p.wait(ctx); err != nil {
		return nil, err
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
	if err := p.wait(ctx); err != nil {
		return nil, err
	}
	return p.tvals, p.err
}

// wait blocks until the promise resolves or ctx ends.
func (p *Promise) wait(ctx context.Context) error {
	select {
	case <-p.done:
		return nil
	case <-ctx.Done():
		return ctxCallError(ctx, p.method+" promise not awaited")
	}
}

// awaitFirst waits for the promise and returns its first result value,
// for substitution into a dependent call the promise's owner cannot chain.
func (p *Promise) awaitFirst(ctx context.Context) (any, error) {
	if err := p.wait(ctx); err != nil {
		return nil, err
	}
	return p.firstVal()
}

// firstVal returns the promise's first result value once it has resolved.
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

// PipeCall issues method as a pipelined call and returns its Promise
// without waiting for the result. The arguments may include unresolved
// Promises from earlier pipelined calls on the same session — they travel
// as promise ids and the owner substitutes the resolved values; a Promise
// from another session (a third space) is awaited first and its value
// substituted here. Issuing the call may block briefly on first contact
// with a peer (the dial), never for a round trip.
func (r *Ref) PipeCall(ctx context.Context, method string, args ...any) *Promise {
	return r.pipe(ctx, newPromise(r.sp, method, nil), 0, args, nil)
}

// PipeCall issues a dependent pipelined call whose receiver is this
// promise's (possibly still unresolved) result. The call ships
// immediately on the promise's session, naming the promise id; on a
// session-less promise it awaits the parent and calls the resulting
// reference.
func (p *Promise) PipeCall(ctx context.Context, method string, args ...any) *Promise {
	return p.chain(ctx, newPromise(p.sp, method, nil), 0, args, nil)
}

// InvokeTypedPipe is the generated-stub entry for pipelined calls: method
// ships with statically typed arguments, and the promise decodes results
// at resultTypes. Typed pipelined arguments cannot be promises (their
// static types are concrete); chain through the returned promise instead.
func (r *Ref) InvokeTypedPipe(ctx context.Context, method string, fingerprint uint64, args []reflect.Value, resultTypes []reflect.Type) *Promise {
	return r.pipe(ctx, newPromise(r.sp, method, resultTypes), fingerprint, nil, typedArgs(args))
}

// InvokeTypedPipe chains a typed pipelined call on this promise's result.
func (p *Promise) InvokeTypedPipe(ctx context.Context, method string, fingerprint uint64, args []reflect.Value, resultTypes []reflect.Type) *Promise {
	return p.chain(ctx, newPromise(p.sp, method, resultTypes), fingerprint, nil, typedArgs(args))
}

// typedArgs keeps a stub's empty argument tuple non-nil: below, a nil
// typed tuple means a dynamic call.
func typedArgs(args []reflect.Value) []reflect.Value {
	if args == nil {
		return []reflect.Value{}
	}
	return args
}

// pipe issues p's call on r: run on a goroutine of its own when r is
// local, and otherwise sent as a pipelined Call on r's session. targs is
// a stub's argument tuple, at the declared types; a dynamic call's args
// (targs nil) may include promises.
func (r *Ref) pipe(ctx context.Context, p *Promise, fingerprint uint64, args []any, targs []reflect.Value) *Promise {
	sp := r.sp
	if r.IsOwner() {
		go func() {
			if targs != nil {
				vals, err := sp.localTypedCall(ctx, r.concrete, p.method, fingerprint, targs)
				p.resolve(nil, vals, err)
				return
			}
			args, err := awaitArgs(ctx, args)
			if err != nil {
				p.resolve(nil, nil, brokenError("argument promise of "+p.method+" failed", err))
				return
			}
			vals, err := sp.localDynamicCall(ctx, r.concrete, p.method, args)
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
	sp.startPipeCall(ctx, p, s, r.endpoints, &wire.Call{Obj: r.key.Index, Fingerprint: fingerprint}, args, targs)
	return p
}

// chain issues child's call on p's result: sent at once, naming p, on
// p's session; or, for a promise with no session behind it, by
// resolve-then-call.
func (p *Promise) chain(ctx context.Context, child *Promise, fingerprint uint64, args []any, targs []reflect.Value) *Promise {
	if p.sess == nil {
		p.sp.chainResolved(ctx, child, p, fingerprint, args, targs)
		return child
	}
	p.sp.startPipeCall(ctx, child, p.sess, p.endpoints, &wire.Call{TargetPromise: p.id, Fingerprint: fingerprint}, args, targs)
	return child
}

// awaitArgs resolves the promises among a dynamic call's arguments to
// their first values; the other arguments pass through.
func awaitArgs(ctx context.Context, args []any) ([]any, error) {
	out := make([]any, len(args))
	for i, a := range args {
		q, ok := a.(*Promise)
		if !ok {
			out[i] = a
			continue
		}
		v, err := q.awaitFirst(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// chainResolved chains a call on a promise that has no session for the
// owner to chain against: await the parent, then call the reference it
// resolved to, with every promise among the arguments awaited.
func (sp *Space) chainResolved(ctx context.Context, p *Promise, parent *Promise, fingerprint uint64, args []any, targs []reflect.Value) {
	sp.metrics.PipelineFallbacks.Inc()
	go func() {
		<-parent.done
		ref, err := parent.firstRef()
		if err != nil {
			p.resolve(nil, nil, brokenError("dependency of "+p.method+" failed", err))
			return
		}
		if targs != nil {
			vals, err := ref.InvokeTypedCtx(ctx, p.method, fingerprint, targs, p.resultTypes)
			p.resolve(nil, vals, err)
			return
		}
		args, err := awaitArgs(ctx, args)
		if err != nil {
			p.resolve(nil, nil, brokenError("argument promise of "+p.method+" failed", err))
			return
		}
		vals, err := ref.CallCtx(ctx, p.method, args...)
		p.resolve(vals, nil, err)
	}()
}

// startPipeCall registers p on its session and starts the goroutine that
// sends p's call — call names the receiver; the method, the promise and
// the one-way barrier are added here — and resolves p with its Result.
func (sp *Space) startPipeCall(ctx context.Context, p *Promise, s *transport.Session, endpoints []string, call *wire.Call, args []any, targs []reflect.Value) {
	p.sess, p.endpoints, p.id = s, endpoints, s.NextPromiseID()
	sp.metrics.PipelineCalls.Inc()
	table := sp.pipeTableFor(s)
	if !table.Add(p.id, p.breakWith) {
		p.breakWith(brokenError(p.method+" not sent", table.Cause()))
		return
	}
	call.Method, call.Promise, call.Typed = p.method, p.id, targs != nil
	// Barrier: order this call after every one-way already issued on the
	// session, so a one-way followed by a pipelined call observes the
	// one-way's effects.
	call.Barrier = s.OneWaysSent()
	go func() {
		defer table.Remove(p.id)
		p.send(ctx, call, args, targs)
	}()
}

// send runs p's call on the promise's goroutine: the same callRemote
// exchange as a plain call's, on p's session, with p's result types.
func (p *Promise) send(ctx context.Context, call *wire.Call, args []any, targs []reflect.Value) {
	sp := p.sp
	session := sp.getCallSession()
	defer func() {
		session.unpinAll()
		session.recycle()
	}()
	// Copied: this runs after the promise was handed back, so the caller's
	// buffers are its own again and nothing here may go on reading them
	// past the pickle.
	var err error
	if targs != nil {
		call.Args, err = sp.pickler.MarshalSession(nil, targs, session)
	} else if args, err = p.pipeArgs(ctx, call, args); err != nil {
		p.breakWith(brokenError("argument promise of "+p.method+" failed", err))
		return
	} else {
		call.Args, err = sp.pickler.MarshalAnySession(nil, args, session)
	}
	if err != nil {
		p.resolve(nil, nil, fmt.Errorf("netobjects: marshaling arguments for %s: %w", p.method, err))
		return
	}
	dec := sp.getDecoder(p.method, session, call.Typed, p.resultTypes)
	defer putDecoder(dec)
	switch err := sp.callRemote(ctx, p.sess, p.endpoints, call, session, dec); {
	case err == nil:
		sp.metrics.PipelineResolved.Inc()
		p.resolve(dec.vals, dec.tvals, dec.appErr)
	case ctx.Err() != nil:
		// The caller's own cancellation or deadline, not a broken chain.
		p.resolve(nil, nil, err)
	default:
		p.breakWith(err)
	}
}

// pipeArgs prepares a dynamic pipelined call's arguments: an unresolved
// promise of the call's own session becomes a nil placeholder, named in
// call by position and promise id, for the owner to fill in; a promise
// from elsewhere (a third space's) is awaited and its value passed.
func (p *Promise) pipeArgs(ctx context.Context, call *wire.Call, args []any) ([]any, error) {
	out := make([]any, len(args))
	for i, a := range args {
		q, ok := a.(*Promise)
		switch {
		case !ok:
			out[i] = a
		case q.sess == p.sess && q.id != 0:
			call.ArgPromisePos = append(call.ArgPromisePos, uint64(i))
			call.ArgPromiseIDs = append(call.ArgPromiseIDs, q.id)
		default:
			v, err := q.awaitFirst(ctx)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
	}
	return out, nil
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
	return nil
}
