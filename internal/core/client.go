package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"time"

	"netobjects/internal/dgc"
	"netobjects/internal/obs"
	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// errString renders an error for trace events (empty for nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// rpc performs one simple request/response exchange (dirty, clean, ping)
// on its own stream of the peer's multiplexed session. A failed exchange
// needs no discard bookkeeping: closing the stream abandons only this
// exchange, and a link-level failure tears the session down for everyone,
// after which the next call redials. Collector messages — the ordered
// queue's (gcq) included, which reach the wire through here — carry no
// byte fields, so there is nothing for the send to borrow.
func (sp *Space) rpc(endpoints []string, req wire.Message, timeout time.Duration) (wire.Message, error) {
	if sp.isClosed() && req.Op() != wire.OpCleanBatch {
		// Parting clean calls are allowed through during Close.
		return nil, ErrSpaceClosed
	}
	s, _, err := sp.pool.Session(context.Background(), endpoints)
	if err != nil {
		return nil, err
	}
	st, err := s.Open()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	_ = st.SetDeadline(time.Now().Add(timeout))
	if err := sp.sendMsg(st, req); err != nil {
		return nil, err
	}
	b, err := st.Recv(nil)
	if err != nil {
		return nil, err
	}
	sp.metrics.BytesRecv.Add(uint64(len(b)))
	// Collector acks carry no byte fields, so msg does not alias b, which
	// the deferred Close recycles.
	return wire.Unmarshal(b)
}

// rpcRetry is rpc with bounded, jittered retry for idempotent collector
// traffic. Dirty, clean, ping and lease exchanges are all idempotent — the
// sequence-number discipline makes replayed dirties and cleans no-ops —
// so a transport hiccup need not fail the operation. Protocol-level
// refusals (non-OK acks) come back as (resp, nil) and are never retried;
// only transport failures are. Method calls never go through here: the
// runtime cannot assume application methods are idempotent.
func (sp *Space) rpcRetry(endpoints []string, req wire.Message, timeout time.Duration) (wire.Message, error) {
	attempts, backoff := sp.opts.RetryAttempts, sp.opts.RetryBackoff
	var lastErr error
	for attempt := 1; ; attempt++ {
		resp, err := sp.rpc(endpoints, req, timeout)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if attempt >= attempts ||
			errors.Is(err, ErrSpaceClosed) || errors.Is(err, transport.ErrClosed) {
			return nil, lastErr
		}
		sp.metrics.RPCRetries.Inc()
		// Full jitter around the exponential base: backoff/2 .. 3*backoff/2.
		time.Sleep(backoff/2 + rand.N(backoff))
		if backoff < 32*sp.opts.RetryBackoff {
			backoff *= 2
		}
	}
}

// sendDirty registers this space in the dirty set of key at its owner.
func (sp *Space) sendDirty(key wire.Key, endpoints []string, seq uint64) error {
	sp.metrics.DirtySent.Inc()
	start := time.Now()
	err := sp.doSendDirty(key, endpoints, seq)
	sp.metrics.DirtyLatency.Observe(time.Since(start))
	if sp.tracer != nil {
		sp.tracer.Emit(obs.Event{Kind: obs.EvDirtySend, Time: time.Now(),
			Key: key.String(), Dur: time.Since(start), Err: errString(err)})
	}
	return err
}

func (sp *Space) doSendDirty(key wire.Key, endpoints []string, seq uint64) error {
	req := &wire.Dirty{
		Obj:             key.Index,
		Client:          sp.id,
		ClientEndpoints: sp.endpoints,
		Seq:             seq,
		Owner:           key.Owner,
	}
	resp, err := sp.rpcRetry(endpoints, req, sp.opts.CallTimeout)
	if err != nil {
		return err
	}
	ack, ok := resp.(*wire.DirtyAck)
	if !ok {
		return fmt.Errorf("netobjects: dirty call answered with %v", resp.Op())
	}
	if ack.Status != wire.StatusOK {
		return statusError(ack.Status, ack.Err)
	}
	return nil
}

// sendCleans removes this space from the dirty sets of items at their
// owner: one CleanBatch exchange, whether it carries one key or many. Any
// acknowledgement counts as success: a clean for an absent entry is a
// no-op by specification.
func (sp *Space) sendCleans(owner wire.SpaceID, endpoints []string, items []dgc.CleanItem) error {
	sp.metrics.CleanSent.Add(uint64(len(items)))
	if len(items) > 1 {
		sp.metrics.CleanBatches.Inc()
	}
	start := time.Now()
	req := &wire.CleanBatch{Client: sp.id, Owner: owner}
	for _, it := range items {
		req.Objs = append(req.Objs, it.Key.Index)
		req.Seqs = append(req.Seqs, it.Seq)
		req.Strongs = append(req.Strongs, it.Strong)
	}
	resp, err := sp.rpcRetry(endpoints, req, sp.opts.CallTimeout)
	if _, ok := resp.(*wire.CleanAck); err == nil && !ok {
		err = fmt.Errorf("netobjects: clean call answered with %v", resp.Op())
	}
	end := time.Now()
	sp.metrics.CleanLatency.Observe(end.Sub(start))
	if sp.tracer != nil {
		ev := obs.Event{Kind: obs.EvCleanSend, Time: end, Peer: owner.String(),
			Dur: end.Sub(start), Err: errString(err)}
		if len(items) == 1 {
			ev.Key = items[0].Key.String()
		} else {
			ev.N = len(items)
		}
		sp.tracer.Emit(ev)
	}
	return err
}

// sendLease renews this space's lease at an owner.
func (sp *Space) sendLease(owner wire.SpaceID, endpoints []string) error {
	sp.metrics.LeasesSent.Inc()
	if sp.tracer != nil {
		sp.tracer.Emit(obs.Event{Kind: obs.EvLeaseSend, Time: time.Now(), Peer: owner.String()})
	}
	resp, err := sp.rpcRetry(endpoints, &wire.Lease{Client: sp.id, ClientEndpoints: sp.endpoints, Owner: owner},
		sp.opts.PingTimeout)
	if err != nil {
		return err
	}
	ack, ok := resp.(*wire.LeaseAck)
	if !ok {
		return fmt.Errorf("netobjects: lease answered with %v", resp.Op())
	}
	if ack.Status != wire.StatusOK {
		return statusError(ack.Status, "lease refused")
	}
	return nil
}

// sendPing probes a client, verifying the responder carries the expected
// space id so a reborn process at the same endpoint is not mistaken for
// the client it replaced.
func (sp *Space) sendPing(id wire.SpaceID, endpoints []string) error {
	sp.metrics.PingsSent.Inc()
	if sp.tracer != nil {
		sp.tracer.Emit(obs.Event{Kind: obs.EvPingSend, Time: time.Now(), Peer: id.String()})
	}
	resp, err := sp.rpcRetry(endpoints, &wire.Ping{From: sp.id}, sp.opts.PingTimeout)
	if err != nil {
		return err
	}
	ack, ok := resp.(*wire.PingAck)
	if !ok {
		return fmt.Errorf("netobjects: ping answered with %v", resp.Op())
	}
	if ack.From != id {
		return fmt.Errorf("netobjects: endpoint now hosts %v, expected %v", ack.From, id)
	}
	return nil
}

// cancelWatch arbitrates the race between a call completing and its
// context firing. The watcher goroutine calls fire before acting; the
// call path calls finish exactly once after the exchange. Whichever runs
// first wins: fire reports false once the call has finished (nothing to
// cancel), and finish reports true when cancellation fired first, in
// which case the call is reported cancelled even if a result squeaked in.
type cancelWatch struct {
	mu    sync.Mutex
	done  bool
	fired bool
	stop  chan struct{}
}

func newCancelWatch() *cancelWatch { return &cancelWatch{stop: make(chan struct{})} }

// fire marks the call cancelled, reporting whether it was still running.
func (w *cancelWatch) fire() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return false
	}
	w.fired = true
	return true
}

// finish retires the watch and reports whether cancellation fired first.
func (w *cancelWatch) finish() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.done = true
	close(w.stop)
	return w.fired
}

// forwardCancel relays a caller's alert to the owner of an in-flight
// call — the Thread.Alert of the original runtime crossing the wire. It
// travels as its own exchange on a fresh stream of the shared session,
// so the blocked call and its cancel interleave on one connection. Best
// effort: losing the race with call completion is fine, and a lost cancel
// only means the owner runs the method to completion.
func (sp *Space) forwardCancel(id uint64, method string, endpoints []string) {
	sp.metrics.CancelsSent.Inc()
	if sp.tracer != nil {
		sp.tracer.Emit(obs.Event{Kind: obs.EvCallCancel, Time: time.Now(),
			CallID: id, Method: method})
	}
	_, _ = sp.rpc(endpoints, &wire.CancelCall{ID: id}, sp.opts.PingTimeout)
}

// resultDecoder consumes the Result of one exchange: statically typed
// results at resultTypes for a stub's call (typed), self-describing ones
// otherwise. Pooled, so the call path allocates nothing for it.
type resultDecoder struct {
	sp          *Space
	method      string
	session     *callSession
	typed       bool
	resultTypes []reflect.Type
	vals        []any
	tvals       []reflect.Value
	appErr      error
}

var resultDecoderPool = sync.Pool{New: func() any { return new(resultDecoder) }}

func (sp *Space) getDecoder(method string, session *callSession, typed bool, resultTypes []reflect.Type) *resultDecoder {
	d := resultDecoderPool.Get().(*resultDecoder)
	d.sp, d.method, d.session, d.typed, d.resultTypes = sp, method, session, typed, resultTypes
	return d
}

func putDecoder(d *resultDecoder) {
	*d = resultDecoder{}
	resultDecoderPool.Put(d)
}

func (d *resultDecoder) decode(res *wire.Result) error {
	if res.Status != wire.StatusOK && res.Status != wire.StatusAppError {
		return statusError(res.Status, res.Err)
	}
	var err error
	if d.typed {
		d.tvals, err = d.sp.pickler.UnmarshalView(res.Results, d.resultTypes, d.session, d.session.viewMin)
	} else {
		d.vals, err = d.sp.pickler.UnmarshalAnyView(res.Results, d.session, d.session.viewMin)
	}
	if err != nil {
		return fmt.Errorf("netobjects: unmarshaling results of %s: %w", d.method, err)
	}
	if res.Status == wire.StatusAppError {
		d.appErr = &RemoteError{Msg: res.Err}
	}
	return nil
}

// exchange runs the lock-step call exchange on the stream: send the call,
// receive the result, let decode consume it, and acknowledge returned
// references when the owner asks (Result.NeedAck). The call frame is
// assembled in a pooled buffer, recycled once Send has returned — Send
// reads what it is given exactly once, before it returns, whatever its
// outcome — and the result is decoded into a pooled frame.
//
// Borrowed: a large []byte argument is still in the caller's buffer
// (call.ArgSegs) and is read from there by this Send, timeouts and
// cancellations included; the caller has it back when exchange returns.
func (sp *Space) exchange(c *transport.Stream, call *wire.Call, session *callSession, decode *resultDecoder) error {
	if err := sp.sendMsg(c, call); err != nil {
		return err
	}
	b, err := c.Recv(nil)
	if err != nil {
		return err
	}
	sp.metrics.BytesRecv.Add(uint64(len(b)))
	if op := wire.PeekOp(b); op != wire.OpResult {
		return fmt.Errorf("netobjects: call answered with %v", op)
	}
	res := resultPool.Get().(*wire.Result)
	// res.Results aliases the receive buffer; zeroing on the way back to
	// the pool (putResult) drops the alias before the buffer is recycled.
	defer putResult(res)
	if err := wire.UnmarshalInto(b, res); err != nil {
		return err
	}
	// A result frame in a slab of its own may lend its bytes to the large
	// []byte results decoded from it.
	session.viewMin = viewMin(c)
	decodeErr := decode.decode(res)
	if res.NeedAck {
		// The owner holds the returned references transiently dirty until
		// this ack; send it even when decoding failed, because our dirty
		// calls for any references we did unmarshal have already
		// completed, and the rest were never materialized here.
		sp.metrics.ResultAcksSent.Inc()
		// A lost ack costs the owner only its bounded wait.
		_ = sp.sendMsg(c, &wire.ResultAck{})
	}
	return decodeErr
}

// callRemote performs one remote invocation exchange under ctx, on the
// session s — a pipelined call's, which must go out on its promise's
// session — or, when s is nil, on the pool's session to endpoints. The
// call carries its remaining deadline budget so the owner can bound the
// dispatch with its own clock, and a context fired mid-call is forwarded
// to the owner as a CancelCall (alert propagation) while the blocked
// receive is unblocked by aborting the exchange. It reads the clock
// twice, at the start and the end; the deadline, the budget and the
// latency all come from those two.
func (sp *Space) callRemote(ctx context.Context, s *transport.Session, endpoints []string, call *wire.Call, session *callSession, decode *resultDecoder) (err error) {
	if sp.isClosed() {
		return ErrSpaceClosed
	}
	if ctx.Err() != nil {
		return ctxCallError(ctx, call.Method+" not sent")
	}
	sp.metrics.CallsSent.Inc()
	start := time.Now()
	// Per-call correlation id: ties the traced events of one invocation
	// together and names the call in a CancelCall. Zero never appears, so
	// an owner that sees ID 0 knows the call predates cancellation support.
	call.ID = obs.NextCallID()
	// The effective deadline is the tighter of the space-wide call timeout
	// and the caller's context; what crosses the wire is the remaining
	// budget in milliseconds, not an absolute time, so the two spaces'
	// clocks need never agree.
	deadline := start.Add(sp.opts.CallTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	ms := deadline.Sub(start).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	call.DeadlineMillis = uint64(ms)
	if sp.tracer != nil {
		sp.tracer.Emit(obs.Event{Kind: obs.EvCallSend, Time: start,
			CallID: call.ID, Method: call.Method})
	}
	defer func() {
		if err != nil {
			sp.metrics.CallErrors.Inc()
			if errors.Is(err, context.Canceled) {
				sp.metrics.CallsCancelled.Inc()
			} else if errors.Is(err, context.DeadlineExceeded) {
				sp.metrics.CallsDeadlineExceeded.Inc()
			}
		}
		end := time.Now()
		sp.metrics.CallLatency.Observe(end.Sub(start))
		if sp.tracer != nil {
			sp.tracer.Emit(obs.Event{Kind: obs.EvCallReply, Time: end,
				CallID: call.ID, Method: call.Method, Dur: end.Sub(start), Err: errString(err)})
		}
	}()
	connDeadline := deadline
	if ctx.Done() != nil {
		// With a watcher on duty the context is the authority on expiry;
		// give the raw connection deadline a grace period so the watcher
		// wins the race and the error classifies as the context error
		// rather than a bare transport timeout. The connection deadline
		// remains the backstop if the watcher is wedged.
		connDeadline = connDeadline.Add(250 * time.Millisecond)
	}
	return sp.callRemoteMux(ctx, s, endpoints, call, session, decode, connDeadline)
}

// callRemoteMux runs the invocation exchange on a stream of the peer's
// shared session. The stream id is the call's correlation id, so the mux
// tag and the cancellation handle are the same number. A context fired
// mid-call forwards the CancelCall on its own stream of the same link and
// aborts only this call's exchange — the other exchanges on the session,
// including the cancel itself, are untouched. The watcher names the
// exchange by its id, never holding the stream, so a watcher that fires
// as the call completes cannot touch the exchange that reuses the stream.
func (sp *Space) callRemoteMux(ctx context.Context, s *transport.Session, endpoints []string, call *wire.Call, session *callSession, decode *resultDecoder, connDeadline time.Time) (err error) {
	if s == nil {
		if s, _, err = sp.pool.Session(ctx, endpoints); err != nil {
			return err
		}
	}
	st, err := s.OpenID(call.ID)
	if err != nil {
		return err
	}
	_ = st.SetDeadline(connDeadline)
	// A context that can never fire needs no watch at all — the common
	// background-context call skips the watch allocation and goroutine.
	var w *cancelWatch
	if ctx.Done() != nil {
		w = newCancelWatch()
		// The call frame goes back to its pool when the call returns, which
		// may be before the watcher is done: it keeps copies.
		id, method := call.ID, call.Method
		go func() {
			select {
			case <-ctx.Done():
				if w.fire() {
					// A deadline is not a cancel: the owner holds it as
					// DeadlineMillis and ends the dispatch on its own clock,
					// so forwarding it would only race that ending.
					if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
						sp.forwardCancel(id, method, endpoints)
					}
					// Aborting the exchange unblocks the receive below; the
					// shared connection stays up for everyone else.
					s.Abort(id)
				}
			case <-w.stop:
			}
		}()
	}
	err = sp.exchange(st, call, session, decode)
	cancelled := false
	if w != nil {
		cancelled = w.finish()
	}
	// The decoder copied what it kept of a pooled result frame, so
	// Close may give it back to the pool; a slab it kept views of is not
	// the pool's.
	_ = st.Close()
	if cancelled {
		return ctxCallError(ctx, call.Method+" cancelled in flight")
	}
	return err
}

// dynamicCall invokes a method with interface-encoded arguments and
// results: the caller needs no stub and no type information beyond what
// the argument values themselves carry.
func (sp *Space) dynamicCall(ctx context.Context, endpoints []string, index uint64, method string, args []any) ([]any, error) {
	session := sp.getCallSession()
	defer func() {
		session.unpinAll()
		session.recycle()
	}()
	// Borrowed: a large []byte argument is not pickled into abp but read
	// from the caller's buffer when the call frame is sent, inside
	// callRemote, which does not return before that Send has. The caller
	// must not change it until this call returns.
	abp := wire.GetBuf()
	argBytes, argSegs, err := sp.pickler.MarshalAnyBorrowed((*abp)[:0], args, session)
	if argBytes != nil {
		*abp = argBytes
	}
	// The pickle stays referenced until exchange has sent the call frame,
	// which happens inside callRemote; recycle after.
	defer wire.PutBuf(abp)
	if err != nil {
		return nil, fmt.Errorf("netobjects: marshaling arguments for %s: %w", method, err)
	}
	call := callPool.Get().(*wire.Call)
	call.Obj, call.Method, call.Args, call.ArgSegs = index, method, argBytes, argSegs
	defer putCall(call)
	dec := sp.getDecoder(method, session, false, nil)
	defer putDecoder(dec)
	if err := sp.callRemote(ctx, nil, endpoints, call, session, dec); err != nil {
		return nil, err
	}
	return dec.vals, dec.appErr
}

// Call invokes a method dynamically: arguments and results travel as
// self-describing values, so no generated stub is needed. It returns the
// method's non-error results; a non-nil error is either the remote
// method's own error (a *RemoteError) or a runtime failure (*CallError or
// transport error). The call runs under the space-wide call timeout; use
// CallCtx to bound or cancel an individual call.
func (r *Ref) Call(method string, args ...any) ([]any, error) {
	return r.CallCtx(context.Background(), method, args...)
}

// CallCtx is Call under a caller-supplied context. The context's
// deadline tightens the space-wide call timeout and travels to the owner
// as a remaining-time budget; cancelling the context mid-call forwards
// the alert to the owner, whose dispatch observes it as ctx.Done(). The
// returned error then satisfies errors.Is(err, context.Canceled) or
// context.DeadlineExceeded.
func (r *Ref) CallCtx(ctx context.Context, method string, args ...any) ([]any, error) {
	if r.IsOwner() {
		return r.sp.localDynamicCall(ctx, r.concrete, method, args)
	}
	if _, err := r.sp.imports.Use(r.key); err != nil {
		return nil, err
	}
	return r.sp.dynamicCall(ctx, r.endpoints, r.key.Index, method, args)
}

// CallEndpoint invokes a method on an object at a known endpoint and
// table index without first holding a reference to it. It exists to
// bootstrap: the agent object lives at the well-known agent index, and
// its results carry proper references that follow the normal registration
// path. No dirty entry is taken for the target itself.
func (sp *Space) CallEndpoint(endpoint string, index uint64, method string, args ...any) ([]any, error) {
	return sp.CallEndpointCtx(context.Background(), endpoint, index, method, args...)
}

// CallEndpointCtx is CallEndpoint under a caller-supplied context, with
// the CallCtx deadline and cancellation semantics.
func (sp *Space) CallEndpointCtx(ctx context.Context, endpoint string, index uint64, method string, args ...any) ([]any, error) {
	return sp.dynamicCall(ctx, []string{endpoint}, index, method, args)
}

// InvokeTyped invokes a method with statically typed arguments and
// results — the generated-stub fast path. fingerprint guards against stub
// and implementation drifting apart; resultTypes lists the method's
// non-error results. The returned error follows the Call conventions.
func (r *Ref) InvokeTyped(method string, fingerprint uint64, args []reflect.Value, resultTypes []reflect.Type) ([]reflect.Value, error) {
	return r.InvokeTypedCtx(context.Background(), method, fingerprint, args, resultTypes)
}

// InvokeTypedCtx is InvokeTyped under a caller-supplied context, with
// the CallCtx deadline and cancellation semantics. Generated stubs whose
// interface methods take a leading context.Context route through here.
func (r *Ref) InvokeTypedCtx(ctx context.Context, method string, fingerprint uint64, args []reflect.Value, resultTypes []reflect.Type) ([]reflect.Value, error) {
	sp := r.sp
	if r.IsOwner() {
		return sp.localTypedCall(ctx, r.concrete, method, fingerprint, args)
	}
	if _, err := sp.imports.Use(r.key); err != nil {
		return nil, err
	}
	session := sp.getCallSession()
	defer func() {
		session.unpinAll()
		session.recycle()
	}()
	// Borrowed, as in dynamicCall: callRemote sends before it returns.
	abp := wire.GetBuf()
	argBytes, argSegs, err := sp.pickler.MarshalBorrowed((*abp)[:0], args, session)
	if argBytes != nil {
		*abp = argBytes
	}
	defer wire.PutBuf(abp)
	if err != nil {
		return nil, fmt.Errorf("netobjects: marshaling arguments for %s: %w", method, err)
	}
	call := callPool.Get().(*wire.Call)
	call.Obj, call.Method, call.Fingerprint = r.key.Index, method, fingerprint
	call.Typed, call.Args, call.ArgSegs = true, argBytes, argSegs
	defer putCall(call)
	dec := sp.getDecoder(method, session, true, resultTypes)
	defer putDecoder(dec)
	if err := sp.callRemote(ctx, nil, r.endpoints, call, session, dec); err != nil {
		return nil, err
	}
	return dec.tvals, dec.appErr
}
