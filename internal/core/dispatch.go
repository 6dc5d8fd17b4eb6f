package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"netobjects/internal/wire"
)

// ctxType is the reflect type of context.Context, recognized as an
// optional leading method parameter.
var ctxType = reflect.TypeOf((*context.Context)(nil)).Elem()

// methodInfo is the dispatch record for one exported method, computed
// once per (concrete type, method name) and cached for the life of the
// process. fn is the method expression — receiver first — rather than a
// bound method value, because binding a receiver allocates on every
// call while a cached expression never does.
type methodInfo struct {
	fn      reflect.Value  // method expression: func(recv, [ctx,] args...)
	params  []reflect.Type // excluding receiver and a leading context.Context
	results []reflect.Type // excluding a trailing error
	hasCtx  bool
	hasErr  bool
}

// typeMethods is the resolved method map for one concrete type. Reads
// are lock-free (atomic snapshot of a copy-on-write map); resolving a
// new name copies the map under the mutex. Only successful resolutions
// are cached, so the map is bounded by the type's real method set — a
// peer spamming garbage names cannot grow it.
type typeMethods struct {
	mu      sync.Mutex
	methods atomic.Pointer[map[string]*methodInfo]
}

// methodCache maps reflect.Type -> *typeMethods.
var methodCache sync.Map

// lookupMethod resolves a method by name on obj and validates that it is
// remotely callable: exported, non-variadic, and with any error return in
// the final position only. A leading context.Context parameter never
// crosses the wire; the dispatcher supplies the serving context there, so
// the method observes the caller's cancellation and deadline. The hot
// path is two lock-free map lookups.
func lookupMethod(obj any, name string) (*methodInfo, error) {
	t := reflect.TypeOf(obj)
	tmAny, ok := methodCache.Load(t)
	if !ok {
		tmAny, _ = methodCache.LoadOrStore(t, new(typeMethods))
	}
	tm := tmAny.(*typeMethods)
	if m := tm.methods.Load(); m != nil {
		if mi, ok := (*m)[name]; ok {
			return mi, nil
		}
	}
	return tm.resolve(t, obj, name)
}

// resolve builds and publishes the dispatch record for one method name,
// copy-on-write so concurrent lookups never lock.
func (tm *typeMethods) resolve(t reflect.Type, obj any, name string) (*methodInfo, error) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if m := tm.methods.Load(); m != nil {
		if mi, ok := (*m)[name]; ok {
			return mi, nil
		}
	}
	mi, err := buildMethodInfo(t, obj, name)
	if err != nil {
		return nil, err
	}
	old := tm.methods.Load()
	var next map[string]*methodInfo
	if old != nil {
		next = make(map[string]*methodInfo, len(*old)+1)
		for k, v := range *old {
			next[k] = v
		}
	} else {
		next = make(map[string]*methodInfo, 4)
	}
	next[name] = mi
	tm.methods.Store(&next)
	return mi, nil
}

// buildMethodInfo reflects one method and validates its remote-call
// shape. The receiver is ft.In(0); an optional context.Context sits at
// ft.In(1).
func buildMethodInfo(t reflect.Type, obj any, name string) (*methodInfo, error) {
	m, ok := t.MethodByName(name)
	if !ok {
		return nil, fmt.Errorf("%w: %T has no method %s", ErrNoSuchMethod, obj, name)
	}
	ft := m.Func.Type()
	if ft.IsVariadic() {
		return nil, fmt.Errorf("%w: %s is variadic (unsupported remotely)", ErrNoSuchMethod, name)
	}
	mi := &methodInfo{fn: m.Func}
	for i := 1; i < ft.NumIn(); i++ {
		in := ft.In(i)
		if i == 1 && in == ctxType {
			mi.hasCtx = true
			continue
		}
		if in == ctxType {
			return nil, fmt.Errorf("%w: %s takes context.Context outside the first position", ErrNoSuchMethod, name)
		}
		mi.params = append(mi.params, in)
	}
	for i := 0; i < ft.NumOut(); i++ {
		out := ft.Out(i)
		if out == errorType {
			if i != ft.NumOut()-1 {
				return nil, fmt.Errorf("%w: %s returns error before the final position", ErrNoSuchMethod, name)
			}
			mi.hasErr = true
			continue
		}
		mi.results = append(mi.results, out)
	}
	return mi, nil
}

// argvPool recycles the call-frame slices invoke assembles; 12 slots
// cover receiver + context + a generous argument count without growth.
var argvPool = sync.Pool{New: func() any {
	s := make([]reflect.Value, 0, 12)
	return &s
}}

// invoke calls the method on recv with the given arguments under ctx,
// separating the trailing error (if declared) from the data results and
// converting a panic in the method into an error rather than tearing
// down the serving goroutine.
func (mi *methodInfo) invoke(ctx context.Context, recv reflect.Value, args []reflect.Value) (outs []reflect.Value, appErr error, runtimeErr error) {
	defer func() {
		if p := recover(); p != nil {
			outs, appErr = nil, nil
			runtimeErr = fmt.Errorf("netobjects: method panicked: %v\n%s", p, debug.Stack())
		}
	}()
	pv := argvPool.Get().(*[]reflect.Value)
	in := append((*pv)[:0], recv)
	if mi.hasCtx {
		in = append(in, reflect.ValueOf(ctx))
	}
	in = append(in, args...)
	rets := mi.fn.Call(in)
	// Zero the frame before pooling so it doesn't pin the receiver or
	// arguments of the last call.
	for i := range in {
		in[i] = reflect.Value{}
	}
	*pv = in[:0]
	argvPool.Put(pv)
	if mi.hasErr {
		if e := rets[len(rets)-1]; !e.IsNil() {
			appErr = e.Interface().(error)
		}
		rets = rets[:len(rets)-1]
	}
	return rets, appErr, nil
}

// localDynamicCall dispatches a dynamic call on a local concrete object —
// the owner calling through its own reference. No pickling happens, but
// arguments still pass through the same conversion rules as remote calls
// so local and remote behaviour agree.
func (sp *Space) localDynamicCall(ctx context.Context, obj any, method string, args []any) ([]any, error) {
	mi, err := lookupMethod(obj, method)
	if err != nil {
		return nil, err
	}
	argVals, err := sp.bindArgs(mi, method, args)
	if err != nil {
		return nil, err
	}
	outs, appErr, rerr := mi.invoke(ctx, reflect.ValueOf(obj), argVals)
	if rerr != nil {
		return nil, rerr
	}
	results := make([]any, len(outs))
	for i, o := range outs {
		results[i] = o.Interface()
	}
	return results, appErr
}

// bindArgs binds a dynamic call's decoded arguments to the parameters of
// method mi, with the conversions assignArg applies. A wrong count is
// ErrNoSuchMethod.
func (sp *Space) bindArgs(mi *methodInfo, method string, args []any) ([]reflect.Value, error) {
	if len(args) != len(mi.params) {
		return nil, fmt.Errorf("%w: %s takes %d arguments, got %d", ErrNoSuchMethod, method, len(mi.params), len(args))
	}
	vals := make([]reflect.Value, len(args))
	for i, a := range args {
		v, err := sp.assignArg(mi.params[i], a)
		if err != nil {
			return nil, fmt.Errorf("netobjects: binding argument %d of %s: %w", i, method, err)
		}
		vals[i] = v
	}
	return vals, nil
}

// localTypedCall dispatches a typed (stub) call on a local concrete
// object.
func (sp *Space) localTypedCall(ctx context.Context, obj any, method string, fingerprint uint64, args []reflect.Value) ([]reflect.Value, error) {
	if fingerprint != 0 && !acceptsFingerprint(sp, obj, fingerprint) {
		return nil, &CallError{Status: wire.StatusBadFingerprint,
			Msg: fmt.Sprintf("stub fingerprint %x not accepted by %T", fingerprint, obj)}
	}
	mi, err := lookupMethod(obj, method)
	if err != nil {
		return nil, err
	}
	if len(args) != len(mi.params) {
		return nil, fmt.Errorf("%w: %s takes %d arguments, got %d", ErrNoSuchMethod, method, len(mi.params), len(args))
	}
	outs, appErr, rerr := mi.invoke(ctx, reflect.ValueOf(obj), args)
	if rerr != nil {
		return nil, rerr
	}
	return outs, appErr
}
