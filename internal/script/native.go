package script

import "fmt"

// Ctx is the call context handed to a CtxFunc. It carries the invoking
// interpreter, so callbacks into script (Call) share the caller's step
// budget instead of running unmetered. An interpreter hands every
// native the same Ctx, holding the line of the call in flight, so a
// native must not keep it past its return.
type Ctx struct {
	ip   *Interp
	line int
}

// Line reports the script line of the call site.
func (c *Ctx) Line() int { return c.line }

// Call invokes a script value (closure or native) from inside a native
// function. The callee's execution charges the calling interpreter's
// fuel, which is what makes MaxSteps a real bound even across native
// re-entry.
func (c *Ctx) Call(fn Value, args ...Value) (Value, error) {
	if err := c.ip.tick(c.line); err != nil {
		return nil, err
	}
	return c.ip.callValue(fn, args, c.line)
}

// Errorf builds a script exception (a *RuntimeError) at the call site.
func (c *Ctx) Errorf(format string, a ...any) error {
	return &RuntimeError{Line: c.line, Msg: fmt.Sprintf(format, a...)}
}

// CtxFunc is a native function exposed to scripts. It receives a
// *Ctx, so calling back into script shares the interpreter's fuel and
// errors carry the call site.
type CtxFunc func(ctx *Ctx, args []Value) (Value, error)

// Func wraps a Go function as a named script value with error-as-value
// bridging: a returned Go error becomes a script exception (a
// *RuntimeError named after the function, observable to scripts via
// attempt()), and the cause stays reachable through errors.As — which
// is how security denials remain detectable across the FFI boundary.
func Func(name string, fn func(*Ctx, []Value) (Value, error)) CtxFunc {
	return func(ctx *Ctx, args []Value) (Value, error) {
		v, err := fn(ctx, args)
		if err != nil {
			return nil, ctx.named(name, err)
		}
		return v, nil
	}
}

// named turns a native's failure into a script exception named after
// the native, unless it already is one.
func (c *Ctx) named(name string, err error) error {
	if _, ok := as[*RuntimeError](err); ok {
		return err
	}
	return &RuntimeError{Line: c.line, Msg: name, Err: err}
}

// NativeMethod is a host object's method, called with its receiver.
type NativeMethod func(recv HostObject, ctx *Ctx, args []Value) (Value, error)

// Method wraps fn, written for receivers of type R, as a named
// NativeMethod with Func's error bridging. Build a method table once,
// at package level.
func Method[R HostObject](name string, fn func(recv R, ctx *Ctx, args []Value) (Value, error)) NativeMethod {
	return func(recv HostObject, ctx *Ctx, args []Value) (Value, error) {
		v, err := fn(recv.(R), ctx, args)
		if err != nil {
			return nil, ctx.named(name, err)
		}
		return v, nil
	}
}

// Bind returns m bound to recv as a function value, for a script that
// reads a method instead of calling it.
func (m NativeMethod) Bind(recv HostObject) CtxFunc {
	return func(ctx *Ctx, args []Value) (Value, error) { return m(recv, ctx, args) }
}
