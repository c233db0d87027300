package script

import (
	"errors"
	"fmt"
)

// Ctx is the call context handed to a CtxFunc. It carries the invoking
// interpreter, so callbacks into script (Call) share the caller's step
// budget instead of running unmetered.
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
			var re *RuntimeError
			if errors.As(err, &re) {
				return nil, err
			}
			return nil, &RuntimeError{Line: ctx.line, Msg: name, Err: err}
		}
		return v, nil
	}
}
