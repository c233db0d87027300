package script

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Value is a runtime value: nil (null), float64, string, bool,
// *Object, *Array, *Closure, CtxFunc, or a HostObject.
type Value any

// Object is a script object (property map).
type Object struct {
	Props map[string]Value
}

// NewObject returns an empty object.
func NewObject() *Object { return &Object{Props: map[string]Value{}} }

// Array is a script array.
type Array struct {
	Elems []Value
}

// Closure is a user-defined function with its captured environment.
type Closure struct {
	Fn  *FuncLit
	Env *Env
}

// HostObject is a browser-provided object whose property reads,
// writes, and method calls run native Go code — this is where DOM,
// cookie, and XHR mediation hooks in.
type HostObject interface {
	// HostGet reads a property; it may return a CtxFunc. A nil value
	// with no error means the object has no such property, and a read
	// then yields the method of that name, bound to the object.
	HostGet(name string) (Value, error)
	// HostMethod returns the object's method of that name, or nil. A
	// call x.m(args) looks m up here first, before evaluating the
	// arguments, and calls it with x as the receiver, so the call
	// builds no function value; a nil method falls back to HostGet.
	HostMethod(name string) NativeMethod
	// HostSet writes a property.
	HostSet(name string, v Value) error
	// HostName names the object for error messages and typeof.
	HostName() string
}

// RuntimeError is a script execution failure. Unwrap exposes the
// underlying cause so security denials (e.g. *dom.DeniedError) remain
// detectable with errors.As through the script boundary.
type RuntimeError struct {
	Line int
	Msg  string
	Err  error // optional cause
}

// Error implements error.
func (e *RuntimeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("script: line %d: %s: %v", e.Line, e.Msg, e.Err)
	}
	return fmt.Sprintf("script: line %d: %s", e.Line, e.Msg)
}

// Unwrap exposes the cause.
func (e *RuntimeError) Unwrap() error { return e.Err }

// ErrTooManySteps reports a script exceeding its step budget.
var ErrTooManySteps = errors.New("script: step budget exceeded")

// control-flow signals, implemented as sentinel errors inside the
// evaluator and never escaping Run.
type returnSignal struct{ v Value }
type breakSignal struct{}
type continueSignal struct{}

func (returnSignal) Error() string   { return "return outside function" }
func (breakSignal) Error() string    { return "break outside loop" }
func (continueSignal) Error() string { return "continue outside loop" }

// as finds the first error of type T in err's chain, following
// Unwrap() error and Unwrap() []error as errors.As does. It matches by
// type assertion, so unlike errors.As no target escapes to the heap;
// it does not consult As methods, which no error the interpreter
// matches defines.
func as[T error](err error) (T, bool) {
	for err != nil {
		if t, ok := err.(T); ok {
			return t, true
		}
		switch u := err.(type) {
		case interface{ Unwrap() error }:
			err = u.Unwrap()
		case interface{ Unwrap() []error }:
			for _, e := range u.Unwrap() {
				if t, ok := as[T](e); ok {
					return t, true
				}
			}
			err = nil
		default:
			err = nil
		}
	}
	var zero T
	return zero, false
}

// Env is a lexical scope. A script runs in its own top scope (Scope)
// over a frozen library root (Library) that many scripts share: the
// script reads the library but never writes it. Declarations,
// undeclared assignments and rebound library names all land in the top
// scope, and a library object (Math) is copied into the top scope on
// its first read, so every script starts from the pristine library.
//
// A scope keeps its first inlineBindings names in binds and spills the
// rest into vars, so a scope of a few names allocates no map. The
// library root keeps every binding in vars.
type Env struct {
	binds  [inlineBindings]binding
	vars   map[string]Value
	parent *Env
	// host resolves the host's globals for a top scope (nil for none).
	host Globals
	// n counts the bindings in binds.
	n uint8
	// frozen marks a library root.
	frozen bool
}

// inlineBindings is how many names a scope holds without a map.
const inlineBindings = 4

type binding struct {
	name string
	v    Value
}

// Globals resolves host-provided global names (the browser's document,
// window, ...) for one script. The top scope asks on the first lookup
// of a name it does not hold and keeps the answer, so each global is
// built at most once per script, and only if the script reads it.
type Globals interface {
	Global(name string) (Value, bool)
}

// Scope opens a script's top scope over the library root e, resolving
// host globals through host (nil for none).
func (e *Env) Scope(host Globals) *Env { return e.ScopeIn(new(Env), host) }

// ScopeIn is Scope in storage the caller owns: it resets top to an
// empty scope over e and returns it.
func (e *Env) ScopeIn(top *Env, host Globals) *Env {
	*top = Env{parent: e, host: host}
	return top
}

// child opens a nested scope.
func (e *Env) child() *Env { return &Env{parent: e} }

// blockScope is the scope a block runs in: a child of env if the block
// declares a name, else env itself. Nothing else binds in a block's
// scope (undeclared assignments land in the top scope), so a child
// would stay empty, and an if branch or loop body that declares
// nothing opens no scope.
func blockScope(body []Stmt, env *Env) *Env {
	for _, s := range body {
		switch s.(type) {
		case *VarStmt, *VarListStmt, *FuncDeclStmt:
			return env.child()
		}
	}
	return env
}

// lookup reads name from this scope alone.
func (e *Env) lookup(name string) (Value, bool) {
	for i := range e.n {
		if e.binds[i].name == name {
			return e.binds[i].v, true
		}
	}
	v, ok := e.vars[name]
	return v, ok
}

// set overwrites name in this scope alone, reporting whether it was
// bound here.
func (e *Env) set(name string, v Value) bool {
	for i := range e.n {
		if e.binds[i].name == name {
			e.binds[i].v = v
			return true
		}
	}
	if _, ok := e.vars[name]; ok {
		e.vars[name] = v
		return true
	}
	return false
}

// Define binds a name in this scope. Defining into a frozen library
// is a host bug and panics.
func (e *Env) Define(name string, v Value) {
	if e.frozen {
		panic("script: define " + name + " in a frozen library")
	}
	if e.set(name, v) {
		return
	}
	if int(e.n) < len(e.binds) {
		e.binds[e.n] = binding{name: name, v: v}
		e.n++
		return
	}
	if e.vars == nil {
		e.vars = make(map[string]Value)
	}
	e.vars[name] = v
}

// Get reads a variable: from the nearest scope holding it, else from
// the host's globals, else from the library. A library object read
// from a script's scope is first copied into its top scope.
func (e *Env) Get(name string) (Value, bool) {
	var top *Env
	for s := e; s != nil; s = s.parent {
		if v, ok := s.lookup(name); ok {
			if o, isObj := v.(*Object); isObj && s.frozen && top != nil {
				v = &Object{Props: maps.Clone(o.Props)}
				top.Define(name, v)
			}
			return v, true
		}
		if s.host != nil {
			if v, ok := s.host.Global(name); ok {
				s.Define(name, v)
				return v, true
			}
		}
		if !s.frozen {
			top = s
		}
	}
	return nil, false
}

// assign writes an existing variable of the script's own scopes, or
// defines it in the top scope: JS global semantics for undeclared
// assignment, with the library and host globals shadowed instead of
// written.
func (e *Env) assign(name string, v Value) {
	s := e
	for !s.set(name, v) {
		if s.parent == nil || s.parent.frozen {
			s.Define(name, v)
			return
		}
		s = s.parent
	}
}

// Interp executes programs against an environment.
type Interp struct {
	// MaxSteps bounds execution; 0 means the default (1e6).
	MaxSteps int
	steps    int
	// ctx is the one call context every native of a run receives.
	// callNative sets its line for the call and restores the caller's
	// afterwards, so a native re-entered through Ctx.Call still
	// reports its own call site.
	ctx Ctx
}

// defaultMaxSteps bounds runaway scripts.
const defaultMaxSteps = 1_000_000

// Run executes the program in env. It returns the value of the last
// expression statement, mirroring a REPL, which makes assertions in
// tests and examples convenient.
func (ip *Interp) Run(prog *Program, env *Env) (Value, error) {
	if ip.MaxSteps == 0 {
		ip.MaxSteps = defaultMaxSteps
	}
	ip.steps = 0
	ip.ctx.ip = ip
	v, err := ip.execBlock(prog.Body, env)
	if err != nil {
		if rs, ok := as[returnSignal](err); ok {
			return rs.v, nil // top-level return is tolerated
		}
		return nil, err
	}
	return v, nil
}

// RunSource parses and executes source in env.
func (ip *Interp) RunSource(src string, env *Env) (Value, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return ip.Run(prog, env)
}

// tick charges one execution step.
func (ip *Interp) tick(line int) error {
	ip.steps++
	if ip.steps > ip.MaxSteps {
		return &RuntimeError{Line: line, Msg: "infinite loop guard", Err: ErrTooManySteps}
	}
	return nil
}

// Steps reports the fuel consumed by the last Run.
func (ip *Interp) Steps() int { return ip.steps }

// execBlock runs statements, returning the last expression value.
func (ip *Interp) execBlock(body []Stmt, env *Env) (Value, error) {
	var last Value
	for _, s := range body {
		v, err := ip.exec(s, env)
		if err != nil {
			return nil, err
		}
		last = v
	}
	return last, nil
}

// exec runs one statement.
func (ip *Interp) exec(s Stmt, env *Env) (Value, error) {
	switch st := s.(type) {
	case *VarStmt:
		if err := ip.tick(st.Line); err != nil {
			return nil, err
		}
		var v Value
		if st.Init != nil {
			var err error
			v, err = ip.eval(st.Init, env)
			if err != nil {
				return nil, err
			}
		}
		env.Define(st.Name, v)
		return nil, nil
	case *VarListStmt:
		for _, d := range st.Decls {
			if _, err := ip.exec(d, env); err != nil {
				return nil, err
			}
		}
		return nil, nil
	case *FuncDeclStmt:
		env.Define(st.Name, &Closure{Fn: st.Fn, Env: env})
		return nil, nil
	case *ExprStmt:
		return ip.eval(st.X, env)
	case *IfStmt:
		if err := ip.tick(st.Line); err != nil {
			return nil, err
		}
		cond, err := ip.eval(st.Cond, env)
		if err != nil {
			return nil, err
		}
		if Truthy(cond) {
			return ip.execBlock(st.Then, blockScope(st.Then, env))
		}
		if st.Else != nil {
			return ip.execBlock(st.Else, blockScope(st.Else, env))
		}
		return nil, nil
	case *WhileStmt:
		for {
			if err := ip.tick(st.Line); err != nil {
				return nil, err
			}
			cond, err := ip.eval(st.Cond, env)
			if err != nil {
				return nil, err
			}
			if !Truthy(cond) {
				return nil, nil
			}
			if _, err := ip.execBlock(st.Body, blockScope(st.Body, env)); err != nil {
				if _, ok := as[breakSignal](err); ok {
					return nil, nil
				}
				if _, ok := as[continueSignal](err); ok {
					continue
				}
				return nil, err
			}
		}
	case *ForStmt:
		scope := env.child()
		if st.Init != nil {
			if _, err := ip.exec(st.Init, scope); err != nil {
				return nil, err
			}
		}
		for {
			if err := ip.tick(st.Line); err != nil {
				return nil, err
			}
			if st.Cond != nil {
				cond, err := ip.eval(st.Cond, scope)
				if err != nil {
					return nil, err
				}
				if !Truthy(cond) {
					return nil, nil
				}
			}
			if _, err := ip.execBlock(st.Body, blockScope(st.Body, scope)); err != nil {
				if _, ok := as[breakSignal](err); ok {
					return nil, nil
				}
				if _, ok := as[continueSignal](err); !ok {
					return nil, err
				}
			}
			if st.Post != nil {
				if _, err := ip.exec(st.Post, scope); err != nil {
					return nil, err
				}
			}
		}
	case *ReturnStmt:
		var v Value
		if st.X != nil {
			var err error
			v, err = ip.eval(st.X, env)
			if err != nil {
				return nil, err
			}
		}
		return nil, returnSignal{v: v}
	case *BreakStmt:
		return nil, breakSignal{}
	case *ContinueStmt:
		return nil, continueSignal{}
	case *BlockStmt:
		return ip.execBlock(st.Body, blockScope(st.Body, env))
	default:
		return nil, fmt.Errorf("script: unknown statement %T", s)
	}
}

// eval evaluates one expression.
func (ip *Interp) eval(x Expr, env *Env) (Value, error) {
	switch e := x.(type) {
	case *litValue:
		return e.v, nil
	case *BoolLit:
		return e.Value, nil
	case *NullLit:
		return nil, nil
	case *Ident:
		if err := ip.tick(e.Line); err != nil {
			return nil, err
		}
		v, ok := env.Get(e.Name)
		if !ok {
			return nil, &RuntimeError{Line: e.Line, Msg: fmt.Sprintf("undefined variable %q", e.Name)}
		}
		return v, nil
	case *UnaryExpr:
		v, err := ip.eval(e.X, env)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "!":
			return !Truthy(v), nil
		case "-":
			n, ok := v.(float64)
			if !ok {
				return nil, &RuntimeError{Line: e.Line, Msg: "unary - on non-number"}
			}
			return -n, nil
		case "typeof":
			return TypeOf(v), nil
		}
		return nil, &RuntimeError{Line: e.Line, Msg: "unknown unary " + e.Op}
	case *BinaryExpr:
		return ip.evalBinary(e, env)
	case *CondExpr:
		c, err := ip.eval(e.Cond, env)
		if err != nil {
			return nil, err
		}
		if Truthy(c) {
			return ip.eval(e.Then, env)
		}
		return ip.eval(e.Else, env)
	case *AssignExpr:
		return ip.evalAssign(e, env)
	case *ObjectLit:
		obj := NewObject()
		for i, k := range e.Keys {
			v, err := ip.eval(e.Values[i], env)
			if err != nil {
				return nil, err
			}
			obj.Props[k] = v
		}
		return obj, nil
	case *ArrayLit:
		arr := &Array{}
		for _, el := range e.Elems {
			v, err := ip.eval(el, env)
			if err != nil {
				return nil, err
			}
			arr.Elems = append(arr.Elems, v)
		}
		return arr, nil
	case *FuncLit:
		return &Closure{Fn: e, Env: env}, nil
	case *MemberExpr:
		if err := ip.tick(e.Line); err != nil {
			return nil, err
		}
		recv, err := ip.eval(e.X, env)
		if err != nil {
			return nil, err
		}
		return ip.getMember(recv, e.Name, e.Line)
	case *IndexExpr:
		recv, err := ip.eval(e.X, env)
		if err != nil {
			return nil, err
		}
		idx, err := ip.eval(e.Index, env)
		if err != nil {
			return nil, err
		}
		return ip.getIndex(recv, idx, e.Line)
	case *CallExpr:
		return ip.evalCall(e, env)
	case *NewExpr:
		fn, err := ip.eval(e.Fn, env)
		if err != nil {
			return nil, err
		}
		args, err := ip.evalArgs(e.Args, env)
		if err != nil {
			return nil, err
		}
		return ip.callValue(fn, args, e.Line)
	default:
		return nil, fmt.Errorf("script: unknown expression %T", x)
	}
}

// evalBinary evaluates binary operators with short-circuiting for &&
// and ||.
func (ip *Interp) evalBinary(e *BinaryExpr, env *Env) (Value, error) {
	if err := ip.tick(e.Line); err != nil {
		return nil, err
	}
	switch e.Op {
	case "&&":
		l, err := ip.eval(e.L, env)
		if err != nil {
			return nil, err
		}
		if !Truthy(l) {
			return l, nil
		}
		return ip.eval(e.R, env)
	case "||":
		l, err := ip.eval(e.L, env)
		if err != nil {
			return nil, err
		}
		if Truthy(l) {
			return l, nil
		}
		return ip.eval(e.R, env)
	}
	l, err := ip.eval(e.L, env)
	if err != nil {
		return nil, err
	}
	r, err := ip.eval(e.R, env)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case "+":
		if ls, ok := l.(string); ok {
			return ls + ToString(r), nil
		}
		if rs, ok := r.(string); ok {
			return ToString(l) + rs, nil
		}
		ln, lok := l.(float64)
		rn, rok := r.(float64)
		if lok && rok {
			return ln + rn, nil
		}
		return ToString(l) + ToString(r), nil
	case "-", "*", "/", "%":
		ln, lok := l.(float64)
		rn, rok := r.(float64)
		if !lok || !rok {
			return nil, &RuntimeError{Line: e.Line, Msg: fmt.Sprintf("operator %s needs numbers", e.Op)}
		}
		switch e.Op {
		case "-":
			return ln - rn, nil
		case "*":
			return ln * rn, nil
		case "/":
			return ln / rn, nil
		default:
			return math.Mod(ln, rn), nil
		}
	case "==":
		return Equals(l, r), nil
	case "!=":
		return !Equals(l, r), nil
	case "<", ">", "<=", ">=":
		if ls, lok := l.(string); lok {
			rs, rok := r.(string)
			if !rok {
				return nil, &RuntimeError{Line: e.Line, Msg: "comparing string with non-string"}
			}
			return compareOrdered(e.Op, strings.Compare(ls, rs)), nil
		}
		ln, lok := l.(float64)
		rn, rok := r.(float64)
		if !lok || !rok {
			return nil, &RuntimeError{Line: e.Line, Msg: "comparison needs numbers or strings"}
		}
		switch {
		case ln < rn:
			return compareOrdered(e.Op, -1), nil
		case ln > rn:
			return compareOrdered(e.Op, 1), nil
		default:
			return compareOrdered(e.Op, 0), nil
		}
	}
	return nil, &RuntimeError{Line: e.Line, Msg: "unknown operator " + e.Op}
}

func compareOrdered(op string, cmp int) bool {
	switch op {
	case "<":
		return cmp < 0
	case ">":
		return cmp > 0
	case "<=":
		return cmp <= 0
	default:
		return cmp >= 0
	}
}

// evalAssign handles =, +=, -=, *=, /= on all three target shapes.
func (ip *Interp) evalAssign(e *AssignExpr, env *Env) (Value, error) {
	if err := ip.tick(e.Line); err != nil {
		return nil, err
	}
	value, err := ip.eval(e.Value, env)
	if err != nil {
		return nil, err
	}
	apply := func(old Value) (Value, error) {
		if e.Op == "=" {
			return value, nil
		}
		bin := &BinaryExpr{Op: strings.TrimSuffix(e.Op, "="), Line: e.Line,
			L: &litValue{v: old}, R: &litValue{v: value}}
		return ip.evalBinary(bin, env)
	}
	switch t := e.Target.(type) {
	case *Ident:
		var old Value
		if e.Op != "=" {
			var ok bool
			old, ok = env.Get(t.Name)
			if !ok {
				return nil, &RuntimeError{Line: e.Line, Msg: fmt.Sprintf("undefined variable %q", t.Name)}
			}
		}
		nv, err := apply(old)
		if err != nil {
			return nil, err
		}
		env.assign(t.Name, nv)
		return nv, nil
	case *MemberExpr:
		recv, err := ip.eval(t.X, env)
		if err != nil {
			return nil, err
		}
		var old Value
		if e.Op != "=" {
			old, err = ip.getMember(recv, t.Name, e.Line)
			if err != nil {
				return nil, err
			}
		}
		nv, err := apply(old)
		if err != nil {
			return nil, err
		}
		if err := ip.setMember(recv, t.Name, nv, e.Line); err != nil {
			return nil, err
		}
		return nv, nil
	case *IndexExpr:
		recv, err := ip.eval(t.X, env)
		if err != nil {
			return nil, err
		}
		idx, err := ip.eval(t.Index, env)
		if err != nil {
			return nil, err
		}
		var old Value
		if e.Op != "=" {
			old, err = ip.getIndex(recv, idx, e.Line)
			if err != nil {
				return nil, err
			}
		}
		nv, err := apply(old)
		if err != nil {
			return nil, err
		}
		if err := ip.setIndex(recv, idx, nv, e.Line); err != nil {
			return nil, err
		}
		return nv, nil
	}
	return nil, &RuntimeError{Line: e.Line, Msg: "bad assignment target"}
}

// evalCall evaluates a function or method call. A method call on a
// host object with a method of that name (HostMethod) calls it with
// its receiver, building no function value; any other method resolves
// through getMember.
func (ip *Interp) evalCall(e *CallExpr, env *Env) (Value, error) {
	if err := ip.tick(e.Line); err != nil {
		return nil, err
	}
	var fn Value
	var err error
	if m, ok := e.Fn.(*MemberExpr); ok {
		if err := ip.tick(m.Line); err != nil {
			return nil, err
		}
		var recv Value
		if recv, err = ip.eval(m.X, env); err != nil {
			return nil, err
		}
		if h, ok := recv.(HostObject); ok {
			if method := h.HostMethod(m.Name); method != nil {
				args, err := ip.evalArgs(e.Args, env)
				if err != nil {
					return nil, err
				}
				return ip.callNative(e.Line, func(ctx *Ctx) (Value, error) { return method(h, ctx, args) })
			}
		}
		fn, err = ip.getMember(recv, m.Name, m.Line)
	} else {
		fn, err = ip.eval(e.Fn, env)
	}
	if err != nil {
		return nil, err
	}
	args, err := ip.evalArgs(e.Args, env)
	if err != nil {
		return nil, err
	}
	return ip.callValue(fn, args, e.Line)
}

func (ip *Interp) evalArgs(exprs []Expr, env *Env) ([]Value, error) {
	args := make([]Value, 0, len(exprs))
	for _, a := range exprs {
		v, err := ip.eval(a, env)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return args, nil
}

// callValue invokes closures and native functions.
func (ip *Interp) callValue(fn Value, args []Value, line int) (Value, error) {
	switch f := fn.(type) {
	case *Closure:
		scope := f.Env.child()
		for i, p := range f.Fn.Params {
			if i < len(args) {
				scope.Define(p, args[i])
			} else {
				scope.Define(p, nil)
			}
		}
		scope.Define("arguments", &Array{Elems: args})
		_, err := ip.execBlock(f.Fn.Body, scope)
		if err != nil {
			if rs, ok := as[returnSignal](err); ok {
				return rs.v, nil
			}
			return nil, err
		}
		return nil, nil
	case CtxFunc:
		return ip.callNative(line, func(ctx *Ctx) (Value, error) { return f(ctx, args) })
	default:
		return nil, &RuntimeError{Line: line, Msg: fmt.Sprintf("%s is not a function", TypeOf(fn))}
	}
}

// callNative runs a native call made at line with the interpreter's
// call context, restoring the caller's line afterwards. A failure that
// is not already a script exception becomes one at line.
func (ip *Interp) callNative(line int, call func(*Ctx) (Value, error)) (Value, error) {
	caller := ip.ctx.line
	ip.ctx.line = line
	v, err := call(&ip.ctx)
	ip.ctx.line = caller
	if err != nil {
		if _, ok := as[*RuntimeError](err); ok {
			return nil, err
		}
		return nil, &RuntimeError{Line: line, Msg: "native call failed", Err: err}
	}
	return v, nil
}

// getMember reads obj.name for every receiver shape.
func (ip *Interp) getMember(recv Value, name string, line int) (Value, error) {
	switch r := recv.(type) {
	case HostObject:
		v, err := r.HostGet(name)
		if err != nil {
			return nil, &RuntimeError{Line: line, Msg: fmt.Sprintf("%s.%s", r.HostName(), name), Err: err}
		}
		if v == nil {
			if m := r.HostMethod(name); m != nil {
				return m.Bind(r), nil
			}
		}
		return v, nil
	case *Object:
		return r.Props[name], nil
	case *Array:
		return arrayMember(r, name), nil
	case string:
		return stringMember(r, name), nil
	case nil:
		return nil, &RuntimeError{Line: line, Msg: fmt.Sprintf("cannot read %q of null", name)}
	}
	return nil, &RuntimeError{Line: line, Msg: fmt.Sprintf("cannot read %q of %s", name, TypeOf(recv))}
}

// arrayMember implements array properties and methods.
func arrayMember(r *Array, name string) Value {
	switch name {
	case "length":
		return float64(len(r.Elems))
	case "push":
		return CtxFunc(func(_ *Ctx, args []Value) (Value, error) {
			r.Elems = append(r.Elems, args...)
			return float64(len(r.Elems)), nil
		})
	case "join":
		return CtxFunc(func(_ *Ctx, args []Value) (Value, error) {
			sep := ","
			if len(args) > 0 {
				sep = ToString(args[0])
			}
			parts := make([]string, len(r.Elems))
			for i, el := range r.Elems {
				parts[i] = ToString(el)
			}
			return strings.Join(parts, sep), nil
		})
	}
	return nil
}

// stringMember implements string properties and methods.
func stringMember(s, name string) Value {
	switch name {
	case "length":
		return float64(len(s))
	case "indexOf":
		return CtxFunc(func(_ *Ctx, args []Value) (Value, error) {
			if len(args) == 0 {
				return float64(-1), nil
			}
			return float64(strings.Index(s, ToString(args[0]))), nil
		})
	case "substring":
		return CtxFunc(func(_ *Ctx, args []Value) (Value, error) {
			start, end := 0, len(s)
			if len(args) > 0 {
				if n, ok := args[0].(float64); ok {
					start = clampIndex(int(n), len(s))
				}
			}
			if len(args) > 1 {
				if n, ok := args[1].(float64); ok {
					end = clampIndex(int(n), len(s))
				}
			}
			if start > end {
				start, end = end, start
			}
			return s[start:end], nil
		})
	case "split":
		return CtxFunc(func(_ *Ctx, args []Value) (Value, error) {
			if len(args) == 0 {
				return &Array{Elems: []Value{s}}, nil
			}
			parts := strings.Split(s, ToString(args[0]))
			arr := &Array{}
			for _, p := range parts {
				arr.Elems = append(arr.Elems, p)
			}
			return arr, nil
		})
	case "toUpperCase":
		return CtxFunc(func(*Ctx, []Value) (Value, error) { return strings.ToUpper(s), nil })
	case "toLowerCase":
		return CtxFunc(func(*Ctx, []Value) (Value, error) { return strings.ToLower(s), nil })
	case "replace":
		return CtxFunc(func(_ *Ctx, args []Value) (Value, error) {
			if len(args) < 2 {
				return s, nil
			}
			return strings.Replace(s, ToString(args[0]), ToString(args[1]), 1), nil
		})
	case "charAt":
		return CtxFunc(func(_ *Ctx, args []Value) (Value, error) {
			i := 0
			if len(args) > 0 {
				if n, ok := args[0].(float64); ok {
					i = int(n)
				}
			}
			if i < 0 || i >= len(s) {
				return "", nil
			}
			return string(s[i]), nil
		})
	default:
		return nil
	}
}

func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

// setMember writes obj.name.
func (ip *Interp) setMember(recv Value, name string, v Value, line int) error {
	switch r := recv.(type) {
	case HostObject:
		if err := r.HostSet(name, v); err != nil {
			return &RuntimeError{Line: line, Msg: fmt.Sprintf("%s.%s=", r.HostName(), name), Err: err}
		}
		return nil
	case *Object:
		r.Props[name] = v
		return nil
	case nil:
		return &RuntimeError{Line: line, Msg: fmt.Sprintf("cannot set %q of null", name)}
	}
	return &RuntimeError{Line: line, Msg: fmt.Sprintf("cannot set %q of %s", name, TypeOf(recv))}
}

// getIndex reads a[i].
func (ip *Interp) getIndex(recv, idx Value, line int) (Value, error) {
	switch r := recv.(type) {
	case *Array:
		n, ok := idx.(float64)
		if !ok {
			return nil, &RuntimeError{Line: line, Msg: "array index must be a number"}
		}
		i := int(n)
		if i < 0 || i >= len(r.Elems) {
			return nil, nil
		}
		return r.Elems[i], nil
	case *Object:
		return r.Props[ToString(idx)], nil
	case string:
		n, ok := idx.(float64)
		if !ok {
			return stringMember(r, ToString(idx)), nil
		}
		i := int(n)
		if i < 0 || i >= len(r) {
			return nil, nil
		}
		return string(r[i]), nil
	case HostObject:
		return ip.getMember(recv, ToString(idx), line)
	}
	return nil, &RuntimeError{Line: line, Msg: "cannot index " + TypeOf(recv)}
}

// setIndex writes a[i].
func (ip *Interp) setIndex(recv, idx, v Value, line int) error {
	switch r := recv.(type) {
	case *Array:
		n, ok := idx.(float64)
		if !ok {
			return &RuntimeError{Line: line, Msg: "array index must be a number"}
		}
		i := int(n)
		if i < 0 {
			return &RuntimeError{Line: line, Msg: "negative array index"}
		}
		for len(r.Elems) <= i {
			r.Elems = append(r.Elems, nil)
		}
		r.Elems[i] = v
		return nil
	case *Object:
		r.Props[ToString(idx)] = v
		return nil
	case HostObject:
		return ip.setMember(recv, ToString(idx), v, line)
	}
	return &RuntimeError{Line: line, Msg: "cannot index-assign " + TypeOf(recv)}
}

// Truthy implements JavaScript-like truthiness.
func Truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return x != ""
	default:
		return true
	}
}

// Equals implements strict-ish equality: same dynamic type and value;
// reference equality for objects, arrays, and functions.
func Equals(l, r Value) bool {
	if l == nil || r == nil {
		return l == nil && r == nil
	}
	switch a := l.(type) {
	case float64:
		b, ok := r.(float64)
		return ok && a == b
	case string:
		b, ok := r.(string)
		return ok && a == b
	case bool:
		b, ok := r.(bool)
		return ok && a == b
	default:
		return refEquals(l, r)
	}
}

// refEquals compares reference values: identity when the dynamic types
// match and are comparable, false otherwise (comparing two function
// values yields false rather than panicking).
func refEquals(l, r Value) bool {
	lt := reflect.TypeOf(l)
	if lt != reflect.TypeOf(r) || !lt.Comparable() {
		return false
	}
	return l == r
}

// TypeOf mirrors the typeof operator.
func TypeOf(v Value) string {
	switch v.(type) {
	case nil:
		return "null"
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "boolean"
	case *Closure, CtxFunc:
		return "function"
	case *Array:
		return "array"
	case *Object:
		return "object"
	case HostObject:
		return "object"
	default:
		return "unknown"
	}
}

// numString renders a number the way string concatenation does.
func numString(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return strconv.FormatInt(int64(x), 10)
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// maxToStringDepth bounds recursion through nested (possibly cyclic)
// arrays and objects.
const maxToStringDepth = 64

// ToString renders a value the way string concatenation does.
func ToString(v Value) string { return toStringDepth(v, 0) }

func toStringDepth(v Value, depth int) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case float64:
		return numString(x)
	case *Array:
		if depth >= maxToStringDepth {
			return "..."
		}
		parts := make([]string, len(x.Elems))
		for i, el := range x.Elems {
			parts[i] = toStringDepth(el, depth+1)
		}
		return strings.Join(parts, ",")
	case *Object:
		if depth >= maxToStringDepth {
			return "..."
		}
		keys := make([]string, 0, len(x.Props))
		for k := range x.Props {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString("{")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s: %s", k, toStringDepth(x.Props[k], depth+1))
		}
		b.WriteString("}")
		return b.String()
	case HostObject:
		return "[object " + x.HostName() + "]"
	case *Closure:
		return "[function]"
	case CtxFunc:
		return "[native function]"
	default:
		return fmt.Sprintf("%v", v)
	}
}
