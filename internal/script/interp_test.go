package script

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestNativeCallbackChargesFuel is the regression test for the
// MaxScriptSteps accounting fix: a native function that re-enters
// script (here recursively, native → script → native → ...) must burn
// the caller's budget and terminate with ErrTooManySteps instead of
// recursing forever inside one "step".
func TestNativeCallbackChargesFuel(t *testing.T) {
	src := `function f(g) { return reenter(g); } reenter(f);`
	mk := func() *Env {
		env := StdEnv(&Console{})
		env.Define("reenter", Func("reenter", func(ctx *Ctx, args []Value) (Value, error) {
			if len(args) == 0 {
				return nil, nil
			}
			return ctx.Call(args[0], args...)
		}))
		return env
	}
	ip := &Interp{MaxSteps: 2000}
	if _, err := ip.RunSource(src, mk()); !errors.Is(err, ErrTooManySteps) {
		t.Errorf("interp: err = %v, want ErrTooManySteps", err)
	}
}

// TestAttemptCannotSwallowFuelExhaustion: the attempt() probe shares
// the interpreter's budget and must propagate its exhaustion rather
// than reporting the callback as an ordinary failure.
func TestAttemptCannotSwallowFuelExhaustion(t *testing.T) {
	src := `attempt(function() { while (true) { } });`
	ip := &Interp{MaxSteps: 500}
	if _, err := ip.RunSource(src, StdEnv(&Console{})); !errors.Is(err, ErrTooManySteps) {
		t.Errorf("interp: err = %v, want ErrTooManySteps", err)
	}
}

// TestFuncErrorBridging: a Go error returned from a Func becomes a
// named script exception that attempt() observes as failure, with the
// cause still reachable via errors.As.
func TestFuncErrorBridging(t *testing.T) {
	sentinel := errors.New("denied by policy")
	mk := func() *Env {
		env := StdEnv(&Console{})
		env.Define("guarded", Func("guarded", func(ctx *Ctx, args []Value) (Value, error) {
			return nil, sentinel
		}))
		return env
	}
	_, err := (&Interp{}).RunSource(`guarded();`, mk())
	if err == nil || !errors.Is(err, sentinel) {
		t.Errorf("interp: err = %v, want wrapped sentinel", err)
	}
	var re *RuntimeError
	if !errors.As(err, &re) || re.Msg != "guarded" {
		t.Errorf("interp: err = %v, want RuntimeError named after the Func", err)
	}
	v, err := (&Interp{}).RunSource(`attempt(guarded) ? "ran" : "blocked";`, mk())
	if err != nil || !Equals(v, "blocked") {
		t.Errorf("interp: attempt over bridged error = %v, %v", v, err)
	}
}

// TestNestedNativeErrorLines: a native that calls back into script,
// where an inner native fails, still reports its own call line after
// the callback returns; the interpreter's one call context is restored
// around each native call.
func TestNestedNativeErrorLines(t *testing.T) {
	env := StdEnv(&Console{})
	env.Define("fail", Func("fail", func(*Ctx, []Value) (Value, error) {
		return nil, errors.New("inner")
	}))
	var inner error
	env.Define("outer", Func("outer", func(ctx *Ctx, args []Value) (Value, error) {
		_, inner = ctx.Call(args[0])
		return nil, errors.New("outer")
	}))
	src := "var f = function() {\n  fail();\n};\n\nouter(f);"
	_, err := (&Interp{}).RunSource(src, env)
	for _, c := range []struct {
		err  error
		msg  string
		line int
	}{{inner, "fail", 2}, {err, "outer", 5}} {
		var re *RuntimeError
		if !errors.As(c.err, &re) || re.Msg != c.msg || re.Line != c.line {
			t.Errorf("%s: err = %v, want the exception %q at line %d", c.msg, c.err, c.msg, c.line)
		}
	}
}

// A native failing with a script exception, wrapped with %w or inside
// errors.Join, passes it through unchanged, as errors.As finds it; any
// other failure becomes an exception named after the native.
func TestWrappedRuntimeErrorPassesThrough(t *testing.T) {
	thrown := &RuntimeError{Line: 9, Msg: "thrown"}
	plain := errors.New("plain")
	for _, c := range []struct {
		name string
		err  error
		pass bool
	}{
		{"bare", thrown, true},
		{"%w", fmt.Errorf("ctx: %w", thrown), true},
		{"join", errors.Join(plain, thrown), true},
		{"%w of join", fmt.Errorf("outer: %w", errors.Join(plain, fmt.Errorf("inner: %w", thrown))), true},
		{"plain", plain, false},
		{"%v", fmt.Errorf("ctx: %v", thrown), false},
		{"join of others", errors.Join(plain, errors.New("other")), false},
	} {
		var re *RuntimeError
		if _, ok := as[*RuntimeError](c.err); ok != c.pass || errors.As(c.err, &re) != c.pass {
			t.Errorf("%s: as finds a RuntimeError %v, errors.As %v, want %v", c.name, ok, errors.As(c.err, &re), c.pass)
		}
		env := StdEnv(&Console{})
		env.Define("fail", Func("fail", func(*Ctx, []Value) (Value, error) { return nil, c.err }))
		_, err := (&Interp{}).RunSource("\nfail();", env)
		if c.pass {
			if err != c.err {
				t.Errorf("%s: err = %v, want the native's error unchanged", c.name, err)
			}
			continue
		}
		if !errors.As(err, &re) || re.Msg != "fail" || re.Line != 2 || re.Err != c.err {
			t.Errorf("%s: err = %v, want the exception fail at line 2 wrapping the native's error", c.name, err)
		}
	}
}

func TestCompileCache(t *testing.T) {
	src := `var cache_probe_xyzzy = 1; cache_probe_xyzzy + 41;`
	h0, m0 := CompileCacheStats()
	c1, err := CompileCached(src)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CompileCached(src)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("second CompileCached returned a different program")
	}
	h1, m1 := CompileCacheStats()
	if h1 <= h0 || m1 <= m0 {
		t.Errorf("stats did not advance: hits %d→%d misses %d→%d", h0, h1, m0, m1)
	}
	v, err := (&Interp{}).Run(c1, StdEnv(&Console{}))
	if err != nil || !Equals(v, float64(42)) {
		t.Errorf("cached program run = %v, %v", v, err)
	}
	// Parse errors are returned, not cached as programs.
	if _, err := CompileCached(`var;`); err == nil {
		t.Error("want parse error")
	}
}

// TestCompiledReusableAcrossRuns: one cached Program, many
// interpreters and envs.
func TestCompiledReusableAcrossRuns(t *testing.T) {
	c, err := CompileCached(`var n = 0; for (var i = 0; i < 10; i++) { n += i; } n;`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		v, err := (&Interp{}).Run(c, StdEnv(&Console{}))
		if err != nil || !Equals(v, float64(45)) {
			t.Fatalf("run %d = %v, %v", i, v, err)
		}
	}
}

// TestVMStepBudget: the step budget holds on the page-script path, a
// shared cached Program run by Interp.Run, and every Run starts from a
// full budget. The name is from the compiled VM that used to run cached
// programs; TestStepBudget covers RunSource.
func TestVMStepBudget(t *testing.T) {
	loop, err := CompileCached(`while (true) { }`)
	if err != nil {
		t.Fatal(err)
	}
	ip := &Interp{MaxSteps: 1000}
	for i := 0; i < 2; i++ {
		if _, err := ip.Run(loop, StdEnv(&Console{})); !errors.Is(err, ErrTooManySteps) {
			t.Fatalf("run %d: err = %v, want ErrTooManySteps", i, err)
		}
		if got := ip.Steps(); got != 1001 {
			t.Errorf("run %d: Steps() = %d, want 1001 (the step past the budget)", i, got)
		}
	}
	v, err := ip.RunSource(`1 + 1;`, StdEnv(&Console{}))
	if err != nil || !Equals(v, float64(2)) {
		t.Errorf("run after exhaustion = %v, %v; want 2 on a fresh budget", v, err)
	}
}

func TestFunctionValues(t *testing.T) {
	v, err := (&Interp{}).RunSource(`var f = function(a) { return a + 1; }; typeof f + ":" + ("" + f) + ":" + f(1);`, StdEnv(&Console{}))
	if err != nil || !Equals(v, "function:[function]:2") {
		t.Errorf("got %v, %v", v, err)
	}
}

// TestEqualsUncomparable: comparing function values must return false,
// not panic (regression for the interface-comparison panic).
func TestEqualsUncomparable(t *testing.T) {
	nf := CtxFunc(func(*Ctx, []Value) (Value, error) { return nil, nil })
	if Equals(nf, nf) {
		t.Error("distinct evaluations of uncomparable values must compare false")
	}
	if got := run(t, `log == log;`); !Equals(got, false) {
		t.Errorf("log == log = %v", got)
	}
}

// TestToStringCycleGuard: self-referential structures render without
// overflowing the stack.
func TestToStringCycleGuard(t *testing.T) {
	a := &Array{}
	a.Elems = append(a.Elems, a)
	if got := ToString(a); !strings.Contains(got, "...") {
		t.Errorf("cyclic array ToString = %q", got)
	}
}
