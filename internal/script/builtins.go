package script

import (
	"errors"
	"maps"
	"math"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// The standard library is built once per console as a frozen root Env
// (Library) that every script of a host reads through its own top
// scope. All natives here are built with Func, the CtxFunc constructor.

// Console collects script log output (console.log / log builtin). It
// is safe for concurrent use.
type Console struct {
	mu    sync.Mutex
	lines []string
}

// Log appends a line.
func (c *Console) Log(line string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lines = append(c.lines, line)
}

// Lines returns a copy of the logged lines.
func (c *Console) Lines() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.lines))
	copy(out, c.lines)
	return out
}

// consoleHost exposes console.log to scripts.
type consoleHost struct {
	c   *Console
	log CtxFunc
}

var _ HostObject = (*consoleHost)(nil)

func (h *consoleHost) HostName() string { return "Console" }

func (h *consoleHost) HostGet(name string) (Value, error) {
	if name == "log" {
		return h.log, nil
	}
	return nil, nil
}

func (h *consoleHost) HostMethod(string) NativeMethod { return nil }

func (h *consoleHost) HostSet(name string, v Value) error {
	return errors.New("console is read-only")
}

func logFunc(c *Console) CtxFunc {
	return Func("log", func(_ *Ctx, args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = ToString(a)
		}
		c.Log(strings.Join(parts, " "))
		return nil, nil
	})
}

// The console-independent natives are built once at package init.
var (
	mathMembers = map[string]Value{
		"floor": num1("Math.floor", math.Floor),
		"ceil":  num1("Math.ceil", math.Ceil),
		"abs":   num1("Math.abs", math.Abs),
		"max":   numFold("Math.max", math.Inf(-1), math.Max),
		"min":   numFold("Math.min", math.Inf(1), math.Min),
	}

	stringFn = Func("String", func(_ *Ctx, args []Value) (Value, error) {
		if len(args) == 0 {
			return "", nil
		}
		return ToString(args[0]), nil
	})

	numberFn = Func("Number", func(_ *Ctx, args []Value) (Value, error) {
		if len(args) == 0 {
			return float64(0), nil
		}
		switch v := args[0].(type) {
		case float64:
			return v, nil
		case string:
			n, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return math.NaN(), nil
			}
			return n, nil
		case bool:
			if v {
				return float64(1), nil
			}
			return float64(0), nil
		default:
			return math.NaN(), nil
		}
	})

	parseIntFn = Func("parseInt", func(_ *Ctx, args []Value) (Value, error) {
		if len(args) == 0 {
			return math.NaN(), nil
		}
		s := strings.TrimSpace(ToString(args[0]))
		end := 0
		for end < len(s) && (s[end] >= '0' && s[end] <= '9' || (end == 0 && (s[end] == '-' || s[end] == '+'))) {
			end++
		}
		n, err := strconv.ParseInt(s[:end], 10, 64)
		if err != nil {
			return math.NaN(), nil
		}
		return float64(n), nil
	})

	isNaNFn = Func("isNaN", func(_ *Ctx, args []Value) (Value, error) {
		if len(args) == 0 {
			return true, nil
		}
		n, ok := args[0].(float64)
		return !ok || math.IsNaN(n), nil
	})

	encodeURIFn = Func("encodeURIComponent", func(_ *Ctx, args []Value) (Value, error) {
		if len(args) == 0 {
			return "", nil
		}
		return url.QueryEscape(ToString(args[0])), nil
	})

	decodeURIFn = Func("decodeURIComponent", func(_ *Ctx, args []Value) (Value, error) {
		if len(args) == 0 {
			return "", nil
		}
		s, err := url.QueryUnescape(ToString(args[0]))
		if err != nil {
			return ToString(args[0]), nil
		}
		return s, nil
	})

	attemptFn = Func("attempt", func(ctx *Ctx, args []Value) (Value, error) {
		if len(args) == 0 {
			return false, nil
		}
		_, err := ctx.Call(args[0], args[1:]...)
		if err != nil && errors.Is(err, ErrTooManySteps) {
			// Fuel exhaustion is the interpreter's verdict, not the
			// probe's: attempt must not swallow it.
			return nil, err
		}
		return err == nil, nil
	})
)

// Library builds the standard library as a frozen root Env: console
// and its bare log alias (both writing to c), the Math object (floor,
// ceil, abs, max, min), String, Number, parseInt, isNaN,
// encodeURIComponent, decodeURIComponent, and attempt(fn, args...).
// attempt runs fn swallowing any error and returns whether it
// succeeded; attack scripts use it to probe several vectors in one run
// even when the monitor denies the earlier ones. Its callback runs
// through Ctx.Call, so a looping callback cannot escape MaxSteps by
// hiding inside a native call.
//
// A host builds the library once per console and runs each script in
// its own Scope over it.
func Library(c *Console) *Env {
	log := logFunc(c)
	return &Env{frozen: true, vars: map[string]Value{
		"console":            &consoleHost{c: c, log: log},
		"log":                log,
		"Math":               &Object{Props: maps.Clone(mathMembers)},
		"String":             stringFn,
		"Number":             numberFn,
		"parseInt":           parseIntFn,
		"isNaN":              isNaNFn,
		"encodeURIComponent": encodeURIFn,
		"decodeURIComponent": decodeURIFn,
		"attempt":            attemptFn,
	}}
}

// StdEnv returns a script's top scope over a fresh library writing to
// console, with no host globals.
func StdEnv(console *Console) *Env { return Library(console).Scope(nil) }

func num1(name string, f func(float64) float64) CtxFunc {
	return Func(name, func(_ *Ctx, args []Value) (Value, error) {
		if len(args) == 0 {
			return math.NaN(), nil
		}
		n, ok := args[0].(float64)
		if !ok {
			return math.NaN(), nil
		}
		return f(n), nil
	})
}

func numFold(name string, init float64, f func(a, b float64) float64) CtxFunc {
	return Func(name, func(_ *Ctx, args []Value) (Value, error) {
		acc := init
		for _, a := range args {
			n, ok := a.(float64)
			if !ok {
				return math.NaN(), nil
			}
			acc = f(acc, n)
		}
		return acc, nil
	})
}
