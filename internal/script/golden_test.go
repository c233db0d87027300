package script

import (
	"slices"
	"testing"
)

// golden is one program's recorded outcome on the interpreter: the
// result (its ToString and TypeOf), the error text ("" on success),
// the console lines, and the step count.
type golden struct {
	src         string
	result, typ string
	err         string
	console     []string
	steps       int
}

func checkGolden(t *testing.T, cases []golden) {
	t.Helper()
	for _, c := range cases {
		con := &Console{}
		ip := &Interp{}
		v, err := ip.RunSource(c.src, StdEnv(con))
		errText := ""
		if err != nil {
			errText = err.Error()
		}
		if errText != c.err {
			t.Errorf("%q: err = %q, want %q", c.src, errText, c.err)
		}
		if got, typ := ToString(v), TypeOf(v); got != c.result || typ != c.typ {
			t.Errorf("%q: result %q (%s), want %q (%s)", c.src, got, typ, c.result, c.typ)
		}
		if lines := con.Lines(); !slices.Equal(lines, c.console) {
			t.Errorf("%q: console %q, want %q", c.src, lines, c.console)
		}
		if ip.Steps() != c.steps {
			t.Errorf("%q: steps %d, want %d", c.src, ip.Steps(), c.steps)
		}
	}
}

// TestGoldenErrors: each runtime-error class, with its exact text and
// the step at which it stops the run.
func TestGoldenErrors(t *testing.T) { checkGolden(t, goldenErrors) }

var goldenErrors = []golden{
	{src: `undefined_var;`,
		result: "null", typ: "null", err: `script: line 1: undefined variable "undefined_var"`, steps: 1},
	{src: `null.prop;`,
		result: "null", typ: "null", err: `script: line 1: cannot read "prop" of null`, steps: 1},
	{src: `var x = 1; x();`,
		result: "null", typ: "null", err: "script: line 1: number is not a function", steps: 3},
	{src: `"a" - 1;`,
		result: "null", typ: "null", err: "script: line 1: operator - needs numbers", steps: 1},
	{src: `var o = {}; o.missing();`,
		result: "null", typ: "null", err: "script: line 1: null is not a function", steps: 4},
	{src: `null.m();`,
		result: "null", typ: "null", err: `script: line 1: cannot read "m" of null`, steps: 2},
	{src: `-"str";`,
		result: "null", typ: "null", err: "script: line 1: unary - on non-number", steps: 0},
	{src: `"a" < 1;`,
		result: "null", typ: "null", err: "script: line 1: comparing string with non-string", steps: 1},
	{src: `({}) < 1;`,
		result: "null", typ: "null", err: "script: line 1: comparison needs numbers or strings", steps: 1},
	{src: `var a = []; a[-1] = 1;`,
		result: "null", typ: "null", err: "script: line 1: negative array index", steps: 3},
	{src: `null[0];`,
		result: "null", typ: "null", err: "script: line 1: cannot index null", steps: 0},
	{src: `1 . x;`,
		result: "null", typ: "null", err: `script: line 1: cannot read "x" of number`, steps: 1},
	{src: `var a = [1]; a["x"];`,
		result: "null", typ: "null", err: "script: line 1: array index must be a number", steps: 2},
	{src: `x += 1;`,
		result: "null", typ: "null", err: `script: line 1: undefined variable "x"`, steps: 1},
	{src: `break;`,
		result: "null", typ: "null", err: "break outside loop", steps: 0},
	{src: `continue;`,
		result: "null", typ: "null", err: "continue outside loop", steps: 0},
	{src: `function f() { break; } f();`,
		result: "null", typ: "null", err: "break outside loop", steps: 2},
	{src: `console.log = 1;`,
		result: "null", typ: "null", err: "script: line 1: Console.log=: console is read-only", steps: 2},
	{src: `var o = {}; o.x.y;`,
		result: "null", typ: "null", err: `script: line 1: cannot read "y" of null`, steps: 4},
}

// TestGoldenPrograms: control-flow, closure, and value-rendering
// corners.
func TestGoldenPrograms(t *testing.T) { checkGolden(t, goldenPrograms) }

var goldenPrograms = []golden{
	// The interpreter quirk where break escapes a function body
	// into the caller's loop.
	{src: `function f() { break; } var n = 0; while (true) { n += 1; f(); } n;`,
		result: "1", typ: "number", steps: 7},
	{src: `function f() { continue; } var n = 0; for (var i = 0; i < 3; i++) { f(); n += 9; } n;`,
		result: "0", typ: "number", steps: 27},
	// Top-level return is tolerated.
	{src: `var x = 4; return x * 2;`,
		result: "8", typ: "number", steps: 3},
	// Compound assignment ticks twice; loops with all three target
	// shapes.
	{src: `var o = {n: 0}; var a = [0]; var x = 0;
		 for (var i = 0; i < 5; i++) { o.n += i; a[0] += i; x += i; }
		 o.n + a[0] + x;`,
		result: "30", typ: "number", steps: 93},
	// Short-circuit values (not booleans) and ternaries.
	{src: `var a = 0 || "x"; var b = 1 && null; var c = "" && "y"; a + "," + b + "," + c;`,
		result: "x,null,", typ: "string", steps: 13},
	// Closures capturing loop scopes.
	{src: `var fs = []; for (var i = 0; i < 3; i++) { fs.push(function() { return i; }); }
		 fs[0]() + "," + fs[1]();`,
		result: "3,3", typ: "string", steps: 37},
	// arguments object, missing params, extra args.
	{src: `function f(a, b) { return arguments.length + ":" + (b == null); } f(1, 2, 3) + f(1);`,
		result: "3:false1:true", typ: "string", steps: 17},
	// Host-free attack-shaped probes: everything undefined is an
	// error the attempt harness swallows.
	{src: `var ok1 = attempt(function() { return document.cookie; });
		 var ok2 = attempt(function() { return 2 + 2; });
		 "" + ok1 + ok2;`,
		result: "falsetrue", typ: "string", steps: 15},
	// Nested functions, recursion, typeof on everything.
	{src: `function fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
		 typeof fib + ":" + fib(12);`,
		result: "function:144", typ: "string", steps: 3721},
	// String methods and indexing.
	{src: `var s = "Hello, World"; s.toUpperCase() + s.substring(7) + s[0] + s.split(",").length;`,
		result: "HELLO, WORLDWorldH2", typ: "string", steps: 15},
	// Object stringification is key-sorted.
	{src: `var o = {b: 2, a: 1, c: [1, {d: null}]}; "" + o;`,
		result: "{a: 1, b: 2, c: 1,{d: null}}", typ: "string", steps: 3},
	// Equality corners, including the function-comparison case
	// that must not panic.
	{src: `"" + (log == log) + (null == null) + (1 == "1") + ({} == {});`,
		result: "falsetruefalsefalse", typ: "string", steps: 10},
	// console output interleaving.
	{src: `for (var i = 0; i < 3; i++) { log("line", i); console.log("c" + i); }`,
		result: "null", typ: "null", console: []string{"line 0", "c0", "line 1", "c1", "line 2", "c2"}, steps: 43},
	// new-expression through a non-function error path.
	{src: `var ok = attempt(function() { return new missing(); }); "" + ok;`,
		result: "false", typ: "string", steps: 7},
}

// TestGoldenConstantExpressions: expressions over literals only.
func TestGoldenConstantExpressions(t *testing.T) { checkGolden(t, goldenConstants) }

var goldenConstants = []golden{
	{src: `1 + 2 * 3;`,
		result: "7", typ: "number", steps: 2},
	{src: `"a" + "b" + 1;`,
		result: "ab1", typ: "string", steps: 2},
	{src: `true && false || 3;`,
		result: "3", typ: "number", steps: 2},
	{src: `!0;`,
		result: "true", typ: "boolean", steps: 0},
	{src: `-(2 + 3);`,
		result: "-5", typ: "number", steps: 1},
	{src: `typeof "x";`,
		result: "string", typ: "string", steps: 0},
	{src: `1 < 2 ? "y" : "n";`,
		result: "y", typ: "string", steps: 1},
	{src: `1 / 0;`,
		result: "+Inf", typ: "number", steps: 1},
	// Constant operands must not pre-trigger runtime errors.
	{src: `"a" - 1;`,
		result: "null", typ: "null", err: "script: line 1: operator - needs numbers", steps: 1},
}
