package script

import (
	"strings"
	"testing"
)

// Additional edge-path coverage: value conversion corners, host
// object indexing, and less-traveled interpreter branches.

func TestToStringSpecialValues(t *testing.T) {
	if got := ToString(&Closure{}); got != "[function]" {
		t.Errorf("closure = %q", got)
	}
	if got := ToString(CtxFunc(func(*Ctx, []Value) (Value, error) { return nil, nil })); got != "[native function]" {
		t.Errorf("native = %q", got)
	}
	if got := ToString(&testHost{}); got != "[object TestHost]" {
		t.Errorf("host = %q", got)
	}
	if got := ToString(1.5e20); !strings.Contains(got, "e+") {
		t.Errorf("big float = %q", got)
	}
}

func TestTypeOfEverything(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`typeof [1];`, "array"},
		{`typeof console;`, "object"},
		{`typeof log;`, "function"},
		{`typeof (1 == 1);`, "boolean"},
	}
	for _, tt := range tests {
		if got := run(t, tt.src); !Equals(got, tt.want) {
			t.Errorf("%s = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestHostObjectIndexAccess(t *testing.T) {
	env := StdEnv(&Console{})
	env.Define("host", &testHost{props: map[string]Value{"key": "val"}})
	ip := &Interp{}
	v, err := ip.RunSource(`host["key"];`, env)
	if err != nil || !Equals(v, "val") {
		t.Errorf("index get = %v, %v", v, err)
	}
	v, err = ip.RunSource(`host["key"] = "new"; host.key;`, env)
	if err != nil || !Equals(v, "new") {
		t.Errorf("index set = %v, %v", v, err)
	}
}

func TestObjectIndexedByNonString(t *testing.T) {
	if got := run(t, `var o = {}; o[5] = "five"; o["5"];`); !Equals(got, "five") {
		t.Errorf("got %v", got)
	}
}

func TestStringIndexOutOfRange(t *testing.T) {
	if got := run(t, `"ab"[9] == null;`); !Equals(got, true) {
		t.Errorf("got %v", got)
	}
	if got := run(t, `var a = [1]; a[9] == null;`); !Equals(got, true) {
		t.Errorf("got %v", got)
	}
}

func TestNegativeArrayIndexAssignErrors(t *testing.T) {
	ip := &Interp{}
	if _, err := ip.RunSource(`var a = []; a[-1] = 1;`, StdEnv(&Console{})); err == nil {
		t.Error("negative index assign must error")
	}
}

func TestWhileBreakContinue(t *testing.T) {
	src := `
var n = 0; var i = 0;
while (true) {
  i = i + 1;
  if (i > 10) { break; }
  if (i % 2 == 0) { continue; }
  n = n + 1;
}
n;`
	if got := run(t, src); !Equals(got, float64(5)) {
		t.Errorf("got %v", got)
	}
}

func TestUnaryErrors(t *testing.T) {
	ip := &Interp{}
	for _, src := range []string{`-"str";`, `"a" < 1;`, `({}) < 1;`} {
		if _, err := ip.RunSource(src, StdEnv(&Console{})); err == nil {
			t.Errorf("%s: want error", src)
		}
	}
}

func TestStringSubstringClamps(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`"hello".substring(3, 1);`, "el"}, // swapped
		{`"hello".substring(-5, 99);`, "hello"},
		{`"hello".substring(2);`, "llo"},
	}
	for _, tt := range tests {
		if got := run(t, tt.src); !Equals(got, tt.want) {
			t.Errorf("%s = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestArrayJoinDefault(t *testing.T) {
	if got := run(t, `[1,2].join();`); !Equals(got, "1,2") {
		t.Errorf("got %v", got)
	}
}

func TestElseBranch(t *testing.T) {
	if got := run(t, `var r; if (false) { r = 1; } else { r = 2; } r;`); !Equals(got, float64(2)) {
		t.Errorf("got %v", got)
	}
}

func TestConsoleLogMultiArg(t *testing.T) {
	c := &Console{}
	ip := &Interp{}
	if _, err := ip.RunSource(`console.log(1, "a", true, null, [2]);`, StdEnv(c)); err != nil {
		t.Fatal(err)
	}
	if lines := c.Lines(); lines[0] != "1 a true null 2" {
		t.Errorf("lines = %v", lines)
	}
	// console is read-only.
	if _, err := ip.RunSource(`console.log = 1;`, StdEnv(c)); err == nil {
		t.Error("console assignment must error")
	}
}

func TestNumberBuiltinVariants(t *testing.T) {
	tests := []struct {
		src  string
		want Value
	}{
		{`Number(true);`, float64(1)},
		{`Number(false);`, float64(0)},
		{`Number();`, float64(0)},
		{`isNaN(Number([1]));`, true},
		{`String();`, ""},
		{`parseInt("-42");`, float64(-42)},
		{`isNaN(parseInt("abc"));`, true},
		{`decodeURIComponent(encodeURIComponent("a b/c"));`, "a b/c"},
	}
	for _, tt := range tests {
		if got := run(t, tt.src); !Equals(got, tt.want) {
			t.Errorf("%s = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestTernaryNested(t *testing.T) {
	if got := run(t, `var x = 2; x == 1 ? "a" : x == 2 ? "b" : "c";`); !Equals(got, "b") {
		t.Errorf("got %v", got)
	}
}

func TestFunctionExpressionWithName(t *testing.T) {
	if got := run(t, `var f = function named(a) { return a + 1; }; f(1);`); !Equals(got, float64(2)) {
		t.Errorf("got %v", got)
	}
}

func TestMixedAddition(t *testing.T) {
	tests := []struct {
		src  string
		want Value
	}{
		{`1 + "a";`, "1a"},
		{`true + 1;`, "true1"}, // no numeric coercion: falls back to string
		{`null + "x";`, "nullx"},
	}
	for _, tt := range tests {
		if got := run(t, tt.src); !Equals(got, tt.want) {
			t.Errorf("%s = %v, want %v", tt.src, got, tt.want)
		}
	}
}
