package browser

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/html"
	"repro/internal/origin"
	"repro/internal/web"
)

// bindingsNetwork serves one configured page with app and user
// regions plus a couple of endpoints.
func bindingsNetwork() *web.Network {
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		switch req.Path() {
		case "/":
			resp := web.HTML(`<html><body>` +
				`<div ring=1 r=1 w=1 x=1 id=app><p id=one>first</p><p id=two>second</p></div>` +
				`<div ring=3 r=3 w=3 x=3 id=user>content</div>` +
				`</body></html>`)
			resp.Header.Set(core.HeaderMaxRing, "3")
			resp.Header.Add("Set-Cookie", "sid=v1; Path=/")
			resp.Header.Add(core.HeaderCookie, "sid; ring=1; r=1; w=1; x=1")
			resp.Header.Add(core.HeaderAPI, "xmlhttprequest; ring=2")
			return resp
		case "/next":
			return web.HTML(`<p id=arrived>next page</p>`)
		case "/submit":
			return web.HTML("ok")
		default:
			return web.HTML("")
		}
	}))
	return net
}

func loadBindings(t *testing.T, mode Mode) (*Browser, *Page, *web.Network) {
	t.Helper()
	net := bindingsNetwork()
	b := New(net, Options{Mode: mode})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	net.ResetLog()
	return b, p, net
}

func TestBindingDocumentProperties(t *testing.T) {
	b, p, _ := loadBindings(t, ModeEscudo)
	err := p.RunScriptRing(1, "s", `
log(document.origin);
log(document.URL);
log(window.origin);`)
	if err != nil {
		t.Fatal(err)
	}
	// document.body hands out a node handle, so it takes a read
	// decision: the body sits in the page's base region (ring 3, the
	// fail-safe ACL r=0), which only ring 0 may read.
	if err := p.RunScriptRing(0, "s", `log(document.body.tagName);`); err != nil {
		t.Fatal(err)
	}
	lines := b.Console.Lines()
	want := []string{"http://app.example", "http://app.example/", "http://app.example", "BODY"}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d = %q, want %q", i, lines[i], w)
		}
	}
	var denied *dom.DeniedError
	if err := p.RunScriptRing(1, "s", `log(document.body.tagName);`); !errors.As(err, &denied) {
		t.Errorf("ring-1 document.body: err = %v, want a DeniedError", err)
	}
	if got := len(b.Console.Lines()); got != len(want) {
		t.Errorf("the denied read logged: %v", b.Console.Lines())
	}
}

func TestBindingGetElementsByTagName(t *testing.T) {
	b, p, _ := loadBindings(t, ModeEscudo)
	if err := p.RunScriptRing(1, "s", `
var ps = document.getElementsByTagName("p");
log("count=" + ps.length);
log("first=" + ps[0].innerText);`); err != nil {
		t.Fatal(err)
	}
	lines := b.Console.Lines()
	if lines[0] != "count=2" || lines[1] != "first=first" {
		t.Errorf("lines = %v", lines)
	}
}

func TestBindingCreateAndAppend(t *testing.T) {
	_, p, _ := loadBindings(t, ModeEscudo)
	err := p.RunScriptRing(1, "s", `
var el = document.createElement("span");
el.id = "made";
var txt = document.createTextNode("made text");
el.appendChild(txt);
document.getElementById("app").appendChild(el);`)
	if err != nil {
		t.Fatal(err)
	}
	made := p.Doc.ByID("made")
	if made == nil || html.InnerText(made) != "made text" {
		t.Fatalf("made = %+v", made)
	}
	if made.Ring != 1 {
		t.Errorf("ring = %d, want 1", made.Ring)
	}
}

func TestBindingParentNodeAndRemove(t *testing.T) {
	b, p, _ := loadBindings(t, ModeEscudo)
	err := p.RunScriptRing(1, "s", `
var one = document.getElementById("one");
var parent = one.parentNode;
log("parent=" + parent.id);
parent.removeChild(one);`)
	if err != nil {
		t.Fatal(err)
	}
	if lines := b.Console.Lines(); lines[0] != "parent=app" {
		t.Errorf("lines = %v", lines)
	}
	if p.Doc.ByID("one") != nil {
		t.Error("element not removed")
	}
}

// A method read as a value is bound to its receiver: calling it later
// behaves as the direct call, a denial's error text included.
func TestBindingMethodAsValue(t *testing.T) {
	b, p, _ := loadBindings(t, ModeEscudo)
	if err := p.RunScriptRing(1, "s", `
var byID = document.getElementById;
var one = byID("one");
var get = one.getAttribute;
log(typeof byID + " " + get("id") + " " + one.parentNode.id);`); err != nil {
		t.Fatal(err)
	}
	if lines := b.Console.Lines(); len(lines) != 1 || lines[0] != "function one app" {
		t.Errorf("lines = %v", lines)
	}
	direct := p.RunScriptRing(3, "s", `document.getElementById("one");`)
	bound := p.RunScriptRing(3, "s", `var f = document.getElementById; f("one");`)
	var denied *dom.DeniedError
	if !errors.As(direct, &denied) || bound == nil || bound.Error() != direct.Error() {
		t.Errorf("ring-3 read of a ring-1 element: direct %v, bound %v; want the same denial", direct, bound)
	}
}

func TestBindingWindowLocationNavigates(t *testing.T) {
	_, p, net := loadBindings(t, ModeEscudo)
	if err := p.RunScriptRing(1, "s", `window.location = "/next";`); err != nil {
		t.Fatal(err)
	}
	reqs := net.FindRequests(site, func(e web.LogEntry) bool { return e.Path == "/next" })
	if len(reqs) != 1 {
		t.Fatalf("reqs = %v", reqs)
	}
	// Ring-1 initiator carries the ring-1 cookie.
	if !reqs[0].HasCookie("sid") {
		t.Error("same-origin ring-1 navigation must carry the cookie")
	}
	// A ring-3 initiator does not.
	net.ResetLog()
	if err := p.RunScriptRing(3, "s3", `document.location = "/next";`); err != nil {
		t.Fatal(err)
	}
	reqs = net.FindRequests(site, func(e web.LogEntry) bool { return e.Path == "/next" })
	if len(reqs) != 1 || reqs[0].HasCookie("sid") {
		t.Errorf("ring-3 navigation reqs = %+v", reqs)
	}
}

func TestBindingImageSrcFiresWithScriptInitiator(t *testing.T) {
	evil := origin.MustParse("http://collect.example")
	net := bindingsNetwork()
	net.Register(evil, web.HandlerFunc(func(req *web.Request) *web.Response { return web.HTML("") }))
	b := New(net, Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	net.ResetLog()
	if err := p.RunScriptRing(3, "s", `var i = new Image(); i.src = "http://collect.example/px";`); err != nil {
		t.Fatal(err)
	}
	reqs := net.FindRequests(evil, nil)
	if len(reqs) != 1 {
		t.Fatalf("reqs = %v", reqs)
	}
	if reqs[0].InitiatorOrigin != site {
		t.Errorf("initiator = %v", reqs[0].InitiatorOrigin)
	}
	_ = b
}

func TestBindingXHRRingTwo(t *testing.T) {
	// This page grants XHR at ring 2: ring-2 succeeds, ring-3 fails.
	_, p, _ := loadBindings(t, ModeEscudo)
	if err := p.RunScriptRing(2, "ok", `var x = new XMLHttpRequest(); x.open("GET", "/submit"); x.send();`); err != nil {
		t.Fatalf("ring-2 xhr: %v", err)
	}
	err := p.RunScriptRing(3, "no", `var x = new XMLHttpRequest(); x.open("GET", "/submit");`)
	var denied *dom.DeniedError
	if !errors.As(err, &denied) {
		t.Errorf("ring-3 xhr err = %v", err)
	}
}

func TestBindingXHRPostForm(t *testing.T) {
	var gotForm string
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		if req.Path() == "/post" {
			gotForm = req.Form.Get("a") + "," + req.Form.Get("b")
			return web.HTML("posted")
		}
		resp := web.HTML(`<p>page</p>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		resp.Header.Add(core.HeaderAPI, "xmlhttprequest; ring=3")
		return resp
	}))
	b := New(net, Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	err = p.RunScriptRing(3, "s", `
var x = new XMLHttpRequest();
x.open("POST", "/post");
x.send("a=1&b=two");
log(x.status + ":" + x.responseText);`)
	if err != nil {
		t.Fatal(err)
	}
	if gotForm != "1,two" {
		t.Errorf("form = %q", gotForm)
	}
	if lines := b.Console.Lines(); lines[0] != "200:posted" {
		t.Errorf("lines = %v", lines)
	}
}

func TestBindingHostObjectErrors(t *testing.T) {
	_, p, _ := loadBindings(t, ModeEscudo)
	cases := []string{
		`document.cookie();`,                      // property, not function
		`window.history = 1;`,                     // read-only
		`document.title = "x";`,                   // unsupported assignment
		`var x = new XMLHttpRequest(); x.send();`, // send before open
		`var x = new XMLHttpRequest(); x.status = 7;`,
	}
	for _, src := range cases {
		if err := p.RunScriptRing(0, "s", src); err == nil {
			t.Errorf("%s: want error", src)
		}
	}
}

func TestSOPModeAttachesCookiesToAnyInitiator(t *testing.T) {
	// The CSRF root cause (§2.3): under SOP, cookies attach to the
	// target's requests no matter who initiated them.
	evil := origin.MustParse("http://evil.example")
	net := bindingsNetwork()
	net.Register(evil, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML(`<img src="http://app.example/submit">`)
	}))
	b := New(net, Options{Mode: ModeSOP})
	if _, err := b.Navigate(site.URL("/")); err != nil {
		t.Fatal(err)
	}
	net.ResetLog()
	if _, err := b.Navigate(evil.URL("/")); err != nil {
		t.Fatal(err)
	}
	reqs := net.FindRequests(site, func(e web.LogEntry) bool { return e.Path == "/submit" })
	if len(reqs) != 1 || !reqs[0].HasCookie("sid") {
		t.Errorf("SOP cross-site img must carry the cookie: %+v", reqs)
	}
	// The same flow under ESCUDO: request issued, cookie withheld.
	b2 := New(net, Options{Mode: ModeEscudo})
	if _, err := b2.Navigate(site.URL("/")); err != nil {
		t.Fatal(err)
	}
	net.ResetLog()
	if _, err := b2.Navigate(evil.URL("/")); err != nil {
		t.Fatal(err)
	}
	reqs = net.FindRequests(site, func(e web.LogEntry) bool { return e.Path == "/submit" })
	if len(reqs) != 1 {
		t.Fatalf("escudo reqs = %+v", reqs)
	}
	if reqs[0].HasCookie("sid") {
		t.Error("ESCUDO cross-site img must not carry the cookie")
	}
}

func TestClickAnchorNavigates(t *testing.T) {
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		if req.Path() == "/next" {
			return web.HTML(`<p id=arrived>here</p>`)
		}
		resp := web.HTML(`<div ring=1 r=1 w=1 x=1 id=app><a id=go href="/next">go</a></div>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	b := New(net, Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := p.ClickAnchor(p.Doc.ByID("go"))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Doc.ByID("arrived") == nil {
		t.Error("navigation did not arrive")
	}
	if b.History().Len() != 2 {
		t.Errorf("history = %d", b.History().Len())
	}
	// Error paths.
	if _, err := p.ClickAnchor(nil); err == nil {
		t.Error("nil anchor must error")
	}
	if _, err := p.ClickAnchor(p.Doc.ByID("app")); err == nil {
		t.Error("non-anchor must error")
	}
}

func TestSubmitFormErrors(t *testing.T) {
	_, p, _ := loadBindings(t, ModeEscudo)
	if _, err := p.SubmitForm(nil, nil); err == nil {
		t.Error("nil form must error")
	}
	if _, err := p.SubmitForm(p.Doc.ByID("app"), nil); err == nil {
		t.Error("non-form must error")
	}
}

func TestDispatchEventNoHandler(t *testing.T) {
	_, p, _ := loadBindings(t, ModeEscudo)
	// No onclick attribute: delivery succeeds, nothing runs.
	if err := p.DispatchEvent(p.Doc.ByID("one"), "click", nil); err != nil {
		t.Errorf("event without handler: %v", err)
	}
	if err := p.DispatchEvent(nil, "click", nil); err == nil {
		t.Error("nil target must error")
	}
}

func TestScriptClickOnAnchor(t *testing.T) {
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(`<div ring=1 r=1 w=1 x=1 id=app><a id=go href="/next">go</a></div>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	b := New(net, Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	net.ResetLog()
	if err := p.RunScriptRing(1, "s", `document.getElementById("go").click();`); err != nil {
		t.Fatal(err)
	}
	if got := net.FindRequests(site, func(e web.LogEntry) bool { return e.Path == "/next" }); len(got) != 1 {
		t.Errorf("click did not navigate: %v", got)
	}
}

// TestScriptIsolationOverSharedLibrary: every script of a browser reads
// one library, so a ring-3 script that overwrites library members,
// writes Math through an alias, leaks a global and rebinds document
// must leave the next scripts untouched: a ring-1 script on the same
// page and a script in a framed page of another origin each see the
// original library, no leaked global, and their own document.
func TestScriptIsolationOverSharedLibrary(t *testing.T) {
	widget := origin.MustParse("http://widget.example")
	// check logs what a script sees of the library, the leaked global
	// and its document, whose element id it reads.
	check := func(id string) string {
		return `log(Math.floor(1.5), Math.ceil(1.2), String(1), encodeURIComponent("a b"), typeof attempt,
			attempt(function() { return leaked; }), document == document, document.getElementById("` + id + `").innerText);`
	}
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(`<html><body>` +
			`<div ring=1 r=1 w=1 x=1 id=app><p id=appmsg>welcome</p></div>` +
			`<iframe src="http://widget.example/"></iframe>` +
			`<div ring=3 r=3 w=3 x=3 id=user><script id=hostile>` +
			`Math.floor = function(x) { return 42; }; var m = Math; m.ceil = 5;` +
			`String = function() { return "owned"; }; encodeURIComponent = null; attempt = 7;` +
			`leaked = "ring-3 global"; document = {cookie: "forged"};` +
			`log(Math.floor(1.5), Math.ceil, String(1), encodeURIComponent, attempt, leaked, document.cookie);` +
			`</script></div>` +
			`<div ring=1 r=1 w=1 x=1 id=trusted-region><script id=trusted>` + check("appmsg") + `</script></div>` +
			`</body></html>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	net.Register(widget, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML(`<html><body><p id=w>widget</p></body></html>`)
	}))
	b := New(net, Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Frames) != 1 || p.Frames[0].Page == nil {
		t.Fatalf("frames = %+v, want the widget page", p.Frames)
	}
	// The frame loaded before the page's scripts ran; its script runs
	// after them.
	if err := p.Frames[0].Page.RunScriptRing(0, "script#framed", check("w")); err != nil {
		t.Fatal(err)
	}
	if len(p.ScriptErrors) != 0 {
		t.Fatalf("ScriptErrors = %v", p.ScriptErrors)
	}
	want := []string{
		"42 5 owned null 7 ring-3 global forged",
		"1 2 1 a+b function false true welcome",
		"1 2 1 a+b function false true widget",
	}
	if got := b.Console.Lines(); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("console = %q, want %q", got, want)
	}
	// getElementById and innerText each read p#appmsg, as the ring-1
	// script.
	var reads int
	for _, d := range b.Audit.All() {
		if d.Principal.Name() == "script#trusted" && d.Op == core.OpRead && d.Allowed && d.Object.Name() == "p#appmsg" {
			reads++
		}
	}
	if reads != 2 {
		t.Errorf("allowed reads of p#appmsg by script#trusted = %d, want 2", reads)
	}
}
