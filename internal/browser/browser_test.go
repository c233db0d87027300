package browser

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/html"
	"repro/internal/origin"
	"repro/internal/script"
	"repro/internal/web"
)

var (
	site     = origin.MustParse("http://app.example")
	evilSite = origin.MustParse("http://evil.example")
)

// testPage is a configured ESCUDO page in the paper's shape: ring-1
// application content, ring-3 user content, a ring-1 session cookie,
// and the XHR API in ring 1.
const testPage = `<html><body>` +
	`<div ring=1 r=1 w=1 x=1 id=app><p id=appmsg>welcome</p></div>` +
	`<div ring=3 r=2 w=2 x=2 id=user>user content</div>` +
	`</body></html>`

// newTestNetwork builds a network with the app origin serving
// testPage with full ESCUDO configuration, plus endpoints used by the
// cookie/XHR tests.
func newTestNetwork() *web.Network {
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		switch req.Path() {
		case "/":
			resp := web.HTML(testPage)
			resp.Header.Set(core.HeaderMaxRing, "3")
			resp.Header.Add("Set-Cookie", "sid=secret1; Path=/")
			resp.Header.Add(core.HeaderCookie, "sid; ring=1; r=1; w=1; x=1")
			resp.Header.Add(core.HeaderAPI, "xmlhttprequest; ring=1")
			return resp
		case "/api":
			return web.HTML("api-ok")
		case "/legacy":
			return web.HTML(`<div id=x ring=2>legacy</div>`)
		default:
			return web.NotFound()
		}
	}))
	net.Register(evilSite, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML(`<html><body><img id=trap src="http://app.example/api"></body></html>`)
	}))
	return net
}

func TestNavigatePipeline(t *testing.T) {
	b := New(newTestNetwork(), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Origin != site {
		t.Errorf("origin = %v", p.Origin)
	}
	if p.Config.MaxRing != 3 {
		t.Errorf("MaxRing = %d", p.Config.MaxRing)
	}
	if app := p.Doc.ByID("app"); app == nil || app.Ring != 1 {
		t.Errorf("app div mislabeled: %+v", app)
	}
	if user := p.Doc.ByID("user"); user == nil || user.Ring != 3 {
		t.Errorf("user div mislabeled: %+v", user)
	}
	// The cookie landed with its configured ring.
	c, ok := b.Jar().Get(site, "sid")
	if !ok || c.Ring != 1 {
		t.Errorf("sid cookie = %+v, %v", c, ok)
	}
	// Rendering happened.
	if p.Layout == nil || p.Layout.Words == 0 {
		t.Error("layout missing")
	}
	if !strings.Contains(p.RenderText(), "welcome") {
		t.Errorf("render = %q", p.RenderText())
	}
	// History recorded (browser state).
	if b.History().Len() != 1 || !b.History().Visited(site.URL("/")) {
		t.Error("history not recorded")
	}
}

func TestUnlabeledContentFailSafe(t *testing.T) {
	// On a configured page, content outside AC tags defaults to the
	// least privileged ring with the zero ACL (§4.3).
	b := New(newTestNetwork(), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	body := p.Doc.ByTag("body")[0]
	if body.Ring != 3 {
		t.Errorf("unlabeled body ring = %d, want 3", body.Ring)
	}
	if body.ACL != (core.ACL{}) {
		t.Errorf("unlabeled body ACL = %v, want zero", body.ACL)
	}
}

func TestScriptMediationByRing(t *testing.T) {
	b := New(newTestNetwork(), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	// Ring-1 script reads and writes the app region.
	err = p.RunScriptRing(1, "app-script", `
var el = document.getElementById("appmsg");
el.innerText = "updated";`)
	if err != nil {
		t.Fatalf("ring-1 script: %v", err)
	}
	// Ring-3 script cannot touch the app region (ring rule).
	err = p.RunScriptRing(3, "user-script", `
var el = document.getElementById("appmsg");
el.innerText = "defaced";`)
	var denied *dom.DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("ring-3 script err = %v, want denial", err)
	}
	if got := html.InnerText(p.Doc.ByID("appmsg")); got != "updated" {
		t.Errorf("app message = %q, must keep ring-1 update", got)
	}
}

func TestDocumentCookieMediation(t *testing.T) {
	b := New(newTestNetwork(), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	// Ring-1 script sees the ring-1 session cookie.
	console := b.Console
	if err := p.RunScriptRing(1, "reader1", `log("c1=" + document.cookie);`); err != nil {
		t.Fatal(err)
	}
	// Ring-3 script sees nothing: the cookie is invisible, not an
	// error (read simply filters).
	if err := p.RunScriptRing(3, "reader3", `log("c3=" + document.cookie);`); err != nil {
		t.Fatal(err)
	}
	lines := console.Lines()
	if len(lines) != 2 || lines[0] != "c1=sid=secret1" || lines[1] != "c3=" {
		t.Errorf("lines = %v", lines)
	}
}

func TestDocumentCookieWrite(t *testing.T) {
	b := New(newTestNetwork(), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	// Ring-3 script cannot overwrite the ring-1 session cookie.
	err = p.RunScriptRing(3, "w3", `document.cookie = "sid=hijacked";`)
	var denied *dom.DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("err = %v, want denial", err)
	}
	if c, _ := b.Jar().Get(site, "sid"); c.Value != "secret1" {
		t.Errorf("sid overwritten to %q", c.Value)
	}
	// Ring-1 may update it.
	if err := p.RunScriptRing(1, "w1", `document.cookie = "sid=rotated";`); err != nil {
		t.Fatal(err)
	}
	if c, _ := b.Jar().Get(site, "sid"); c.Value != "rotated" {
		t.Errorf("sid = %q, want rotated", c.Value)
	}
}

func TestXHRRingGate(t *testing.T) {
	b := New(newTestNetwork(), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	// XHR is configured in ring 1: ring-1 scripts may use it.
	err = p.RunScriptRing(1, "x1", `
var x = new XMLHttpRequest();
x.open("GET", "/api");
x.send();
log("status=" + x.status + " body=" + x.responseText);`)
	if err != nil {
		t.Fatal(err)
	}
	lines := b.Console.Lines()
	if len(lines) != 1 || lines[0] != "status=200 body=api-ok" {
		t.Errorf("lines = %v", lines)
	}
	// Ring-3 scripts may not (ring rule on the API object).
	err = p.RunScriptRing(3, "x3", `
var x = new XMLHttpRequest();
x.open("GET", "/api");`)
	var denied *dom.DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("ring-3 xhr err = %v, want denial", err)
	}
	if denied.Decision.Rule != core.RuleRing {
		t.Errorf("rule = %v", denied.Decision.Rule)
	}
}

func TestXHRSameOriginOnly(t *testing.T) {
	b := New(newTestNetwork(), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	err = p.RunScriptRing(1, "x", `
var x = new XMLHttpRequest();
x.open("GET", "http://evil.example/");
x.send();`)
	if err == nil || !strings.Contains(err.Error(), "cross-origin") {
		t.Errorf("err = %v, want cross-origin block", err)
	}
}

func TestXHRCookieAttachment(t *testing.T) {
	// A ring-1 XHR carries the ring-1 session cookie (use allowed);
	// the request log proves it server-side.
	net := newTestNetwork()
	b := New(net, Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	net.ResetLog()
	err = p.RunScriptRing(1, "x", `
var x = new XMLHttpRequest();
x.open("GET", "/api");
x.send();`)
	if err != nil {
		t.Fatal(err)
	}
	entries := net.FindRequests(site, func(e web.LogEntry) bool { return e.Path == "/api" })
	if len(entries) != 1 || !entries[0].HasCookie("sid") {
		t.Errorf("entries = %+v", entries)
	}
}

func TestHistoryRingZero(t *testing.T) {
	b := New(newTestNetwork(), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	// Ring-1 script cannot read browser state (§4.1: ring 0 only).
	err = p.RunScriptRing(1, "h1", `var n = window.history.length;`)
	var denied *dom.DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("err = %v, want denial", err)
	}
	// Ring-0 script can.
	if err := p.RunScriptRing(0, "h0", `log("len=" + window.history.length);`); err != nil {
		t.Fatal(err)
	}
	if lines := b.Console.Lines(); len(lines) != 1 || lines[0] != "len=1" {
		t.Errorf("lines = %v", lines)
	}
	// Visited-link sniffing denied below ring 0.
	err = p.RunScriptRing(2, "sniff", `window.history.visited("http://app.example/");`)
	if !errors.As(err, &denied) {
		t.Errorf("sniffing err = %v, want denial", err)
	}
}

func TestEventDispatch(t *testing.T) {
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(`<div ring=1 r=1 w=1 x=1 id=app>` +
			`<p id=target onclick="document.getElementById('out').innerText = 'clicked';"></p>` +
			`<p id=out></p></div>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	b := New(net, Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	// User (browser, ring 0) clicks: handler runs at the element's
	// ring (1), which may write #out (ring 1).
	if err := p.DispatchEvent(p.Doc.ByID("target"), "click", nil); err != nil {
		t.Fatal(err)
	}
	out, err := dom.NewAPI(p.Doc, core.Principal(site, 0, "t"), p.Monitor).InnerText(p.Doc.ByID("out"))
	if err != nil || out != "clicked" {
		t.Errorf("out = %q, %v", out, err)
	}
	// A ring-3 principal cannot deliver events to the ring-1 element
	// (use is mediated, §4.1).
	evil := core.Principal(site, 3, "evil")
	err = p.DispatchEvent(p.Doc.ByID("target"), "click", &evil)
	var denied *dom.DeniedError
	if !errors.As(err, &denied) {
		t.Errorf("err = %v, want denial", err)
	}
}

func TestPageScriptsRunAtTheirRing(t *testing.T) {
	// A script element inside ring-3 user content executes with
	// ring-3 privileges and cannot deface ring-1 content — the XSS
	// neutralization mechanism.
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(`<div ring=1 r=1 w=1 x=1 id=app><p id=msg>hello</p></div>` +
			`<div ring=3 r=3 w=3 x=3 id=user>` +
			`<script>document.getElementById("msg").innerText = "pwned";</script>` +
			`</div>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	b := New(net, Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.ScriptErrors) != 1 {
		t.Fatalf("ScriptErrors = %v, want the injected script to fail", p.ScriptErrors)
	}
	var denied *dom.DeniedError
	if !errors.As(p.ScriptErrors[0], &denied) {
		t.Errorf("err = %v, want denial", p.ScriptErrors[0])
	}
	// Same page in SOP mode: the script succeeds (the §2.3 failure).
	bsop := New(net, Options{Mode: ModeSOP})
	psop, err := bsop.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	if len(psop.ScriptErrors) != 0 {
		t.Errorf("SOP ScriptErrors = %v", psop.ScriptErrors)
	}
}

// TestPageScriptsUseParseCache pins that page scripts are parsed
// through script.CompileCached: loading a page twice whose script body
// no other test uses must count a cache hit on the second load. Not
// parallel, so no other test moves the process-wide counters meanwhile.
func TestPageScriptsUseParseCache(t *testing.T) {
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML(`<p>cache</p><script>log("parse cache probe " + 41 + 1);</script>`)
	}))
	b := New(net, Options{Mode: ModeEscudo})
	for load := 1; load <= 2; load++ {
		h0, _ := script.CompileCacheStats()
		p, err := b.Navigate(site.URL("/"))
		if err != nil {
			t.Fatal(err)
		}
		if len(p.ScriptErrors) != 0 {
			t.Fatalf("load %d: ScriptErrors = %v", load, p.ScriptErrors)
		}
		h1, _ := script.CompileCacheStats()
		if load == 2 && h1 <= h0 {
			t.Errorf("second load: parse-cache hits %d → %d, want an increase", h0, h1)
		}
	}
	if lines := b.Console.Lines(); len(lines) != 2 || lines[1] != "parse cache probe 411" {
		t.Errorf("console = %q, want the script to run on both loads", lines)
	}
}

func TestSubresourceInitiatorContext(t *testing.T) {
	// An img inside ring-3 content fetches without the ring-1 session
	// cookie; an img in ring-1 content carries it.
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(`<div ring=1 r=1 w=1 x=1 id=app><img src="/app.png"></div>` +
			`<div ring=3 r=3 w=3 x=3 id=user><img src="/user.png"></div>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		resp.Header.Add("Set-Cookie", "sid=top; Path=/")
		resp.Header.Add(core.HeaderCookie, "sid; ring=1; r=1; w=1; x=1")
		return resp
	}))
	b := New(net, Options{Mode: ModeEscudo})
	if _, err := b.Navigate(site.URL("/")); err != nil {
		t.Fatal(err)
	}
	appImg := net.FindRequests(site, func(e web.LogEntry) bool { return e.Path == "/app.png" })
	userImg := net.FindRequests(site, func(e web.LogEntry) bool { return e.Path == "/user.png" })
	if len(appImg) != 1 || len(userImg) != 1 {
		t.Fatalf("img fetches: app=%d user=%d", len(appImg), len(userImg))
	}
	if !appImg[0].HasCookie("sid") {
		t.Error("ring-1 img must carry the ring-1 cookie")
	}
	if userImg[0].HasCookie("sid") {
		t.Error("ring-3 img must NOT carry the ring-1 cookie")
	}
}

func TestCompatibilityLegacyAppEscudoBrowser(t *testing.T) {
	// §6.3: "Non-ESCUDO applications ... all principals and object
	// inside the application are assigned to a single ring,
	// effectively mimicking the same-origin policy."
	b := New(newTestNetwork(), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/legacy"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Config.Configured() {
		t.Error("legacy page must be unconfigured")
	}
	// Everything is ring 0; any same-origin script has full power.
	if err := p.RunScriptRing(0, "s", `document.getElementById("x").innerText = "w";`); err != nil {
		t.Errorf("legacy page script: %v", err)
	}
	// The ring attribute on the legacy page is inert markup, but an
	// ESCUDO browser parsing in escudo mode still hides nothing —
	// MaxRing 0 clamps labels to 0.
	if x := p.Doc.ByID("x"); x.Ring != 0 {
		t.Errorf("legacy element ring = %d, want 0", x.Ring)
	}
}

func TestCompatibilityEscudoAppSOPBrowser(t *testing.T) {
	// §6.3: ESCUDO-configured applications on non-ESCUDO browsers —
	// attributes and headers are ignored, everything works under SOP.
	b := New(newTestNetwork(), Options{Mode: ModeSOP})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	// AC attributes remain visible, ordinary markup.
	app := p.Doc.ByID("app")
	if v, _ := app.Attr("ring"); v != "1" {
		t.Errorf("SOP browser must keep ring attr, got %q", v)
	}
	// Any same-origin script can modify anything.
	if err := p.RunScriptRing(3, "s", `document.getElementById("appmsg").innerText = "sop";`); err != nil {
		t.Errorf("SOP script: %v", err)
	}
}

func TestNonceDefenseEndToEnd(t *testing.T) {
	// §5: node-splitting injected through user content is ignored by
	// the parser; the forged high-privilege div stays in ring 3.
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(`<div ring=1 r=1 w=1 x=1 id=app>app</div>` +
			`<div ring=3 r=3 w=3 x=3 nonce=8675309 id=user>` +
			`</div><div ring=0 id=forged><script>document.getElementById("app").innerText = "pwned";</script></div>` +
			`</div nonce=8675309>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	b := New(net, Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	forged := p.Doc.ByID("forged")
	if forged == nil || forged.Ring != 3 {
		t.Fatalf("forged ring = %v, want clamped 3", forged)
	}
	// The injected script ran at ring 3 and was denied.
	if len(p.ScriptErrors) != 1 {
		t.Fatalf("ScriptErrors = %v", p.ScriptErrors)
	}
	var denied *dom.DeniedError
	if !errors.As(p.ScriptErrors[0], &denied) {
		t.Errorf("err = %v", p.ScriptErrors[0])
	}
}

func TestSetAttributePrivilegeEscalationBlocked(t *testing.T) {
	// §5(1) end to end: scripts cannot remap rings via setAttribute.
	b := New(newTestNetwork(), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	err = p.RunScriptRing(1, "esc", `
var el = document.getElementById("app");
el.setAttribute("ring", "0");`)
	if !errors.Is(err, dom.ErrConfigAttribute) {
		t.Errorf("err = %v, want ErrConfigAttribute", err)
	}
	if p.Doc.ByID("app").Ring != 1 {
		t.Error("ring changed")
	}
	// Reading it yields nothing either.
	if err := p.RunScriptRing(1, "read", `log("ring=" + document.getElementById("app").getAttribute("ring"));`); err != nil {
		t.Fatal(err)
	}
	lines := b.Console.Lines()
	if lines[len(lines)-1] != "ring=" {
		t.Errorf("config attr visible: %v", lines)
	}
}

func TestFormSubmission(t *testing.T) {
	net := web.NewNetwork()
	var gotSubject string
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		if req.Path() == "/post" && req.Method == "POST" {
			gotSubject = req.Form.Get("subject")
			return web.HTML("posted")
		}
		resp := web.HTML(`<div ring=1 r=1 w=1 x=1 id=app>` +
			`<form id=f action="/post" method="post">` +
			`<input name=subject value=hello><textarea name=body>text</textarea>` +
			`</form></div>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	b := New(net, Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.SubmitForm(p.Doc.ByID("f"), nil)
	if err != nil || resp.Status != 200 {
		t.Fatalf("submit: %v %v", resp, err)
	}
	if gotSubject != "hello" {
		t.Errorf("subject = %q", gotSubject)
	}
}

func TestRedirectFollowed(t *testing.T) {
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		if req.Path() == "/start" {
			return web.Redirect("/end")
		}
		return web.HTML("<p>end</p>")
	}))
	b := New(net, Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/start"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(p.URL, "/end") {
		t.Errorf("URL = %q", p.URL)
	}
}

func TestRedirectPreservesInitiator(t *testing.T) {
	// A cross-site navigation that 303s must not have its second hop
	// upgraded to browser privilege — otherwise the redirect target
	// would receive cookies the original initiator was denied.
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		switch req.Path() {
		case "/bounce":
			return web.Redirect("/landing")
		case "/landing":
			return web.HTML("landed")
		default:
			resp := web.HTML(`<p>home</p>`)
			resp.Header.Add("Set-Cookie", "sid=v; Path=/")
			resp.Header.Add(core.HeaderCookie, "sid; ring=1; r=1; w=1; x=1")
			resp.Header.Set(core.HeaderMaxRing, "3")
			return resp
		}
	}))
	b := New(net, Options{Mode: ModeEscudo})
	if _, err := b.Navigate(site.URL("/")); err != nil {
		t.Fatal(err)
	}
	net.ResetLog()
	// A cross-origin principal (as from a malicious page's anchor)
	// initiates the navigation.
	evilInit := core.Principal(evilSite, 0, "evil-anchor")
	if _, err := b.NavigateFrom(evilInit, site.URL("/bounce"), "a"); err != nil {
		t.Fatal(err)
	}
	for _, e := range net.FindRequests(site, nil) {
		if e.HasCookie("sid") {
			t.Errorf("redirect hop %s carried the session cookie for a cross-site initiator", e.Path)
		}
	}
	// The same flow initiated by the user (address bar) does carry it.
	net.ResetLog()
	if _, err := b.Navigate(site.URL("/bounce")); err != nil {
		t.Fatal(err)
	}
	landing := net.FindRequests(site, func(e web.LogEntry) bool { return e.Path == "/landing" })
	if len(landing) != 1 || !landing[0].HasCookie("sid") {
		t.Errorf("browser-initiated redirect must carry cookies: %+v", landing)
	}
}

func TestModeString(t *testing.T) {
	if ModeEscudo.String() != "escudo" || ModeSOP.String() != "sop" {
		t.Error("mode names")
	}
	if !strings.Contains(Mode(9).String(), "9") {
		t.Error("unknown mode")
	}
}
