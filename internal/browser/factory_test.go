package browser

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/html"
	"repro/internal/mashup"
	"repro/internal/origin"
	"repro/internal/web"
)

// portalMarkup is a mashup host page: ring-1 chrome and a ring-2
// widget slot, served with full ESCUDO configuration.
const portalMarkup = `<html><body>` +
	`<div ring=1 r=1 w=1 x=1 id=chrome><h1 id=title>My Portal</h1></div>` +
	`<div ring=2 r=2 w=2 x=2 id=slot>loading</div>` +
	`</body></html>`

// newPortalNetwork serves the portal page at portal.example.
func newPortalNetwork(portal origin.Origin) *web.Network {
	net := web.NewNetwork()
	net.Register(portal, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(portalMarkup)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	return net
}

// TestMonitorFactoryMountsMashupMonitor is the wiring test for §7: a
// delegation-aware stack (the ERM under core.WithDelegations) built by
// Options.MonitorFactory mediates a REAL browsing session — the
// delegation model runs inside the page pipeline, not just against a
// hand-built DOM.
func TestMonitorFactoryMountsMashupMonitor(t *testing.T) {
	portal := origin.MustParse("http://portal.example")
	widget := origin.MustParse("http://widget.example")
	rogue := origin.MustParse("http://rogue.example")

	pol := mashup.NewPolicy()
	pol.Delegate(mashup.Delegation{Host: portal, Guest: widget, Floor: 2})

	var refs []PageRef
	b := New(newPortalNetwork(portal), Options{
		Mode: ModeEscudo,
		MonitorFactory: func(ref PageRef) core.Monitor {
			refs = append(refs, ref)
			return core.Compose(&core.ERM{}, core.WithDelegations(pol))
		},
	})
	p, err := b.Navigate(portal.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 || refs[len(refs)-1].Origin != portal {
		t.Fatalf("factory refs = %+v, want a page ref for %s", refs, portal)
	}

	// The delegated guest renders into its rented slot...
	if err := p.RunScriptAs(core.Principal(widget, 0, "widget"),
		`document.getElementById("slot").innerHTML = "<p id=forecast>Sunny</p>";`); err != nil {
		t.Fatalf("delegated slot write failed: %v", err)
	}
	if got := html.InnerText(p.Doc.ByID("slot")); !strings.Contains(got, "Sunny") {
		t.Fatalf("slot = %q, want the widget's content", got)
	}

	// ...but cannot reach the ring-1 chrome (ring rule, floored)...
	if err := p.RunScriptAs(core.Principal(widget, 0, "widget"),
		`document.getElementById("title").innerHTML = "pwned";`); err == nil {
		t.Fatal("floored guest rewrote ring-1 chrome")
	}

	// ...and an undeclared origin gets pure origin-rule denials.
	if err := p.RunScriptAs(core.Principal(rogue, 0, "rogue"),
		`var x = document.getElementById("slot").innerHTML;`); err == nil {
		t.Fatal("rogue origin read the portal DOM")
	}

	// The browser's audit layer recorded the denials even though the
	// factory's monitor carries no trace hooks of its own.
	var sawRing, sawOrigin bool
	for _, d := range b.Audit.Denials() {
		switch d.Rule {
		case core.RuleRing:
			sawRing = true
		case core.RuleOrigin:
			sawOrigin = true
		}
	}
	if !sawRing || !sawOrigin {
		t.Fatalf("audit denials missing rules: ring=%v origin=%v (%v)", sawRing, sawOrigin, b.Audit.Denials())
	}
}

// TestMonitorFactoryComposedPipelineEquivalence drives the same
// session through the default stack and through a factory returning
// the equivalent composed pipeline, and demands identical audit
// decision sequences — the factory seam must not change semantics.
func TestMonitorFactoryComposedPipelineEquivalence(t *testing.T) {
	site := origin.MustParse("http://app.example")
	build := func() *web.Network {
		net := web.NewNetwork()
		net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
			resp := web.HTML(`<html><body><div ring=1 r=1 w=1 x=1 id=app>hi</div>` +
				`<div ring=3 r=2 w=2 x=2 id=user>there</div></body></html>`)
			resp.Header.Set(core.HeaderMaxRing, "3")
			resp.Header.Add("Set-Cookie", "sid=tok; Path=/")
			resp.Header.Add(core.HeaderCookie, "sid; ring=1; r=1; w=1; x=1")
			return resp
		}))
		return net
	}

	run := func(opts Options) *Browser {
		b := New(build(), opts)
		if _, err := b.Navigate(site.URL("/")); err != nil {
			t.Fatal(err)
		}
		// Second navigation attaches the cookie (use mediation).
		if _, err := b.Navigate(site.URL("/")); err != nil {
			t.Fatal(err)
		}
		return b
	}

	defCache := core.NewDecisionCache()
	defB := run(Options{Mode: ModeEscudo, Cache: defCache})

	facCache := core.NewDecisionCache()
	facB := run(Options{Mode: ModeEscudo, MonitorFactory: func(PageRef) core.Monitor {
		return core.Compose(&core.ERM{}, core.WithCache(facCache))
	}})

	defSeq, facSeq := defB.Audit.All(), facB.Audit.All()
	if len(defSeq) == 0 {
		t.Fatal("default stack recorded no decisions")
	}
	if len(defSeq) != len(facSeq) {
		t.Fatalf("decision counts diverge: default %d, factory %d", len(defSeq), len(facSeq))
	}
	for i := range defSeq {
		if defSeq[i] != facSeq[i] {
			t.Fatalf("decision %d diverges:\n default: %v\n factory: %v", i, defSeq[i], facSeq[i])
		}
	}
}
