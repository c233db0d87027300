package escudo

// Benchmark harness: one bench (or bench family) per table and figure
// of the paper's evaluation (§6), plus ablation microbenches for the
// design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem .
//
// Figure 4  → BenchmarkFigure4/* (parse+render per scenario, both
//             modes; the cmd/escudo-bench harness prints the paper's
//             table with overhead percentages), and BenchmarkLayout/*
//             (the layout layer alone, per scenario)
// §7 mashup → BenchmarkMashupWidget (a widget script run as the
//             delegated guest: VM, DOM bindings, per-access mediation)
// §6.4      → BenchmarkAttack* (attack corpus execution cost)
// §6.5 "UI events" → BenchmarkUIEventDispatch
// Tables 3/5 → BenchmarkForumPageLoad / BenchmarkCalendarPageLoad
//             (full pipeline on the case-study pages, both modes)
// Ablations → BenchmarkERMAuthorize vs BenchmarkSOPAuthorize (rule
//             evaluation cost), BenchmarkNonceScopes (markup
//             randomization), BenchmarkMediatedDOMWrite (per-access
//             mediation), BenchmarkCookieAttach (use-mediated
//             attachment).

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps/phpbb"
	"repro/internal/apps/phpcal"
	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/html"
	"repro/internal/layout"
	"repro/internal/mashup"
	"repro/internal/nonce"
	"repro/internal/origin"
	"repro/internal/scenarios"
	"repro/internal/template"
	"repro/internal/web"
)

// BenchmarkFigure4 regenerates the Figure 4 measurement as testing.B
// benches: every scenario in both modes.
func BenchmarkFigure4(b *testing.B) {
	for _, sc := range scenarios.All() {
		sc := sc
		b.Run(sc.Name+"/baseline", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scenarios.ParseRender(sc.Markup, false)
			}
		})
		b.Run(sc.Name+"/escudo", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scenarios.ParseRender(sc.Markup, true)
			}
		})
	}
}

// BenchmarkLayout measures the layout layer alone: LayoutHidden over
// each Figure 4 page's parsed ESCUDO tree, with nothing hidden, the
// display list sized and filled once per run.
func BenchmarkLayout(b *testing.B) {
	for _, sc := range scenarios.All() {
		doc := html.Parse(sc.Markup, html.Options{Escudo: true, MaxRing: 3, BaseRing: 3, BaseACL: core.ACL{}})
		b.Run(sc.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				layout.LayoutHidden(doc, layout.DefaultViewportWidth, nil)
			}
		})
	}
}

// BenchmarkMashupWidget measures the mediated script path of the §7
// mashup: each iteration runs one widget source as the guest principal
// on the portal page, under the delegation stack
// Compose(&ERM{}, WithCache(c), WithDelegations(pol)). The widget
// rewrites and reads back its ring-2 slot, which the delegation allows,
// and then tries the ring-1 chrome, which it denies. The audit log is
// emptied outside the timer so it does not grow with b.N.
func BenchmarkMashupWidget(b *testing.B) {
	portal := origin.MustParse("http://portal.example")
	widget := origin.MustParse("http://widget.example")
	bld := template.NewACBuilder(nonce.NewSeqSource(1))
	var slots strings.Builder
	for i := 0; i < 8; i++ {
		slots.WriteString(bld.Wrap(2, core.UniformACL(2), fmt.Sprintf("id=slot%d", i),
			fmt.Sprintf("<p>widget slot %d: forecasts markets mail feeds</p>", i)))
	}
	page := "<html><body>" + bld.Wrap(1, core.UniformACL(1), "id=chrome", "<h1 id=title>My Portal</h1>") +
		bld.Wrap(1, core.UniformACL(2), "id=slots", slots.String()) + "</body></html>"
	net := web.NewNetwork()
	net.Register(portal, web.HandlerFunc(func(*web.Request) *web.Response {
		resp := web.HTML(page)
		resp.Header.Set(core.HeaderMaxRing, core.DefaultMaxRing.String())
		return resp
	}))
	pol := mashup.NewPolicy()
	pol.Delegate(mashup.Delegation{Host: portal, Guest: widget, Floor: 2})
	cache := core.NewDecisionCache()
	br := browser.New(net, browser.Options{MonitorFactory: func(browser.PageRef) core.Monitor {
		return core.Compose(&core.ERM{}, core.WithCache(cache), core.WithDelegations(pol))
	}})
	p, err := br.Navigate(portal.URL("/"))
	if err != nil {
		b.Fatal(err)
	}
	const src = `var slot = document.getElementById("slot3");
slot.innerHTML = "<p>widget 3: sunny, light wind</p>";
var back = slot.innerHTML;
document.getElementById("chrome").innerHTML = "<h1>widget 3 owns this portal</h1>";`
	guest := core.Principal(widget, 0, "widget")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var denied *dom.DeniedError
		if err := p.RunScriptAs(guest, src); !errors.As(err, &denied) {
			b.Fatalf("chrome write not denied: %v", err)
		}
		if i%1024 == 1023 {
			b.StopTimer()
			br.Audit.Reset()
			b.StartTimer()
		}
	}
}

// BenchmarkERMAuthorize measures one ESCUDO rule evaluation — the
// paper's claim is that the model "primarily does bookkeeping" and
// adds no significant per-access cost.
func BenchmarkERMAuthorize(b *testing.B) {
	site := origin.MustParse("http://bench.example")
	erm := &core.ERM{}
	p := core.Principal(site, 2, "p")
	o := core.Object(site, 3, core.UniformACL(2), "o")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		erm.Authorize(p, core.OpWrite, o)
	}
}

// BenchmarkSOPAuthorize is the baseline monitor for comparison.
func BenchmarkSOPAuthorize(b *testing.B) {
	site := origin.MustParse("http://bench.example")
	sop := &core.SOPMonitor{}
	p := core.Principal(site, 2, "p")
	o := core.Object(site, 3, core.UniformACL(2), "o")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sop.Authorize(p, core.OpWrite, o)
	}
}

// forumFixture builds a forum of topics with replies each and a
// browser logged in to it; it returns the URL of the last topic's page.
func forumFixture(b *testing.B, mode browser.Mode, topics, replies int) (*browser.Browser, origin.Origin, string) {
	b.Helper()
	forumOrigin := origin.MustParse("http://forum.example")
	forum := phpbb.New(phpbb.Config{
		Origin: forumOrigin, Escudo: true, Nonces: nonce.NewSeqSource(1),
	})
	forum.AddUser("alice", "pw")
	var id int
	for i := 0; i < topics; i++ {
		id = forum.SeedTopic("alice", fmt.Sprintf("topic %d", i), "body text for the topic")
		for j := 0; j < replies; j++ {
			forum.SeedReply(id, "alice", "a reply with some text in it")
		}
	}
	net := web.NewNetwork()
	net.Register(forumOrigin, forum)
	br := browser.New(net, browser.Options{Mode: mode})
	p, err := br.Navigate(forumOrigin.URL("/"))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.SubmitForm(p.Doc.ByID("loginform"), url.Values{
		"username": {"alice"}, "password": {"pw"},
	}); err != nil {
		b.Fatal(err)
	}
	return br, forumOrigin, forumOrigin.URL(fmt.Sprintf("/viewtopic?t=%d", id))
}

// BenchmarkForumPageLoad measures the full pipeline (fetch → config →
// labeled parse → subresources → layout → scripts) on phpBB pages with
// their Table 3 configuration, in both modes: the index of a 20-topic
// forum, and a topic page of a forum at the perfbench forum
// workload's scale (64 topics of 24 replies).
func BenchmarkForumPageLoad(b *testing.B) {
	for _, mode := range []browser.Mode{browser.ModeSOP, browser.ModeEscudo} {
		mode := mode
		b.Run(mode.String()+"/index", func(b *testing.B) {
			br, forumOrigin, _ := forumFixture(b, mode, 20, 3)
			benchNavigate(b, br, forumOrigin.URL("/"))
		})
		b.Run(mode.String()+"/viewtopic", func(b *testing.B) {
			br, _, topic := forumFixture(b, mode, 64, 24)
			benchNavigate(b, br, topic)
		})
	}
}

// benchNavigate measures repeated navigations to u.
func benchNavigate(b *testing.B, br *browser.Browser, u string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := br.Navigate(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalendarPageLoad measures the PHP-Calendar month view with
// its Table 5 configuration.
func BenchmarkCalendarPageLoad(b *testing.B) {
	for _, mode := range []browser.Mode{browser.ModeSOP, browser.ModeEscudo} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			calOrigin := origin.MustParse("http://calendar.example")
			cal := phpcal.New(phpcal.Config{Origin: calOrigin, Escudo: true, Nonces: nonce.NewSeqSource(1)})
			cal.AddUser("alice", "pw")
			for day := 1; day <= 28; day++ {
				cal.SeedEvent("alice", day, "an event with a description")
			}
			net := web.NewNetwork()
			net.Register(calOrigin, cal)
			br := browser.New(net, browser.Options{Mode: mode})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := br.Navigate(calOrigin.URL("/")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUIEventDispatch measures event delivery + handler run —
// the activity §6.5 reports as having no noticeable overhead.
func BenchmarkUIEventDispatch(b *testing.B) {
	site := origin.MustParse("http://app.example")
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(`<div ring=1 r=1 w=1 x=1 id=app>` +
			`<p id=target onclick="var x = 1 + 1;">click me</p></div>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	for _, mode := range []browser.Mode{browser.ModeSOP, browser.ModeEscudo} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			br := browser.New(net, browser.Options{Mode: mode})
			p, err := br.Navigate(site.URL("/"))
			if err != nil {
				b.Fatal(err)
			}
			target := p.Doc.ByID("target")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.DispatchEvent(target, "click", nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMediatedDOMWrite measures one script-driven DOM write
// through the full mediation stack.
func BenchmarkMediatedDOMWrite(b *testing.B) {
	site := origin.MustParse("http://app.example")
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(`<div ring=1 r=1 w=1 x=1 id=app><p id=msg>x</p></div>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	br := browser.New(net, browser.Options{Mode: browser.ModeEscudo})
	p, err := br.Navigate(site.URL("/"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.RunScriptRing(1, "bench",
			`document.getElementById("msg").innerText = "updated";`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCookieAttach measures use-mediated cookie attachment: a
// same-origin subresource fetch that carries the ring-1 session
// cookie.
func BenchmarkCookieAttach(b *testing.B) {
	br, forumOrigin, _ := forumFixture(b, browser.ModeEscudo, 20, 3)
	p, err := br.Navigate(forumOrigin.URL("/"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.RunScriptRing(1, "bench", `var c = document.cookie;`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNonceScopes isolates the markup-randomization cost: parsing
// a page of nonce-sealed AC scopes versus the same page without
// ESCUDO processing.
func BenchmarkNonceScopes(b *testing.B) {
	var markup string
	for i := 0; i < 100; i++ {
		n := strconv.Itoa(1000 + i)
		markup += `<div ring=3 r=2 w=2 x=2 nonce=` + n + `>content ` + n + `</div nonce=` + n + `>`
	}
	b.Run("baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scenarios.ParseRender(markup, false)
		}
	})
	b.Run("escudo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scenarios.ParseRender(markup, true)
		}
	})
}

// BenchmarkMashupAuthorize measures the delegation-aware monitor vs
// the plain ERM (BenchmarkERMAuthorize) — the §7 extension's cost.
func BenchmarkMashupAuthorize(b *testing.B) {
	host := origin.MustParse("http://portal.example")
	guest := origin.MustParse("http://widget.example")
	pol := NewDelegationPolicy()
	pol.Delegate(Delegation{Host: host, Guest: guest, Floor: 2})
	m := Compose(&ERM{}, DelegationLayer(pol))
	p := core.Principal(guest, 0, "widget")
	o := core.Object(host, 2, core.UniformACL(2), "slot")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Authorize(p, core.OpWrite, o)
	}
}

// BenchmarkAttackXSS measures one full XSS attack trial (environment
// setup + execution + verdict) under ESCUDO — the §6.4 harness cost.
func BenchmarkAttackXSS(b *testing.B) {
	var theft attack.Attack
	for _, a := range attack.Corpus() {
		if a.Name == "phpbb-xss-cookie-theft" {
			theft = a
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := attack.RunOne(theft, browser.ModeEscudo)
		if r.Err != nil || r.Succeeded {
			b.Fatalf("unexpected result %+v", r)
		}
	}
}

// BenchmarkAttackCSRF measures one full CSRF attack trial under
// ESCUDO.
func BenchmarkAttackCSRF(b *testing.B) {
	var img attack.Attack
	for _, a := range attack.Corpus() {
		if a.Name == "phpbb-csrf-img" {
			img = a
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := attack.RunOne(img, browser.ModeEscudo)
		if r.Err != nil || r.Succeeded {
			b.Fatalf("unexpected result %+v", r)
		}
	}
}
