package httpd

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"testing"
	"time"

	"repro/internal/apps/phpbb"
	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/mashup"
	"repro/internal/nonce"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/scenarios"
	"repro/internal/web"
)

// buildSubstrate assembles one deterministic test substrate: the
// Figure-4 scenario server plus a phpBB instance with sequenced
// nonces, so two fresh substrates serve byte-identical traffic.
func buildSubstrate() (*web.Network, origin.Origin, origin.Origin, int) {
	n := web.NewNetwork()
	bench := origin.MustParse("http://bench.example")
	n.Register(bench, scenarios.Handler())
	forumO := origin.MustParse("http://forum.example")
	forum := phpbb.New(phpbb.Config{
		Origin: forumO, Hardened: false, Escudo: true, Nonces: nonce.NewSeqSource(1000),
	})
	forum.AddUser("alice", "pw")
	topic := forum.SeedTopic("alice", "Welcome", "first post")
	n.Register(forumO, forum)
	return n, bench, forumO, topic
}

// runFixedSession drives one deterministic session over the given
// transport: every Figure-4 scenario page (twice, so the session
// cookie exercises use mediation), then a phpBB login, browse, and
// reply. It returns the browser for audit/jar inspection.
func runFixedSession(t *testing.T, transport web.Transport, bench, forumO origin.Origin, topic int) *browser.Browser {
	t.Helper()
	b := browser.New(transport, browser.Options{Mode: browser.ModeEscudo})
	driveFixedWorkload(t, b, bench, forumO, topic)
	return b
}

// driveFixedWorkload runs the fixed session script on an existing
// browser, so provenance tests can wire tracing options first.
func driveFixedWorkload(t *testing.T, b *browser.Browser, bench, forumO origin.Origin, topic int) {
	t.Helper()
	for round := 0; round < 2; round++ {
		for _, path := range scenarios.Paths() {
			if _, err := b.Navigate(bench.URL(path)); err != nil {
				t.Fatalf("navigate %s: %v", path, err)
			}
		}
	}
	p, err := b.Navigate(forumO.URL("/"))
	if err != nil {
		t.Fatalf("forum index: %v", err)
	}
	form := p.Doc.ByID("loginform")
	if form == nil {
		t.Fatal("no loginform")
	}
	if _, err := p.SubmitForm(form, url.Values{"username": {"alice"}, "password": {"pw"}}); err != nil {
		t.Fatalf("login: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Navigate(forumO.URL("/")); err != nil {
			t.Fatalf("forum browse: %v", err)
		}
		tp, err := b.Navigate(forumO.URL(fmt.Sprintf("/viewtopic?t=%d", topic)))
		if err != nil {
			t.Fatalf("viewtopic: %v", err)
		}
		if i == 1 {
			reply := tp.Doc.ByID("replyform")
			if reply == nil {
				t.Fatal("no replyform")
			}
			if _, err := tp.SubmitForm(reply, url.Values{"message": {"equivalence probe"}}); err != nil {
				t.Fatalf("reply: %v", err)
			}
		}
	}
}

// auditTally folds an audit log into a comparable multiset: decision
// counts keyed by (op, allowed, rule).
func auditTally(b *browser.Browser) map[string]int {
	tally := map[string]int{}
	for _, d := range b.Audit.All() {
		tally[fmt.Sprintf("%s|%v|%s", d.Op, d.Allowed, d.Rule)]++
	}
	return tally
}

// TestTransportEquivalence is the transport-independence invariant:
// the same session over the in-memory network and over a real HTTP
// gateway produces identical Escudo verdicts, audit-log decision
// counts, and jars, and the origins see the same requests.
func TestTransportEquivalence(t *testing.T) {
	memNet, bench, forumO, topic := buildSubstrate()
	memBrowser := runFixedSession(t, memNet, bench, forumO, topic)

	httpNet, hBench, hForumO, hTopic := buildSubstrate()
	g := startGateway(t, httpNet, Config{})
	ct := NewClientTransport(g.Addr())
	defer ct.Close()
	httpBrowser := runFixedSession(t, ct, hBench, hForumO, hTopic)

	memDecisions, httpDecisions := memBrowser.Audit.Len(), httpBrowser.Audit.Len()
	if memDecisions == 0 {
		t.Fatal("in-memory session recorded no decisions; workload broken")
	}
	if memDecisions != httpDecisions {
		t.Fatalf("decision counts diverge: in-memory %d, http %d", memDecisions, httpDecisions)
	}
	memTally, httpTally := auditTally(memBrowser), auditTally(httpBrowser)
	if !reflect.DeepEqual(memTally, httpTally) {
		t.Fatalf("audit tallies diverge:\n  in-memory: %v\n  http:      %v", memTally, httpTally)
	}
	if mem, http := len(memBrowser.Audit.Denials()), len(httpBrowser.Audit.Denials()); mem != http {
		t.Fatalf("denial counts diverge: in-memory %d, http %d", mem, http)
	}

	// The cookie jars must agree exactly too — labels, attributes,
	// values (the transports carried identical Set-Cookie streams).
	memJar, httpJar := memBrowser.Jar().All(), httpBrowser.Jar().All()
	if !reflect.DeepEqual(memJar, httpJar) {
		t.Fatalf("jars diverge:\n  in-memory: %+v\n  http:      %+v", memJar, httpJar)
	}

	// The gateway delivers every request to the origin: the server-side
	// request log matches in-memory traffic entry for entry.
	if memLog, httpLog := memNet.LogLines(), httpNet.LogLines(); !reflect.DeepEqual(memLog, httpLog) {
		t.Fatalf("request logs diverge: in-memory %d entries, http %d\n  in-memory: %q\n  http:      %q",
			len(memLog), len(httpLog), memLog, httpLog)
	}
}

// TestTLSTransportEquivalence extends the transport invariant to
// https: the same fixed session over the in-memory network, over a
// plain HTTP gateway, and over a TLS-terminating gateway yields
// identical verdicts, audit decision counts and tallies, cookie jars,
// and server-side request logs. TLS is pure transport; if it ever
// changed a verdict, this test is the tripwire.
func TestTLSTransportEquivalence(t *testing.T) {
	memNet, bench, forumO, topic := buildSubstrate()
	memBrowser := runFixedSession(t, memNet, bench, forumO, topic)

	plainNet, pBench, pForumO, pTopic := buildSubstrate()
	pg := startGateway(t, plainNet, Config{})
	plainCT := NewClientTransport(pg.Addr())
	defer plainCT.Close()
	plainBrowser := runFixedSession(t, plainCT, pBench, pForumO, pTopic)

	// The default TLS transport negotiates HTTP/2 via ALPN; the H1
	// variant pins the same gateway protocol family to HTTP/1.1. Both
	// are full legs of the equivalence check, so a protocol upgrade can
	// never silently change a verdict.
	tlsNet, tBench, tForumO, tTopic := buildSubstrate()
	tg, ca := startGatewayTLS(t, tlsNet, Config{})
	tlsCT := NewClientTransportTLS(tg.Addr(), ca.Pool())
	defer tlsCT.Close()
	tlsBrowser := runFixedSession(t, tlsCT, tBench, tForumO, tTopic)

	h1Net, oBench, oForumO, oTopic := buildSubstrate()
	og, oca := startGatewayTLS(t, h1Net, Config{})
	h1CT := NewClientTransportTLSH1(og.Addr(), oca.Pool())
	defer h1CT.Close()
	h1Browser := runFixedSession(t, h1CT, oBench, oForumO, oTopic)

	if st := tlsCT.Stats(); st.H2Requests == 0 || st.Proto() != "h2" {
		t.Fatalf("default TLS transport did not negotiate h2: %d/%d h2 requests (proto %q)",
			st.H2Requests, st.Requests, st.Proto())
	}
	if st := h1CT.Stats(); st.H2Requests != 0 || st.Proto() != "h1" {
		t.Fatalf("forced-h1 TLS transport spoke h2: %d h2 requests (proto %q)", st.H2Requests, st.Proto())
	}

	mem := memBrowser.Audit.Len()
	if mem == 0 {
		t.Fatal("in-memory session recorded no decisions; workload broken")
	}
	legs := map[string]struct {
		b   *browser.Browser
		net *web.Network
	}{
		"plain http": {plainBrowser, plainNet},
		"tls h2":     {tlsBrowser, tlsNet},
		"tls h1":     {h1Browser, h1Net},
	}
	memTally := auditTally(memBrowser)
	memJar := memBrowser.Jar().All()
	memLog := memNet.LogLines()
	for name, leg := range legs {
		b := leg.b
		if got := b.Audit.Len(); got != mem {
			t.Fatalf("%s decision count diverges: in-memory %d, %s %d", name, mem, name, got)
		}
		if got := auditTally(b); !reflect.DeepEqual(memTally, got) {
			t.Fatalf("%s audit tally diverges:\n  in-memory: %v\n  %s: %v", name, memTally, name, got)
		}
		if m, g := len(memBrowser.Audit.Denials()), len(b.Audit.Denials()); m != g {
			t.Fatalf("%s denial count diverges: in-memory %d, %s %d", name, m, name, g)
		}
		if got := b.Jar().All(); !reflect.DeepEqual(memJar, got) {
			t.Fatalf("%s jar diverges:\n  in-memory: %+v\n  %s: %+v", name, memJar, name, got)
		}
		if got := leg.net.LogLines(); !reflect.DeepEqual(memLog, got) {
			t.Fatalf("%s request log diverges: in-memory %d entries, %s %d\n  in-memory: %q\n  %s: %q",
				name, len(memLog), name, len(got), memLog, name, got)
		}
	}
}

// tlsGatewayWrapper runs each attack environment's network behind its
// own TLS-terminating loopback gateway, all leafs minted by one CA.
// forceH1 pins the client side to HTTP/1.1 (the default negotiates h2
// via ALPN), so both protocol generations cover the corpus.
func tlsGatewayWrapper(t *testing.T, forceH1 bool) attack.TransportWrapper {
	t.Helper()
	ca, err := NewCA()
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	return func(n *web.Network) (web.Transport, func(), error) {
		g, ct, cleanup, err := WrapNetwork(n, Config{TLS: ca}, "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		if !forceH1 {
			return ct, cleanup, nil
		}
		h1 := NewClientTransportTLSH1(g.Addr(), ca.Pool())
		return h1, func() {
			h1.Close()
			cleanup()
		}, nil
	}
}

// TestAttackCorpusOverTLS replays the §6.4 corpus through
// TLS-terminating gateways under Escudo — once over h2 (the default
// ALPN outcome), once pinned to HTTP/1.1 — and demands in-memory
// verdicts both times: 18/18 neutralized, none created or lost by the
// https hop or the protocol generation.
func TestAttackCorpusOverTLS(t *testing.T) {
	for _, leg := range []struct {
		name    string
		forceH1 bool
	}{{"h2", false}, {"h1", true}} {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			wrap := tlsGatewayWrapper(t, leg.forceH1)
			neutralized := 0
			for _, atk := range attack.Corpus() {
				mem := attack.RunOne(atk, browser.ModeEscudo)
				if mem.Err != nil {
					t.Fatalf("%s in-memory: %v", atk.Name, mem.Err)
				}
				overTLS := attack.RunOne(atk, browser.ModeEscudo, attack.Over(wrap))
				if overTLS.Err != nil {
					t.Fatalf("%s over TLS: %v", atk.Name, overTLS.Err)
				}
				if mem.Succeeded != overTLS.Succeeded {
					t.Errorf("%s verdict diverges: in-memory succeeded=%v, tls succeeded=%v",
						atk.Name, mem.Succeeded, overTLS.Succeeded)
				}
				if overTLS.Neutralized() {
					neutralized++
				}
			}
			if neutralized != len(attack.Corpus()) {
				t.Errorf("Escudo over TLS (%s) neutralized %d/%d", leg.name, neutralized, len(attack.Corpus()))
			}
		})
	}
}

// TestCookieFidelityAcrossBoundary pins the Set-Cookie round trip
// byte-for-byte: attributes (Path, HttpOnly) and Escudo ring
// annotations must land in the jar identically whether the response
// crossed a socket or not.
func TestCookieFidelityAcrossBoundary(t *testing.T) {
	build := func() (*web.Network, origin.Origin) {
		n := web.NewNetwork()
		o := origin.MustParse("http://cookies.example")
		n.Register(o, web.HandlerFunc(func(req *web.Request) *web.Response {
			resp := web.HTML("<html><body>cookies</body></html>")
			resp.Header.Set(core.HeaderMaxRing, "3")
			resp.Header.Add(core.HeaderCookie, core.FormatCookieHeader(core.CookieConfig{
				Name: "sess", Ring: 1, ACL: core.UniformACL(1),
			}))
			resp.Header.Add(core.HeaderCookie, core.FormatCookieHeader(core.CookieConfig{
				Name: "prefs", Ring: 3, ACL: core.UniformACL(3),
			}))
			resp.Header.Add("Set-Cookie", "sess=deadbeef; Path=/; HttpOnly")
			resp.Header.Add("Set-Cookie", "prefs=dark; Path=/settings")
			resp.Header.Add("Set-Cookie", "plain=1")
			return resp
		}))
		return n, o
	}

	memNet, memO := build()
	memB := browser.New(memNet, browser.Options{Mode: browser.ModeEscudo})
	if _, err := memB.Navigate(memO.URL("/")); err != nil {
		t.Fatalf("in-memory navigate: %v", err)
	}

	httpNet, httpO := build()
	g := startGateway(t, httpNet, Config{})
	ct := NewClientTransport(g.Addr())
	defer ct.Close()
	httpB := browser.New(ct, browser.Options{Mode: browser.ModeEscudo})
	if _, err := httpB.Navigate(httpO.URL("/")); err != nil {
		t.Fatalf("http navigate: %v", err)
	}

	memJar, httpJar := memB.Jar().All(), httpB.Jar().All()
	if len(memJar) != 3 {
		t.Fatalf("in-memory jar has %d cookies, want 3", len(memJar))
	}
	if !reflect.DeepEqual(memJar, httpJar) {
		t.Fatalf("jar state diverges across the HTTP boundary:\n  in-memory: %+v\n  http:      %+v", memJar, httpJar)
	}
	// Spot-check the attributes the round trip must not flatten.
	for _, c := range httpJar {
		switch c.Name {
		case "sess":
			if !c.HTTPOnly || c.Path != "/" || c.Ring != 1 {
				t.Fatalf("sess cookie mangled: %+v", c)
			}
		case "prefs":
			if c.Path != "/settings" || c.Ring != 3 {
				t.Fatalf("prefs cookie mangled: %+v", c)
			}
		case "plain":
			if c.Ring != 0 {
				t.Fatalf("plain cookie mangled: %+v", c)
			}
		}
	}
}

// gatewayWrapper runs each attack environment's network behind its
// own loopback gateway.
func gatewayWrapper() attack.TransportWrapper {
	return func(n *web.Network) (web.Transport, func(), error) {
		_, ct, cleanup, err := WrapNetwork(n, Config{}, "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		return ct, cleanup, nil
	}
}

// TestAttackCorpusOverSockets replays the full §6.4 corpus through a
// real gateway in both modes and demands verdicts identical to the
// in-memory replay: all 18 neutralized under Escudo, and the SOP
// verdicts unchanged too (the gateway must not accidentally defend).
func TestAttackCorpusOverSockets(t *testing.T) {
	for _, mode := range []browser.Mode{browser.ModeEscudo, browser.ModeSOP} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			neutralized := 0
			for _, atk := range attack.Corpus() {
				mem := attack.RunOne(atk, mode)
				if mem.Err != nil {
					t.Fatalf("%s in-memory: %v", atk.Name, mem.Err)
				}
				overHTTP := attack.RunOne(atk, mode, attack.Over(gatewayWrapper()))
				if overHTTP.Err != nil {
					t.Fatalf("%s over sockets: %v", atk.Name, overHTTP.Err)
				}
				if mem.Succeeded != overHTTP.Succeeded {
					t.Errorf("%s verdict diverges: in-memory succeeded=%v, sockets succeeded=%v",
						atk.Name, mem.Succeeded, overHTTP.Succeeded)
				}
				if overHTTP.Neutralized() {
					neutralized++
				}
			}
			if mode == browser.ModeEscudo && neutralized != len(attack.Corpus()) {
				t.Errorf("Escudo over sockets neutralized %d/%d", neutralized, len(attack.Corpus()))
			}
		})
	}
}

// TestGenerationIsolationEquivalence extends the transport-
// independence invariant to the control plane: a policy version push
// lands mid-session on every leg — the in-memory store, a plain
// gateway, a TLS/h2 gateway, and a TLS/h1 gateway — and each leg must
// produce the identical verdict sequence with zero mixed-generation
// pages (standing invariant 8: a page load observes exactly one
// policy generation, whatever the transport).
func TestGenerationIsolationEquivalence(t *testing.T) {
	type leg struct {
		name string
		b    *browser.Browser
	}
	var legs []leg

	// The post-flip half re-browses the whole substrate on the already
	// logged-in session (driveFixedWorkload's login form is gone once
	// the session is established).
	drivePostFlip := func(t *testing.T, b *browser.Browser, bench, forumO origin.Origin, topic int) {
		t.Helper()
		for _, path := range scenarios.Paths() {
			if _, err := b.Navigate(bench.URL(path)); err != nil {
				t.Fatalf("post-flip navigate %s: %v", path, err)
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := b.Navigate(forumO.URL("/")); err != nil {
				t.Fatalf("post-flip forum browse: %v", err)
			}
			if _, err := b.Navigate(forumO.URL(fmt.Sprintf("/viewtopic?t=%d", topic))); err != nil {
				t.Fatalf("post-flip viewtopic: %v", err)
			}
		}
	}

	// Leg 1: in-memory deployment pinning generations straight off a
	// local store.
	{
		n, bench, forumO, topic := buildSubstrate()
		store := ctlplane.NewStore()
		doc := scenarios.Policy(bench)
		if _, _, err := store.Set(doc); err != nil {
			t.Fatalf("seed store: %v", err)
		}
		b := browser.New(n, browser.Options{Mode: browser.ModeEscudo, PolicyGen: store.Generation})
		driveFixedWorkload(t, b, bench, forumO, topic)
		// The version push: same document content (the flip must not
		// change verdicts), new generation.
		if _, _, err := store.Set(doc); err != nil {
			t.Fatalf("flip store: %v", err)
		}
		drivePostFlip(t, b, bench, forumO, topic)
		legs = append(legs, leg{"memory", b})
	}

	// Gateway legs: the generation travels the admin plane — a watcher
	// long-polls /policyz and the flip arrives via POST /policyz/reload.
	runGatewayLeg := func(name string, withTLS, forceH1 bool) {
		n, bench, forumO, topic := buildSubstrate()
		doc := scenarios.Policy(bench)
		cfg := Config{Origins: map[string]policy.Policy{bench.String(): doc}}
		var (
			transport web.Transport
			addr      string
			client    *http.Client
			scheme    = "http"
		)
		if withTLS {
			g, ca := startGatewayTLS(t, n, cfg)
			addr, scheme = g.Addr(), "https"
			client = &http.Client{
				Transport: &http.Transport{TLSClientConfig: &tls.Config{RootCAs: ca.Pool(), MinVersion: tls.VersionTLS12}},
				Timeout:   15 * time.Second,
			}
			if forceH1 {
				ct := NewClientTransportTLSH1(addr, ca.Pool())
				defer ct.Close()
				transport = ct
			} else {
				ct := NewClientTransportTLS(addr, ca.Pool())
				defer ct.Close()
				transport = ct
			}
		} else {
			g := startGateway(t, n, cfg)
			addr = g.Addr()
			ct := NewClientTransport(addr)
			defer ct.Close()
			transport = ct
		}

		w := ctlplane.NewWatcher(ctlplane.WatcherConfig{
			Addr: addr, Scheme: scheme, Client: client,
			HoldFor: 2 * time.Second, PollInterval: 10 * time.Millisecond,
		})
		if err := w.Start(context.Background()); err != nil {
			t.Fatalf("%s: watcher start: %v", name, err)
		}
		defer w.Stop()

		b := browser.New(transport, browser.Options{Mode: browser.ModeEscudo, PolicyGen: w.Generation})
		driveFixedWorkload(t, b, bench, forumO, topic)

		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		res, err := ctlplane.PostReload(context.Background(), client, scheme, addr, data)
		if err != nil {
			t.Fatalf("%s: reload: %v", name, err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for w.Generation() < res.Generation {
			if time.Now().After(deadline) {
				t.Fatalf("%s: watcher never observed generation %d", name, res.Generation)
			}
			time.Sleep(5 * time.Millisecond)
		}
		drivePostFlip(t, b, bench, forumO, topic)
		legs = append(legs, leg{name, b})
	}
	runGatewayLeg("plain http", false, false)
	runGatewayLeg("tls h2", true, false)
	runGatewayLeg("tls h1", true, true)

	// Verdict sequences are identical across every leg...
	ref := legs[0]
	refLen, refTally := ref.b.Audit.Len(), auditTally(ref.b)
	if refLen == 0 {
		t.Fatal("reference leg recorded no decisions; workload broken")
	}
	for _, l := range legs[1:] {
		if got := l.b.Audit.Len(); got != refLen {
			t.Fatalf("%s decision count diverges across the flip: %s %d, %s %d", l.name, ref.name, refLen, l.name, got)
		}
		if got := auditTally(l.b); !reflect.DeepEqual(refTally, got) {
			t.Fatalf("%s audit tally diverges:\n  %s: %v\n  %s: %v", l.name, ref.name, refTally, l.name, got)
		}
	}
	// ...and no leg let a page load straddle the flip: pages ran under
	// both generations, none under two at once.
	for _, l := range legs {
		mix := l.b.Audit.GenerationMix()
		if mix.Pages == 0 {
			t.Fatalf("%s: no page-pinned decisions recorded", l.name)
		}
		if mix.Generations != 2 {
			t.Fatalf("%s: pages ran under %d generations, want both sides of the flip", l.name, mix.Generations)
		}
		if mix.Mixed != 0 {
			t.Fatalf("%s: %d page loads mixed generations", l.name, mix.Mixed)
		}
	}
}

// buildPortalSubstrate assembles a deterministic mashup substrate: a
// portal host page (ring-1 chrome, ring-2 slot) and a widget origin.
func buildPortalSubstrate() (*web.Network, origin.Origin, origin.Origin) {
	n := web.NewNetwork()
	portal := origin.MustParse("http://portal.example")
	widget := origin.MustParse("http://widget.example")
	n.Register(portal, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(`<html><body>` +
			`<div ring=1 r=1 w=1 x=1 id=chrome><h1 id=title>Portal</h1></div>` +
			`<div ring=2 r=2 w=2 x=2 id=slot>loading</div>` +
			`</body></html>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	n.Register(widget, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML(`<html><body><p id=w>widget</p></body></html>`)
	}))
	return n, portal, widget
}

// runDelegatedSession drives one deterministic §7 session over the
// given transport: the delegation-aware stack is mounted through
// browser.Options.MonitorFactory, the delegated widget renders into
// its slot, overreaches into ring-1 chrome (denied), and an
// undelegated rogue origin is denied by the origin rule. It returns
// the browser and the three verdict outcomes.
func runDelegatedSession(t *testing.T, transport web.Transport, portal, widget origin.Origin) (*browser.Browser, [3]bool) {
	t.Helper()
	pol := mashup.NewPolicy()
	pol.Delegate(mashup.Delegation{Host: portal, Guest: widget, Floor: 2})
	b := browser.New(transport, browser.Options{
		Mode: browser.ModeEscudo,
		MonitorFactory: func(browser.PageRef) core.Monitor {
			return core.Compose(&core.ERM{}, core.WithDelegations(pol))
		},
	})
	p, err := b.Navigate(portal.URL("/"))
	if err != nil {
		t.Fatalf("portal navigate: %v", err)
	}
	var verdicts [3]bool
	verdicts[0] = p.RunScriptAs(core.Principal(widget, 0, "widget"),
		`document.getElementById("slot").innerHTML = "<p id=forecast>Sunny</p>";`) == nil
	verdicts[1] = p.RunScriptAs(core.Principal(widget, 0, "widget"),
		`document.getElementById("title").innerHTML = "pwned";`) == nil
	verdicts[2] = p.RunScriptAs(core.Principal(origin.MustParse("http://rogue.example"), 0, "rogue"),
		`var x = document.getElementById("slot").innerHTML;`) == nil
	return b, verdicts
}

// TestDelegationTransportEquivalence extends the transport-
// independence invariant to the §7 delegation model: the same
// delegated mashup session over the in-memory network and over a real
// HTTP gateway yields identical verdicts and audit decision counts.
func TestDelegationTransportEquivalence(t *testing.T) {
	memNet, memPortal, memWidget := buildPortalSubstrate()
	memB, memVerdicts := runDelegatedSession(t, memNet, memPortal, memWidget)

	httpNet, hPortal, hWidget := buildPortalSubstrate()
	g := startGateway(t, httpNet, Config{})
	ct := NewClientTransport(g.Addr())
	defer ct.Close()
	httpB, httpVerdicts := runDelegatedSession(t, ct, hPortal, hWidget)

	if memVerdicts != [3]bool{true, false, false} {
		t.Fatalf("in-memory verdicts = %v, want slot allowed, chrome and rogue denied", memVerdicts)
	}
	if memVerdicts != httpVerdicts {
		t.Fatalf("verdicts diverge: in-memory %v, http %v", memVerdicts, httpVerdicts)
	}
	if mem, http := memB.Audit.Len(), httpB.Audit.Len(); mem == 0 || mem != http {
		t.Fatalf("audit decision counts diverge: in-memory %d, http %d", mem, http)
	}
	memTally, httpTally := auditTally(memB), auditTally(httpB)
	if !reflect.DeepEqual(memTally, httpTally) {
		t.Fatalf("audit tallies diverge:\n  in-memory: %v\n  http:      %v", memTally, httpTally)
	}
	if mem, http := len(memB.Audit.Denials()), len(httpB.Audit.Denials()); mem == 0 || mem != http {
		t.Fatalf("denial counts diverge: in-memory %d, http %d", mem, http)
	}
}
