package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net/url"
	"strings"

	"repro/internal/apps/phpbb"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/engine"
	"repro/internal/html"
	"repro/internal/httpd"
	"repro/internal/mashup"
	"repro/internal/nonce"
	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/scenarios"
	"repro/internal/template"
	"repro/internal/web"
)

// An op is one user action of the session: a navigation, a form submit
// with its redirect, or a script run on a loaded page.
type op struct {
	kind opKind
	arg  int
}

type opKind uint8

const (
	opNavigate opKind = iota // figure4: arg is the page index
	opView                   // forum: viewtopic, arg is the topic index
	opIndex                  // forum: the topic list
	opReply                  // forum: reply POST → 303 → GET, arg is the topic index
	opPortal                 // mashup: load the portal page
	opWidget                 // mashup: widget script run, arg is the source index
)

// label names an op's kind for the per-kind latency breakdown.
func (o op) label() string {
	switch o.kind {
	case opNavigate:
		return fmt.Sprintf("S%d", o.arg+1)
	case opView:
		return "viewtopic"
	case opIndex:
		return "index"
	case opReply:
		return "reply"
	case opPortal:
		return "portal"
	default:
		return "widget"
	}
}

// spec describes one workload. Its length is fixed by op count, never
// by wall time: a run makes rate × --seconds timed ops, so a faster
// build does exactly the same work in less time.
type spec struct {
	name string
	// rate is the nominal timed ops per --seconds second.
	rate int
	// cycle is the op-sequence period. Warm-up and timed sequences
	// hold whole cycles, so every run has the same op mix.
	cycle int
	// warm is the fixed warm-up op count run inside set-up.
	warm int
	// fixedDecisions gates every op on making as many audited
	// decisions as the first op of the same kind and argument did
	// (complete mediation of an unchanging page).
	fixedDecisions bool
	// gen returns n ops (a multiple of cycle) drawn from rng.
	gen func(rng *rand.Rand, n int) []op
	// build sets the workload up on a fresh substrate.
	build func(cfg fixtureConfig) (fixture, error)
}

var specs = []*spec{figure4Spec, forumSpec, mashupSpec}

func specByName(name string) (*spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return nil, false
}

// fixtureConfig is what a set-up needs beyond the seed: the browser
// mode, and the tracing seams (all nil in an untraced pass).
type fixtureConfig struct {
	seed   uint64
	mode   browser.Mode
	tr     *tracer
	stages *obs.StageSet
}

// fixture is one set-up workload instance: a one-session engine pool
// over its substrate, and the workload's op semantics and gates.
type fixture interface {
	base() *session
	// do runs one op on the session and checks its outputs.
	do(s *engine.Session, o op) error
	// finish checks the end-of-window gates.
	finish() error
}

// session is the part every fixture shares.
type session struct {
	pool  *engine.Pool
	cache *core.DecisionCache
	net   *web.Network
	// stack builds the policy stack below the browser's audit layer
	// over a given cache: the same composition the session uses, for
	// the replay's region authorization.
	stack func(c *core.DecisionCache) core.Monitor
	// client and gw are set when the session fetches through the TLS
	// gateway.
	client *httpd.ClientTransport
	gw     *httpd.Gateway
	tr     *tracer
}

// runScript is Page.RunScriptAs, timed as a script.run span when
// traced.
func (s *session) runScript(p *browser.Page, principal core.Context, src string) error {
	sp := s.tr.begin(spanScript)
	err := p.RunScriptAs(principal, src)
	s.tr.end(sp)
	return err
}

// do runs fn on the session's browser through the pool, outside any
// timed op: set-up steps such as logging in.
func (s *session) do(fn func(b *browser.Browser) error) error {
	var err error
	if serr := s.pool.Submit(func(es *engine.Session) error { err = fn(es.Browser); return err }); serr != nil {
		return serr
	}
	s.pool.Wait()
	return err
}

func (s *session) close() {
	s.pool.Close()
	if s.client != nil {
		s.client.Close()
	}
	if s.gw != nil {
		s.gw.Close() //nolint:errcheck // teardown: a shutdown deadline error is not actionable
	}
}

func (s *session) audit() *core.AuditLog { return s.pool.Sessions()[0].Browser.Audit }

// newSession starts the one-session pool. With a tracer the session's
// transport and its policy stack are wrapped in timing seams, and obs
// stage clocks are switched on; the policy stack itself is unchanged.
func newSession(cfg fixtureConfig, net *web.Network, transport web.Transport, stack func(*core.DecisionCache) core.Monitor) (*session, error) {
	s := &session{cache: core.NewDecisionCache(), net: net, stack: stack, tr: cfg.tr}
	opts := browser.Options{Mode: cfg.mode}
	switch {
	case stack == nil && cfg.mode == sopMode:
		s.stack = sopStack
	case stack == nil:
		s.stack = func(c *core.DecisionCache) core.Monitor { return core.Compose(&core.ERM{}, core.WithCache(c)) }
	default:
		opts.MonitorFactory = func(browser.PageRef) core.Monitor { return stack(s.cache) }
	}
	if cfg.tr != nil {
		transport = &timedTransport{inner: transport, tr: cfg.tr, kind: spanRoundTrip, capture: true}
		opts.MonitorFactory = func(browser.PageRef) core.Monitor {
			return &timedMonitor{inner: s.stack(s.cache), tr: cfg.tr}
		}
	}
	pool, err := engine.NewPool(engine.Config{
		Sessions:  1,
		Transport: transport,
		Options:   opts,
		Cache:     s.cache,
		Stages:    cfg.stages,
	})
	if err != nil {
		return nil, err
	}
	s.pool = pool
	return s, nil
}

// ---- figure4 ----

var figure4Spec = &spec{
	name:           "figure4",
	rate:           1000,
	cycle:          8,
	warm:           160,
	fixedDecisions: true,
	gen: func(rng *rand.Rand, n int) []op {
		ops := make([]op, 0, n)
		for len(ops) < n {
			for _, p := range rng.Perm(8) {
				ops = append(ops, op{kind: opNavigate, arg: p})
			}
		}
		return ops
	},
	build: func(cfg fixtureConfig) (fixture, error) {
		net := web.NewNetwork()
		bench := origin.MustParse("http://bench.example")
		net.Register(bench, scenarios.Handler())
		s, err := newSession(cfg, net, net, nil)
		if err != nil {
			return nil, err
		}
		f := &figure4{session: s}
		for _, p := range scenarios.Paths() {
			f.urls = append(f.urls, bench.URL(p))
		}
		// The first response sets the session cookie; from then on every
		// load makes the same decisions, cookie use included.
		if err := s.do(func(b *browser.Browser) error { _, err := b.Navigate(bench.URL("/")); return err }); err != nil {
			s.close()
			return nil, err
		}
		return f, nil
	},
}

type figure4 struct {
	*session
	urls []string
}

func (f *figure4) base() *session { return f.session }

func (f *figure4) do(s *engine.Session, o op) error {
	p, err := s.Browser.Navigate(f.urls[o.arg])
	if err != nil {
		return err
	}
	if len(p.ScriptErrors) > 0 {
		return fmt.Errorf("figure4 S%d: script error: %v", o.arg+1, p.ScriptErrors[0])
	}
	return nil
}

func (f *figure4) finish() error { return nil }

// ---- forum ----

const (
	forumTopics  = 64
	forumReplies = 24 // seeded replies per topic
	forumUser    = "alice"
	forumPass    = "alicepw"
)

var forumSpec = &spec{
	name:  "forum",
	rate:  800,
	cycle: 10,
	warm:  300,
	// Each cycle: seven viewtopic reads of seeded topics and one index
	// load in seeded order, then a read of the rotating topic and a
	// reply to it. Replies rotate over the topics, so the state a run
	// adds is fixed by its op count.
	gen: func(rng *rand.Rand, n int) []op {
		ops := make([]op, 0, n)
		for c := 0; len(ops) < n; c++ {
			block := []op{{kind: opIndex}}
			for i := 0; i < 7; i++ {
				block = append(block, op{kind: opView, arg: rng.IntN(forumTopics)})
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			t := c % forumTopics
			ops = append(ops, block...)
			ops = append(ops, op{kind: opView, arg: t}, op{kind: opReply, arg: t})
		}
		return ops
	},
	build: buildForum,
}

type forum struct {
	*session
	app    *phpbb.App
	topics []int
	words  []string
	// index and views are the URLs the session navigates to.
	index string
	views []string
	// cur is the session's current page: a reply submits its form.
	cur *browser.Page
	// replies counts the reply ops issued per topic index.
	replies [forumTopics]int
}

func buildForum(cfg fixtureConfig) (fixture, error) {
	rng := rand.New(rand.NewPCG(cfg.seed, 0x666f72756d))
	o := origin.MustParse("http://forum.example")
	app := phpbb.New(phpbb.Config{Origin: o, Hardened: true, Escudo: true, Nonces: nonce.NewSeqSource(cfg.seed << 20)})
	app.AddUser(forumUser, forumPass)
	app.AddUser("bob", "bobpw")
	f := &forum{app: app, words: strings.Fields(
		"lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod tempor incididunt ut labore et dolore magna aliqua")}
	for i := 0; i < forumTopics; i++ {
		id := app.SeedTopic("bob", fmt.Sprintf("topic %d %s", i, f.text(rng, 4)), f.text(rng, 24))
		for r := 0; r < forumReplies; r++ {
			app.SeedReply(id, "bob", f.text(rng, 16))
		}
		f.topics = append(f.topics, id)
		f.views = append(f.views, o.URL(fmt.Sprintf("/viewtopic?t=%d", id)))
	}
	f.index = o.URL("/")
	net := web.NewNetwork()
	net.Register(o, app)

	ca, err := httpd.NewCA()
	if err != nil {
		return nil, err
	}
	var inner web.Transport = net
	if cfg.tr != nil {
		inner = &timedTransport{inner: net, tr: cfg.tr, kind: spanHandler}
	}
	gw, err := httpd.New(httpd.Config{Inner: inner, TLS: ca, Stages: cfg.stages})
	if err != nil {
		return nil, err
	}
	if err := gw.MountNetwork(net); err != nil {
		return nil, err
	}
	if err := gw.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	client := httpd.NewClientTransportTLS(gw.Addr(), ca.Pool())
	s, err := newSession(cfg, net, client, nil)
	if err != nil {
		client.Close()
		gw.Close() //nolint:errcheck // set-up failed already
		return nil, err
	}
	s.client, s.gw = client, gw
	f.session = s
	if err := f.login(); err != nil {
		s.close()
		return nil, err
	}
	return f, nil
}

// text draws n seeded words.
func (f *forum) text(rng *rand.Rand, n int) string {
	w := make([]string, n)
	for i := range w {
		w[i] = f.words[rng.IntN(len(f.words))]
	}
	return strings.Join(w, " ")
}

func (f *forum) base() *session { return f.session }

func (f *forum) login() error {
	return f.session.do(func(b *browser.Browser) error {
		p, err := b.Navigate(f.index)
		if err != nil {
			return err
		}
		form := p.Doc.ByID("loginform")
		if form == nil {
			return errors.New("forum: no login form")
		}
		if f.cur, err = submit(b, p, form, url.Values{"username": {forumUser}, "password": {forumPass}}); err != nil {
			return err
		}
		if f.cur.Doc.ByID("whoami") == nil {
			return errors.New("forum: login did not yield the logged-in index")
		}
		return nil
	})
}

// submit posts a form and follows its 303 the way the browser follows
// redirects: the GET keeps the form element as its initiator.
func submit(b *browser.Browser, p *browser.Page, form *html.Node, fields url.Values) (*browser.Page, error) {
	resp, err := p.SubmitForm(form, fields)
	if err != nil {
		return nil, err
	}
	if resp.Status != 303 {
		return nil, fmt.Errorf("form submit: status %d, want 303", resp.Status)
	}
	next, err := origin.Resolve(p.URL, resp.Header.Get("Location"))
	if err != nil {
		return nil, err
	}
	initiator := core.Context{Origin: p.Origin, Ring: form.Ring, ACL: form.ACL, Label: "form"}
	return b.NavigateFrom(initiator, next, "redirect")
}

func (f *forum) do(s *engine.Session, o op) error {
	var p *browser.Page
	var err error
	switch o.kind {
	case opIndex:
		if p, err = s.Browser.Navigate(f.index); err != nil {
			return err
		}
		if p.Doc.ByID("whoami") == nil {
			return errors.New("forum index: not the logged-in view")
		}
	case opView:
		if p, err = s.Browser.Navigate(f.views[o.arg]); err != nil {
			return err
		}
		if err := loggedInTopic(p); err != nil {
			return err
		}
	case opReply:
		form := f.cur.Doc.ByID("replyform")
		if form == nil || f.cur.URL != f.views[o.arg] {
			return fmt.Errorf("forum reply: current page %s is not topic %d", f.cur.URL, f.topics[o.arg])
		}
		f.replies[o.arg]++
		msg := fmt.Sprintf("reply %d to topic %d", f.replies[o.arg], f.topics[o.arg])
		if p, err = submit(s.Browser, f.cur, form, url.Values{"message": {msg}}); err != nil {
			return err
		}
		if err := loggedInTopic(p); err != nil {
			return err
		}
	default:
		return fmt.Errorf("forum: unexpected op %d", o.kind)
	}
	f.cur = p
	return nil
}

// loggedInTopic checks that a topic page is the logged-in view: only
// a logged-in session gets the reply form's CSRF token.
func loggedInTopic(p *browser.Page) error {
	form := p.Doc.ByID("replyform")
	if form == nil {
		return fmt.Errorf("forum %s: no reply form", p.URL)
	}
	ok := false
	html.Walk(form, func(n *html.Node) bool {
		if name, _ := n.Attr("name"); n.Tag == "input" && name == "token" {
			v, _ := n.Attr("value")
			ok = v != ""
		}
		return true
	})
	if !ok {
		return fmt.Errorf("forum %s: not the logged-in view", p.URL)
	}
	return nil
}

// finish checks that every reply the session issued landed exactly
// once, with its text.
func (f *forum) finish() error {
	for i, id := range f.topics {
		t, ok := f.app.TopicByID(id)
		if !ok {
			return fmt.Errorf("forum: topic %d vanished", id)
		}
		if got := len(t.Replies) - forumReplies; got != f.replies[i] {
			return fmt.Errorf("forum: topic %d has %d new replies, the session issued %d", id, got, f.replies[i])
		}
		if f.replies[i] > 0 {
			want := fmt.Sprintf("reply %d to topic %d", f.replies[i], id)
			if last := t.Replies[len(t.Replies)-1].Body; last != want {
				return fmt.Errorf("forum: topic %d last reply %q, want %q", id, last, want)
			}
		}
	}
	return nil
}

// ---- mashup ----

const mashupSlots = 8

var mashupSpec = &spec{
	name:  "mashup",
	rate:  16000,
	cycle: 10,
	warm:  4000,
	// Each cycle: a portal load and four widget ops, twice; the eight
	// widget ops use the eight sources once each, in seeded order.
	gen: func(rng *rand.Rand, n int) []op {
		ops := make([]op, 0, n)
		for len(ops) < n {
			perm := rng.Perm(mashupSlots)
			for half := 0; half < 2; half++ {
				ops = append(ops, op{kind: opPortal})
				for _, src := range perm[4*half : 4*half+4] {
					ops = append(ops, op{kind: opWidget, arg: src})
				}
			}
		}
		return ops
	},
	build: buildMashup,
}

type mashupFixture struct {
	*session
	portalURL string
	widget    origin.Origin
	sources   [mashupSlots]string
	cur       *browser.Page
}

func buildMashup(cfg fixtureConfig) (fixture, error) {
	portal := origin.MustParse("http://portal.example")
	widget := origin.MustParse("http://widget.example")
	bld := template.NewACBuilder(nonce.NewSeqSource(cfg.seed << 20))
	var b strings.Builder
	b.WriteString("<html><head><title>portal</title></head><body>")
	b.WriteString(bld.Wrap(1, core.UniformACL(1), "id=chrome", "<h1 id=title>My Portal</h1>"))
	var slots strings.Builder
	for i := 0; i < mashupSlots; i++ {
		slots.WriteString(bld.Wrap(2, core.UniformACL(2), fmt.Sprintf("id=slot%d", i),
			fmt.Sprintf("<p>widget slot %d: forecasts markets mail feeds</p>", i)))
	}
	b.WriteString(bld.Wrap(1, core.UniformACL(2), "id=slots", slots.String()))
	b.WriteString(`<iframe src="http://widget.example/widget"></iframe>`)
	b.WriteString(bld.Wrap(1, core.UniformACL(1), "id=refresh",
		`<script id=reader>var snapshot = document.getElementById("slots").innerHTML;</script>`))
	b.WriteString("</body></html>")
	page := b.String()

	net := web.NewNetwork()
	net.Register(portal, web.HandlerFunc(func(*web.Request) *web.Response {
		resp := web.HTML(page)
		resp.Header.Set(core.HeaderMaxRing, core.DefaultMaxRing.String())
		return resp
	}))
	net.Register(widget, web.HandlerFunc(func(*web.Request) *web.Response {
		return web.HTML(`<html><body><p id=w>widget content</p></body></html>`)
	}))
	pol := mashup.NewPolicy()
	pol.Delegate(mashup.Delegation{Host: portal, Guest: widget, Floor: 2})
	stack := func(c *core.DecisionCache) core.Monitor {
		return core.Compose(&core.ERM{}, core.WithCache(c), core.WithDelegations(pol))
	}
	s, err := newSession(cfg, net, net, stack)
	if err != nil {
		return nil, err
	}
	f := &mashupFixture{session: s, portalURL: portal.URL("/"), widget: widget}
	for i := range f.sources {
		f.sources[i] = fmt.Sprintf(`var slot = document.getElementById("slot%d");
slot.innerHTML = "<p>widget %d: sunny, light wind</p>";
var back = slot.innerHTML;
document.getElementById("chrome").innerHTML = "<h1>widget %d owns this portal</h1>";`, i, i, i)
	}
	return f, nil
}

func (f *mashupFixture) base() *session { return f.session }

func (f *mashupFixture) do(s *engine.Session, o op) error {
	switch o.kind {
	case opPortal:
		p, err := s.Browser.Navigate(f.portalURL)
		if err != nil {
			return err
		}
		if len(p.ScriptErrors) > 0 {
			return fmt.Errorf("mashup portal: slot-reading script failed: %v", p.ScriptErrors[0])
		}
		if len(p.Frames) != 1 || p.Frames[0].Page == nil {
			return errors.New("mashup portal: widget frame did not load")
		}
		f.cur = p
		return nil
	case opWidget:
		return f.widgetOp(o.arg)
	default:
		return fmt.Errorf("mashup: unexpected op %d", o.kind)
	}
}

// widgetOp runs widget source i as the guest principal: its slot write
// and read must be allowed, its chrome write denied.
func (f *mashupFixture) widgetOp(i int) error {
	p := f.cur
	err := f.runScript(p, core.Principal(f.widget, 0, "widget"), f.sources[i])
	var denied *dom.DeniedError
	if !errors.As(err, &denied) {
		return fmt.Errorf("mashup widget %d: chrome write not denied (err %v)", i, err)
	}
	if denied.Decision.Object.Ring != 1 {
		return fmt.Errorf("mashup widget %d: denied on ring-%d %s, want the ring-1 chrome", i, denied.Decision.Object.Ring, denied.Decision.Object.Label)
	}
	want := fmt.Sprintf("widget %d: sunny, light wind", i)
	if got := html.InnerText(p.Doc.ByID(fmt.Sprintf("slot%d", i))); got != want {
		return fmt.Errorf("mashup widget %d: slot reads %q after the delegated write, want %q", i, got, want)
	}
	if got := html.InnerText(p.Doc.ByID("title")); got != "My Portal" {
		return fmt.Errorf("mashup widget %d: chrome changed to %q", i, got)
	}
	return nil
}

func (f *mashupFixture) finish() error { return nil }
