// Package phpcal is a functional re-implementation of the PHP-Calendar
// application, the paper's second case study (§6.2): a multi-user
// online calendar where a group collaboratively creates and tracks
// events. Pages carry the exact ESCUDO configuration of Table 5:
//
//	cookies, XMLHttpRequest, application content → ring 1 (ACL ≤ 1)
//	calendar events                              → ring 3 (ACL ≤ 2)
//
// so "the various calendar events are isolated from one another".
// Like phpbb, it has hardened/unhardened modes mirroring the defenses
// §6.4 removed (PHP-Calendar "had no protection mechanisms for CSRF
// attacks" at all, so its hardened mode only adds input validation).
package phpcal

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/html"
	"repro/internal/nonce"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/template"
	"repro/internal/web"
)

// CookieSession is the calendar's session cookie.
const CookieSession = "phpc_session"

// Ring assignment of Table 5.
var (
	// RingApp is the ring of application content, cookies, and XHR.
	RingApp = core.Ring(1)
	// RingEvent is the ring of calendar events.
	RingEvent = core.Ring(3)
	// ACLApp restricts app content to rings 0-1.
	ACLApp = core.UniformACL(1)
	// ACLEvent lets rings 0-2 manipulate events; ring-3 principals
	// (other events' scripts) cannot.
	ACLEvent = core.UniformACL(2)
	// ACLHead restricts the head to ring 0.
	ACLHead = core.UniformACL(0)
)

// Config configures the app.
type Config struct {
	// Origin the app is served from.
	Origin origin.Origin
	// Hardened enables input sanitization.
	Hardened bool
	// Escudo controls emission of the ESCUDO configuration.
	Escudo bool
	// Nonces supplies markup-randomization nonces; nil = crypto.
	Nonces nonce.Source
}

// Event is one calendar event.
type Event struct {
	ID     int
	Author string
	Day    int // day of the (single, abstract) month, 1..31
	Text   string
}

// App is the calendar application.
type App struct {
	mu       sync.Mutex
	cfg      Config
	users    map[string]string
	sessions map[string]string
	events   []*Event
	nextID   int
	builder  *template.ACBuilder
	// maxRingHeader, cookieHeaders and apiHeaders are Policy's
	// X-Escudo header values, lowered once.
	maxRingHeader             string
	cookieHeaders, apiHeaders []string
}

var _ web.Handler = (*App)(nil)

// New creates an app.
func New(cfg Config) *App {
	a := &App{
		cfg:      cfg,
		users:    map[string]string{},
		sessions: map[string]string{},
		builder:  template.NewACBuilder(cfg.Nonces),
	}
	a.maxRingHeader, a.cookieHeaders, a.apiHeaders = a.Policy().PageConfig().HeaderValues()
	return a
}

// AddUser registers a user.
func (a *App) AddUser(name, password string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.users[name] = password
}

// Events returns a snapshot of all events sorted by day then id.
func (a *App) Events() []Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Event, len(a.events))
	for i, e := range a.events {
		out[i] = *e
	}
	slices.SortFunc(out, func(x, y Event) int {
		return cmp.Or(cmp.Compare(x.Day, y.Day), cmp.Compare(x.ID, y.ID))
	})
	return out
}

// EventByID returns a snapshot of one event.
func (a *App) EventByID(id int) (Event, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.events {
		if e.ID == id {
			return *e, true
		}
	}
	return Event{}, false
}

// SeedEvent inserts an event directly into the store, as the attack
// harness's malicious registered user would.
func (a *App) SeedEvent(author string, day int, text string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nextID++
	a.events = append(a.events, &Event{ID: a.nextID, Author: author, Day: day, Text: text})
	return a.nextID
}

// Login authenticates and creates a session.
func (a *App) Login(user, password string) (sid string, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.users[user] != password {
		return "", fmt.Errorf("phpcal: bad credentials for %q", user)
	}
	a.nextID++
	sid = fmt.Sprintf("cal%06d", a.nextID)
	a.sessions[sid] = user
	return sid, nil
}

// SessionUser resolves a session id.
func (a *App) SessionUser(sid string) (string, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	u, ok := a.sessions[sid]
	return u, ok
}

// Serve implements web.Handler.
func (a *App) Serve(req *web.Request) *web.Response {
	switch {
	case req.Path() == "/" && req.Method == "GET":
		return a.monthView(req)
	case req.Path() == "/login" && req.Method == "POST":
		return a.login(req)
	case req.Path() == "/event" && req.Method == "POST":
		return a.createEvent(req)
	case req.Path() == "/quickevent" && req.Method == "GET":
		// GET state-change endpoint: PHP-Calendar had no CSRF
		// protection at all (§6.4).
		return a.createEvent(req)
	case req.Path() == "/update" && req.Method == "POST":
		return a.updateEvent(req)
	case strings.HasSuffix(req.Path(), ".png"):
		return web.HTML("")
	default:
		return web.NotFound()
	}
}

func (a *App) currentUser(req *web.Request) (string, bool) {
	sid, ok := req.Cookie(CookieSession)
	if !ok {
		return "", false
	}
	return a.SessionUser(sid)
}

// appendSanitized appends user input, escaped in hardened mode.
func (a *App) appendSanitized(buf []byte, s string) []byte {
	if a.cfg.Hardened {
		return html.AppendEscapeText(buf, s)
	}
	return append(buf, s...)
}

func (a *App) login(req *web.Request) *web.Response {
	sid, err := a.Login(req.Form.Get("username"), req.Form.Get("password"))
	if err != nil {
		return web.Forbidden("bad credentials")
	}
	resp := web.Redirect("/")
	resp.Header.Add("Set-Cookie", CookieSession+"="+sid+"; Path=/")
	a.decorate(resp)
	return resp
}

func (a *App) createEvent(req *web.Request) *web.Response {
	user, ok := a.currentUser(req)
	if !ok {
		return web.Forbidden("login required")
	}
	day := req.Form.Get("day")
	text := req.Form.Get("text")
	if req.Method == "GET" {
		day = req.Query().Get("day")
		text = req.Query().Get("text")
	}
	d := atoiDefault(day, 0)
	if d < 1 || d > 31 || text == "" {
		return web.Forbidden("bad event")
	}
	a.mu.Lock()
	a.nextID++
	a.events = append(a.events, &Event{ID: a.nextID, Author: user, Day: d, Text: text})
	a.mu.Unlock()
	resp := web.Redirect("/")
	a.decorate(resp)
	return resp
}

func (a *App) updateEvent(req *web.Request) *web.Response {
	user, ok := a.currentUser(req)
	if !ok {
		return web.Forbidden("login required")
	}
	id := atoiDefault(req.Form.Get("id"), 0)
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.events {
		if e.ID == id {
			if e.Author != user {
				return web.Forbidden("not your event")
			}
			e.Text = req.Form.Get("text")
			resp := web.Redirect("/")
			a.decorate(resp)
			return resp
		}
	}
	return web.NotFound()
}

// monthView renders the calendar: a month grid with each event in its
// own ring-3 scope, plus the app's event-creation form in ring 1. The
// page is written in one pass into one buffer.
func (a *App) monthView(req *web.Request) *web.Response {
	user, loggedIn := a.currentUser(req)

	bp := pageBufs.Get().(*[]byte)
	buf := append((*bp)[:0], `<h1 id=caltitle>Group Calendar</h1>`...)
	if loggedIn {
		buf = append(append(append(buf, `<p id=whoami>logged in as `...), user...), `</p>`...)
		buf = append(buf, `<form id=newevent action="/event" method="post">`+
			`<input name=day value=""><textarea name=text></textarea>`+
			`<input type=submit value=Add></form>`...)
	} else {
		buf = append(buf, `<form id=loginform action="/login" method="post">`+
			`<input name=username value=""><input name=password value="">`+
			`<input type=submit value=Login></form>`...)
	}
	buf = append(buf, `<div id=month>`...)
	// /update edits an event's text in place, so the page reads one
	// snapshot, sorted by day: each day in the grid heads its run.
	day := 0
	for _, e := range a.Events() {
		if e.Day < 1 || e.Day > 31 {
			continue
		}
		if e.Day != day {
			day = e.Day
			buf = append(buf, `<h2 id=day-`...)
			buf = strconv.AppendInt(buf, int64(day), 10)
			buf = append(buf, `>Day `...)
			buf = strconv.AppendInt(buf, int64(day), 10)
			buf = append(buf, `</h2>`...)
		}
		var n uint64
		buf, n = a.open(buf, RingEvent, ACLEvent)
		buf = append(buf, ` id=event-`...)
		buf = append(strconv.AppendInt(buf, int64(e.ID), 10), '>')
		buf = template.AppendClose(a.appendSanitized(buf, e.Text), n)
	}
	buf = append(buf, `</div>`...)
	return a.page(bp, buf, "Calendar")
}

// open appends the start of a scope's open tag: an AC tag with the
// label and a fresh nonce, or in legacy mode a plain div (nonce 0,
// whose closer is a plain </div>). The caller appends the id attribute
// and '>'.
func (a *App) open(buf []byte, ring core.Ring, acl core.ACL) ([]byte, uint64) {
	if !a.cfg.Escudo {
		return append(buf, "<div"...), 0
	}
	return a.builder.AppendOpen(buf, ring, acl)
}

// pageBufs recycles the buffers pages are written into: page copies
// the page out and returns its buffer, so a page allocates no buffer
// of its own, whatever the size of the store.
var pageBufs = sync.Pool{New: func() any { return new([]byte) }}

// page assembles the response around the body content in buf, the
// buffer bp held, and returns bp to pageBufs. The events' scopes have
// drawn their nonces already; the head and the body scope draw theirs
// after them. The chrome is appended behind the content and the page
// is copied once, in reading order, into the response body.
func (a *App) page(bp *[]byte, buf []byte, title string) *web.Response {
	content := len(buf)
	buf = append(buf, "<html>"...)
	buf, n := a.open(buf, 0, ACLHead)
	buf = append(append(append(buf, " id=head><title>"...), title...), `</title><script id=caljs>var cal = "PHP-Calendar";</script>`...)
	buf = append(template.AppendClose(buf, n), "<body>"...)
	buf, n = a.open(buf, RingApp, ACLApp)
	buf = append(buf, " id=appbody>"...)
	prefix := len(buf)
	buf = append(template.AppendClose(buf, n), "</body></html>"...)

	var b strings.Builder
	b.Grow(len(buf))
	b.Write(buf[content:prefix])
	b.Write(buf[:content])
	b.Write(buf[prefix:])
	*bp = buf[:0]
	pageBufs.Put(bp)
	resp := web.HTML(b.String())
	a.decorate(resp)
	return resp
}

// decorate attaches the Table 5 ESCUDO headers, as Policy states
// them.
func (a *App) decorate(resp *web.Response) {
	if !a.cfg.Escudo {
		return
	}
	resp.Header.Set(core.HeaderMaxRing, a.maxRingHeader)
	for _, v := range a.cookieHeaders {
		resp.Header.Add(core.HeaderCookie, v)
	}
	for _, v := range a.apiHeaders {
		resp.Header.Add(core.HeaderAPI, v)
	}
}

// Policy returns the app's unified policy document — the Table 5
// configuration, which decorate attaches as headers — as one
// serializable, validated artifact a gateway can mount and serve.
func (a *App) Policy() policy.Policy {
	p := policy.New(a.cfg.Origin, core.DefaultMaxRing)
	p.Cookies[CookieSession] = policy.Uniform(RingApp)
	p.APIs[core.APIXMLHTTPRequest] = RingApp
	return p
}

func atoiDefault(s string, def int) int {
	n := 0
	if s == "" {
		return def
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return def
		}
		n = n*10 + int(c-'0')
	}
	return n
}
