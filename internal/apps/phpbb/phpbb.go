// Package phpbb is a functional re-implementation of the phpBB message
// board used as the paper's first case study (§6.2): users, login
// sessions with the phpbb2mysql_data and phpbb2mysql_sid cookies,
// discussion topics with replies, and private messages. Every page is
// generated with the exact ESCUDO configuration of Table 3:
//
//	cookies, XMLHttpRequest, application contents → ring 1 (ACL ≤ 1)
//	topics, replies, private messages            → ring 3 (ACL ≤ 2)
//
// so "content provided by one user is completely isolated from content
// provided by another".
//
// The app has a hardened and an unhardened mode. §6.4 removed the
// input-validation routines and the secret-token CSRF validation to
// facilitate the attacks; Unhardened mode reproduces that state.
package phpbb

import (
	"fmt"
	"sort"
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

// Cookie names, as in phpBB 2.x (§6.2: "There are two cookies in the
// web application, namely phpbb2mysql data and phpbb2mysql sid").
const (
	CookieData = "phpbb2mysql_data"
	CookieSID  = "phpbb2mysql_sid"
)

// Ring assignment of Table 3.
var (
	// RingApp is the ring of application contents, cookies, and XHR.
	RingApp = core.Ring(1)
	// RingUser is the ring of topics, replies, and private messages.
	RingUser = core.Ring(3)
	// ACLApp restricts app content to rings 0-1.
	ACLApp = core.UniformACL(1)
	// ACLUser lets rings 0-2 manipulate user content — so ring-3
	// content (other users' messages) cannot.
	ACLUser = core.UniformACL(2)
	// ACLHead restricts the head portion to ring 0.
	ACLHead = core.UniformACL(0)
)

// Config configures the app instance.
type Config struct {
	// Origin is the origin the app is served from.
	Origin origin.Origin
	// Hardened enables input sanitization and secret-token CSRF
	// validation (the defenses §6.4 removed).
	Hardened bool
	// Escudo controls whether responses carry the ESCUDO
	// configuration (AC tags and X-Escudo headers). Disabling it
	// produces the legacy application of the §6.3 compatibility
	// matrix.
	Escudo bool
	// Nonces supplies markup-randomization nonces; nil uses
	// crypto/rand.
	Nonces nonce.Source
}

// Post is one reply.
type Post struct {
	ID     int
	Author string
	Body   string
}

// Topic is one discussion thread.
type Topic struct {
	ID      int
	Author  string
	Subject string
	Body    string
	Replies []Post
}

// PrivateMessage is one PM.
type PrivateMessage struct {
	ID      int
	From    string
	To      string
	Subject string
	Body    string
}

// App is the forum application state plus its HTTP surface.
type App struct {
	mu       sync.Mutex
	cfg      Config
	users    map[string]string // name → password
	sessions map[string]string // sid → user
	tokens   map[string]string // sid → CSRF token
	topics   []*Topic
	pms      []*PrivateMessage
	nextID   int
	builder  *template.ACBuilder
	// maxRingHeader, cookieHeaders and apiHeaders are Policy's
	// X-Escudo header values, lowered once.
	maxRingHeader             string
	cookieHeaders, apiHeaders []string
}

var _ web.Handler = (*App)(nil)

// New creates an app with the given configuration.
func New(cfg Config) *App {
	a := &App{
		cfg:      cfg,
		users:    map[string]string{},
		sessions: map[string]string{},
		tokens:   map[string]string{},
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

// Topics returns a snapshot of all topics.
func (a *App) Topics() []Topic {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Topic, 0, len(a.topics))
	for _, t := range a.topics {
		cp := *t
		cp.Replies = append([]Post(nil), t.Replies...)
		out = append(out, cp)
	}
	return out
}

// TopicByID returns a snapshot of one topic.
func (a *App) TopicByID(id int) (Topic, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, t := range a.topics {
		if t.ID == id {
			cp := *t
			cp.Replies = append([]Post(nil), t.Replies...)
			return cp, true
		}
	}
	return Topic{}, false
}

// Messages returns a snapshot of the private messages addressed to
// user ("" for all).
func (a *App) Messages(user string) []PrivateMessage {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []PrivateMessage
	for _, m := range a.pms {
		if user == "" || m.To == user {
			out = append(out, *m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SessionUser resolves a session id to a user name.
func (a *App) SessionUser(sid string) (string, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	u, ok := a.sessions[sid]
	return u, ok
}

// SeedTopic inserts a topic directly into the store, bypassing HTTP —
// the attack harness uses it to plant attacker-authored content the
// way a malicious registered user would post it.
func (a *App) SeedTopic(author, subject, body string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nextID++
	a.topics = append(a.topics, &Topic{ID: a.nextID, Author: author, Subject: subject, Body: body})
	return a.nextID
}

// SeedReply inserts a reply directly into the store.
func (a *App) SeedReply(topicID int, author, body string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, t := range a.topics {
		if t.ID == topicID {
			a.nextID++
			t.Replies = append(t.Replies, Post{ID: a.nextID, Author: author, Body: body})
			return a.nextID
		}
	}
	return 0
}

// SeedPM inserts a private message directly into the store.
func (a *App) SeedPM(from, to, subject, body string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nextID++
	a.pms = append(a.pms, &PrivateMessage{ID: a.nextID, From: from, To: to, Subject: subject, Body: body})
	return a.nextID
}

// Login authenticates and creates a session, returning the sid and
// CSRF token. It is the programmatic equivalent of POST /login, used
// to seed the attack scenarios.
func (a *App) Login(user, password string) (sid, token string, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.users[user] != password {
		return "", "", fmt.Errorf("phpbb: bad credentials for %q", user)
	}
	a.nextID++
	sid = fmt.Sprintf("sess%06d", a.nextID)
	a.sessions[sid] = user
	a.nextID++
	token = fmt.Sprintf("tok%06d", a.nextID)
	a.tokens[sid] = token
	return sid, token, nil
}

// Serve implements web.Handler.
func (a *App) Serve(req *web.Request) *web.Response {
	switch {
	case req.Path() == "/" && req.Method == "GET":
		return a.index(req)
	case req.Path() == "/login" && req.Method == "POST":
		return a.login(req)
	case req.Path() == "/logout":
		return a.logout(req)
	case req.Path() == "/viewtopic" && req.Method == "GET":
		return a.viewTopic(req)
	case req.Path() == "/posting" && req.Method == "POST":
		return a.posting(req)
	case req.Path() == "/quickpost" && req.Method == "GET":
		// A GET state-change endpoint, as period applications had —
		// the easiest CSRF target.
		return a.posting(req)
	case req.Path() == "/reply" && req.Method == "POST":
		return a.reply(req)
	case req.Path() == "/pm" && req.Method == "GET":
		return a.pmList(req)
	case req.Path() == "/pm_send" && req.Method == "POST":
		return a.pmSend(req)
	case strings.HasSuffix(req.Path(), ".png"):
		return web.HTML("") // image placeholders
	default:
		return web.NotFound()
	}
}

// currentUser resolves the request's session.
func (a *App) currentUser(req *web.Request) (user, sid string, ok bool) {
	sid, ok = req.Cookie(CookieSID)
	if !ok {
		return "", "", false
	}
	user, ok = a.SessionUser(sid)
	return user, sid, ok
}

// checkToken validates the CSRF secret token in hardened mode.
func (a *App) checkToken(req *web.Request, sid string) bool {
	if !a.cfg.Hardened {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return req.Form.Get("token") == a.tokens[sid] && a.tokens[sid] != ""
}

// appendSanitized appends user input through the first-line input
// validation in hardened mode; unhardened mode passes it through
// verbatim (§6.4: "we removed the input validation routines to
// facilitate XSS attacks").
func (a *App) appendSanitized(buf []byte, s string) []byte {
	if a.cfg.Hardened {
		return html.AppendEscapeText(buf, s)
	}
	return append(buf, s...)
}

// topic returns the topic a request's t parameter names, or nil. Only
// the canonical decimal of an ID names a topic, as the pages' links
// spell it: "094", "+94" and "x" name none. The caller holds a.mu.
func (a *App) topic(t string) *Topic {
	id, err := strconv.Atoi(t)
	var canon [20]byte
	if err != nil || string(strconv.AppendInt(canon[:0], int64(id), 10)) != t {
		return nil
	}
	for _, tp := range a.topics {
		if tp.ID == id {
			return tp
		}
	}
	return nil
}

// login handles POST /login.
func (a *App) login(req *web.Request) *web.Response {
	sid, _, err := a.Login(req.Form.Get("username"), req.Form.Get("password"))
	if err != nil {
		return web.Forbidden("bad credentials")
	}
	resp := web.Redirect("/")
	resp.Header.Add("Set-Cookie", CookieSID+"="+sid+"; Path=/")
	resp.Header.Add("Set-Cookie", CookieData+"=u%3A"+req.Form.Get("username")+"; Path=/")
	a.decorate(resp)
	return resp
}

// logout drops the session.
func (a *App) logout(req *web.Request) *web.Response {
	if _, sid, ok := a.currentUser(req); ok {
		a.mu.Lock()
		delete(a.sessions, sid)
		delete(a.tokens, sid)
		a.mu.Unlock()
	}
	resp := web.Redirect("/")
	a.decorate(resp)
	return resp
}

// posting creates a topic (POST /posting, GET /quickpost).
func (a *App) posting(req *web.Request) *web.Response {
	user, sid, ok := a.currentUser(req)
	if !ok {
		return web.Forbidden("login required")
	}
	subject := req.Form.Get("subject")
	message := req.Form.Get("message")
	if req.Method == "GET" {
		subject = req.Query().Get("subject")
		message = req.Query().Get("message")
	}
	if subject == "" && message == "" {
		return web.Forbidden("empty post")
	}
	if req.Method == "POST" && !a.checkToken(req, sid) {
		return web.Forbidden("bad token")
	}
	a.mu.Lock()
	a.nextID++
	a.topics = append(a.topics, &Topic{ID: a.nextID, Author: user, Subject: subject, Body: message})
	a.mu.Unlock()
	resp := web.Redirect("/")
	a.decorate(resp)
	return resp
}

// reply adds a reply (POST /reply?t=).
func (a *App) reply(req *web.Request) *web.Response {
	user, sid, ok := a.currentUser(req)
	if !ok {
		return web.Forbidden("login required")
	}
	if !a.checkToken(req, sid) {
		return web.Forbidden("bad token")
	}
	topicID := req.Form.Get("t")
	if topicID == "" {
		topicID = req.Query().Get("t")
	}
	a.mu.Lock()
	t := a.topic(topicID)
	if t == nil {
		a.mu.Unlock()
		return web.NotFound()
	}
	a.nextID++
	t.Replies = append(t.Replies, Post{ID: a.nextID, Author: user, Body: req.Form.Get("message")})
	a.mu.Unlock()
	resp := web.Redirect("/viewtopic?t=" + strconv.Itoa(t.ID))
	a.decorate(resp)
	return resp
}

// pmSend sends a private message (POST /pm_send).
func (a *App) pmSend(req *web.Request) *web.Response {
	user, sid, ok := a.currentUser(req)
	if !ok {
		return web.Forbidden("login required")
	}
	if !a.checkToken(req, sid) {
		return web.Forbidden("bad token")
	}
	a.mu.Lock()
	a.nextID++
	a.pms = append(a.pms, &PrivateMessage{
		ID:      a.nextID,
		From:    user,
		To:      req.Form.Get("to"),
		Subject: req.Form.Get("subject"),
		Body:    req.Form.Get("message"),
	})
	a.mu.Unlock()
	resp := web.Redirect("/pm")
	a.decorate(resp)
	return resp
}

// decorate attaches the Table 3 ESCUDO headers, as Policy states
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

// Policy returns the app's unified policy document — the Table 3
// configuration, which decorate attaches as headers — as one
// serializable, validated artifact a gateway can mount and serve.
func (a *App) Policy() policy.Policy {
	p := policy.New(a.cfg.Origin, core.DefaultMaxRing)
	p.Cookies[CookieData] = policy.Uniform(RingApp)
	p.Cookies[CookieSID] = policy.Uniform(RingApp)
	p.APIs[core.APIXMLHTTPRequest] = RingApp
	return p
}
