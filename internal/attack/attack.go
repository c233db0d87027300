// Package attack reproduces the paper's §6.4 defense-effectiveness
// evaluation: four XSS attacks and five CSRF attacks against each of
// the two case-study applications (phpBB and PHP-Calendar), executed
// once in a legacy same-origin-policy browser and once in an ESCUDO
// browser. Per the paper, the applications run *unhardened* — input
// validation and secret-token CSRF checks removed — so the front-line
// defenses are out of the way and the browser protection model is
// what is under test.
//
// Each attack carries a machine-checkable success predicate (did the
// session cookie leak? was trusted DOM modified? did the forged
// request arrive with a valid session?), so the harness produces the
// paper's verdict table mechanically.
package attack

import (
	"fmt"
	"net/url"
	"strings"

	"repro/internal/apps/phpbb"
	"repro/internal/apps/phpcal"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/html"
	"repro/internal/nonce"
	"repro/internal/origin"
	"repro/internal/web"
)

// Kind classifies attacks.
type Kind int

// Attack kinds.
const (
	KindXSS Kind = iota + 1
	KindCSRF
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindXSS:
		return "XSS"
	case KindCSRF:
		return "CSRF"
	default:
		return "?"
	}
}

// Victim and attacker identities used throughout the corpus.
const (
	VictimUser   = "alice"
	VictimPass   = "alicepw"
	AttackerUser = "mallory"
	AttackerPass = "mallorypw"
)

// Env is one fresh attack scenario: both apps (unhardened unless built
// with Hardened), a malicious site, and the victim's browser (already
// logged into both apps).
type Env struct {
	Net         *web.Network
	Forum       *phpbb.App
	Cal         *phpcal.App
	ForumOrigin origin.Origin
	CalOrigin   origin.Origin
	EvilOrigin  origin.Origin
	Victim      *browser.Browser
	// evilPage is the markup the evil site serves at /; attacks set
	// it before luring the victim there.
	evilPage string
	// cleanup tears down a wrapped transport (e.g. an HTTP gateway);
	// nil for in-memory environments.
	cleanup func()
}

// TransportWrapper puts a transport in front of an environment's
// network — e.g. httpd gateway + client over loopback — so the same
// attack corpus replays across a real socket. It returns the victim's
// transport and a teardown function (either may rely on the network
// already having all its origins registered).
type TransportWrapper func(n *web.Network) (web.Transport, func(), error)

// Close releases transport resources; in-memory environments need no
// teardown and may skip it.
func (e *Env) Close() {
	if e.cleanup != nil {
		e.cleanup()
		e.cleanup = nil
	}
}

// Option varies the environment NewEnv builds.
type Option func(*envOptions)

type envOptions struct {
	hardened bool
	cache    *core.DecisionCache
	wrap     TransportWrapper
}

// Hardened re-enables the applications' first-line defenses (input
// validation, CSRF tokens) — the state the paper started from before
// removing them "to facilitate the attacks".
func Hardened() Option { return func(o *envOptions) { o.hardened = true } }

// WithCache plugs a shared decision cache into the victim's browser, so
// load drivers replaying the corpus across many concurrent environments
// share one verdict memo. All environments sharing a cache must use the
// same mode.
func WithCache(cache *core.DecisionCache) Option {
	return func(o *envOptions) { o.cache = cache }
}

// Over has the victim's browser fetch through the wrapped transport
// instead of the in-memory network. Call Env.Close when done.
func Over(wrap TransportWrapper) Option { return func(o *envOptions) { o.wrap = wrap } }

// NewEnv builds a scenario for the given browser mode, by default with
// unhardened applications over the in-memory network. The victim logs
// into both applications first (establishing the ring-1 session
// cookies), exactly the §6.4 setting of "a victim user's active session
// with a trusted site".
func NewEnv(mode browser.Mode, opts ...Option) (*Env, error) {
	var o envOptions
	for _, opt := range opts {
		opt(&o)
	}
	e := &Env{
		Net:         web.NewNetwork(),
		ForumOrigin: origin.MustParse("http://forum.example"),
		CalOrigin:   origin.MustParse("http://calendar.example"),
		EvilOrigin:  origin.MustParse("http://evil.example"),
	}
	e.Forum = phpbb.New(phpbb.Config{
		Origin: e.ForumOrigin, Hardened: o.hardened, Escudo: true, Nonces: nonce.NewSeqSource(1000),
	})
	e.Cal = phpcal.New(phpcal.Config{
		Origin: e.CalOrigin, Hardened: o.hardened, Escudo: true, Nonces: nonce.NewSeqSource(2000),
	})
	for _, app := range []interface{ AddUser(string, string) }{e.Forum, e.Cal} {
		app.AddUser(VictimUser, VictimPass)
		app.AddUser(AttackerUser, AttackerPass)
	}
	e.Net.Register(e.ForumOrigin, e.Forum)
	e.Net.Register(e.CalOrigin, e.Cal)
	e.Net.Register(e.EvilOrigin, web.HandlerFunc(func(req *web.Request) *web.Response {
		if req.Path() == "/" {
			return web.HTML(e.evilPage)
		}
		// /steal and friends: the attacker's collector endpoints.
		return web.HTML("")
	}))

	// The victim fetches through the wrapped transport when one is
	// given; verdict predicates keep reading e.Net directly — the
	// request log records server-side either way, which is exactly the
	// transport-independence the gateway must preserve.
	var transport web.Transport = e.Net
	if o.wrap != nil {
		t, cleanup, err := o.wrap(e.Net)
		if err != nil {
			return nil, fmt.Errorf("attack: wrapping transport: %w", err)
		}
		transport, e.cleanup = t, cleanup
	}

	// Attack verdicts are decided by scripts, DOM state, cookies, and
	// the request log — never by layout — so the victim browser skips
	// the render pass: every mediated path an attack can exercise
	// still runs, and the replay doesn't bill text layout to the p50.
	e.Victim = browser.New(transport, browser.Options{Mode: mode, Cache: o.cache, DisableRender: true})
	if err := e.login(e.ForumOrigin, "loginform"); err != nil {
		e.Close()
		return nil, fmt.Errorf("attack: forum login: %w", err)
	}
	if err := e.login(e.CalOrigin, "loginform"); err != nil {
		e.Close()
		return nil, fmt.Errorf("attack: calendar login: %w", err)
	}
	e.Net.ResetLog()
	return e, nil
}

// login drives the victim through an app's login form.
func (e *Env) login(o origin.Origin, formID string) error {
	p, err := e.Victim.Navigate(o.URL("/"))
	if err != nil {
		return err
	}
	form := p.Doc.ByID(formID)
	if form == nil {
		return fmt.Errorf("no %s at %s", formID, o)
	}
	_, err = p.SubmitForm(form, url.Values{
		"username": {VictimUser}, "password": {VictimPass},
	})
	return err
}

// ServeEvil installs the malicious page at http://evil.example/.
func (e *Env) ServeEvil(markup string) { e.evilPage = markup }

// LureVictim navigates the victim's browser to the evil page,
// simulating the user following a malicious link from mail or chat.
func (e *Env) LureVictim() (*browser.Page, error) {
	return e.Victim.Navigate(e.EvilOrigin.URL("/"))
}

// EvilReceived returns the query parameters of requests the attacker's
// collector received at the given path.
func (e *Env) EvilReceived(path string) []url.Values {
	var out []url.Values
	for _, entry := range e.Net.FindRequests(e.EvilOrigin, func(le web.LogEntry) bool {
		return le.Path == path
	}) {
		u, err := url.Parse(entry.URL)
		if err != nil {
			continue
		}
		out = append(out, u.Query())
	}
	return out
}

// Attack is one member of the §6.4 corpus.
type Attack struct {
	// Name is a stable identifier, e.g. "phpbb-xss-cookie-theft".
	Name string
	// Kind is XSS or CSRF.
	Kind Kind
	// App is "phpBB" or "PHP-Calendar".
	App string
	// Description says what the attack does and what success means.
	Description string
	// Run sets up, executes, and judges the attack in a fresh Env.
	// It returns whether the attack SUCCEEDED (i.e. the protection
	// failed).
	Run func(e *Env) (bool, error)
}

// Result is one attack × mode verdict.
type Result struct {
	Attack Attack
	Mode   browser.Mode
	// Succeeded reports whether the attack achieved its goal.
	Succeeded bool
	// Requests is the origins' request log after the run, as
	// web.Network.LogLines renders it: a transport that loses a cookie
	// changes it even where the verdict stays the same.
	Requests []string
	// Err reports harness-level failures (not attack denials).
	Err error
}

// Neutralized is the paper's term: the protection held.
func (r Result) Neutralized() bool { return !r.Succeeded }

// RunAll executes every attack in the corpus under the given mode,
// each in a fresh environment.
func RunAll(mode browser.Mode) []Result {
	var out []Result
	for _, atk := range Corpus() {
		out = append(out, RunOne(atk, mode))
	}
	return out
}

// RunOne executes a single attack under the given mode in a fresh
// environment built with opts. Over a wrapped transport the verdict
// contract is unchanged: the protection model is transport-independent,
// so an attack neutralized in memory must be neutralized over the wire.
func RunOne(atk Attack, mode browser.Mode, opts ...Option) Result {
	env, err := NewEnv(mode, opts...)
	if err != nil {
		return Result{Attack: atk, Mode: mode, Err: err}
	}
	defer env.Close()
	ok, err := atk.Run(env)
	return Result{Attack: atk, Mode: mode, Succeeded: ok, Requests: env.Net.LogLines(), Err: err}
}

// Corpus returns the full §6.4 corpus: 4 XSS + 5 CSRF per application.
func Corpus() []Attack {
	var out []Attack
	out = append(out, forumXSS()...)
	out = append(out, calXSS()...)
	out = append(out, forumCSRF()...)
	out = append(out, calCSRF()...)
	return out
}

// hasSessionValue reports whether any collected exfiltration query
// contains the named cookie.
func hasSessionValue(queries []url.Values, cookieName string) bool {
	for _, q := range queries {
		for _, vs := range q {
			for _, v := range vs {
				if strings.Contains(v, cookieName+"=") {
					return true
				}
			}
		}
	}
	return false
}

// forumTopicWithSubject reports whether the forum has a topic with the
// given subject authored by the victim — the forged-action success
// signal.
func forumTopicWithSubject(f *phpbb.App, subject, author string) bool {
	for _, t := range f.Topics() {
		if t.Subject == subject && (author == "" || t.Author == author) {
			return true
		}
	}
	return false
}

// calEventWithText reports whether the calendar has an event with the
// given text by the author.
func calEventWithText(c *phpcal.App, text, author string) bool {
	for _, ev := range c.Events() {
		if ev.Text == text && (author == "" || ev.Author == author) {
			return true
		}
	}
	return false
}

// innerTextByID reads an element's text without access checks (the
// omniscient judge's view).
func innerTextByID(p *browser.Page, id string) string {
	n := p.Doc.ByID(id)
	if n == nil {
		return ""
	}
	return html.InnerText(n)
}
