// Package browser implements the web browser of the reproduction: the
// navigation pipeline (fetch → configuration extraction → labeled
// parse → layout → script execution), cookie attachment, form
// submission, subresource loading, UI event dispatch, and browser
// state. It hosts the ESCUDO Reference Monitor in ESCUDO mode and the
// classic same-origin policy in SOP mode, so the two protection models
// can be compared head to head as in the paper's §6.4 and Figure 4.
package browser

import (
	"errors"
	"fmt"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cookie"
	"repro/internal/core"
	"repro/internal/css"
	"repro/internal/dom"
	"repro/internal/html"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/script"
	"repro/internal/web"
)

// Mode selects the protection model the browser enforces.
type Mode int

// Browser modes.
const (
	// ModeEscudo enforces the ESCUDO MAC policy (rings + ACLs +
	// origin), with SOP-equivalent behaviour for unconfigured pages.
	ModeEscudo Mode = iota + 1
	// ModeSOP enforces only the same-origin policy, reproducing the
	// legacy behaviour the paper's attacks exploit. Cookies attach to
	// requests "irrespective of who is making the request" (§2.3).
	ModeSOP
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeEscudo:
		return "escudo"
	case ModeSOP:
		return "sop"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options configures a browser.
type Options struct {
	// Mode selects the protection model (default ModeEscudo).
	Mode Mode
	// ViewportWidth is the layout width (default 80).
	ViewportWidth int
	// MaxScriptSteps bounds each script run (default 1e6).
	MaxScriptSteps int
	// DisableRender skips the layout pass (used by parse-only
	// benchmarks).
	DisableRender bool
	// DisableScripts skips script execution (used by benchmarks and
	// the inspect tool).
	DisableScripts bool
	// MaxFrameDepth bounds nested iframe loading (default 3; the
	// browser "can simultaneously host multiple systems", §4, and
	// each frame is its own per-page ring system).
	MaxFrameDepth int
	// AblateNonceDefense and AblateScopingRule disable the §5
	// defenses FOR ABLATION EXPERIMENTS ONLY; see html.Options.
	AblateNonceDefense bool
	AblateScopingRule  bool
	// Cache, when non-nil, memoizes reference-monitor verdicts. A
	// cache may be shared by many browsers (the engine's session pool
	// shares one across all sessions), but every browser sharing it
	// must run in the same Mode — ERM and SOP verdicts are not
	// interchangeable.
	Cache *core.DecisionCache
	// MonitorFactory, when non-nil, builds the policy stack mediating
	// each page instead of the default (the Mode's base monitor under
	// the shared Cache). The browser composes its tap (core.WithTap:
	// audit, provenance, generation pinning, stage timing) around
	// whatever the factory returns, so complete mediation stays
	// recorded whatever the stack — a factory returning a delegation-
	// aware pipeline (core.Compose with core.WithDelegations, or a
	// *mashup.Monitor) runs the §7 model inside real sessions.
	//
	// The factory must return a monitor consistent with Mode: the mode
	// still governs configuration parsing and cookie attachment
	// semantics.
	MonitorFactory MonitorFactory
	// DecisionRing, when non-nil, is the browser tap's ring: every
	// audited decision is mirrored into the last-N provenance ring the
	// gateway serves at /tracez. Like Cache it is typically shared by
	// every session of an engine pool.
	DecisionRing *core.DecisionRing
	// PolicyGen, when non-nil, is the control-plane generation source
	// (typically ctlplane.Watcher.Generation, or Store.Generation for
	// in-memory deployments). The browser reads it exactly once at the
	// entry of each top-level page load and pins the value for the
	// whole load — frames, subresource fetches, cookie attachments, and
	// every later operation through the page's monitor — so a policy
	// flip mid-flight never mixes generations within one load (standing
	// invariant 8; audited by core.AuditLog.GenerationMix). The page's
	// tap stamps the pinned value; nil stamps no generation at all.
	PolicyGen func() uint64
}

// PageRef identifies what a monitor is being built for: a page load
// (URL and page origin) or a request-scoped mediation such as cookie
// attachment (initiator origin only, empty URL).
type PageRef struct {
	// URL is the page URL; empty for request-scoped monitors.
	URL string
	// Origin is the page origin (page loads) or the initiating
	// principal's origin (request-scoped mediation).
	Origin origin.Origin
}

// MonitorFactory builds the reference-monitor stack for one page.
type MonitorFactory func(ref PageRef) core.Monitor

// Browser is one browsing session: a cookie jar, history, and a
// protection mode, attached to a transport.
type Browser struct {
	transport web.Transport
	jar       *cookie.Jar
	history   *History
	opts      Options
	// Console receives script log output from every page.
	Console *script.Console
	// Audit receives every access-control decision.
	Audit *core.AuditLog
	// trace is the causal trace of the task currently driving this
	// session (nil between tasks). The engine swaps it per task; the
	// monitor stack and fetch read it at decision/request time, so
	// pages and monitors built under an earlier task stamp with the
	// trace of the task actually asking.
	trace atomic.Pointer[obs.Trace]
	// stageClock is the latency-attribution clock of the current task
	// (nil when stage timing is off). Like trace it is swapped per
	// task by the engine; the monitor pipeline, script runner, and
	// render path accrue their spans on whatever clock is installed at
	// the moment they run. A nil clock costs the tap one nil check.
	stageClock atomic.Pointer[obs.StageClock]
	// tap holds the session's observation sinks (Audit, the trace and
	// clock above, Options.DecisionRing); monitorFor copies it and pins
	// the generation and page of the monitor it builds.
	tap core.Tap
	// curGen and curPage pin the policy generation and page identity of
	// the top-level load in flight (zero between loads). They are plain
	// fields: a browser is a single session driven by one goroutine at
	// a time, like the jar and history.
	curGen  uint64
	curPage uint64
}

// pageIDs mints process-unique page-load identities, so audit logs
// merged across sessions never collide on PageID.
var pageIDs atomic.Uint64

// New creates a browser on the given transport. All mediation (cookie
// attachment, DOM authorization, script confinement) happens on this
// side of the transport, so the same session produces the same
// verdicts whether the transport is the in-memory web.Network or a
// real socket client against an httpd.Gateway.
func New(t web.Transport, opts Options) *Browser {
	if opts.Mode == 0 {
		opts.Mode = ModeEscudo
	}
	if opts.ViewportWidth == 0 {
		opts.ViewportWidth = layout.DefaultViewportWidth
	}
	if opts.MaxScriptSteps == 0 {
		opts.MaxScriptSteps = 1_000_000
	}
	if opts.MaxFrameDepth == 0 {
		opts.MaxFrameDepth = 3
	}
	b := &Browser{
		transport: t,
		jar:       &cookie.Jar{},
		history:   &History{},
		opts:      opts,
		Console:   &script.Console{},
		Audit:     &core.AuditLog{},
	}
	b.tap = core.Tap{Log: b.Audit, Trace: b.trace.Load, Ring: opts.DecisionRing, Clock: b.stageClock.Load}
	return b
}

// Mode returns the browser's protection mode.
func (b *Browser) Mode() Mode { return b.opts.Mode }

// SetTrace installs the causal trace for the task about to drive this
// session (nil clears it). Decisions and requests made while it is set
// carry its ID.
func (b *Browser) SetTrace(t *obs.Trace) { b.trace.Store(t) }

// Trace returns the session's current task trace, or nil.
func (b *Browser) Trace() *obs.Trace { return b.trace.Load() }

// SetStageClock installs the latency-attribution clock for the task
// about to drive this session (nil clears it). While set, the monitor
// pipeline accrues batch-authorization time and the script/render
// paths accrue their spans on it; the decisions themselves are
// untouched (invariant 9).
func (b *Browser) SetStageClock(c *obs.StageClock) { b.stageClock.Store(c) }

// StageClock returns the session's current stage clock, or nil.
func (b *Browser) StageClock() *obs.StageClock { return b.stageClock.Load() }

// Jar exposes the cookie jar (the test harness seeds sessions with
// it).
func (b *Browser) Jar() *cookie.Jar { return b.jar }

// History exposes the session history (ring-0 browser state).
func (b *Browser) History() *History { return b.history }

// Page is one loaded web page: the paper's "system".
type Page struct {
	browser *Browser
	// URL is the page's address.
	URL string
	// Origin is the page's web origin.
	Origin origin.Origin
	// Doc is the labeled DOM.
	Doc *dom.Document
	// Config is the ESCUDO configuration the response carried.
	Config core.PageConfig
	// Monitor is the reference monitor mediating this page.
	Monitor core.Monitor
	// Layout is the most recent layout result (nil when rendering is
	// disabled).
	Layout *layout.Result
	// Styles resolves CSS for the page (sheets from <style>
	// elements plus style attributes).
	Styles *css.Resolver
	// ScriptErrors collects errors from page script execution;
	// security denials land here when a script aborts on one.
	ScriptErrors []error
	// ConfigErrors collects malformed X-Escudo header values that
	// were degraded to fail-safe defaults.
	ConfigErrors []error
	// ranScripts tracks executed script elements so document.write
	// can trigger newly injected scripts without re-running old ones.
	ranScripts map[*html.Node]bool
	// PolicyGen and PageID record the control-plane generation this
	// load pinned and its unique load identity; zero without a
	// PolicyGen source. Every decision the page's monitor makes — at
	// load time or later — carries both.
	PolicyGen uint64
	PageID    uint64
	// Frames holds the nested pages loaded for this page's iframes,
	// in document order. Each frame is an independent ring system;
	// same-origin frames have compatible rings (§4 "Rings").
	Frames []*Frame
	// depth is this page's nesting level (0 for top-level pages).
	depth int
}

// Frame pairs an iframe element with the page loaded into it.
type Frame struct {
	// Element is the iframe element in the parent document.
	Element *html.Node
	// Page is the loaded sub-page (nil when the frame failed to
	// load).
	Page *Page
}

// monitorFor builds the reference monitor for a page (or a
// request-scoped mediation): the policy stack — from Options.
// MonitorFactory when set, else the Mode's base monitor under the
// shared decision cache — under the browser's tap, so every decision
// is stamped, mirrored, recorded exactly once and timed, whatever the
// stack. The tap sits outside the cache, so cached verdict rebuilds
// stamp with the asking task's trace, not the warming task's; it
// resolves the trace and clock per call, so a monitor built under an
// earlier task observes for the task actually asking.
func (b *Browser) monitorFor(ref PageRef) core.Monitor {
	t := b.tap
	t.Gen, t.Page = b.genStamp()
	return core.WithTap(t)(b.policyMonitor(ref))
}

// genStamp resolves the generation and page identity a monitor built
// right now must pin. Inside a load both come from the load's capture;
// outside one (a post-load XHR's cookie attachment, say) the current
// generation is read fresh with no page identity — such decisions
// belong to no load and are skipped by the mixing audit. Without a
// PolicyGen source both are zero and the tap stamps no generation.
func (b *Browser) genStamp() (gen, page uint64) {
	if b.curPage != 0 {
		return b.curGen, b.curPage
	}
	if b.opts.PolicyGen != nil {
		return b.opts.PolicyGen(), 0
	}
	return 0, 0
}

// policyMonitor is the stack below the tap.
func (b *Browser) policyMonitor(ref PageRef) core.Monitor {
	if b.opts.MonitorFactory != nil {
		return b.opts.MonitorFactory(ref)
	}
	var base core.Monitor = &core.ERM{}
	if b.opts.Mode == ModeSOP {
		base = &core.SOPMonitor{}
	}
	return core.Compose(base, core.WithCache(b.opts.Cache))
}

// browserPrincipal is the browser itself acting at ring 0 within an
// origin (address-bar navigations, user event delivery).
func browserPrincipal(o origin.Origin) core.Context {
	return core.Principal(o, core.RingKernel, "browser")
}

// Back re-navigates to the previous history entry as a browser-level
// (ring 0) action. It returns nil with no error when there is no
// previous entry.
func (b *Browser) Back() (*Page, error) {
	prev, ok := b.history.Previous()
	if !ok {
		return nil, nil
	}
	return b.Navigate(prev)
}

// Navigate loads a URL as a user-typed (address bar) navigation.
func (b *Browser) Navigate(rawURL string) (*Page, error) {
	target, err := origin.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("browser: navigate: %w", err)
	}
	return b.load(rawURL, browserPrincipal(target), "address-bar")
}

// NavigateFrom loads a URL as a navigation initiated by a principal of
// an existing page (anchor click, script-set location, form GET). The
// initiator context governs cookie attachment under ESCUDO.
func (b *Browser) NavigateFrom(initiator core.Context, rawURL, label string) (*Page, error) {
	return b.load(rawURL, initiator, label)
}

// load runs the pipeline: fetch, configure, parse, subresources,
// render, scripts.
func (b *Browser) load(rawURL string, initiator core.Context, label string) (*Page, error) {
	return b.loadDepth(rawURL, initiator, label, 0)
}

// loadDepth is load with frame-nesting bookkeeping. With a control
// plane attached, the OUTERMOST load captures the policy generation
// once, before its first fetch; nested frame loads and every monitor
// built during the load inherit that capture, so the whole load —
// frames included — observes exactly one generation.
func (b *Browser) loadDepth(rawURL string, initiator core.Context, label string, depth int) (*Page, error) {
	if b.opts.PolicyGen != nil && b.curPage == 0 {
		b.curGen, b.curPage = b.opts.PolicyGen(), pageIDs.Add(1)
		defer func() { b.curGen, b.curPage = 0, 0 }()
	}
	resp, err := b.fetch("GET", rawURL, nil, initiator, label)
	if err != nil {
		return nil, err
	}
	// Follow redirects, preserving the ORIGINAL initiator: a
	// cross-site principal must not have its request laundered into
	// a browser-privileged one by a 303 hop, or the redirect target
	// would receive cookies the initiator could never use.
	for i := 0; i < 4 && resp.Status == 303; i++ {
		loc := resp.Header.Get("Location")
		next, rerr := origin.Resolve(rawURL, loc)
		if rerr != nil {
			return nil, fmt.Errorf("browser: redirect: %w", rerr)
		}
		rawURL = next
		resp, err = b.fetch("GET", rawURL, nil, initiator, "redirect")
		if err != nil {
			return nil, err
		}
	}
	page, err := b.buildPage(rawURL, resp)
	if err != nil {
		return nil, err
	}
	page.depth = depth
	if depth == 0 {
		b.history.Visit(rawURL)
	}
	b.loadSubresources(page)
	page.buildStyles()
	if !b.opts.DisableRender {
		renderStart := time.Now()
		page.Layout = layout.LayoutHidden(page.Doc.Root, b.opts.ViewportWidth, page.renderHidden())
		b.stageClock.Load().Add(obs.StageRender, time.Since(renderStart))
	}
	if !b.opts.DisableScripts {
		page.runStyleExpressions()
		page.runScripts()
	}
	return page, nil
}

// buildStyles parses every <style> element into the page's resolver.
func (p *Page) buildStyles() {
	var sheets []*css.Stylesheet
	for _, s := range p.Doc.ByTag("style") {
		sheets = append(sheets, css.Parse(html.InnerText(s)))
	}
	p.Styles = css.NewResolver(sheets...)
}

// hiddenNodes computes the CSS display:none set for layout.
func (p *Page) hiddenNodes() map[*html.Node]bool {
	if p.Styles == nil {
		return nil
	}
	return p.Styles.HiddenSet(p.Doc.Root)
}

// renderHidden computes the node set layout must skip: the CSS
// display:none set plus any element the mediated render read was
// denied. Laying a page out is the browser (ring 0) reading the
// document, so the traversal flows through the reference monitor like
// any other region read — batch-authorized by equivalence class (a
// page of n elements costs k ≤ n decision computations, each element
// audited; text renders under its element's authority). A ring-0
// same-origin reader is never denied under ESCUDO or SOP, but the
// mediation is complete either way, and a future monitor that does
// deny (e.g. a delegation policy) simply sees those nodes unrendered.
func (p *Page) renderHidden() map[*html.Node]bool {
	hidden := p.hiddenNodes()
	api := dom.NewAPI(p.Doc, browserPrincipal(p.Origin), p.Monitor)
	denied, err := api.AuthorizeRenderRegion(p.Doc.Root)
	if err != nil {
		// The document root itself was denied: render nothing.
		return map[*html.Node]bool{p.Doc.Root: true}
	}
	if len(denied) == 0 {
		return hidden
	}
	if hidden == nil {
		return denied
	}
	for n := range denied {
		hidden[n] = true
	}
	return hidden
}

// runStyleExpressions executes every CSS expression() as a
// script-invoking principal under its style element's security
// context (Table 1: "Script-invoking principals are HTML constructs
// such as script and the CSS expression").
func (p *Page) runStyleExpressions() {
	for _, styleEl := range p.Doc.ByTag("style") {
		sheet := css.Parse(html.InnerText(styleEl))
		for _, decl := range sheet.Expressions() {
			body, _ := decl.IsExpression()
			principal := core.Context{
				Origin: p.Origin,
				Ring:   styleEl.Ring,
				ACL:    styleEl.ACL,
				Label:  "css-expression@style",
			}
			if err := p.RunScriptAs(principal, body); err != nil {
				p.ScriptErrors = append(p.ScriptErrors, err)
			}
		}
	}
}

// buildPage turns a response into a labeled page without running
// scripts or layout (exported pipeline steps use it; benchmarks time
// it separately).
func (b *Browser) buildPage(rawURL string, resp *web.Response) (*Page, error) {
	pageOrigin, err := origin.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("browser: %w", err)
	}
	page := &Page{browser: b, URL: rawURL, Origin: pageOrigin, Monitor: b.monitorFor(PageRef{URL: rawURL, Origin: pageOrigin})}
	page.PolicyGen, page.PageID = b.curGen, b.curPage

	// Extract ESCUDO configuration (ignored entirely in SOP mode —
	// a legacy browser does not know these headers, §6.3).
	if b.opts.Mode == ModeEscudo {
		cfg, errs := core.ParsePageConfig(
			resp.Header.Values(core.HeaderMaxRing),
			resp.Header.Values(core.HeaderCookie),
			resp.Header.Values(core.HeaderAPI),
		)
		page.Config = cfg
		page.ConfigErrors = errs
	} else {
		page.Config = core.DefaultPageConfig()
	}

	// (Cookies were already stored by fetch when the response
	// arrived.)

	// Parse with the mode's labeling. A configured page defaults
	// unlabeled regions to the least privileged ring with the
	// fail-safe ACL (§4.3); an unconfigured page is a single-ring
	// system, i.e. the SOP (§6.3).
	opts := html.LegacyOptions()
	if b.opts.Mode == ModeEscudo {
		if page.Config.Configured() {
			opts = html.Options{
				Escudo:   true,
				MaxRing:  page.Config.MaxRing,
				BaseRing: page.Config.MaxRing,
				BaseACL:  core.ACL{},
			}
		} else {
			opts = html.Options{Escudo: true, MaxRing: 0, BaseRing: 0, BaseACL: core.UniformACL(0)}
		}
		opts.AblateNonceDefense = b.opts.AblateNonceDefense
		opts.AblateScopingRule = b.opts.AblateScopingRule
	}
	page.Doc = dom.NewDocument(pageOrigin, resp.Body, opts)
	return page, nil
}

// fetch issues one HTTP request, mediating cookie attachment.
func (b *Browser) fetch(method, rawURL string, form url.Values, initiator core.Context, label string) (*web.Response, error) {
	req := web.NewRequest(method, rawURL)
	if form != nil {
		req.Form = form
	}
	req.InitiatorOrigin = initiator.Origin
	req.InitiatorLabel = label
	req.TraceID = b.trace.Load().ID()

	// The request memoizes its URL parse; deriving the target through
	// it means RoundTrip's own routing lookup reuses the same parse.
	target, err := req.TargetOrigin()
	if err != nil {
		return nil, fmt.Errorf("browser: fetch %q: %w", rawURL, err)
	}
	b.attachCookies(req, target, initiator)
	resp, err := b.transport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	b.storeCookies(target, resp)
	return resp, nil
}

// storeCookies installs every Set-Cookie of a response, labeling the
// cookies from the response's own X-Escudo-Cookie headers (§4.1: the
// ring assignment travels with the response that sets the cookie).
func (b *Browser) storeCookies(setter origin.Origin, resp *web.Response) {
	setCookies := resp.Header.Values("Set-Cookie")
	if len(setCookies) == 0 {
		return
	}
	cfg := core.DefaultPageConfig()
	if b.opts.Mode == ModeEscudo {
		cfg, _ = core.ParsePageConfig(
			resp.Header.Values(core.HeaderMaxRing),
			resp.Header.Values(core.HeaderCookie),
			resp.Header.Values(core.HeaderAPI),
		)
	}
	for _, sc := range setCookies {
		c, err := cookie.ParseSetCookie(sc, setter)
		if err != nil {
			continue
		}
		c.Ring, c.ACL = cfg.CookieRing(c.Name)
		b.jar.Set(c)
	}
}

// attachCookies implements the use-mediated cookie attachment of §4.1.
// In SOP mode cookies always attach to the target's requests — the
// very weakness CSRF abuses. In ESCUDO mode each cookie is an object
// and attachment is a use operation by the initiating principal.
func (b *Browser) attachCookies(req *web.Request, target origin.Origin, initiator core.Context) {
	matching := b.jar.Matching(target, req.Path())
	if len(matching) == 0 {
		return
	}
	monitor := b.monitorFor(PageRef{Origin: initiator.Origin})
	var attached []cookie.Cookie
	for _, c := range matching {
		if b.opts.Mode == ModeSOP {
			attached = append(attached, c)
			continue
		}
		if monitor.Authorize(initiator, core.OpUse, c.Context()).Allowed {
			attached = append(attached, c)
		}
	}
	if len(attached) > 0 {
		req.Header.Set("Cookie", cookie.Header(attached))
	}
}

// loadSubresources fetches img/iframe/embed sources found at parse
// time. Each element is an HTTP-request-issuing principal (Table 1):
// the fetch's initiator is the element's own security context, so a
// ring-3 img in user content cannot make the victim's ring-1 session
// cookie travel with its request.
func (b *Browser) loadSubresources(page *Page) {
	html.Walk(page.Doc.Root, func(n *html.Node) bool {
		if n.Type != html.ElementNode {
			return true
		}
		switch n.Tag {
		case "img", "iframe", "embed":
			src, ok := n.Attr("src")
			if !ok || src == "" {
				return true
			}
			abs, err := origin.Resolve(page.URL, src)
			if err != nil {
				return true
			}
			initiator := core.Context{
				Origin: page.Origin,
				Ring:   n.Ring,
				ACL:    n.ACL,
				Label:  n.Tag,
			}
			if n.Tag == "iframe" && page.depth < b.opts.MaxFrameDepth {
				// Frames load as full nested pages — independent
				// ring systems hosted in the same browser (§4).
				// Load failures leave a nil-page frame; the fetch
				// attempt is in the request log either way.
				sub, ferr := b.loadDepth(abs, initiator, "iframe", page.depth+1)
				if ferr != nil {
					sub = nil
				}
				page.Frames = append(page.Frames, &Frame{Element: n, Page: sub})
				return true
			}
			// Subresource failures (missing hosts) are expected for
			// attack pages; the request log still records the attempt.
			_, _ = b.fetch("GET", abs, nil, initiator, n.Tag)
		}
		return true
	})
}

// runScripts executes every not-yet-run <script> element in document
// order, each under its own element's security context — this is how
// a ring-3 script injected into user content ends up with ring-3
// privileges. document.write re-invokes it to execute newly written
// scripts exactly once.
func (p *Page) runScripts() {
	if p.ranScripts == nil {
		p.ranScripts = map[*html.Node]bool{}
	}
	for _, s := range p.Doc.ByTag("script") {
		if p.ranScripts[s] {
			continue
		}
		p.ranScripts[s] = true
		src := html.InnerText(s)
		if strings.TrimSpace(src) == "" {
			continue
		}
		principal := core.Context{
			Origin: p.Origin,
			Ring:   s.Ring,
			ACL:    s.ACL,
			Label:  scriptLabel(s),
		}
		if err := p.RunScriptAs(principal, src); err != nil {
			p.ScriptErrors = append(p.ScriptErrors, err)
		}
	}
}

func scriptLabel(n *html.Node) string {
	if id, ok := n.Attr("id"); ok {
		return "script#" + id
	}
	return "script"
}

// RunScriptAs executes source with the given principal's bindings:
// document, window, and XMLHttpRequest, all mediated by the page's
// monitor. Scripts run on the compiled engine: the body is lowered
// once through the process-wide compile cache (repeat executions of a
// hot <script> across pages and sessions skip parse and lowering) and
// executed by a fresh VM whose fuel budget is MaxScriptSteps.
func (p *Page) RunScriptAs(principal core.Context, src string) error {
	start := time.Now()
	c, err := script.CompileCached(src)
	if err != nil {
		p.browser.stageClock.Load().Add(obs.StageScriptVM, time.Since(start))
		return err
	}
	env := p.scriptEnv(principal)
	vm := &script.VM{MaxSteps: p.browser.opts.MaxScriptSteps}
	_, err = vm.Run(c, env)
	// The span covers compile-cache probe and VM execution. Monitor
	// calls the script makes accrue on batch_auth as well, so script
	// and batch spans can nest — attribution, not a partition.
	p.browser.stageClock.Load().Add(obs.StageScriptVM, time.Since(start))
	return err
}

// RunScriptRing is RunScriptAs with a same-origin principal at the
// given ring — the common case in tests and examples.
func (p *Page) RunScriptRing(ring core.Ring, label, src string) error {
	return p.RunScriptAs(core.Principal(p.Origin, ring, label), src)
}

// SubmitForm submits the form element: gathers its input/textarea
// values, resolves the action, and issues the request with the form
// element as the HTTP-request-issuing principal. extra overrides or
// adds fields (how attack pages pre-fill hostile values).
func (p *Page) SubmitForm(form *html.Node, extra url.Values) (*web.Response, error) {
	if form == nil || form.Tag != "form" {
		return nil, errors.New("browser: SubmitForm needs a form element")
	}
	action, _ := form.Attr("action")
	if action == "" {
		action = p.URL
	}
	abs, err := origin.Resolve(p.URL, action)
	if err != nil {
		return nil, fmt.Errorf("browser: form action: %w", err)
	}
	method := "POST"
	if m, ok := form.Attr("method"); ok && strings.EqualFold(m, "get") {
		method = "GET"
	}
	fields := url.Values{}
	html.Walk(form, func(n *html.Node) bool {
		if n.Type == html.ElementNode && (n.Tag == "input" || n.Tag == "textarea") {
			name, ok := n.Attr("name")
			if !ok || name == "" {
				return true
			}
			if n.Tag == "textarea" {
				fields.Set(name, html.InnerText(n))
			} else {
				v, _ := n.Attr("value")
				fields.Set(name, v)
			}
		}
		return true
	})
	for k, vs := range extra {
		fields[k] = vs
	}
	initiator := core.Context{Origin: p.Origin, Ring: form.Ring, ACL: form.ACL, Label: formLabel(form)}
	return p.browser.fetch(method, abs, fields, initiator, formLabel(form))
}

func formLabel(n *html.Node) string {
	if id, ok := n.Attr("id"); ok {
		return "form#" + id
	}
	return "form"
}

// ClickAnchor follows an anchor: issues the GET with the anchor as the
// HTTP-request-issuing principal and returns the resulting page.
func (p *Page) ClickAnchor(a *html.Node) (*Page, error) {
	if a == nil || a.Tag != "a" {
		return nil, errors.New("browser: ClickAnchor needs an anchor element")
	}
	href, ok := a.Attr("href")
	if !ok {
		return nil, errors.New("browser: anchor has no href")
	}
	abs, err := origin.Resolve(p.URL, href)
	if err != nil {
		return nil, fmt.Errorf("browser: anchor href: %w", err)
	}
	initiator := core.Context{Origin: p.Origin, Ring: a.Ring, ACL: a.ACL, Label: "a"}
	return p.browser.NavigateFrom(initiator, abs, "a")
}

// DispatchEvent delivers a UI event to the element: the delivery is a
// use of the element by the dispatching principal (§4.1's second
// implicit access), and the element's own on<event> handler then runs
// with the element's security context. User-originated events pass
// nil as principal, meaning the browser (ring 0) delivers.
func (p *Page) DispatchEvent(target *html.Node, event string, principal *core.Context) error {
	if target == nil {
		return errors.New("browser: DispatchEvent needs a target")
	}
	deliverer := browserPrincipal(p.Origin)
	if principal != nil {
		deliverer = *principal
	}
	d := p.Monitor.Authorize(deliverer, core.OpUse, p.Doc.NodeContext(target))
	if !d.Allowed {
		return &dom.DeniedError{Decision: d}
	}
	handler, ok := target.Attr("on" + event)
	if !ok || strings.TrimSpace(handler) == "" {
		return nil
	}
	handlerPrincipal := core.Context{
		Origin: p.Origin,
		Ring:   target.Ring,
		ACL:    target.ACL,
		Label:  "on" + event + "@" + target.Tag,
	}
	return p.RunScriptAs(handlerPrincipal, handler)
}

// RenderText lays the page out afresh (scripts may have mutated the
// DOM since the load-time layout) and paints it as text. Like the
// load-time layout, the traversal's reads are batch-authorized.
func (p *Page) RenderText() string {
	start := time.Now()
	p.buildStyles()
	p.Layout = layout.LayoutHidden(p.Doc.Root, p.browser.opts.ViewportWidth, p.renderHidden())
	out := layout.RenderText(p.Layout, p.browser.opts.ViewportWidth)
	p.browser.stageClock.Load().Add(obs.StageRender, time.Since(start))
	return out
}
