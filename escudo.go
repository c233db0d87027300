// Package escudo is a reproduction of "ESCUDO: A Fine-grained
// Protection Model for Web Browsers" (Jayaraman, Du, Rajagopalan,
// Chapin — ICDCS 2010) as a self-contained Go library.
//
// ESCUDO replaces the browser's same-origin policy with a mandatory
// access-control model adapted from hierarchical protection rings:
// every web page is a "system" whose principals (scripts, event
// handlers, request-issuing tags) and objects (DOM regions, cookies,
// native APIs, browser state) are assigned per-page protection rings
// and per-object ACLs, and a reference monitor admits an access
// ⟨P ⊳ O⟩ only when the Origin, Ring, and ACL rules all pass.
//
// This package is the public facade over the implementation:
//
//   - the access-control core (rings, ACLs, contexts, the ERM and the
//     baseline SOP monitor) and the composable monitor pipeline
//     (Compose with cache/delegation/audit layers),
//   - the unified Policy document (ring count, cookie/API assignments,
//     §7 delegations) with validation, lossless JSON round-tripping,
//     and wire delivery via the HTTP gateway,
//   - a simulated browser stack (HTML parser with AC-tag labeling and
//     the nonce node-splitting defense, mediated DOM, mini-JavaScript
//     interpreter, cookie jar, layout renderer, in-memory network),
//   - the paper's two case-study applications (phpBB, PHP-Calendar)
//     with their published Table 3 / Table 5 configurations,
//   - the §6.4 attack corpus (4 XSS + 5 CSRF per app) and harness,
//   - the Figure 4 performance scenarios.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results. The runnable entry points are the
// examples/ programs and the cmd/ tools.
package escudo

import (
	"errors"

	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/mashup"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/scenarios"
	"repro/internal/sifgen"
	"repro/internal/web"
)

// Core model re-exports.
type (
	// Ring is a hierarchical protection ring label; 0 is the most
	// privileged ring.
	Ring = core.Ring
	// ACL is a per-object access-control list: the outermost ring
	// allowed to read, write, and use the object.
	ACL = core.ACL
	// Op is an operation (read, write, use) on an object.
	Op = core.Op
	// Context is a principal's or object's security context.
	Context = core.Context
	// Decision is the outcome of one authorization query.
	Decision = core.Decision
	// Monitor mediates accesses; ERM and SOPMonitor implement it.
	Monitor = core.Monitor
	// ERM is the ESCUDO Reference Monitor (Origin+Ring+ACL rules).
	ERM = core.ERM
	// SOPMonitor is the baseline same-origin policy.
	SOPMonitor = core.SOPMonitor
	// AuditLog records decisions for post-hoc analysis.
	AuditLog = core.AuditLog
	// PageConfig is a page's ESCUDO configuration (ring count,
	// cookie and API assignments).
	PageConfig = core.PageConfig
	// BatchAuthorizer is a Monitor that can decide a whole region in
	// one call, deduplicating computation by equivalence class; every
	// pipeline layer implements it.
	BatchAuthorizer = core.BatchAuthorizer
	// MonitorLayer is one composable stage of a monitor pipeline.
	MonitorLayer = core.Layer
	// DelegationSource resolves §7 delegation floors for the
	// delegation layer; *DelegationPolicy implements it.
	DelegationSource = core.DelegationSource
	// DecisionCache memoizes monitor verdicts; share one across
	// sessions enforcing the same policy.
	DecisionCache = core.DecisionCache
)

// Monitor pipeline. The reference monitor is an open composition: a
// base monitor (ERM, SOPMonitor, ...) wrapped by layers. The canonical
// enforcement stack is
//
//	Compose(&ERM{}, CacheLayer(cache), DelegationLayer(pol), AuditLayer(log))
//
// Every layer implements BatchAuthorizer, so batched region
// authorizations keep one audited decision per node and one
// computation per equivalence class through any stack.

// Compose wraps base with layers, first layer innermost.
func Compose(base Monitor, layers ...MonitorLayer) Monitor { return core.Compose(base, layers...) }

// CacheLayer memoizes verdicts in the shared cache.
func CacheLayer(c *DecisionCache) MonitorLayer { return core.WithCache(c) }

// AuditLayer records every decision in the log; mount it outermost.
func AuditLayer(log *AuditLog) MonitorLayer { return core.WithAudit(log) }

// DelegationLayer re-homes delegated cross-origin accesses (§7);
// mount it outside CacheLayer.
func DelegationLayer(src DelegationSource) MonitorLayer { return core.WithDelegations(src) }

// NewDecisionCache returns an empty shared decision cache.
func NewDecisionCache() *DecisionCache { return core.NewDecisionCache() }

// Operations.
const (
	OpRead  = core.OpRead
	OpWrite = core.OpWrite
	OpUse   = core.OpUse
)

// RingKernel is ring 0, the most privileged ring of every page.
const RingKernel = core.RingKernel

// DefaultMaxRing is the paper's illustrative ring count (N = 3).
const DefaultMaxRing = core.DefaultMaxRing

// Principal builds a principal security context.
func Principal(o Origin, r Ring, label string) Context { return core.Principal(o, r, label) }

// Object builds an object security context.
func Object(o Origin, r Ring, acl ACL, label string) Context { return core.Object(o, r, acl, label) }

// UniformACL grants read, write, and use to rings 0..r.
func UniformACL(r Ring) ACL { return core.UniformACL(r) }

// PermissiveACL opens all operations to every ring of a page.
func PermissiveACL(maxRing Ring) ACL { return core.PermissiveACL(maxRing) }

// Origin re-exports.
type (
	// Origin is the ⟨scheme, host, port⟩ web origin.
	Origin = origin.Origin
)

// ParseOrigin derives the origin of an absolute URL.
func ParseOrigin(rawURL string) (Origin, error) { return origin.Parse(rawURL) }

// MustParseOrigin is ParseOrigin for statically known URLs.
func MustParseOrigin(rawURL string) Origin { return origin.MustParse(rawURL) }

// Browser re-exports.
type (
	// Browser is a browsing session (cookie jar, history, mode).
	Browser = browser.Browser
	// BrowserOptions configures a browser.
	BrowserOptions = browser.Options
	// Page is one loaded web page.
	Page = browser.Page
	// BrowserMode selects the protection model.
	BrowserMode = browser.Mode
)

// Browser modes.
const (
	// ModeEscudo enforces the ESCUDO MAC policy.
	ModeEscudo = browser.ModeEscudo
	// ModeSOP enforces only the legacy same-origin policy.
	ModeSOP = browser.ModeSOP
)

// PageRef identifies the page a MonitorFactory builds a monitor for.
type PageRef = browser.PageRef

// MonitorFactory builds the policy stack mediating one page.
type MonitorFactory = browser.MonitorFactory

// Option configures New.
type Option func(*newConfig) error

type newConfig struct {
	opts BrowserOptions
	pol  *Policy
}

// WithMode selects the protection model (default ModeEscudo).
func WithMode(m BrowserMode) Option {
	return func(c *newConfig) error { c.opts.Mode = m; return nil }
}

// WithDecisionCache plugs a shared decision cache into the monitor
// stack (every session sharing it must enforce the same policy).
func WithDecisionCache(cache *DecisionCache) Option {
	return func(c *newConfig) error { c.opts.Cache = cache; return nil }
}

// WithPolicy mounts a unified policy document: the document is
// validated, and its delegations are compiled into a delegation-aware
// monitor pipeline (base monitor → cache layer → delegation layer)
// built for every page. The ring count and cookie/API assignments
// still arrive per-response in the X-Escudo headers — WithPolicy
// governs the monitor side, the wire document the configuration side.
func WithPolicy(p Policy) Option {
	return func(c *newConfig) error {
		if err := p.Validate(); err != nil {
			return err
		}
		c.pol = &p
		return nil
	}
}

// WithMonitorFactory installs a custom per-page monitor stack. The
// browser composes its tap (audit, provenance, generation pinning,
// stage timing) around whatever the factory returns. Mutually
// exclusive with WithPolicy.
func WithMonitorFactory(f MonitorFactory) Option {
	return func(c *newConfig) error { c.opts.MonitorFactory = f; return nil }
}

// WithoutRender skips the layout pass (parse-only workloads).
func WithoutRender() Option {
	return func(c *newConfig) error { c.opts.DisableRender = true; return nil }
}

// New builds a browsing session on the transport with functional
// options over the monitor pipeline — the facade's one constructor.
// With no options it is an ESCUDO-mode browser with the default
// BrowserOptions; WithPolicy mounts a unified policy document
// (delegations included) into every page's monitor stack.
func New(t Transport, options ...Option) (*Browser, error) {
	if t == nil {
		return nil, errors.New("escudo: New requires a transport")
	}
	var cfg newConfig
	for _, opt := range options {
		if opt == nil {
			continue
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.pol != nil {
		if cfg.opts.MonitorFactory != nil {
			return nil, errors.New("escudo: WithPolicy and WithMonitorFactory are mutually exclusive")
		}
		// Delegations are an ESCUDO-mode concept: the delegation layer
		// re-homes guest principals into the host origin, which under
		// the flat SOP baseline would grant them FULL same-origin
		// privilege instead of a floored ring. Fail loud rather than
		// widen silently.
		if cfg.opts.Mode == ModeSOP && len(cfg.pol.Delegations) > 0 {
			return nil, errors.New("escudo: a policy with delegations requires ModeEscudo")
		}
		dp, err := cfg.pol.DelegationPolicy()
		if err != nil {
			return nil, err
		}
		mode, cache := cfg.opts.Mode, cfg.opts.Cache
		var delegations MonitorLayer
		if len(cfg.pol.Delegations) > 0 {
			delegations = DelegationLayer(dp)
		}
		cfg.opts.MonitorFactory = func(PageRef) Monitor {
			var base Monitor = &ERM{}
			if mode == ModeSOP {
				base = &SOPMonitor{}
			}
			return Compose(base, CacheLayer(cache), delegations)
		}
	}
	return browser.New(t, cfg.opts), nil
}

// Web substrate re-exports.
type (
	// Network routes requests to registered origins.
	Network = web.Network
	// Transport carries requests to the server side; *Network
	// implements it in memory and httpd.ClientTransport over sockets.
	Transport = web.Transport
	// Request is one HTTP-shaped request.
	Request = web.Request
	// Response is one HTTP-shaped response.
	Response = web.Response
	// Handler serves requests for one origin.
	Handler = web.Handler
	// HandlerFunc adapts a function to Handler.
	HandlerFunc = web.HandlerFunc
	// Header is a simplified HTTP header map.
	Header = web.Header
)

// NewNetwork returns an empty in-memory network.
func NewNetwork() *Network { return web.NewNetwork() }

// HTMLResponse builds a 200 text/html response.
func HTMLResponse(body string) *Response { return web.HTML(body) }

// Attack harness re-exports (§6.4).
type (
	// Attack is one member of the XSS/CSRF corpus.
	Attack = attack.Attack
	// AttackResult is one attack × mode verdict.
	AttackResult = attack.Result
)

// AttackCorpus returns the §6.4 corpus: 4 XSS + 5 CSRF per app.
func AttackCorpus() []Attack { return attack.Corpus() }

// RunAttacks executes the corpus under the given browser mode.
func RunAttacks(mode BrowserMode) []AttackResult { return attack.RunAll(mode) }

// Figure 4 re-exports.
type (
	// Figure4Row is one scenario measurement.
	Figure4Row = scenarios.Row
)

// Figure4Scenarios returns the eight performance scenarios.
func Figure4Scenarios() []scenarios.Scenario { return scenarios.All() }

// MeasureFigure4 runs the parse+render overhead experiment.
func MeasureFigure4(reps, warmup int) []Figure4Row { return scenarios.Measure(reps, warmup) }

// Figure4AverageOverhead summarizes rows into the paper's single
// number (5.09% in the original evaluation).
func Figure4AverageOverhead(rows []Figure4Row) float64 { return scenarios.AverageOverhead(rows) }

// Figure4Table renders rows as a text table.
func Figure4Table(rows []Figure4Row) string { return scenarios.Table(rows) }

// Unified policy document re-exports. Policy is the single
// serializable shape the three older policy carriers (PageConfig
// headers, DelegationPolicy, sifgen output) converge on; it validates,
// round-trips through JSON losslessly, and travels the wire (the httpd
// gateway serves it per-origin and at /policyz).
type (
	// Policy is one origin's versioned ESCUDO policy document.
	Policy = policy.Policy
	// PolicyAssignment labels one cookie: ring plus ACL ceilings.
	PolicyAssignment = policy.Assignment
	// PolicyDelegation is one §7 delegation row of a document.
	PolicyDelegation = policy.Delegation
)

// NewPolicy returns an empty policy document for the origin.
func NewPolicy(o Origin, maxRing Ring) Policy { return policy.New(o, maxRing) }

// ParsePolicy deserializes and validates a policy document.
func ParsePolicy(data []byte) (Policy, error) { return policy.Parse(data) }

// PolicyFromPageConfig lifts a header-carried configuration into a
// policy document.
func PolicyFromPageConfig(o Origin, cfg PageConfig) Policy { return policy.FromPageConfig(o, cfg) }

// UniformAssignment builds a cookie assignment whose ACL equals its
// ring.
func UniformAssignment(r Ring) PolicyAssignment { return policy.Uniform(r) }

// Mashup extension re-exports (§7).
type (
	// Delegation grants a guest origin a floored ring inside a host
	// origin's pages.
	Delegation = mashup.Delegation
	// DelegationPolicy is a set of delegations.
	DelegationPolicy = mashup.Policy
)

// NewDelegationPolicy returns an empty delegation policy.
func NewDelegationPolicy() *DelegationPolicy { return mashup.NewPolicy() }

// Configuration-derivation re-exports (§6.2 framework support).
type (
	// IntegrityLevel is a SIF-style integrity annotation level.
	IntegrityLevel = sifgen.Level
	// AnnotatedFragment is one annotated page item.
	AnnotatedFragment = sifgen.Fragment
	// ConfigCompiler derives ESCUDO configuration from annotations.
	ConfigCompiler = sifgen.Compiler
)

// Integrity levels.
const (
	LevelTrusted     = sifgen.Trusted
	LevelApplication = sifgen.Application
	LevelPartner     = sifgen.Partner
	LevelUntrusted   = sifgen.Untrusted
)

// Annotated-fragment kinds.
const (
	FragmentMarkup = sifgen.KindMarkup
	FragmentCookie = sifgen.KindCookie
	FragmentAPI    = sifgen.KindAPI
)

// NewConfigCompiler returns a compiler for the default four-ring
// layout (nil nonce source uses crypto/rand).
func NewConfigCompiler() *ConfigCompiler { return sifgen.New(nil) }

// CompilePolicy derives both the compiled page and the unified policy
// document from annotations — the §6.2 derivation path landing in the
// one policy shape.
func CompilePolicy(c *ConfigCompiler, o Origin, fragments []AnnotatedFragment) (sifgen.Compiled, Policy, error) {
	return c.CompilePolicy(o, fragments)
}
