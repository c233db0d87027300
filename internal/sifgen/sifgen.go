// Package sifgen derives ESCUDO configurations from language-level
// integrity annotations, the direction the paper sketches in §6.2:
// "The SIF framework is an extension of the Java Servlet framework to
// enforce confidentiality and integrity policies at run-time using
// language-based information flow. ... The confidentiality and
// integrity policies on the data can be used to automatically derive
// the ESCUDO configuration for the web page, when the web page is
// created."
//
// A developer annotates each page fragment, cookie, and native API
// with an integrity level (Trusted, Application, Partner, Untrusted —
// a small lattice). The compiler maps levels to rings, derives the
// isolation ACLs the case studies use (peer-isolated untrusted
// content, self-writable application content), wraps fragments in
// nonce-sealed AC tags, and emits both the page markup and the
// X-Escudo header set.
package sifgen

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/nonce"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/template"
)

// Level is an integrity level on the annotation lattice. Lower is
// more trusted, mirroring rings.
type Level int

// The lattice the compiler understands. It matches the case studies'
// four-ring layout: Trusted→0, Application→1, Partner→2, Untrusted→3.
const (
	Trusted Level = iota
	Application
	Partner
	Untrusted
)

// String names the level.
func (l Level) String() string {
	switch l {
	case Trusted:
		return "trusted"
	case Application:
		return "application"
	case Partner:
		return "partner"
	case Untrusted:
		return "untrusted"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// FragmentKind distinguishes annotated items.
type FragmentKind int

// Annotated item kinds.
const (
	KindMarkup FragmentKind = iota + 1
	KindCookie
	KindAPI
)

// Fragment is one annotated item of a page.
type Fragment struct {
	// Kind says whether this is page markup, a cookie, or a native
	// API.
	Kind FragmentKind
	// ID names the item: an element id for markup, the cookie name,
	// or the API name ("xmlhttprequest").
	ID string
	// Level is the integrity annotation.
	Level Level
	// Content is the markup body (KindMarkup only). It is inserted
	// raw: sanitization is the application's concern, ESCUDO's
	// labeling is the compiler's.
	Content string
	// PeerIsolated marks content whose sibling fragments at the same
	// level must not manipulate each other (user posts, calendar
	// events): the write/use ceiling is tightened one ring inward,
	// exactly the Table 3/Table 5 pattern.
	PeerIsolated bool
}

// Compiled is the compiler's output.
type Compiled struct {
	// Body is the page body markup with every fragment wrapped in a
	// labeled, nonce-sealed AC scope.
	Body string
	// Config is the page's header-carried configuration (ring count,
	// cookies, APIs).
	Config core.PageConfig
}

// Compiler derives configurations. The zero value is not usable; use
// New.
type Compiler struct {
	maxRing core.Ring
	builder *template.ACBuilder
}

// New returns a compiler targeting the default four-ring layout.
// Nonces may be nil (crypto source).
func New(nonces nonce.Source) *Compiler {
	return &Compiler{
		maxRing: core.DefaultMaxRing,
		builder: template.NewACBuilder(nonces),
	}
}

// RingFor maps an integrity level to a ring, clamped to the
// compiler's ring range before the conversion, so no level wraps.
func (c *Compiler) RingFor(l Level) core.Ring {
	return core.Ring(min(max(int(l), int(core.RingKernel)), int(c.maxRing)))
}

// ACLFor derives the item's ACL: readable and usable by its own level,
// and — when peer isolation is requested — writable/usable only one
// ring inward, so same-level peers cannot manipulate each other
// (Table 3: topics at ring 3 with ACL ≤ 2).
func (c *Compiler) ACLFor(l Level, peerIsolated bool) core.ACL {
	ring := c.RingFor(l)
	acl := core.UniformACL(ring)
	if peerIsolated && ring > 0 {
		acl.Write = ring - 1
		acl.Use = ring - 1
		acl.Read = ring - 1
	}
	return acl
}

// ErrBadFragment reports an unusable annotation.
type ErrBadFragment struct {
	ID  string
	Msg string
}

// Error implements error.
func (e *ErrBadFragment) Error() string {
	return fmt.Sprintf("sifgen: fragment %q: %s", e.ID, e.Msg)
}

// Compile derives the full page configuration from annotations.
// Markup fragments are emitted in input order.
func (c *Compiler) Compile(fragments []Fragment) (Compiled, error) {
	out := Compiled{Config: core.NewPageConfig(c.maxRing)}
	var body strings.Builder
	seen := map[string]bool{}
	for _, f := range fragments {
		if f.ID == "" {
			return Compiled{}, &ErrBadFragment{ID: f.ID, Msg: "missing id"}
		}
		key := fmt.Sprintf("%d/%s", f.Kind, f.ID)
		if seen[key] {
			return Compiled{}, &ErrBadFragment{ID: f.ID, Msg: "duplicate annotation"}
		}
		seen[key] = true
		if f.Level < Trusted || int(f.Level) > int(c.maxRing) {
			return Compiled{}, &ErrBadFragment{ID: f.ID, Msg: "level outside the lattice"}
		}
		switch f.Kind {
		case KindMarkup:
			body.WriteString(c.builder.Wrap(
				c.RingFor(f.Level),
				c.ACLFor(f.Level, f.PeerIsolated),
				fmt.Sprintf("id=%s", f.ID),
				f.Content,
			))
		case KindCookie:
			out.Config.Cookies[f.ID] = core.CookieConfig{
				Name: f.ID,
				Ring: c.RingFor(f.Level),
				ACL:  c.ACLFor(f.Level, f.PeerIsolated),
			}
		case KindAPI:
			out.Config.APIs[strings.ToLower(f.ID)] = core.APIConfig{
				Name: strings.ToLower(f.ID),
				Ring: c.RingFor(f.Level),
			}
		default:
			return Compiled{}, &ErrBadFragment{ID: f.ID, Msg: "unknown kind"}
		}
	}
	out.Body = body.String()
	return out, nil
}

// CompilePolicy compiles fragments and additionally derives the
// unified policy document for the origin the page will be served from
// — the §6.2 derivation path expressed in the repo's one policy shape.
// The returned document validates by construction.
func (c *Compiler) CompilePolicy(o origin.Origin, fragments []Fragment) (Compiled, policy.Policy, error) {
	out, err := c.Compile(fragments)
	if err != nil {
		return Compiled{}, policy.Policy{}, err
	}
	p := policy.FromPageConfig(o, out.Config)
	if err := p.Validate(); err != nil {
		return Compiled{}, policy.Policy{}, fmt.Errorf("sifgen: derived policy invalid: %w", err)
	}
	return out, p, nil
}

// Summary renders a human-readable derivation table (the developer's
// review artifact).
func Summary(fragments []Fragment, c *Compiler) string {
	sorted := append([]Fragment(nil), fragments...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Level < sorted[j].Level })
	var b strings.Builder
	for _, f := range sorted {
		kind := map[FragmentKind]string{KindMarkup: "markup", KindCookie: "cookie", KindAPI: "api"}[f.Kind]
		fmt.Fprintf(&b, "%-8s %-24s %-12s ring=%d acl{%s}\n",
			kind, f.ID, f.Level, c.RingFor(f.Level), c.ACLFor(f.Level, f.PeerIsolated))
	}
	return b.String()
}
