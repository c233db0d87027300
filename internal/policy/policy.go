// Package policy defines the unified ESCUDO policy document: one
// versioned, serializable description of everything a page
// configuration can say — the ring count, cookie and native-API
// assignments (§4.1), and §7 mashup delegations — for one origin.
//
// ESCUDO's model (§4) is one reference monitor fed by one page
// configuration, but the repo had grown three disjoint policy shapes
// (core.PageConfig from X-Escudo headers, mashup.Policy for
// delegations, and sifgen's compiler output). Policy is the single
// document the three converge on: it validates, round-trips through
// JSON losslessly, converts to and from core.PageConfig, compiles
// into a mashup delegation policy, and travels the wire — the httpd
// gateway serves it per-origin and exposes /policyz for inspection.
// Enforcement never moves server-side: a policy document is data; the
// monitors consuming it live in the browser.
package policy

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/mashup"
	"repro/internal/origin"
)

// Version is the current document version. Parse rejects documents
// from other versions, so incompatible future shapes fail loudly
// instead of being misread.
const Version = 1

// Assignment labels one object (a cookie, by name): its ring and ACL
// ceilings, in the AC-tag attribute vocabulary (r, w, x).
type Assignment struct {
	// Ring is the object's protection ring.
	Ring core.Ring `json:"ring"`
	// Read, Write, Use are the ACL ceilings — the outermost ring
	// allowed to perform each operation.
	Read  core.Ring `json:"r"`
	Write core.Ring `json:"w"`
	Use   core.Ring `json:"x"`
}

// ACL converts the assignment's ceilings to a core.ACL.
func (a Assignment) ACL() core.ACL {
	return core.ACL{Read: a.Read, Write: a.Write, Use: a.Use}
}

// Uniform builds an assignment whose ACL equals its ring — the common
// case in the paper's case-study tables.
func Uniform(r core.Ring) Assignment {
	return Assignment{Ring: r, Read: r, Write: r, Use: r}
}

// Delegation grants a guest origin a floored presence inside the
// policy's origin (§7). The host is implicit: the document's Origin.
type Delegation struct {
	// Guest is the delegated origin in URL form ("http://widget.example").
	Guest string `json:"guest"`
	// Floor is the most privileged ring a guest principal can act as.
	Floor core.Ring `json:"floor"`
}

// Policy is the complete ESCUDO policy document of one origin.
type Policy struct {
	// Version is the document version (must be Version).
	Version int `json:"version"`
	// Origin is the publishing origin in URL form ("http://forum.example").
	Origin string `json:"origin"`
	// MaxRing is the page's least privileged ring N.
	MaxRing core.Ring `json:"max_ring"`
	// Cookies maps cookie names to their assignments.
	Cookies map[string]Assignment `json:"cookies,omitempty"`
	// APIs maps native-API names (lowercase) to their rings.
	APIs map[string]core.Ring `json:"apis,omitempty"`
	// Delegations lists the origin's §7 mashup delegations, sorted by
	// guest for deterministic serialization.
	Delegations []Delegation `json:"delegations,omitempty"`
}

// New returns an empty policy document for the origin.
func New(o origin.Origin, maxRing core.Ring) Policy {
	return Policy{
		Version: Version,
		Origin:  o.String(),
		MaxRing: maxRing,
		Cookies: map[string]Assignment{},
		APIs:    map[string]core.Ring{},
	}
}

// Delegate appends a delegation, keeping the list sorted by guest.
// Re-declaring a guest keeps the least privileged (largest) floor,
// mirroring mashup.Policy.Delegate: narrowing is allowed, silent
// widening is not.
func (p *Policy) Delegate(guest origin.Origin, floor core.Ring) {
	g := guest.String()
	for i, d := range p.Delegations {
		if d.Guest == g {
			if floor > d.Floor {
				p.Delegations[i].Floor = floor
			}
			return
		}
	}
	p.Delegations = append(p.Delegations, Delegation{Guest: g, Floor: floor})
	sort.Slice(p.Delegations, func(a, b int) bool { return p.Delegations[a].Guest < p.Delegations[b].Guest })
}

// ringInRange reports 0 ≤ r ≤ max.
func ringInRange(r, max core.Ring) bool {
	return r >= core.RingKernel && r <= max
}

// Validate checks the document end to end: version, parsable origin,
// ring count within the supported bound, every assignment and ACL
// ceiling within [0, MaxRing], and every delegation naming a
// parsable, distinct guest origin with an in-range floor. A policy
// that fails Validate must not be mounted or enforced.
func (p Policy) Validate() error {
	if p.Version != Version {
		return fmt.Errorf("policy: unsupported version %d (want %d)", p.Version, Version)
	}
	self, err := origin.Parse(p.Origin)
	if err != nil {
		return fmt.Errorf("policy: bad origin %q: %w", p.Origin, err)
	}
	if !ringInRange(p.MaxRing, core.MaxSupportedRing) {
		return fmt.Errorf("policy: max_ring %d outside [0,%d]", p.MaxRing, core.MaxSupportedRing)
	}
	for name, a := range p.Cookies {
		if strings.TrimSpace(name) == "" {
			return fmt.Errorf("policy: cookie with empty name")
		}
		for what, r := range map[string]core.Ring{"ring": a.Ring, "r": a.Read, "w": a.Write, "x": a.Use} {
			if !ringInRange(r, p.MaxRing) {
				return fmt.Errorf("policy: cookie %q %s=%d outside [0,%d]", name, what, r, p.MaxRing)
			}
		}
	}
	for name, r := range p.APIs {
		if strings.TrimSpace(name) == "" {
			return fmt.Errorf("policy: api with empty name")
		}
		if name != strings.ToLower(name) {
			return fmt.Errorf("policy: api %q must be lowercase", name)
		}
		if !ringInRange(r, p.MaxRing) {
			return fmt.Errorf("policy: api %q ring=%d outside [0,%d]", name, r, p.MaxRing)
		}
	}
	seen := map[string]bool{}
	for _, d := range p.Delegations {
		guest, err := origin.Parse(d.Guest)
		if err != nil {
			return fmt.Errorf("policy: delegation guest %q: %w", d.Guest, err)
		}
		if guest.SameOrigin(self) {
			return fmt.Errorf("policy: delegation guest %q is the policy's own origin", d.Guest)
		}
		if seen[guest.String()] {
			return fmt.Errorf("policy: duplicate delegation for guest %q", d.Guest)
		}
		seen[guest.String()] = true
		if !ringInRange(d.Floor, p.MaxRing) {
			return fmt.Errorf("policy: delegation %q floor=%d outside [0,%d]", d.Guest, d.Floor, p.MaxRing)
		}
	}
	return nil
}

// Marshal serializes the document as JSON. Maps serialize with sorted
// keys and delegations are kept sorted, so equal documents marshal to
// equal bytes.
func (p Policy) Marshal() ([]byte, error) {
	return json.Marshal(p)
}

// MarshalIndent is Marshal with human-readable indentation (the
// /policyz and inspection format).
func (p Policy) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// Parse deserializes and validates a document: Parse(Marshal(p))
// reproduces p exactly for any valid p. Omitted cookie/API sections
// come back as empty maps (as New builds them), so parsed documents
// are safely mutable.
func Parse(data []byte) (Policy, error) {
	var p Policy
	if err := json.Unmarshal(data, &p); err != nil {
		return Policy{}, fmt.Errorf("policy: parsing: %w", err)
	}
	if p.Cookies == nil {
		p.Cookies = map[string]Assignment{}
	}
	if p.APIs == nil {
		p.APIs = map[string]core.Ring{}
	}
	if err := p.Validate(); err != nil {
		return Policy{}, err
	}
	return p, nil
}

// Equal reports whether two documents say the same thing (map and
// slice contents compared structurally).
func (p Policy) Equal(q Policy) bool {
	if p.Version != q.Version || p.Origin != q.Origin || p.MaxRing != q.MaxRing {
		return false
	}
	if len(p.Cookies) != len(q.Cookies) || len(p.APIs) != len(q.APIs) || len(p.Delegations) != len(q.Delegations) {
		return false
	}
	for k, v := range p.Cookies {
		if q.Cookies[k] != v {
			return false
		}
	}
	for k, v := range p.APIs {
		if q.APIs[k] != v {
			return false
		}
	}
	for i, d := range p.Delegations {
		if q.Delegations[i] != d {
			return false
		}
	}
	return true
}

// FromPageConfig lifts a header-carried core.PageConfig into a policy
// document for the origin (delegations empty: the X-Escudo headers
// cannot express them — that is precisely why this document exists).
func FromPageConfig(o origin.Origin, cfg core.PageConfig) Policy {
	p := New(o, cfg.MaxRing)
	for name, cc := range cfg.Cookies {
		p.Cookies[name] = Assignment{Ring: cc.Ring, Read: cc.ACL.Read, Write: cc.ACL.Write, Use: cc.ACL.Use}
	}
	for name, ac := range cfg.APIs {
		p.APIs[strings.ToLower(name)] = ac.Ring
	}
	return p
}

// PageConfig lowers the document to the header-carried configuration
// the browser's parser consumes (delegations are not representable
// there; use DelegationPolicy for them).
func (p Policy) PageConfig() core.PageConfig {
	cfg := core.NewPageConfig(p.MaxRing)
	for name, a := range p.Cookies {
		cfg.Cookies[name] = core.CookieConfig{Name: name, Ring: a.Ring, ACL: a.ACL()}
	}
	for name, r := range p.APIs {
		cfg.APIs[name] = core.APIConfig{Name: name, Ring: r}
	}
	return cfg
}

// DelegationPolicy compiles the document's delegations into the
// runtime mashup policy consumed by core.WithDelegations. The document
// must be valid.
func (p Policy) DelegationPolicy() (*mashup.Policy, error) {
	host, err := origin.Parse(p.Origin)
	if err != nil {
		return nil, fmt.Errorf("policy: bad origin %q: %w", p.Origin, err)
	}
	dp := mashup.NewPolicy()
	for _, d := range p.Delegations {
		guest, err := origin.Parse(d.Guest)
		if err != nil {
			return nil, fmt.Errorf("policy: delegation guest %q: %w", d.Guest, err)
		}
		dp.Delegate(mashup.Delegation{Host: host, Guest: guest, Floor: d.Floor})
	}
	return dp, nil
}

// Summary renders a human-readable table of the document — the
// inspection/adoption view.
func (p Policy) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy v%d for %s (N=%d)\n", p.Version, p.Origin, p.MaxRing)
	names := make([]string, 0, len(p.Cookies))
	for n := range p.Cookies {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := p.Cookies[n]
		fmt.Fprintf(&b, "  cookie %-24s ring=%d acl{r=%d w=%d x=%d}\n", n, a.Ring, a.Read, a.Write, a.Use)
	}
	apiNames := make([]string, 0, len(p.APIs))
	for n := range p.APIs {
		apiNames = append(apiNames, n)
	}
	sort.Strings(apiNames)
	for _, n := range apiNames {
		fmt.Fprintf(&b, "  api    %-24s ring=%d\n", n, p.APIs[n])
	}
	for _, d := range p.Delegations {
		fmt.Fprintf(&b, "  delegation %s floor=%d\n", d.Guest, d.Floor)
	}
	return b.String()
}
