package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Names of the ESCUDO configuration carriers. AC tags are div tags
// bearing AttrRing (paper §4.1); ring assignments for cookies and
// native-code APIs travel in optional HTTP headers that non-ESCUDO
// browsers ignore (§6.3).
const (
	// AttrRing assigns the ring for everything in the div's scope.
	AttrRing = "ring"
	// AttrRead, AttrWrite, AttrUse carry the ACL (r, w, x in §4.1).
	AttrRead  = "r"
	AttrWrite = "w"
	AttrUse   = "x"
	// AttrNonce carries the markup-randomization nonce (§5).
	AttrNonce = "nonce"

	// HeaderMaxRing declares the page's ring count N.
	HeaderMaxRing = "X-Escudo-Maxring"
	// HeaderCookie assigns ring and ACL to one cookie, e.g.
	// "phpbb2mysql_sid; ring=1; r=1; w=1; x=1". Repeatable.
	HeaderCookie = "X-Escudo-Cookie"
	// HeaderAPI assigns a ring to one native-code API, e.g.
	// "xmlhttprequest; ring=1". Repeatable.
	HeaderAPI = "X-Escudo-Api"
)

// Native-code API names accepted in HeaderAPI values. The paper calls
// out XMLHttpRequest and the DOM API explicitly (Table 1).
const (
	APIXMLHTTPRequest = "xmlhttprequest"
	APIDOM            = "dom"
	APIHistory        = "history"
)

// IsConfigAttr reports whether name is one of the ESCUDO configuration
// attributes that must never be exposed to scripts (§5: "the
// configuration information is not exposed to JavaScript programs").
func IsConfigAttr(name string) bool {
	switch strings.ToLower(name) {
	case AttrRing, AttrRead, AttrWrite, AttrUse, AttrNonce:
		return true
	default:
		return false
	}
}

// ACAttrs is the parsed ESCUDO configuration of one AC tag.
type ACAttrs struct {
	// HasRing records whether the tag carried a ring attribute at
	// all — a div without one is an ordinary div, not an AC tag.
	HasRing bool
	// Ring is the declared ring, already clamped by the scoping rule.
	Ring Ring
	// ACL is the declared ACL; missing attributes use the fail-safe
	// default 0 (§4.3).
	ACL ACL
	// Nonce is the markup-randomization nonce, empty when absent.
	Nonce string
}

// ParseACAttrs extracts ESCUDO configuration from a tag's attributes.
// attr looks up an attribute by lowercase name; when a tag repeats a
// name, it must return the last occurrence. maxRing bounds every
// label; parentRing is the enclosing scope's ring, and the scoping
// rule (§5) forces the result to be no more privileged than it, "even
// if the ring specification of the sub scope violates this rule".
// Malformed numbers fall back to fail-safe defaults rather than
// failing the parse: a tampered attribute must never grant more
// privilege than a missing one.
func ParseACAttrs(attr func(name string) (string, bool), maxRing, parentRing Ring) ACAttrs {
	var out ACAttrs
	out.Nonce, _ = attr(AttrNonce)
	ringStr, ok := attr(AttrRing)
	if !ok {
		return out
	}
	out.HasRing = true
	r, err := ParseRing(ringStr, maxRing)
	if err != nil {
		// Fail-safe default: least privileged ring (§4.3).
		r = maxRing
	}
	out.Ring = r.Outermost(parentRing).Clamp(maxRing)

	parseCeil := func(name string) Ring {
		v, ok := attr(name)
		if !ok {
			return RingKernel // fail-safe: ring 0 only
		}
		c, err := ParseRing(v, maxRing)
		if err != nil {
			return RingKernel
		}
		return c
	}
	out.ACL = ACL{
		Read:  parseCeil(AttrRead),
		Write: parseCeil(AttrWrite),
		Use:   parseCeil(AttrUse),
	}
	return out
}

// AppendACAttrs appends the configuration as AC-tag attributes in the
// order the paper's figures use: ring, r, w, x, nonce. A zero nonce is
// left out: the tag opts out of markup randomization.
func AppendACAttrs(dst []byte, ring Ring, acl ACL, nonce uint64) []byte {
	dst = append(dst, "ring="...)
	dst = strconv.AppendInt(dst, int64(ring), 10)
	dst = append(dst, " r="...)
	dst = strconv.AppendInt(dst, int64(acl.Read), 10)
	dst = append(dst, " w="...)
	dst = strconv.AppendInt(dst, int64(acl.Write), 10)
	dst = append(dst, " x="...)
	dst = strconv.AppendInt(dst, int64(acl.Use), 10)
	if nonce != 0 {
		dst = append(dst, " nonce="...)
		dst = strconv.AppendUint(dst, nonce, 10)
	}
	return dst
}

// CookieConfig is the ring assignment and ACL of one cookie.
type CookieConfig struct {
	Name string
	Ring Ring
	ACL  ACL
}

// APIConfig is the ring assignment of one native-code API.
type APIConfig struct {
	Name string
	Ring Ring
}

// PageConfig is the complete ESCUDO configuration a response carries
// for one page: the ring count plus cookie and API assignments. DOM
// assignments live in the markup itself.
type PageConfig struct {
	// MaxRing is the page's least privileged ring N.
	MaxRing Ring
	// Cookies maps cookie names to their configuration. Cookies
	// without an entry default to ring 0 (§4.1 "Cookies": "If ring
	// mappings are omitted ... all cookies are assigned to ring 0").
	Cookies map[string]CookieConfig
	// APIs maps API names (lowercase) to their configuration. APIs
	// without an entry default to ring 0 (§4.1 "Native Code API").
	APIs map[string]APIConfig
}

// DefaultPageConfig returns the configuration of a page that supplied
// none: a legacy page. MaxRing 0 collapses every label to a single
// ring, so the ERM behaves exactly like the same-origin policy (§6.3).
func DefaultPageConfig() PageConfig {
	return PageConfig{MaxRing: 0, Cookies: map[string]CookieConfig{}, APIs: map[string]APIConfig{}}
}

// NewPageConfig returns an empty configuration with the given ring
// count.
func NewPageConfig(maxRing Ring) PageConfig {
	return PageConfig{MaxRing: maxRing, Cookies: map[string]CookieConfig{}, APIs: map[string]APIConfig{}}
}

// Configured reports whether the page supplied any ESCUDO
// configuration at all.
func (c PageConfig) Configured() bool {
	return c.MaxRing > 0 || len(c.Cookies) > 0 || len(c.APIs) > 0
}

// CookieRing returns the ring and ACL for the named cookie, applying
// the ring-0 default for unconfigured cookies.
func (c PageConfig) CookieRing(name string) (Ring, ACL) {
	if cc, ok := c.Cookies[name]; ok {
		return cc.Ring, cc.ACL
	}
	return RingKernel, UniformACL(RingKernel)
}

// APIRing returns the ring for the named API (lowercased), applying
// the ring-0 fail-safe default.
func (c PageConfig) APIRing(name string) Ring {
	if ac, ok := c.APIs[strings.ToLower(name)]; ok {
		return ac.Ring
	}
	return RingKernel
}

// ErrBadHeader reports a malformed X-Escudo-* header value.
var ErrBadHeader = errors.New("core: malformed X-Escudo header")

// ParseCookieHeader parses one HeaderCookie value of the form
// "name; ring=1; r=1; w=1; x=1". Missing ACL entries default to the
// cookie's ring (a cookie readable by its own ring), and the ACL is
// tightened so it can never be laxer than the ring. The ACL entries are
// checked in the order r, w, x, so a value with several bad entries
// always reports the same one.
func ParseCookieHeader(value string, maxRing Ring) (CookieConfig, error) {
	params := [...]headerParam{{key: "ring"}, {key: "r"}, {key: "w"}, {key: "x"}}
	name, err := parseHeaderValue(value, params[:])
	if err != nil {
		return CookieConfig{}, err
	}
	cc := CookieConfig{Name: name, Ring: RingKernel}
	if ring := params[0]; ring.ok {
		r, err := ParseRing(ring.val, maxRing)
		if err != nil {
			return CookieConfig{}, fmt.Errorf("%w: cookie %q: %v", ErrBadHeader, name, err)
		}
		cc.Ring = r
	}
	cc.ACL = UniformACL(cc.Ring)
	for i, dst := range [...]*Ring{&cc.ACL.Read, &cc.ACL.Write, &cc.ACL.Use} {
		attr := params[1+i]
		if !attr.ok {
			continue
		}
		r, err := ParseRing(attr.val, maxRing)
		if err != nil {
			return CookieConfig{}, fmt.Errorf("%w: cookie %q attr %q: %v", ErrBadHeader, name, attr.key, err)
		}
		*dst = r
	}
	return cc, nil
}

// ParseAPIHeader parses one HeaderAPI value of the form "name; ring=1".
func ParseAPIHeader(value string, maxRing Ring) (APIConfig, error) {
	params := [...]headerParam{{key: "ring"}}
	name, err := parseHeaderValue(value, params[:])
	if err != nil {
		return APIConfig{}, err
	}
	ac := APIConfig{Name: strings.ToLower(name), Ring: RingKernel}
	if ring := params[0]; ring.ok {
		r, err := ParseRing(ring.val, maxRing)
		if err != nil {
			return APIConfig{}, fmt.Errorf("%w: api %q: %v", ErrBadHeader, name, err)
		}
		ac.Ring = r
	}
	return ac, nil
}

// headerParam is one parameter a header parse looks for: key is
// lowercase, and val holds the trimmed value of the key's last
// occurrence when ok.
type headerParam struct {
	key, val string
	ok       bool
}

// parseHeaderValue parses "name; k=v; k=v" in place, returning the
// trimmed name and filling in the params whose keys occur (keys compare
// trimmed and lowercased; the last occurrence wins). An empty name or a
// parameter without "=" is an error.
func parseHeaderValue(value string, params []headerParam) (string, error) {
	name, rest, _ := strings.Cut(value, ";")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", fmt.Errorf("%w: empty name in %q", ErrBadHeader, value)
	}
	for rest != "" {
		var p string
		p, rest, _ = strings.Cut(rest, ";")
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return "", fmt.Errorf("%w: parameter %q in %q", ErrBadHeader, p, value)
		}
		k = strings.ToLower(strings.TrimSpace(k))
		for i := range params {
			if params[i].key == k {
				params[i].val, params[i].ok = strings.TrimSpace(v), true
			}
		}
	}
	return name, nil
}

// FormatCookieHeader renders a CookieConfig as a HeaderCookie value.
func FormatCookieHeader(cc CookieConfig) string {
	return fmt.Sprintf("%s; ring=%d; r=%d; w=%d; x=%d", cc.Name, cc.Ring, cc.ACL.Read, cc.ACL.Write, cc.ACL.Use)
}

// FormatAPIHeader renders an APIConfig as a HeaderAPI value.
func FormatAPIHeader(ac APIConfig) string {
	return fmt.Sprintf("%s; ring=%d", ac.Name, ac.Ring)
}

// ParsePageConfig assembles a PageConfig from raw header values.
// maxRingValues, cookieValues and apiValues are the (possibly
// repeated) values of the three X-Escudo headers. A page with no
// headers yields DefaultPageConfig. Malformed values degrade to
// fail-safe defaults and are reported in errs rather than aborting the
// page load, matching the robustness principle that a broken
// configuration must never be laxer than a missing one.
func ParsePageConfig(maxRingValues, cookieValues, apiValues []string) (PageConfig, []error) {
	var errs []error
	cfg := DefaultPageConfig()
	for _, v := range maxRingValues {
		r, err := ParseRing(strings.TrimSpace(v), MaxSupportedRing)
		if err != nil {
			errs = append(errs, fmt.Errorf("%w: %s: %v", ErrBadHeader, HeaderMaxRing, err))
			continue
		}
		cfg.MaxRing = r
	}
	if cfg.MaxRing == 0 && (len(cookieValues) > 0 || len(apiValues) > 0) {
		// Cookie or API assignments without an explicit ring count
		// imply the paper's illustrative default N.
		cfg.MaxRing = DefaultMaxRing
	}
	for _, v := range cookieValues {
		cc, err := ParseCookieHeader(v, cfg.MaxRing)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		cfg.Cookies[cc.Name] = cc
	}
	for _, v := range apiValues {
		ac, err := ParseAPIHeader(v, cfg.MaxRing)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		cfg.APIs[ac.Name] = ac
	}
	return cfg, errs
}

// HeaderValues serializes the configuration back into header values,
// sorted for determinism. It returns maxRing, cookie, and API values
// suitable for attaching to a response.
func (c PageConfig) HeaderValues() (maxRing string, cookies, apis []string) {
	maxRing = c.MaxRing.String()
	names := make([]string, 0, len(c.Cookies))
	for n := range c.Cookies {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cookies = append(cookies, FormatCookieHeader(c.Cookies[n]))
	}
	apiNames := make([]string, 0, len(c.APIs))
	for n := range c.APIs {
		apiNames = append(apiNames, n)
	}
	sort.Strings(apiNames)
	for _, n := range apiNames {
		apis = append(apis, FormatAPIHeader(c.APIs[n]))
	}
	return maxRing, cookies, apis
}
