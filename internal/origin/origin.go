// Package origin implements web origins as defined by the same-origin
// policy: the unique combination of scheme, host, and port from a URL.
//
// ESCUDO's Origin Rule (paper §4.2, rule 1) compares the origin of a
// principal with the origin of an object; this package supplies the
// origin type and the URL handling used by the rest of the system.
package origin

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
)

// Origin is the ⟨scheme, host, port⟩ triple identifying a web
// application under the same-origin policy. The zero value is the
// "null" origin, which is never equal to any origin including itself
// when compared with SameOrigin (mirroring opaque origins in real
// browsers).
type Origin struct {
	// Scheme is the lowercase URL scheme, e.g. "http" or "https".
	Scheme string
	// Host is the lowercase hostname with no port, e.g. "forum.example".
	Host string
	// Port is the effective TCP port. Parse fills in the scheme
	// default (80 for http, 443 for https) when the URL omits it.
	Port int
}

// ErrInvalidURL reports a URL from which no origin can be derived.
var ErrInvalidURL = errors.New("origin: invalid URL")

// defaultPorts maps schemes to their default ports.
var defaultPorts = map[string]int{
	"http":  80,
	"https": 443,
	"ws":    80,
	"wss":   443,
	"ftp":   21,
}

// Parse derives the origin of an absolute URL. It fails for relative
// URLs and URLs without a host.
func Parse(rawURL string) (Origin, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return Origin{}, fmt.Errorf("origin: parsing %q: %w", rawURL, err)
	}
	return FromURL(u)
}

// MustParse is Parse for statically known URLs; it panics on error.
// It is intended for tests and example programs.
func MustParse(rawURL string) Origin {
	o, err := Parse(rawURL)
	if err != nil {
		panic(err)
	}
	return o
}

// FromURL derives the origin of an already parsed URL.
func FromURL(u *url.URL) (Origin, error) {
	if u == nil || !u.IsAbs() || u.Hostname() == "" {
		return Origin{}, fmt.Errorf("%w: %q", ErrInvalidURL, u)
	}
	scheme := strings.ToLower(u.Scheme)
	port := defaultPorts[scheme]
	if p := u.Port(); p != "" {
		var n int
		if _, err := fmt.Sscanf(p, "%d", &n); err != nil || n <= 0 || n > 65535 {
			return Origin{}, fmt.Errorf("%w: bad port %q", ErrInvalidURL, p)
		}
		port = n
	}
	if port == 0 {
		return Origin{}, fmt.Errorf("%w: scheme %q has no default port", ErrInvalidURL, scheme)
	}
	return Origin{Scheme: scheme, Host: strings.ToLower(u.Hostname()), Port: port}, nil
}

// IsNull reports whether o is the null (zero) origin.
func (o Origin) IsNull() bool {
	return o.Scheme == "" && o.Host == "" && o.Port == 0
}

// SameOrigin implements the same-origin test. Null origins are never
// same-origin with anything, themselves included.
func (o Origin) SameOrigin(other Origin) bool {
	if o.IsNull() || other.IsNull() {
		return false
	}
	return o == other
}

// String renders the origin in serialized form, e.g.
// "http://forum.example:8080". Default ports are elided, matching the
// common browser serialization. It avoids fmt on the hot path.
func (o Origin) String() string {
	if o.IsNull() {
		return "null"
	}
	var b strings.Builder
	b.Grow(len(o.Scheme) + len(o.Host) + 9)
	b.WriteString(o.Scheme)
	b.WriteString("://")
	b.WriteString(o.Host)
	if defaultPorts[o.Scheme] != o.Port {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(o.Port))
	}
	return b.String()
}

// URL builds an absolute URL within the origin from an absolute path
// (and optional query), e.g. o.URL("/login?next=%2F").
func (o Origin) URL(pathAndQuery string) string {
	if !strings.HasPrefix(pathAndQuery, "/") {
		pathAndQuery = "/" + pathAndQuery
	}
	return o.String() + pathAndQuery
}

// Resolve resolves a possibly relative reference against a base URL,
// returning the absolute URL string. It is used when HTML attributes
// (href, src, form action) contain relative references.
func Resolve(baseURL, ref string) (string, error) {
	b, err := url.Parse(baseURL)
	if err != nil {
		return "", fmt.Errorf("origin: parsing base %q: %w", baseURL, err)
	}
	r, err := url.Parse(strings.TrimSpace(ref))
	if err != nil {
		return "", fmt.Errorf("origin: parsing ref %q: %w", ref, err)
	}
	return b.ResolveReference(r).String(), nil
}
