// Package web is the in-memory web substrate: HTTP-shaped requests and
// responses routed by origin to registered server applications. It
// replaces the real network + Apache/PHP stack of the paper's testbed
// (see DESIGN.md, substitutions). The network keeps a request log so
// the attack harness can check, for example, whether a forged
// cross-site request arrived carrying the victim's session cookie —
// the §6.4 CSRF verdict.
package web

import (
	"errors"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/origin"
)

// Header is a simplified HTTP header map: canonical-cased keys to
// value lists.
type Header map[string][]string

// CanonicalKey normalizes a header name ("x-escudo-maxring" →
// "X-Escudo-Maxring"). Header maps are touched on every request and
// response, and callers almost always pass the canonical form
// already, so that case is detected in place and returns the input
// with no allocation.
func CanonicalKey(k string) string {
	if isCanonicalKey(k) {
		return k
	}
	if v, ok := internedKeys[k]; ok {
		return v
	}
	parts := strings.Split(strings.ToLower(k), "-")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + p[1:]
	}
	return strings.Join(parts, "-")
}

// internedKeys maps the lower-case spellings of hot header keys to a
// shared canonical string, so request-path callers that pass the
// wire-typical lower-case form ("set-cookie", "content-type") get the
// interned instance back instead of paying the split/join rebuild on
// every header touch.
var internedKeys = map[string]string{
	"accept":                    "Accept",
	"content-type":              "Content-Type",
	"cookie":                    "Cookie",
	"location":                  "Location",
	"referer":                   "Referer",
	"set-cookie":                "Set-Cookie",
	"x-escudo-gateway":          "X-Escudo-Gateway",
	"x-escudo-initiator-label":  "X-Escudo-Initiator-Label",
	"x-escudo-initiator-origin": "X-Escudo-Initiator-Origin",
	"x-escudo-maxring":          "X-Escudo-Maxring",
	"x-escudo-orig-keys":        "X-Escudo-Orig-Keys",
	"x-escudo-trace":            "X-Escudo-Trace",
}

// isCanonicalKey reports whether k is already in canonical form: each
// dash-separated part starts with a non-lowercase byte and continues
// with non-uppercase bytes.
func isCanonicalKey(k string) bool {
	first := true
	for i := 0; i < len(k); i++ {
		c := k[i]
		if c == '-' {
			first = true
			continue
		}
		if first {
			if c >= 'a' && c <= 'z' {
				return false
			}
			first = false
		} else if c >= 'A' && c <= 'Z' {
			return false
		}
	}
	return true
}

// Add appends a value to the named header.
func (h Header) Add(key, value string) {
	k := CanonicalKey(key)
	h[k] = append(h[k], value)
}

// Set replaces the named header with a single value.
func (h Header) Set(key, value string) {
	h[CanonicalKey(key)] = []string{value}
}

// Get returns the first value of the named header, or "".
func (h Header) Get(key string) string {
	v := h[CanonicalKey(key)]
	if len(v) == 0 {
		return ""
	}
	return v[0]
}

// Values returns all values of the named header.
func (h Header) Values(key string) []string {
	return h[CanonicalKey(key)]
}

// Clone deep-copies the header.
func (h Header) Clone() Header {
	out := make(Header, len(h))
	for k, v := range h {
		out[k] = append([]string(nil), v...)
	}
	return out
}

// Request is one HTTP-shaped request.
//
// The URL and Cookie header are parsed at most once: TargetOrigin,
// Path, and Query memoize one shared URL parse, and Cookies memoizes
// the Cookie-header parse. The request pipeline reads each of these
// several times per round trip (routing, cookie attachment, logging,
// then the handler), so the memo turns four parses into one. The
// contract is the natural one for a request in flight: URL must not
// change after the first derived accessor runs, and the Cookie header
// must be final before Cookies/Cookie is first called (the browser
// attaches cookies before RoundTrip, which is the first reader).
type Request struct {
	// Method is "GET" or "POST".
	Method string
	// URL is the absolute target URL.
	URL string
	// Header carries request headers, including Cookie.
	Header Header
	// Form carries POST form fields.
	Form url.Values
	// InitiatorOrigin is the origin of the page whose principal
	// caused the request (the null origin for browser-typed
	// navigations). The attack harness uses it to classify
	// cross-site requests.
	InitiatorOrigin origin.Origin
	// InitiatorLabel describes the principal for the request log,
	// e.g. "img", "form#post", "xhr".
	InitiatorLabel string
	// TraceID is the causal trace of the task that issued the request
	// (see internal/obs); it travels as the X-Escudo-Trace header over
	// real transports and into the request log, linking the request to
	// the decisions it triggers. Empty when the task is untraced.
	TraceID string

	urlOnce   sync.Once
	parsedURL *url.URL
	target    origin.Origin
	targetErr error

	queryOnce sync.Once
	query     url.Values

	cookieOnce sync.Once
	cookies    map[string]string
}

// NewRequest builds a request with empty header and form.
func NewRequest(method, rawURL string) *Request {
	return &Request{Method: method, URL: rawURL, Header: Header{}, Form: url.Values{}}
}

// Reset prepares r for reuse from a request pool: the Header map is
// cleared in place and kept, every other field — including the
// memoized URL, query, and cookie parses — is dropped. Form is set to
// nil rather than cleared because the request log may alias the old
// map (LogEntry.Form); a reused request that carries a form gets a
// fresh map. The caller must own r exclusively: Reset while a handler
// or logger still reads r is a race.
func (r *Request) Reset(method, rawURL string) {
	if r.Header == nil {
		r.Header = Header{}
	} else {
		clear(r.Header)
	}
	r.Method = method
	r.URL = rawURL
	r.Form = nil
	r.InitiatorOrigin = origin.Origin{}
	r.InitiatorLabel = ""
	r.TraceID = ""
	r.urlOnce = sync.Once{}
	r.parsedURL = nil
	r.target = origin.Origin{}
	r.targetErr = nil
	r.queryOnce = sync.Once{}
	r.query = nil
	r.cookieOnce = sync.Once{}
	r.cookies = nil
}

// parse runs the one-time URL parse shared by TargetOrigin, Path, and
// Query.
func (r *Request) parse() {
	r.urlOnce.Do(func() {
		r.parsedURL, _ = url.Parse(r.URL)
		r.target, r.targetErr = origin.Parse(r.URL)
	})
}

// TargetOrigin derives the origin of the request's URL.
func (r *Request) TargetOrigin() (origin.Origin, error) {
	r.parse()
	return r.target, r.targetErr
}

// Path returns the URL path (with a leading slash; "/" for empty).
func (r *Request) Path() string {
	r.parse()
	if r.parsedURL == nil || r.parsedURL.Path == "" {
		return "/"
	}
	return r.parsedURL.Path
}

// Query returns the parsed query parameters. The returned values are
// shared across calls; callers must not mutate them.
func (r *Request) Query() url.Values {
	r.parse()
	r.queryOnce.Do(func() {
		if r.parsedURL == nil {
			r.query = url.Values{}
			return
		}
		r.query = r.parsedURL.Query()
	})
	return r.query
}

// Cookies parses the Cookie header into name→value pairs. The map is
// parsed once and shared across calls; callers must not mutate it.
func (r *Request) Cookies() map[string]string {
	r.cookieOnce.Do(func() {
		out := map[string]string{}
		for _, line := range r.Header.Values("Cookie") {
			for _, part := range strings.Split(line, ";") {
				name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
				if ok && name != "" {
					out[name] = val
				}
			}
		}
		r.cookies = out
	})
	return r.cookies
}

// Cookie returns the named cookie value and whether it is present.
func (r *Request) Cookie(name string) (string, bool) {
	v, ok := r.Cookies()[name]
	return v, ok
}

// Response is one HTTP-shaped response.
type Response struct {
	// Status is the HTTP status code.
	Status int
	// Header carries response headers, including Set-Cookie and the
	// X-Escudo-* configuration.
	Header Header
	// Body is the response entity, typically HTML.
	Body string
}

// NewResponse builds an empty 200 response.
func NewResponse() *Response {
	return &Response{Status: 200, Header: Header{}}
}

// HTML builds a 200 text/html response with the given body.
func HTML(body string) *Response {
	resp := NewResponse()
	resp.Header.Set("Content-Type", "text/html")
	resp.Body = body
	return resp
}

// Redirect builds a 303 response to the given location.
func Redirect(location string) *Response {
	resp := NewResponse()
	resp.Status = 303
	resp.Header.Set("Location", location)
	return resp
}

// NotFound builds a 404 response.
func NotFound() *Response {
	resp := NewResponse()
	resp.Status = 404
	resp.Body = "not found"
	return resp
}

// Forbidden builds a 403 response.
func Forbidden(msg string) *Response {
	resp := NewResponse()
	resp.Status = 403
	resp.Body = msg
	return resp
}

// Handler serves requests for one origin.
type Handler interface {
	Serve(req *Request) *Response
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(req *Request) *Response

// Serve implements Handler.
func (f HandlerFunc) Serve(req *Request) *Response { return f(req) }

// ErrNoServer reports a request for an unregistered origin.
var ErrNoServer = errors.New("web: no server for origin")

// LogEntry records one routed request for post-hoc analysis.
type LogEntry struct {
	Method          string
	URL             string
	Path            string
	Target          origin.Origin
	InitiatorOrigin origin.Origin
	InitiatorLabel  string
	// TraceID links the request to the decision trace of the task that
	// issued it; empty for untraced tasks.
	TraceID string
	// CookieNames are the cookies that arrived with the request —
	// the CSRF success signal.
	CookieNames []string
	// SetCookieNames are the cookies the response tried to set, so the
	// attack harness can see session establishment (e.g. a login fixation
	// attempt) and not just request-side cookie travel.
	SetCookieNames []string
	Form           url.Values
	Status         int
}

// logShardCount must be a power of two (records shard by ticket).
// Mirrors core.AuditLog: enough shards that concurrent sessions'
// request logging doesn't serialize, few enough that merges stay
// cheap.
const logShardCount = 16

// logRecord is one entry stamped with its global ticket, so per-shard
// streams merge back into issue order.
type logRecord struct {
	seq uint64
	e   LogEntry
}

// logShard is one independently locked slice of the request log.
type logShard struct {
	mu   sync.RWMutex
	recs []logRecord
}

// serverTable is the immutable origin→handler map the hot path reads.
type serverTable map[origin.Origin]Handler

// Network routes requests to servers by origin and records a log. It
// is safe for concurrent use and concurrent-first: the server table is
// an immutable copy-on-write map behind an atomic pointer
// (registrations happen at setup, lookups on every request, so reads
// take no lock at all), and the request log is sharded with a global
// atomic ticket so writers from many sessions don't serialize on one
// mutex — readers merge the shards back into ticket order.
type Network struct {
	servers atomic.Pointer[serverTable]
	// regMu serializes Register's copy-on-write swaps; lookups never
	// take it.
	regMu  sync.Mutex
	seq    atomic.Uint64
	shards [logShardCount]logShard
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	n := &Network{}
	empty := serverTable{}
	n.servers.Store(&empty)
	return n
}

// Register installs a handler for an origin, replacing any previous
// one. Registration copies the server table (it is setup-time work);
// in-flight lookups keep reading the previous immutable table.
func (n *Network) Register(o origin.Origin, h Handler) {
	n.regMu.Lock()
	defer n.regMu.Unlock()
	old := *n.servers.Load()
	next := make(serverTable, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[o] = h
	n.servers.Store(&next)
}

// lookup resolves the handler for an origin with a lock-free read of
// the current server table.
func (n *Network) lookup(o origin.Origin) (Handler, bool) {
	h, ok := (*n.servers.Load())[o]
	return h, ok
}

// RoundTrip routes the request to its target origin's server and
// returns the response. Every routed request is logged, whether or
// not a server exists; unrouted origins log Status 502.
func (n *Network) RoundTrip(req *Request) (*Response, error) {
	target, err := req.TargetOrigin()
	if err != nil {
		return nil, fmt.Errorf("web: routing %q: %w", req.URL, err)
	}
	h, ok := n.lookup(target)

	entry := LogEntry{
		Method:          req.Method,
		URL:             req.URL,
		Path:            req.Path(),
		Target:          target,
		InitiatorOrigin: req.InitiatorOrigin,
		InitiatorLabel:  req.InitiatorLabel,
		TraceID:         req.TraceID,
		Form:            req.Form,
	}
	for name := range req.Cookies() {
		entry.CookieNames = append(entry.CookieNames, name)
	}

	if !ok {
		entry.Status = 502
		n.appendLog(entry)
		return nil, fmt.Errorf("%w: %s", ErrNoServer, target)
	}
	resp := h.Serve(req)
	if resp == nil {
		resp = NotFound()
	}
	entry.Status = resp.Status
	for _, sc := range resp.Header.Values("Set-Cookie") {
		if name, _, ok := strings.Cut(sc, "="); ok && name != "" {
			entry.SetCookieNames = append(entry.SetCookieNames, strings.TrimSpace(name))
		}
	}
	n.appendLog(entry)
	return resp, nil
}

// appendLog takes a global ticket and appends under one shard lock.
func (n *Network) appendLog(e LogEntry) {
	seq := n.seq.Add(1)
	s := &n.shards[seq&(logShardCount-1)]
	s.mu.Lock()
	s.recs = append(s.recs, logRecord{seq: seq, e: e})
	s.mu.Unlock()
}

// collect snapshots every shard, keeping entries that pass keep, and
// returns them in ticket (issue) order. Filtering happens under the
// shard read locks, so post-hoc queries never copy the whole log.
func (n *Network) collect(keep func(LogEntry) bool) []LogEntry {
	var recs []logRecord
	for i := range n.shards {
		s := &n.shards[i]
		s.mu.RLock()
		for _, r := range s.recs {
			if keep == nil || keep(r.e) {
				recs = append(recs, r)
			}
		}
		s.mu.RUnlock()
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].seq < recs[b].seq })
	out := make([]LogEntry, len(recs))
	for i, r := range recs {
		out[i] = r.e
	}
	return out
}

// Log returns a copy of the request log in issue order.
func (n *Network) Log() []LogEntry {
	return n.collect(nil)
}

// LogLines renders the request log one line per entry in issue order,
// keeping the fields any faithful transport must reproduce for the
// same session: method, path, target, status, and the sorted names of
// the cookies that arrived (the CSRF verdict oracle). Transport
// equivalence compares these lines between an in-memory run and a run
// over the wire.
func (n *Network) LogLines() []string {
	entries := n.Log()
	out := make([]string, len(entries))
	for i, e := range entries {
		cookies := append([]string(nil), e.CookieNames...)
		sort.Strings(cookies)
		out[i] = fmt.Sprintf("%s %s %s %d %v", e.Method, e.Path, e.Target, e.Status, cookies)
	}
	return out
}

// ResetLog clears the request log (between attack trials). The ticket
// counter keeps running, so entries logged before and after a
// concurrent reset still merge in a consistent order.
func (n *Network) ResetLog() {
	for i := range n.shards {
		s := &n.shards[i]
		s.mu.Lock()
		s.recs = nil
		s.mu.Unlock()
	}
}

// LogLen returns the number of logged requests without copying them.
func (n *Network) LogLen() int {
	total := 0
	for i := range n.shards {
		s := &n.shards[i]
		s.mu.RLock()
		total += len(s.recs)
		s.mu.RUnlock()
	}
	return total
}

// HasCookie reports whether entry carried the named cookie.
func (e LogEntry) HasCookie(name string) bool {
	for _, c := range e.CookieNames {
		if c == name {
			return true
		}
	}
	return false
}

// HasSetCookie reports whether entry's response set the named cookie.
func (e LogEntry) HasSetCookie(name string) bool {
	for _, c := range e.SetCookieNames {
		if c == name {
			return true
		}
	}
	return false
}

// FindRequests returns log entries matching the target origin and path
// predicate, in issue order. The filter runs under the shard locks:
// only matching entries are ever copied.
func (n *Network) FindRequests(target origin.Origin, match func(LogEntry) bool) []LogEntry {
	return n.collect(func(e LogEntry) bool {
		return e.Target == target && (match == nil || match(e))
	})
}
