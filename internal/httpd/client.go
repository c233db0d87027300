package httpd

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/web"
)

// ClientTransport implements web.Transport over real HTTP: every
// round trip dials the gateway's loopback address, names the target
// origin in the Host header, and carries the initiator metadata in
// X-Escudo-Initiator-* headers. Connections are pooled with
// keep-alive, so a session's request stream reuses sockets the way a
// real browser does; Stats exposes the new-vs-reused split.
//
// In TLS mode (NewClientTransportTLS) the wire is https: the request
// URL names the origin host, a custom dialer rewrites every
// connection to the gateway address, and so SNI and certificate
// verification both run against the origin's own name while the bytes
// flow over loopback — the client trusts exactly the gateway CA's
// pool, nothing else.
//
// Redirects are NOT followed here — redirect policy belongs to the
// browser (which must preserve the original initiator across 303
// hops, see browser.loadDepth) — and no cookie jar is attached: the
// mediated jar in the browser is the only cookie store.
type ClientTransport struct {
	addr   string
	tls    bool
	client *http.Client

	requests    atomic.Uint64
	newConns    atomic.Uint64
	reusedConns atomic.Uint64
	h2Requests  atomic.Uint64

	// trace is shared by every round trip: GotConn carries no
	// per-request state, so one ClientTrace serves the whole stream
	// without a per-request closure allocation.
	trace httptrace.ClientTrace
}

var _ web.Transport = (*ClientTransport)(nil)

// ClientStats counts a transport's wire traffic: round trips issued,
// and how many rode a fresh TCP (or TLS) connection vs. a pooled
// keep-alive one.
type ClientStats struct {
	Requests    uint64 `json:"requests"`
	NewConns    uint64 `json:"new_conns"`
	ReusedConns uint64 `json:"reused_conns"`
	// H2Requests counts round trips whose response arrived over a
	// negotiated HTTP/2 stream (hresp.Proto == "HTTP/2.0").
	H2Requests uint64 `json:"h2_requests"`
}

// Proto names the wire protocol the counted traffic predominantly
// rode: "h2" when at least half the round trips were HTTP/2, else
// "h1" (or "" when nothing was counted). Mixed streams happen only
// when snapshots from h1 and h2 transports are summed.
func (s ClientStats) Proto() string {
	switch {
	case s.Requests == 0:
		return ""
	case 2*s.H2Requests >= s.Requests:
		return "h2"
	default:
		return "h1"
	}
}

// ReuseRate is the fraction of round trips that reused a pooled
// connection.
func (s ClientStats) ReuseRate() float64 {
	total := s.NewConns + s.ReusedConns
	if total == 0 {
		return 0
	}
	return float64(s.ReusedConns) / float64(total)
}

// Sub returns the counter delta s-base.
func (s ClientStats) Sub(base ClientStats) ClientStats {
	return ClientStats{
		Requests:    s.Requests - base.Requests,
		NewConns:    s.NewConns - base.NewConns,
		ReusedConns: s.ReusedConns - base.ReusedConns,
		H2Requests:  s.H2Requests - base.H2Requests,
	}
}

// newPooledClient builds the shared http.Client shape; tlsCfg nil
// means plain HTTP. forceH2 opts the transport into HTTP/2 — it must
// be explicit because a transport with a custom DialContext or
// TLSClientConfig never upgrades on its own (net/http disables the
// automatic h2 wiring the moment either is set).
func newPooledClient(addr string, tlsCfg *tls.Config, forceH2 bool) *http.Client {
	t := &http.Transport{
		ForceAttemptHTTP2:   forceH2,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
		TLSClientConfig:     tlsCfg,
	}
	if tlsCfg != nil {
		// Virtual hosting over TLS: the URL (and hence SNI and cert
		// verification) name the origin; the socket always goes to the
		// gateway.
		dialer := &net.Dialer{Timeout: 10 * time.Second}
		t.DialContext = func(ctx context.Context, network, _ string) (net.Conn, error) {
			return dialer.DialContext(ctx, network, addr)
		}
	}
	return &http.Client{
		Transport: t,
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
		Timeout: 30 * time.Second,
	}
}

// newClientTransport finishes construction: the connection-churn trace
// is built once here so RoundTrip never allocates a closure for it.
func newClientTransport(addr string, isTLS bool, client *http.Client) *ClientTransport {
	c := &ClientTransport{addr: addr, tls: isTLS, client: client}
	c.trace.GotConn = func(info httptrace.GotConnInfo) {
		if info.Reused {
			c.reusedConns.Add(1)
		} else {
			c.newConns.Add(1)
		}
	}
	return c
}

// NewClientTransport builds a pooled plain-HTTP client for the
// gateway at addr (as returned by Gateway.Addr).
func NewClientTransport(addr string) *ClientTransport {
	return newClientTransport(addr, false, newPooledClient(addr, nil, false))
}

// NewClientTransportTLS builds a pooled https client for a
// TLS-terminating gateway at addr, verifying its per-origin leaf
// certificates against roots (normally the gateway CA's pool, see
// CA.Pool). The transport forces an HTTP/2 attempt:
// the gateway offers h2 via ALPN, so every session multiplexes its
// request stream over one connection per origin instead of a
// keep-alive pool per host.
func NewClientTransportTLS(addr string, roots *x509.CertPool) *ClientTransport {
	cfg := &tls.Config{RootCAs: roots, MinVersion: tls.VersionTLS12}
	return newClientTransport(addr, true, newPooledClient(addr, cfg, true))
}

// NewClientTransportTLSH1 is NewClientTransportTLS pinned to
// HTTP/1.1: ALPN offers only http/1.1, so the gateway falls back to
// keep-alive connections. The equivalence tests use it to pin that
// verdicts, tallies, and jars are identical across h1 and h2 legs.
func NewClientTransportTLSH1(addr string, roots *x509.CertPool) *ClientTransport {
	cfg := &tls.Config{
		RootCAs:    roots,
		MinVersion: tls.VersionTLS12,
		NextProtos: []string{"http/1.1"},
	}
	return newClientTransport(addr, true, newPooledClient(addr, cfg, false))
}

// Addr returns the gateway address this transport dials.
func (c *ClientTransport) Addr() string { return c.addr }

// TLS reports whether round trips ride https.
func (c *ClientTransport) TLS() bool { return c.tls }

// Stats snapshots the transport's wire counters.
func (c *ClientTransport) Stats() ClientStats {
	return ClientStats{
		Requests:    c.requests.Load(),
		NewConns:    c.newConns.Load(),
		ReusedConns: c.reusedConns.Load(),
		H2Requests:  c.h2Requests.Load(),
	}
}

// WrapNetwork is the canonical "put a socket in front of this
// network" constructor: it mounts every origin of n on a fresh
// gateway listening at addr ("127.0.0.1:0" for an ephemeral loopback
// port) and returns the gateway, a pooled client transport dialing
// it, and a teardown that closes both. cfg.Inner is set from n; when
// cfg.TLS carries a CA the gateway terminates https and the returned
// transport trusts that CA's pool.
func WrapNetwork(n *web.Network, cfg Config, addr string) (*Gateway, *ClientTransport, func(), error) {
	cfg.Inner = n
	g, err := New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := g.MountNetwork(n); err != nil {
		return nil, nil, nil, err
	}
	if err := g.Start(addr); err != nil {
		return nil, nil, nil, err
	}
	var ct *ClientTransport
	if cfg.TLS != nil {
		ct = NewClientTransportTLS(g.Addr(), cfg.TLS.Pool())
	} else {
		ct = NewClientTransport(g.Addr())
	}
	cleanup := func() {
		ct.Close()
		g.Close() //nolint:errcheck // teardown; the deadline error is not actionable
	}
	return g, ct, cleanup, nil
}

// Close releases pooled idle connections.
func (c *ClientTransport) Close() {
	if t, ok := c.client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// RoundTrip sends the request to the gateway and translates the
// answer back into a web.Response. Gateway-synthesized no-server
// responses are mapped back onto web.ErrNoServer so callers see the
// in-memory error contract.
func (c *ClientTransport) RoundTrip(req *web.Request) (*web.Response, error) {
	target, err := req.TargetOrigin()
	if err != nil {
		return nil, fmt.Errorf("httpd: routing %q: %w", req.URL, err)
	}
	u, err := url.Parse(req.URL)
	if err != nil {
		return nil, fmt.Errorf("httpd: parsing %q: %w", req.URL, err)
	}
	var dial string
	if c.tls {
		// The URL names the origin so SNI and verification do too; the
		// dialer rewrites the socket to the gateway.
		dial = "https://" + hostKey(target) + u.EscapedPath()
	} else {
		dial = "http://" + c.addr + u.EscapedPath()
	}
	if u.RawQuery != "" {
		dial += "?" + u.RawQuery
	}

	// Form fields travel as a urlencoded body for ANY method: the
	// in-memory substrate keeps req.Form distinct from the URL query
	// even on GET form submissions, and the wire must preserve that
	// distinction or server-side handlers (and the request log's Form
	// column — a CSRF verdict input) would diverge by transport.
	var body io.Reader
	if len(req.Form) > 0 {
		body = strings.NewReader(req.Form.Encode())
	}
	hreq, err := http.NewRequest(req.Method, dial, body)
	if err != nil {
		return nil, fmt.Errorf("httpd: building request for %q: %w", req.URL, err)
	}
	// Virtual hosting: the wire connects to the loopback listener, the
	// Host header names the origin.
	hreq.Host = hostKey(target)
	for k, vs := range req.Header {
		for _, v := range vs {
			hreq.Header.Add(k, v)
		}
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	if !req.InitiatorOrigin.IsNull() {
		hreq.Header.Set(HeaderInitiatorOrigin, req.InitiatorOrigin.String())
	}
	if req.InitiatorLabel != "" {
		hreq.Header.Set(HeaderInitiatorLabel, req.InitiatorLabel)
	}
	if req.TraceID != "" {
		hreq.Header.Set(HeaderTrace, req.TraceID)
	}

	// Count connection churn per round trip: GotConn fires once per
	// request with the (possibly pooled) connection actually used. The
	// trace struct is shared; only the context wrapper is per-request.
	c.requests.Add(1)
	hreq = hreq.WithContext(httptrace.WithClientTrace(hreq.Context(), &c.trace))

	hresp, err := c.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("httpd: round trip %s: %w", req.URL, err)
	}
	defer hresp.Body.Close()
	if hresp.ProtoMajor == 2 {
		c.h2Requests.Add(1)
	}
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err = buf.ReadFrom(hresp.Body)
	data := buf.String()
	bodyBufPool.Put(buf)
	if err != nil {
		return nil, fmt.Errorf("httpd: reading %s: %w", req.URL, err)
	}
	if hresp.Header.Get(HeaderGateway) == gatewayNoServer {
		return nil, fmt.Errorf("%w: %s (via gateway %s)", web.ErrNoServer, target, c.addr)
	}
	return translateResponse(hresp, data), nil
}

// bodyBufPool recycles the scratch buffers response bodies are read
// into; only the final string conversion allocates per response.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// keepSetPool recycles the header-key sets translateResponse rebuilds
// from X-Escudo-Orig-Keys — the hottest map allocation on the client
// path before the diet.
var keepSetPool = sync.Pool{New: func() any { return make(map[string]bool, 16) }}

// translateResponse rebuilds the origin's web.Response from the wire.
// When the gateway advertised the origin's own header-key set, every
// header the HTTP plumbing added (Date, Content-Length, sniffed
// Content-Type, the gateway's own markers) is stripped, so the
// response — Set-Cookie attribute strings included — round-trips
// byte-for-byte. Responses from foreign servers (no key list) keep
// all their headers.
//
// Allocation discipline: the keep set is pooled (cleared, not
// reallocated, per response), the key list is walked with strings.Cut
// instead of a Split slice, and the value slices are adopted from
// hresp.Header rather than copied — net/http builds that map fresh
// per response and hands us ownership.
func translateResponse(hresp *http.Response, body string) *web.Response {
	resp := &web.Response{
		Status: hresp.StatusCode,
		Header: make(web.Header, len(hresp.Header)),
		Body:   body,
	}
	var keep map[string]bool
	if list, ok := hresp.Header[HeaderOrigKeys]; ok {
		keep = keepSetPool.Get().(map[string]bool)
		for _, l := range list {
			for l != "" {
				var k string
				k, l, _ = strings.Cut(l, ",")
				if k != "" {
					keep[k] = true
				}
			}
		}
	}
	for k, vs := range hresp.Header {
		if keep != nil && !keep[k] {
			continue
		}
		if keep == nil && (k == HeaderGateway || k == HeaderOrigKeys) {
			continue
		}
		resp.Header[web.CanonicalKey(k)] = vs
	}
	if keep != nil {
		clear(keep)
		keepSetPool.Put(keep)
	}
	return resp
}
