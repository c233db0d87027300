// Package httpd mounts the in-memory web substrate on real sockets:
// a Gateway serves a fixed set of origins from one net/http listener
// with Host-header virtual hosting, policy delivery and admin
// endpoints, and a ClientTransport implements web.Transport over
// loopback so a mediating browser on one side of a socket drives the
// same applications as the in-memory network. The gateway is a plain
// transport: every request goes straight to its origin's handler on
// its own goroutine, and every origin is mounted before Start.
//
// The protection model itself never moves: complete mediation (§4.2)
// happens in the browser's reference monitors and the applications'
// configuration headers, both of which the gateway carries opaquely.
// Verdicts and audit records are therefore transport-independent — the
// equivalence tests in this package pin that invariant down.
package httpd

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	nhpprof "net/http/pprof"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/web"
)

// PolicyPath is the well-known path at which the gateway serves a
// mounted origin's unified policy document (policy.Policy as JSON).
// Policy travels the wire as DATA: the gateway delivers the document,
// and every enforcement decision stays in the browser-side monitors —
// the transport-independence invariant is untouched.
const PolicyPath = "/.well-known/escudo-policy"

// maxFormBytes bounds a form body read: the body comes from an
// untrusted client, and the gateway must not buffer an unbounded one.
const maxFormBytes = 10 << 20

// Gateway-control headers. HeaderGateway marks responses synthesized
// by the gateway itself (routing failures) so a ClientTransport can
// map them back to the in-memory error contract; the initiator headers
// carry the web.Request initiator metadata across the socket so the
// server-side request log stays as informative as the in-memory one.
const (
	HeaderGateway         = "X-Escudo-Gateway"
	HeaderInitiatorOrigin = "X-Escudo-Initiator-Origin"
	HeaderInitiatorLabel  = "X-Escudo-Initiator-Label"
	// HeaderTrace carries the issuing task's trace ID (internal/obs)
	// across the socket, so the server-side request log links requests
	// to the browser-side decisions the same trace stamps.
	HeaderTrace = "X-Escudo-Trace"
	// HeaderOrigKeys lists the header keys the origin's web.Response
	// actually carried, so ClientTransport can strip everything the
	// HTTP plumbing added (Date, Content-Length, sniffed Content-Type)
	// and reconstruct the response header set byte-for-byte.
	HeaderOrigKeys = "X-Escudo-Orig-Keys"
)

// HeaderGateway values.
const (
	gatewayNoServer   = "no-server"
	gatewayBadRequest = "bad-request"
)

// Config configures a Gateway.
type Config struct {
	// Inner serves the mounted origins — normally a *web.Network. The
	// gateway adds transport only; routing semantics (including the
	// request log and 502-for-unregistered) stay Inner's, and every
	// request to a mounted origin reaches it.
	Inner web.Transport
	// Origins maps an origin string ("http://forum.example") to its
	// unified policy document. Mount/MountNetwork validate the
	// document, serve it at PolicyPath on the origin, and list it on
	// the admin /policyz endpoint.
	Origins map[string]policy.Policy
	// TLS, when non-nil, terminates https on the listener: every
	// handshake gets a leaf certificate minted by the CA, selected by
	// SNI (per-origin identity) with a loopback default for SNI-less
	// admin probes. TLS is pure transport — origins, verdicts, and
	// audit semantics are unchanged, which the TLS equivalence test
	// pins.
	TLS *CA
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// admin host (the listener's own address, same isolation as
	// /varz — a web-origin Host header can never reach it). Off by
	// default: profiling endpoints are a diagnostic surface, opted
	// into per run (`escudo-serve -pprof`).
	EnablePprof bool
	// Obs, when non-nil, is the metrics registry the gateway's counters
	// register in (and that /varz exposes as Prometheus text). nil gets
	// a private registry — the counters still work, /varz still serves.
	// Share one registry across the gateway, the driver, and the
	// sampler so /varz is the whole process in one page.
	Obs *obs.Registry
	// Ring, when non-nil, is the decision-provenance ring served at the
	// admin /tracez endpoint. The driver shares it with the browser
	// sessions (browser.Options.DecisionRing); a nil ring 404s /tracez.
	Ring *core.DecisionRing
	// Stages, when non-nil, enables gateway-side latency attribution:
	// per-request handler and transport-translation spans fold into
	// the set's escudo_stage_seconds histograms. Share the set with the
	// load driver so browser-side stages (batch_auth, script_vm,
	// render) land in the same /varz families.
	Stages *obs.StageSet
	// Slow, when non-nil, is the tail-exemplar ring served at the admin
	// /slowz endpoint. The gateway records its slowest requests under
	// the "gateway" phase (keyed by the X-Escudo-Trace ID); the driver
	// shares the ring so engine-side phases land beside them. A nil
	// ring 404s /slowz.
	Slow *obs.SlowRing
	// Policies, when non-nil, is the control-plane store holding the
	// per-origin policy documents. nil gets a private store. Mount
	// seeds it from Origins; /policyz serves it (generation included,
	// ?wait long-polls it); POST /policyz/reload swaps documents in it
	// live. Enforcement never moves — the store versions and
	// distributes documents, the browser-side monitors decide.
	Policies *ctlplane.Store
}

// vhost is one mounted origin: its identity and its per-origin traffic
// counters (registry handles labeled by origin, so /varz breaks
// traffic down per origin for free).
type vhost struct {
	origin origin.Origin
	served *obs.Counter
	// latency is the origin's request-latency histogram
	// (escudo_origin_latency_seconds{origin=...}), exposed on /varz as
	// p50/p99 summaries — the per-origin tail, observable live without
	// a BENCH run.
	latency *obs.Hist
}

// Stats counts gateway traffic.
type Stats struct {
	// Served counts origin responses written (admin endpoints
	// excluded).
	Served uint64 `json:"served"`
}

// Sub returns the counter delta s-base.
func (s Stats) Sub(base Stats) Stats {
	return Stats{Served: s.Served - base.Served}
}

// Add sums two snapshots — used to aggregate a fleet of short-lived
// gateways (the per-environment attack replay) into one section.
func (s Stats) Add(o Stats) Stats {
	return Stats{Served: s.Served + o.Served}
}

// Gateway serves a web substrate over a real net/http listener.
type Gateway struct {
	cfg      Config
	inner    web.Transport
	policies *ctlplane.Store

	// The mount table. Mount fills it under mu before Start, and it is
	// read-only once serving begins: Start sets started under mu before
	// it launches Serve, so every write happens before every read and
	// the request path reads the maps without a lock.
	mu       sync.Mutex
	byHost   map[string]*vhost        // Host-header key → vhost
	byOrigin map[origin.Origin]*vhost // one vhost per origin
	started  bool                     // under mu

	srv *http.Server
	ln  net.Listener

	// served is a registry handle (one atomic), so Stats() and /varz
	// read the same instance.
	reg    *obs.Registry
	served *obs.Counter
}

// New builds a gateway over the inner transport.
func New(cfg Config) (*Gateway, error) {
	if cfg.Inner == nil {
		return nil, errors.New("httpd: Config.Inner is required")
	}
	g := &Gateway{
		cfg:      cfg,
		inner:    cfg.Inner,
		policies: cfg.Policies,
		byHost:   map[string]*vhost{},
		byOrigin: map[origin.Origin]*vhost{},
	}
	if g.policies == nil {
		g.policies = ctlplane.NewStore()
	}
	g.reg = cfg.Obs
	if g.reg == nil {
		g.reg = obs.NewRegistry()
	}
	g.served = g.reg.Counter("escudo_gateway_served_total")
	// The policy-generation counter mirrors into /varz on every
	// accepted swap.
	g.policies.SetGauge(g.reg.Gauge("escudo_policy_generation"))
	return g, nil
}

// hostKey is the Host-header form of an origin ("forum.example" for
// default-port http, "forum.example:8080" otherwise).
func hostKey(o origin.Origin) string {
	if o.Port == 80 {
		return o.Host
	}
	return fmt.Sprintf("%s:%d", o.Host, o.Port)
}

// Mount registers an origin for virtual hosting, with its policy
// document from Config.Origins when it has one. Every origin is
// mounted before Start; Mount after Start is refused. Only http-scheme
// origins can be mounted: origins are logical http:// identities
// throughout the substrate, and TLS (Config.TLS) is applied at the
// transport layer without changing them — that is what keeps verdicts
// identical across plain and https deployments.
func (g *Gateway) Mount(o origin.Origin) error {
	if o.Scheme != "http" {
		return fmt.Errorf("httpd: cannot mount %s: only http origins are served", o)
	}
	doc, hasDoc := g.cfg.Origins[o.String()]
	if hasDoc {
		if err := doc.Validate(); err != nil {
			return fmt.Errorf("httpd: mounting %s: %w", o, err)
		}
		if doc.Origin != o.String() {
			return fmt.Errorf("httpd: mounting %s: policy document names origin %q", o, doc.Origin)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.started {
		return fmt.Errorf("httpd: cannot mount %s: the gateway has started", o)
	}
	if _, exists := g.byOrigin[o]; exists {
		return fmt.Errorf("httpd: %s already mounted", o)
	}
	vh := &vhost{
		origin:  o,
		served:  g.reg.Counter("escudo_origin_served_total", obs.L("origin", o.String())),
		latency: g.reg.Histogram("escudo_origin_latency_seconds", obs.L("origin", o.String())),
	}
	g.byOrigin[o] = vh
	g.byHost[hostKey(o)] = vh
	// A client that spells the default port explicitly still lands on
	// the same origin.
	if o.Port == 80 {
		g.byHost[o.Host+":80"] = vh
	}
	if hasDoc {
		// Seeding the store bumps the generation like any other swap;
		// the mount is the document's first publication.
		if _, _, err := g.policies.Set(doc); err != nil {
			// Unreachable: the document validated above.
			return fmt.Errorf("httpd: mounting %s: %w", o, err)
		}
	}
	return nil
}

// MountNetwork mounts every origin currently registered on the
// network.
func (g *Gateway) MountNetwork(n *web.Network) error {
	for _, o := range n.Origins() {
		if err := g.Mount(o); err != nil {
			return err
		}
	}
	return nil
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral loopback
// port) and serves in the background until Shutdown. The mount table
// is fixed from here on.
func (g *Gateway) Start(addr string) error {
	g.mu.Lock()
	if g.started {
		g.mu.Unlock()
		return errors.New("httpd: already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		g.mu.Unlock()
		return fmt.Errorf("httpd: listen %s: %w", addr, err)
	}
	g.ln = ln
	serveLn := ln
	if g.cfg.TLS != nil {
		serveLn = tls.NewListener(ln, g.cfg.TLS.ServerConfig())
	}
	g.srv = &http.Server{Handler: g, ReadHeaderTimeout: 10 * time.Second}
	g.started = true
	g.mu.Unlock()
	go g.srv.Serve(serveLn) //nolint:errcheck // Serve always returns ErrServerClosed after Shutdown.
	return nil
}

// TLS reports whether the gateway terminates https.
func (g *Gateway) TLS() bool { return g.cfg.TLS != nil }

// Addr returns the listener address ("127.0.0.1:41234").
func (g *Gateway) Addr() string {
	if g.ln == nil {
		return ""
	}
	return g.ln.Addr().String()
}

// shutdownRound bounds one net/http Shutdown call inside Gateway.Shutdown.
const shutdownRound = 100 * time.Millisecond

// Shutdown gracefully stops the gateway: the listener closes and
// in-flight requests finish. If ctx ends first, Shutdown returns its
// error; requests still in a handler run to completion on their own
// goroutines.
//
// net/http runs the h2 server's graceful-shutdown hook once per
// Server.Shutdown call, and the hook reaches only the h2 connections
// registered at that moment. A connection whose TLS handshake finishes
// later never gets a GOAWAY, and with no stream open it never closes.
// So Shutdown drains in short rounds until the server is quiescent or
// ctx ends: each round re-runs the hook, a late connection gets its
// GOAWAY and closes on h2's one-second timer, and streams in flight
// still run to completion.
func (g *Gateway) Shutdown(ctx context.Context) error {
	if g.srv == nil {
		return nil
	}
	for {
		round, cancel := context.WithTimeout(ctx, shutdownRound)
		err := g.srv.Shutdown(round)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			return err
		}
	}
}

// Close is Shutdown with a 5-second deadline.
func (g *Gateway) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return g.Shutdown(ctx)
}

// Registry returns the gateway's metrics registry (Config.Obs, or the
// private one New created) — what /varz exposes.
func (g *Gateway) Registry() *obs.Registry { return g.reg }

// Stats snapshots the gateway counters.
func (g *Gateway) Stats() Stats {
	return Stats{Served: g.served.Value()}
}

// lookupVhost resolves the Host header to a mounted origin. The table
// is read-only once serving begins, so the lookup takes no lock.
func (g *Gateway) lookupVhost(host string) (*vhost, bool) {
	vh, ok := g.byHost[strings.ToLower(host)]
	return vh, ok
}

// Policies returns the gateway's control-plane store (Config.Policies,
// or the private one New created).
func (g *Gateway) Policies() *ctlplane.Store { return g.policies }

// requestHeaderSkip are HTTP-plumbing request headers that in-memory
// requests never carry; dropping them keeps the translated request —
// and hence the server-side request log — identical to the in-memory
// path. The initiator headers are consumed into request fields.
var requestHeaderSkip = map[string]bool{
	"Accept-Encoding":     true,
	"Connection":          true,
	"Content-Length":      true,
	"Content-Type":        true,
	"User-Agent":          true,
	HeaderInitiatorOrigin: true,
	HeaderInitiatorLabel:  true,
	HeaderTrace:           true,
}

// reqPool recycles the web.Request every incoming HTTP request is
// translated into. The request's own goroutine is the only one that
// touches it, so it goes back to the pool (releaseRequest) once the
// response is written.
var reqPool = sync.Pool{New: func() any { return &web.Request{} }}

// releaseRequest hands a translated request back to the pool.
func releaseRequest(req *web.Request) { reqPool.Put(req) }

// errFormTooLarge refuses a form body over maxFormBytes: the origin
// gets the whole form or no request, never a truncated one.
var errFormTooLarge = fmt.Errorf("httpd: form body over %d bytes", maxFormBytes)

// translate builds the web.Request an incoming HTTP request denotes
// for the given target origin. The request comes from reqPool; the
// caller releases it after the response is written. A form body over
// maxFormBytes yields errFormTooLarge and no request.
func translate(r *http.Request, target origin.Origin) (*web.Request, error) {
	req := reqPool.Get().(*web.Request)
	req.Reset(r.Method, target.URL(r.URL.RequestURI()))
	for k, vs := range r.Header {
		if requestHeaderSkip[k] {
			continue
		}
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if initiator := r.Header.Get(HeaderInitiatorOrigin); initiator != "" {
		if o, err := origin.Parse(initiator); err == nil {
			req.InitiatorOrigin = o
		}
	}
	req.InitiatorLabel = r.Header.Get(HeaderInitiatorLabel)
	req.TraceID = r.Header.Get(HeaderTrace)
	// Forms travel as application/x-www-form-urlencoded bodies for
	// every method (see ClientTransport.RoundTrip): parse the body
	// directly rather than via r.ParseForm, which ignores GET bodies
	// and would fold the URL query into the form.
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-www-form-urlencoded") {
		data, err := io.ReadAll(io.LimitReader(r.Body, maxFormBytes+1))
		if len(data) > maxFormBytes {
			releaseRequest(req)
			return nil, errFormTooLarge
		}
		if err == nil {
			if form, err := url.ParseQuery(string(data)); err == nil && len(form) > 0 {
				req.Form = form
			}
		}
	}
	return req, nil
}

// origKeysValue renders a response's header-key set as the
// X-Escudo-Orig-Keys value.
func origKeysValue(h web.Header) string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// writeHeader translates a web.Response's status and header onto w,
// advertising the origin's own header-key set so the client side can
// reconstruct it exactly. web.Header keys are already canonical, so
// each value slice is handed over as it is: net/http clones the header
// map and its values at WriteHeader, on both h1 and h2.
func writeHeader(w http.ResponseWriter, resp *web.Response) {
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	h.Set(HeaderOrigKeys, origKeysValue(resp.Header))
	w.WriteHeader(resp.Status)
}

// writeBody writes a web.Response's body onto the wire and counts the
// response served.
func (g *Gateway) writeBody(w http.ResponseWriter, resp *web.Response) {
	if resp.Body != "" {
		// io.WriteString, not fmt.Fprint: the latter boxes the body
		// string into an interface argument on every response.
		io.WriteString(w, resp.Body) //nolint:errcheck // client went away; nothing to do
	}
	g.served.Add(1)
}

// gatewayError writes a gateway-synthesized error response, marked so
// ClientTransport can restore the in-memory error contract.
func (g *Gateway) gatewayError(w http.ResponseWriter, kind string, status int, msg string) {
	w.Header().Set(HeaderGateway, kind)
	http.Error(w, msg, status)
}

// ServeHTTP routes by Host header: mounted origins go straight to
// their handler, the admin endpoints answer only on the listener's
// own address (so a web-origin Host can never reach them — an
// unregistered origin's /healthz must 502 exactly as it does in
// memory), and every other unmapped host falls back to the inner
// transport inline (origins registered after Start, or never, behave
// exactly as in memory, 502 log entry included).
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if vh, ok := g.lookupVhost(r.Host); ok {
		g.serveOrigin(w, r, vh)
		return
	}
	if strings.EqualFold(r.Host, g.Addr()) {
		switch r.URL.Path {
		case "/healthz":
			g.serveHealthz(w)
		case "/livez":
			g.serveLivez(w)
		case "/varz":
			g.serveVarz(w)
		case "/tracez":
			g.serveTracez(w, r)
		case "/slowz":
			g.serveSlowz(w, r)
		case "/policyz":
			g.servePolicyz(w, r)
		case "/policyz/reload":
			g.serveReload(w, r)
		default:
			if g.cfg.EnablePprof && strings.HasPrefix(r.URL.Path, "/debug/pprof") {
				servePprof(w, r)
				return
			}
			http.NotFound(w, r)
		}
		return
	}
	g.serveFallback(w, r)
}

// serveOrigin is the mounted-origin path: policy delivery, the
// origin's handler, response translation. Every request reaches the
// inner transport, so the origin's request log matches in-memory
// traffic entry for entry.
func (g *Gateway) serveOrigin(w http.ResponseWriter, r *http.Request, vh *vhost) {
	// arrival anchors the per-origin latency histogram (always on — the
	// per-origin tail must be observable without a BENCH run) and, with
	// stage timing configured, the request's slow-ring exemplar.
	arrival := time.Now()
	// Wire delivery of the origin's policy document — read from the
	// control-plane store, so a live reload is what PolicyPath serves
	// from the instant the swap lands. The document is data — the
	// browser-side monitors consume it; the gateway decides nothing.
	// Origins without a mounted policy fall through to their handler
	// (which may well serve its own).
	if r.Method == "GET" && r.URL.Path == PolicyPath {
		if p, _, ok := g.policies.Get(vh.origin.String()); ok {
			g.servePolicyDoc(w, p)
			vh.served.Add(1)
			g.served.Add(1)
			vh.latency.Observe(time.Since(arrival))
			return
		}
	}
	req, err := translate(r, vh.origin)
	if err != nil {
		g.gatewayError(w, gatewayBadRequest, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	defer releaseRequest(req)
	running := time.Now()
	resp, err := g.inner.RoundTrip(req)
	handled := time.Now()
	handler := handled.Sub(running)
	stages := g.cfg.Stages
	stages.Observe(obs.StageHandler, handler)
	if err != nil {
		g.routeError(w, err)
		return
	}
	vh.served.Add(1)
	writeHeader(w, resp)
	var trans time.Duration
	if stages != nil {
		// Translation is the gateway's own bookkeeping around the
		// round trip: request translation on the way in plus header
		// translation on the way out. The body write is the wire's, so
		// the stage ends before it; the total and the slow ring's
		// exemplar end after it.
		trans = running.Sub(arrival) + time.Since(handled)
		stages.Observe(obs.StageTranslate, trans)
	}
	g.writeBody(w, resp)
	total := time.Since(arrival)
	vh.latency.Observe(total)
	if stages != nil {
		var spans [obs.NumStages]int64
		spans[obs.StageHandler] = int64(handler)
		spans[obs.StageTranslate] = int64(trans)
		g.cfg.Slow.Record("gateway", req.TraceID, total, spans)
	}
}

// servePprof dispatches the net/http/pprof handlers. It is reachable
// only on the admin host and only with Config.EnablePprof — the
// profiling surface shares /varz's isolation from web origins.
func servePprof(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/debug/pprof/cmdline":
		nhpprof.Cmdline(w, r)
	case "/debug/pprof/profile":
		nhpprof.Profile(w, r)
	case "/debug/pprof/symbol":
		nhpprof.Symbol(w, r)
	case "/debug/pprof/trace":
		nhpprof.Trace(w, r)
	default:
		// Index serves /debug/pprof/ and the named profiles
		// (heap, goroutine, allocs, ...).
		nhpprof.Index(w, r)
	}
}

// serveFallback handles hosts with no mounted vhost by deriving the
// origin from the Host header and round-tripping inline on the inner
// transport. An unregistered origin then takes exactly the in-memory
// path: the network logs a 502 entry and returns ErrNoServer, which
// comes back as a marked 502.
func (g *Gateway) serveFallback(w http.ResponseWriter, r *http.Request) {
	target, err := origin.Parse("http://" + r.Host)
	if err != nil {
		g.gatewayError(w, gatewayBadRequest, http.StatusBadRequest,
			fmt.Sprintf("unusable Host %q", r.Host))
		return
	}
	req, err := translate(r, target)
	if err != nil {
		g.gatewayError(w, gatewayBadRequest, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	resp, err := g.inner.RoundTrip(req)
	releaseRequest(req)
	if err != nil {
		g.routeError(w, err)
		return
	}
	writeHeader(w, resp)
	g.writeBody(w, resp)
}

// routeError maps inner-transport errors onto marked HTTP statuses.
func (g *Gateway) routeError(w http.ResponseWriter, err error) {
	if errors.Is(err, web.ErrNoServer) {
		g.gatewayError(w, gatewayNoServer, http.StatusBadGateway, err.Error())
		return
	}
	g.gatewayError(w, gatewayBadRequest, http.StatusBadGateway, err.Error())
}

// healthzJSON is the /healthz (readiness) document. Every mounted
// origin routes from the gateway's first request, so a gateway that
// answers is ready; /livez answers liveness alone.
type healthzJSON struct {
	Status  string `json:"status"`
	Ready   bool   `json:"ready"`
	TLS     bool   `json:"tls"`
	Origins int    `json:"origins"`
	Addr    string `json:"addr"`
	// Version stamps which binary answered.
	Version obs.Stamp `json:"version"`
}

func (g *Gateway) serveHealthz(w http.ResponseWriter) {
	origins := len(g.byOrigin)
	writeJSON(w, healthzJSON{Status: "ok", Ready: true, TLS: g.TLS(), Origins: origins, Addr: g.Addr(), Version: obs.Version()})
}

// livezJSON is the /livez document: the process is up and serving its
// listener.
type livezJSON struct {
	Live    bool      `json:"live"`
	Addr    string    `json:"addr"`
	Version obs.Stamp `json:"version"`
}

func (g *Gateway) serveLivez(w http.ResponseWriter) {
	writeJSON(w, livezJSON{Live: true, Addr: g.Addr(), Version: obs.Version()})
}

// serveVarz writes the registry in Prometheus text exposition format.
// Like every admin endpoint it answers only on the listener's own
// address, never on a mounted origin's Host.
func (g *Gateway) serveVarz(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, g.reg.Expose()) //nolint:errcheck // client went away; nothing to do
}

// tracezJSON is the /tracez document: the retained decision-provenance
// events passing the query filter, oldest first.
type tracezJSON struct {
	// Total counts events ever recorded; Retained how many the ring
	// currently holds; Matched how many passed the filter.
	Total    uint64              `json:"total"`
	Retained int                 `json:"retained"`
	Matched  int                 `json:"matched"`
	Events   []obs.DecisionEvent `json:"events"`
}

// serveTracez answers the decision-provenance queries: ?trace=<id>,
// ?origin=<origin>, ?ring=<n>, ?verdict=allow|deny, all composable.
// It shares the admin host's isolation (and 404s when the deployment
// wired no ring), exactly like pprof.
func (g *Gateway) serveTracez(w http.ResponseWriter, r *http.Request) {
	if g.cfg.Ring == nil {
		http.NotFound(w, r)
		return
	}
	q := r.URL.Query()
	f := obs.MatchAny
	f.TraceID = q.Get("trace")
	f.Origin = q.Get("origin")
	f.Verdict = q.Get("verdict")
	if s := q.Get("ring"); s != "" {
		var ring int
		if _, err := fmt.Sscanf(s, "%d", &ring); err != nil || ring < 0 {
			http.Error(w, fmt.Sprintf("bad ring %q", s), http.StatusBadRequest)
			return
		}
		f.Ring = ring
	}
	events := g.cfg.Ring.Snapshot(f)
	writeJSON(w, tracezJSON{
		Total:    g.cfg.Ring.Total(),
		Retained: g.cfg.Ring.Len(),
		Matched:  len(events),
		Events:   events,
	})
}

// slowzJSON is the /slowz document: the retained tail exemplars,
// slowest first, each with its trace ID and per-stage breakdown.
type slowzJSON struct {
	// Phases lists the phase labels with retained exemplars; Size is
	// the per-phase retention (slowest-N).
	Phases    []string           `json:"phases"`
	Size      int                `json:"size"`
	Exemplars []obs.SlowExemplar `json:"exemplars"`
}

// serveSlowz answers tail-exemplar queries: the slowest retained
// tasks per phase (?phase=<name> filters to one), each joinable
// against /tracez by trace ID. It shares the admin host's isolation
// and 404s when the deployment wired no slow-ring, exactly like
// /tracez without a decision ring.
func (g *Gateway) serveSlowz(w http.ResponseWriter, r *http.Request) {
	if g.cfg.Slow == nil {
		http.NotFound(w, r)
		return
	}
	phase := r.URL.Query().Get("phase")
	phases := g.cfg.Slow.Phases()
	sort.Strings(phases)
	writeJSON(w, slowzJSON{
		Phases:    phases,
		Size:      g.cfg.Slow.Size(),
		Exemplars: g.cfg.Slow.Snapshot(phase),
	})
}

// servePolicyDoc writes one origin's policy document (the PolicyPath
// response body).
func (g *Gateway) servePolicyDoc(w http.ResponseWriter, p policy.Policy) {
	data, err := p.MarshalIndent()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck // client went away; nothing to do
}

// policyzJSON is the /policyz document: the fleet policy generation,
// every mounted document keyed by origin, and each origin's revision
// counter. The shape matches ctlplane.PolicyzDoc — watchers decode the
// generation, escudo-inspect renders the rest.
type policyzJSON struct {
	Generation uint64                   `json:"generation"`
	Policies   map[string]policy.Policy `json:"policies"`
	Revs       map[string]uint64        `json:"revs"`
}

// maxPolicyzHold bounds how long a ?wait long poll may park.
const maxPolicyzHold = 30 * time.Second

// servePolicyz is the admin control-plane endpoint. Plain GET returns
// the fleet generation plus every mounted policy document and its
// revision. ?origin=http://forum.example returns that origin's
// document alone (404 when it has none). ?wait=N (&timeout=ms, capped
// at 30s) parks the request until the fleet generation exceeds N —
// the long-poll half of ctlplane.Watcher — and then answers with the
// current snapshot either way.
func (g *Gateway) servePolicyz(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if want := q.Get("origin"); want != "" {
		if _, err := origin.Parse(want); err != nil {
			http.Error(w, fmt.Sprintf("bad origin %q", want), http.StatusBadRequest)
			return
		}
		p, _, ok := g.policies.Get(want)
		if !ok {
			http.NotFound(w, r)
			return
		}
		g.servePolicyDoc(w, p)
		return
	}
	if s := q.Get("wait"); s != "" {
		var after uint64
		if _, err := fmt.Sscanf(s, "%d", &after); err != nil {
			http.Error(w, fmt.Sprintf("bad wait %q", s), http.StatusBadRequest)
			return
		}
		hold := 10 * time.Second
		if ts := q.Get("timeout"); ts != "" {
			var ms int64
			if _, err := fmt.Sscanf(ts, "%d", &ms); err != nil || ms < 0 {
				http.Error(w, fmt.Sprintf("bad timeout %q", ts), http.StatusBadRequest)
				return
			}
			hold = time.Duration(ms) * time.Millisecond
		}
		if hold > maxPolicyzHold {
			hold = maxPolicyzHold
		}
		ctx, cancel := context.WithTimeout(r.Context(), hold)
		g.policies.Wait(ctx, after)
		cancel()
	}
	snap := g.policies.Snapshot()
	doc := policyzJSON{
		Generation: snap.Gen,
		Policies:   make(map[string]policy.Policy, snap.Len()),
		Revs:       make(map[string]uint64, snap.Len()),
	}
	snap.Each(func(o string, e ctlplane.Entry) {
		doc.Policies[o] = e.Policy
		doc.Revs[o] = e.Rev
	})
	writeJSON(w, doc)
}

// maxReloadBytes bounds a reload request body.
const maxReloadBytes = 1 << 20

// reloadError answers a rejected reload with a JSON error document.
func reloadError(w http.ResponseWriter, status int, msg string) {
	writeJSONStatus(w, status, map[string]string{"error": msg})
}

// serveReload is POST /policyz/reload: parse the posted policy
// document, require its origin to be mounted, and swap it into the
// control-plane store — validation runs strictly before the swap, so a
// rejected document leaves the old policy mounted at the old
// generation. Like every admin endpoint it answers only on the
// listener's own address; a web-origin Host header can never reach it.
func (g *Gateway) serveReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		reloadError(w, http.StatusMethodNotAllowed, "POST a policy document")
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxReloadBytes))
	if err != nil {
		reloadError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	doc, err := policy.Parse(data)
	if err != nil {
		reloadError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	o, err := origin.Parse(doc.Origin)
	if err != nil {
		reloadError(w, http.StatusUnprocessableEntity, fmt.Sprintf("policy origin: %v", err))
		return
	}
	if _, mounted := g.byOrigin[o]; !mounted {
		reloadError(w, http.StatusNotFound, fmt.Sprintf("origin %s not mounted", o))
		return
	}
	gen, rev, err := g.policies.Set(doc)
	if err != nil {
		reloadError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, ctlplane.ReloadResult{Origin: doc.Origin, Generation: gen, Rev: rev})
}

func writeJSON(w http.ResponseWriter, doc any) {
	writeJSONStatus(w, http.StatusOK, doc)
}

func writeJSONStatus(w http.ResponseWriter, status int, doc any) {
	data, err := json.Marshal(doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	w.Write(data) //nolint:errcheck // client went away; nothing to do
}
