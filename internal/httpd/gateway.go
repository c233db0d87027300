// Package httpd mounts the in-memory web substrate on real sockets:
// a Gateway serves registered origins from one net/http listener with
// Host-header virtual hosting, per-origin admission bounds, and admin
// endpoints; a ClientTransport implements web.Transport over loopback
// so a mediating browser on one side of a socket drives the same
// applications as the in-memory network.
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
	"sync/atomic"
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

// maxFormBytes bounds a form body read (a million-user gateway must
// not buffer unbounded request bodies).
const maxFormBytes = 10 << 20

// Gateway-control headers. HeaderGateway marks responses synthesized
// by the gateway itself (routing failures, overload) so a
// ClientTransport can map them back to the in-memory error contract;
// the initiator headers carry the web.Request initiator metadata
// across the socket so the server-side request log stays as
// informative as the in-memory one.
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
	gatewayNoServer     = "no-server"
	gatewayOverloaded   = "overloaded"
	gatewayBadRequest   = "bad-request"
	gatewayShuttingDown = "shutting-down"
)

// OriginConfig sizes one origin's admission and carries its policy
// document.
type OriginConfig struct {
	// Workers is the origin's concurrency: how many requests the
	// origin's handler serves at once (default Config.DefaultWorkers).
	Workers int
	// QueueDepth bounds how many more requests may wait for one of
	// those slots; an arriving request that finds the wait full is
	// rejected with 503 instead of piling up behind a hot origin
	// (default Config.DefaultQueueDepth).
	QueueDepth int
	// Policy, when non-nil, is the origin's unified policy document.
	// It is validated at mount time, served at PolicyPath on the
	// origin, and listed by the admin /policyz endpoint.
	Policy *policy.Policy
}

// Config configures a Gateway.
type Config struct {
	// Inner serves the mounted origins — normally a *web.Network. The
	// gateway adds transport and admission; routing semantics
	// (including the request log and 502-for-unregistered) stay
	// Inner's, and every admitted request reaches it.
	Inner web.Transport
	// DefaultWorkers is the per-origin concurrency when Mount is not
	// given one (default 4).
	DefaultWorkers int
	// DefaultQueueDepth is the per-origin wait bound when Mount is
	// not given one (default 64).
	DefaultQueueDepth int
	// Origins carries per-origin configuration (admission shape,
	// policy document) keyed by origin string ("http://forum.example"),
	// applied when Mount/MountNetwork register that origin without an
	// explicit OriginConfig.
	Origins map[string]OriginConfig
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
	// per-request queue-wait, handler, and transport-translation spans
	// fold into the set's escudo_stage_seconds histograms. Share the
	// set with the load driver so browser-side stages (batch_auth,
	// script_vm, render) land in the same /varz families.
	Stages *obs.StageSet
	// Slow, when non-nil, is the tail-exemplar ring served at the admin
	// /slowz endpoint. The gateway records its slowest requests under
	// the "gateway" phase (keyed by the X-Escudo-Trace ID); the driver
	// shares the ring so engine-side phases land beside them. A nil
	// ring 404s /slowz.
	Slow *obs.SlowRing
	// Policies, when non-nil, is the control-plane store holding the
	// fleet's per-origin policy documents. nil gets a private store.
	// Mount seeds it from OriginConfig.Policy; /policyz serves it
	// (generation included, ?wait long-polls it); POST /policyz/reload
	// swaps documents in it live. Enforcement never moves — the store
	// versions and distributes documents, the browser-side monitors
	// decide.
	Policies *ctlplane.Store
}

// vhost is one mounted origin: its identity, its admission
// semaphores, and its per-origin traffic counters (registry handles
// labeled by origin, so /varz breaks traffic down per origin for
// free). A request holds a run slot while the origin's handler serves
// it and a queue slot while it waits for a run slot. stop is closed by
// Unmount, rescuing every waiting request without touching the rest of
// the fleet.
type vhost struct {
	origin  origin.Origin
	run     chan struct{} // capacity OriginConfig.Workers
	queue   chan struct{} // capacity OriginConfig.QueueDepth
	stop    chan struct{}
	served  *obs.Counter
	dropped *obs.Counter
	// latency is the origin's request-latency histogram
	// (escudo_origin_latency_seconds{origin=...}), exposed on /varz as
	// p50/p99 summaries — the noisy-neighbor probe's per-origin tail,
	// observable live without a BENCH run.
	latency *obs.Hist
}

// vhostTable is one immutable generation of the mount table, read
// lock-free on every request via an atomic pointer. Mount and Unmount
// copy-on-write a fresh table under the mount mutex and swap — the
// same discipline as web.Network's server table and ctlplane.Store —
// so the request path never contends with mount churn at thousands of
// origins.
type vhostTable struct {
	byHost   map[string]*vhost        // Host-header key → vhost
	byOrigin map[origin.Origin]*vhost // one vhost per origin
}

// emptyVhostTable is the before-first-mount generation.
var emptyVhostTable = &vhostTable{byHost: map[string]*vhost{}, byOrigin: map[origin.Origin]*vhost{}}

// clone copies the table for a COW mutation.
func (t *vhostTable) clone() *vhostTable {
	next := &vhostTable{
		byHost:   make(map[string]*vhost, len(t.byHost)+2),
		byOrigin: make(map[origin.Origin]*vhost, len(t.byOrigin)+1),
	}
	for k, v := range t.byHost {
		next.byHost[k] = v
	}
	for k, v := range t.byOrigin {
		next.byOrigin[k] = v
	}
	return next
}

// Stats counts gateway traffic.
type Stats struct {
	// Served counts origin responses written (503 rejections and
	// admin endpoints excluded).
	Served uint64 `json:"served"`
	// Rejected503 counts requests dropped because their origin's
	// queue was full.
	Rejected503 uint64 `json:"rejected_503"`
	// MaxQueueDepth is the most requests any origin has had waiting
	// for a run slot at once since Start or the last
	// ResetQueueHighWater.
	MaxQueueDepth int64 `json:"max_queue_depth"`
}

// Sub returns the counter delta s-base. MaxQueueDepth is a running
// high-water mark and passes through unchanged.
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		Served:        s.Served - base.Served,
		Rejected503:   s.Rejected503 - base.Rejected503,
		MaxQueueDepth: s.MaxQueueDepth,
	}
}

// Add sums two snapshots — used to aggregate a fleet of short-lived
// gateways (the per-environment attack replay) into one section.
func (s Stats) Add(o Stats) Stats {
	out := Stats{
		Served:        s.Served + o.Served,
		Rejected503:   s.Rejected503 + o.Rejected503,
		MaxQueueDepth: s.MaxQueueDepth,
	}
	if o.MaxQueueDepth > out.MaxQueueDepth {
		out.MaxQueueDepth = o.MaxQueueDepth
	}
	return out
}

// Gateway serves a web substrate over a real net/http listener.
type Gateway struct {
	cfg      Config
	inner    web.Transport
	policies *ctlplane.Store

	// mountMu serializes mount-table mutations (Mount, Unmount, Start);
	// the request path reads table lock-free.
	mountMu sync.Mutex
	table   atomic.Pointer[vhostTable]
	started bool // under mountMu

	srv      *http.Server
	ln       net.Listener
	quit     chan struct{}
	stopOnce sync.Once

	// The traffic counters are registry handles (one atomic each), so
	// Stats() and /varz read the same instances. maxDepth keeps a raw
	// atomic for its CAS race and mirrors into a gauge.
	reg       *obs.Registry
	served    *obs.Counter
	rejected  *obs.Counter
	maxDepth  atomic.Int64
	maxDepthG *obs.Gauge
}

// New builds a gateway over the inner transport.
func New(cfg Config) (*Gateway, error) {
	if cfg.Inner == nil {
		return nil, errors.New("httpd: Config.Inner is required")
	}
	if cfg.DefaultWorkers <= 0 {
		cfg.DefaultWorkers = 4
	}
	if cfg.DefaultQueueDepth <= 0 {
		cfg.DefaultQueueDepth = 64
	}
	g := &Gateway{
		cfg:      cfg,
		inner:    cfg.Inner,
		policies: cfg.Policies,
		quit:     make(chan struct{}),
	}
	g.table.Store(emptyVhostTable)
	if g.policies == nil {
		g.policies = ctlplane.NewStore()
	}
	g.reg = cfg.Obs
	if g.reg == nil {
		g.reg = obs.NewRegistry()
	}
	g.served = g.reg.Counter("escudo_gateway_served_total")
	g.rejected = g.reg.Counter("escudo_gateway_rejected_total")
	g.maxDepthG = g.reg.Gauge("escudo_gateway_queue_depth_max")
	// The fleet policy-generation counter mirrors into /varz on every
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

// Mount registers an origin for virtual hosting with the admission
// shape from Config.Origins (or the defaults). Mounting is live: the
// COW table swap makes the origin routable without stalling a single
// in-flight request, before or after Start. Only http-scheme origins can
// be mounted: origins are logical http:// identities throughout the
// substrate, and TLS (Config.TLS) is applied at the transport layer
// without changing them — that is what keeps verdicts identical
// across plain and https deployments.
func (g *Gateway) Mount(o origin.Origin) error {
	if pre, ok := g.cfg.Origins[o.String()]; ok {
		return g.MountOpts(o, pre)
	}
	return g.MountOpts(o, OriginConfig{})
}

// MountOpts is Mount with an explicit admission shape and policy.
// Unset Workers/QueueDepth take the gateway defaults.
func (g *Gateway) MountOpts(o origin.Origin, cfg OriginConfig) error {
	if o.Scheme != "http" {
		return fmt.Errorf("httpd: cannot mount %s: only http origins are served", o)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = g.cfg.DefaultWorkers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = g.cfg.DefaultQueueDepth
	}
	if cfg.Policy != nil {
		if err := cfg.Policy.Validate(); err != nil {
			return fmt.Errorf("httpd: mounting %s: %w", o, err)
		}
		if cfg.Policy.Origin != o.String() {
			return fmt.Errorf("httpd: mounting %s: policy document names origin %q", o, cfg.Policy.Origin)
		}
	}
	g.mountMu.Lock()
	defer g.mountMu.Unlock()
	if _, exists := g.table.Load().byOrigin[o]; exists {
		return fmt.Errorf("httpd: %s already mounted", o)
	}
	vh := &vhost{
		origin:  o,
		run:     make(chan struct{}, cfg.Workers),
		queue:   make(chan struct{}, cfg.QueueDepth),
		stop:    make(chan struct{}),
		served:  g.reg.Counter("escudo_origin_served_total", obs.L("origin", o.String())),
		dropped: g.reg.Counter("escudo_origin_dropped_total", obs.L("origin", o.String())),
		latency: g.reg.Histogram("escudo_origin_latency_seconds", obs.L("origin", o.String())),
	}
	next := g.table.Load().clone()
	next.byOrigin[o] = vh
	next.byHost[hostKey(o)] = vh
	// A client that spells the default port explicitly still lands on
	// the same origin.
	if o.Port == 80 {
		next.byHost[o.Host+":80"] = vh
	}
	g.table.Store(next)
	if cfg.Policy != nil {
		// Seeding the store bumps the fleet generation like any other
		// swap; the mount is the document's first publication.
		if _, _, err := g.policies.Set(*cfg.Policy); err != nil {
			// Unreachable: the document validated above.
			return fmt.Errorf("httpd: mounting %s: %w", o, err)
		}
	}
	return nil
}

// Unmount removes an origin live: the COW table swap makes it
// unroutable, every request still waiting for one of its run slots is
// rescued with a no-server answer (the in-memory semantics of an
// unregistered origin), and its policy document leaves the store.
// Requests already in its handler finish normally. Unmounting an
// unknown origin is a no-op.
func (g *Gateway) Unmount(o origin.Origin) {
	g.mountMu.Lock()
	defer g.mountMu.Unlock()
	cur := g.table.Load()
	vh, ok := cur.byOrigin[o]
	if !ok {
		return
	}
	next := cur.clone()
	delete(next.byOrigin, o)
	for k, v := range next.byHost {
		if v == vh {
			delete(next.byHost, k)
		}
	}
	g.table.Store(next)
	close(vh.stop)
	g.policies.Remove(o.String())
}

// MountNetwork mounts every origin currently registered on the
// network with the default admission shape.
func (g *Gateway) MountNetwork(n *web.Network) error {
	for _, o := range n.Origins() {
		if err := g.Mount(o); err != nil {
			return err
		}
	}
	return nil
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral loopback
// port) and serves in the background until Shutdown.
func (g *Gateway) Start(addr string) error {
	g.mountMu.Lock()
	if g.started {
		g.mountMu.Unlock()
		return errors.New("httpd: already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		g.mountMu.Unlock()
		return fmt.Errorf("httpd: listen %s: %w", addr, err)
	}
	g.ln = ln
	serveLn := ln
	if g.cfg.TLS != nil {
		serveLn = tls.NewListener(ln, g.cfg.TLS.ServerConfig())
	}
	g.srv = &http.Server{Handler: g, ReadHeaderTimeout: 10 * time.Second}
	g.started = true
	g.mountMu.Unlock()
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
// in-flight requests finish. If ctx ends first, every request still
// waiting for a run slot is answered with a marked shutting-down 503;
// requests already in a handler run to completion on their own
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
	var err error
	if g.srv != nil {
		for {
			round, cancel := context.WithTimeout(ctx, shutdownRound)
			err = g.srv.Shutdown(round)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
				break
			}
		}
	}
	g.stopOnce.Do(func() { close(g.quit) })
	return err
}

// Close is Shutdown with a 5-second deadline.
func (g *Gateway) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return g.Shutdown(ctx)
}

// ResetQueueHighWater zeroes the max-queue-depth gauge, so a
// measurement phase can record its own high-water mark instead of
// inheriting an earlier phase's spike.
func (g *Gateway) ResetQueueHighWater() {
	g.maxDepth.Store(0)
	g.maxDepthG.Set(0)
}

// Registry returns the gateway's metrics registry (Config.Obs, or the
// private one New created) — what /varz exposes.
func (g *Gateway) Registry() *obs.Registry { return g.reg }

// Stats snapshots the gateway counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		Served:        g.served.Value(),
		Rejected503:   g.rejected.Value(),
		MaxQueueDepth: g.maxDepth.Load(),
	}
}

// lookupVhost resolves the Host header to a mounted origin — one
// atomic load, no lock, however many thousands of origins are mounted
// and however hard Mount/Unmount churn the table.
func (g *Gateway) lookupVhost(host string) (*vhost, bool) {
	vh, ok := g.table.Load().byHost[strings.ToLower(host)]
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
// response is written or the request is turned away.
var reqPool = sync.Pool{New: func() any { return &web.Request{} }}

// releaseRequest hands a translated request back to the pool.
func releaseRequest(req *web.Request) { reqPool.Put(req) }

// translate builds the web.Request an incoming HTTP request denotes
// for the given target origin. The request comes from reqPool; the
// caller releases it after the response is written.
func translate(r *http.Request, target origin.Origin) *web.Request {
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
		data, err := io.ReadAll(io.LimitReader(r.Body, maxFormBytes))
		if err == nil {
			if form, err := url.ParseQuery(string(data)); err == nil && len(form) > 0 {
				req.Form = form
			}
		}
	}
	return req
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

// writeResponse writes a web.Response out as HTTP, advertising the
// origin's own header-key set so the client side can reconstruct it
// exactly.
func (g *Gateway) writeResponse(w http.ResponseWriter, resp *web.Response) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set(HeaderOrigKeys, origKeysValue(resp.Header))
	w.WriteHeader(resp.Status)
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
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, msg, status)
}

// ServeHTTP routes by Host header: mounted origins go through their
// admission bounds, the admin endpoints answer only on the listener's
// own address (so a web-origin Host can never reach them — an
// unregistered origin's /healthz must 502 exactly as it does in
// memory), and every other unmapped host falls back to the inner
// transport inline (late-registered or unregistered origins behave
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

// serveOrigin is the mounted-origin path: policy delivery, admission,
// the origin's handler, response translation. Every admitted request
// reaches the inner transport, so the origin's request log matches
// in-memory traffic entry for entry.
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
	req := translate(r, vh.origin)
	defer releaseRequest(req)
	queued := time.Now()
	if !g.admit(w, vh) {
		return
	}
	running := time.Now()
	resp, err := g.handle(vh, req)
	handled := time.Now()
	wait, handler := running.Sub(queued), handled.Sub(running)
	stages := g.cfg.Stages
	stages.Observe(obs.StageQueueWait, wait)
	stages.Observe(obs.StageHandler, handler)
	if err != nil {
		g.routeError(w, err)
		return
	}
	vh.served.Add(1)
	g.writeResponse(w, resp)
	end := time.Now()
	total := end.Sub(arrival)
	vh.latency.Observe(total)
	if stages != nil {
		// Translation is the gateway's own bookkeeping around the
		// round trip: request translation on the way in plus response
		// writing on the way out.
		trans := queued.Sub(arrival) + end.Sub(handled)
		stages.Observe(obs.StageTranslate, trans)
		var spans [obs.NumStages]int64
		spans[obs.StageQueueWait] = int64(wait)
		spans[obs.StageHandler] = int64(handler)
		spans[obs.StageTranslate] = int64(trans)
		g.cfg.Slow.Record("gateway", req.TraceID, total, spans)
	}
}

// admit takes one of vh's run slots for the request, waiting in one
// of its queue slots while none is free. When it reports false it has
// answered the request itself: a marked 503 when the queue is full
// too, a marked no-server 502 when Unmount retires the origin, or a
// marked shutting-down 503 when Shutdown gives up on waiting requests.
// A freed run slot goes straight to the longest-blocked waiter (Go
// queues a channel's blocked senders in arrival order), so waiting
// requests run in arrival order.
func (g *Gateway) admit(w http.ResponseWriter, vh *vhost) bool {
	select {
	case vh.run <- struct{}{}:
		return true
	default:
	}
	select {
	case vh.queue <- struct{}{}:
	default:
		vh.dropped.Add(1)
		g.rejected.Add(1)
		g.gatewayError(w, gatewayOverloaded, http.StatusServiceUnavailable,
			fmt.Sprintf("origin %s queue full", vh.origin))
		return false
	}
	defer func() { <-vh.queue }()
	for depth := int64(len(vh.queue)); ; {
		cur := g.maxDepth.Load()
		if depth <= cur {
			break
		}
		if g.maxDepth.CompareAndSwap(cur, depth) {
			g.maxDepthG.Set(depth)
			break
		}
	}
	select {
	case vh.run <- struct{}{}:
		return true
	case <-vh.stop:
		g.gatewayError(w, gatewayNoServer, http.StatusBadGateway,
			fmt.Sprintf("origin %s unmounted", vh.origin))
	case <-g.quit:
		g.gatewayError(w, gatewayShuttingDown, http.StatusServiceUnavailable, "gateway shutting down")
	}
	return false
}

// handle round-trips an admitted request on the inner transport and
// frees its run slot, even if the handler panics (net/http recovers
// the panic, and a leaked slot would shrink the origin for good).
func (g *Gateway) handle(vh *vhost, req *web.Request) (*web.Response, error) {
	defer func() { <-vh.run }()
	return g.inner.RoundTrip(req)
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
	req := translate(r, target)
	resp, err := g.inner.RoundTrip(req)
	releaseRequest(req)
	if err != nil {
		g.routeError(w, err)
		return
	}
	g.writeResponse(w, resp)
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
	origins := len(g.table.Load().byOrigin)
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
	if _, mounted := g.table.Load().byOrigin[o]; !mounted {
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
