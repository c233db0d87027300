// Package httpd mounts the in-memory web substrate on real sockets:
// a Gateway serves registered origins from one net/http listener with
// Host-header virtual hosting, per-origin bounded worker queues, a
// cross-request page cache for immutable fixture bodies, and admin
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

// OriginConfig sizes one origin's worker queue and carries its policy
// document.
type OriginConfig struct {
	// Workers is the origin's concurrency: how many requests the
	// origin's handler serves at once (default Weight ×
	// Config.DefaultWorkers).
	Workers int
	// QueueDepth bounds the origin's wait queue; an arriving request
	// that finds it full is rejected with 503 instead of starving
	// other origins' workers (default Weight × Config.DefaultQueueDepth).
	QueueDepth int
	// Weight is the origin's admission weight: a multiplier applied to
	// the gateway defaults when Workers/QueueDepth are unset, so a hot
	// origin can get a deeper queue and more workers than a cold one
	// without every origin being sized by hand (default 1). Explicit
	// Workers/QueueDepth values win over the weight.
	Weight int
	// Policy, when non-nil, is the origin's unified policy document.
	// It is validated at mount time, served at PolicyPath on the
	// origin, and listed by the admin /policyz endpoint.
	Policy *policy.Policy
}

// Config configures a Gateway.
type Config struct {
	// Inner serves the mounted origins — normally a *web.Network. The
	// gateway adds transport, scheduling, and caching; routing
	// semantics (including the request log and 502-for-unregistered)
	// stay Inner's.
	Inner web.Transport
	// DefaultWorkers is the per-origin worker count when Mount is not
	// given one (default 4).
	DefaultWorkers int
	// DefaultQueueDepth is the per-origin queue bound when Mount is
	// not given one (default 64).
	DefaultQueueDepth int
	// DisableCache turns the cross-request page cache off.
	DisableCache bool
	// CacheMaxEntries bounds the page cache's entry count (default
	// 4096); past it the least recently used entries are evicted.
	CacheMaxEntries int
	// CacheMaxBytes bounds the page cache's approximate resident size
	// (default 32 MiB), enforced the same way.
	CacheMaxBytes int64
	// Origins carries per-origin configuration (queue shape, weight,
	// policy document) keyed by origin string ("http://forum.example"),
	// applied when Mount/MountNetwork register that origin without an
	// explicit OriginConfig.
	Origins map[string]OriginConfig
	// StatsFunc, when non-nil, is invoked by /metricsz and its result
	// embedded in the JSON under "engine" — the load driver plugs
	// engine.Pool.Stats in here.
	StatsFunc func() any
	// ClientStatsFunc, when non-nil, is embedded in /metricsz under
	// "client" — a single-process load driver plugs its
	// ClientTransport.Stats in here so connection-reuse counters show
	// up next to the gateway's own.
	ClientStatsFunc func() any
	// TLS, when non-nil, terminates https on the listener: every
	// handshake gets a leaf certificate minted by the CA, selected by
	// SNI (per-origin identity) with a loopback default for SNI-less
	// admin probes. TLS is pure transport — origins, verdicts, and
	// audit semantics are unchanged, which the TLS equivalence test
	// pins.
	TLS *CA
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// admin host (the listener's own address, same isolation as
	// /metricsz — a web-origin Host header can never reach it). Off by
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

// vhost is one mounted origin: its identity, its bounded queue, and
// its per-origin traffic counters (registry handles labeled by
// origin, so /varz breaks traffic down per origin for free). stop is
// closed by Unmount, terminating this origin's workers — and rescuing
// any requester still parked on a queued job — without touching the
// rest of the fleet.
type vhost struct {
	origin  origin.Origin
	cfg     OriginConfig
	jobs    chan *job
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

// job carries one translated request to an origin worker. enq stamps
// the enqueue instant when stage timing is on (zero otherwise), so the
// worker can attribute queue-wait.
type job struct {
	req  *web.Request
	done chan jobResult
	enq  time.Time
}

// jobResult carries the origin's answer back, plus the worker-side
// stage spans (zero when stage timing is off) so the requester can
// record the request's full breakdown.
type jobResult struct {
	resp    *web.Response
	err     error
	wait    time.Duration
	handler time.Duration
}

// Stats counts gateway traffic.
type Stats struct {
	// Served counts origin responses written (cache hits included;
	// 503 rejections and admin endpoints excluded).
	Served uint64 `json:"served"`
	// Rejected503 counts requests dropped because their origin's
	// queue was full.
	Rejected503 uint64 `json:"rejected_503"`
	// MaxQueueDepth is the deepest any origin queue has been since
	// Start or the last ResetQueueHighWater.
	MaxQueueDepth int64 `json:"max_queue_depth"`
	// Cache is the page-cache traffic.
	Cache CacheStats `json:"page_cache"`
}

// Sub returns the counter delta s-base. MaxQueueDepth and
// Cache.Entries are running high-water/absolute values and pass
// through unchanged.
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		Served:        s.Served - base.Served,
		Rejected503:   s.Rejected503 - base.Rejected503,
		MaxQueueDepth: s.MaxQueueDepth,
		Cache:         s.Cache.Sub(base.Cache),
	}
}

// Add sums two snapshots — used to aggregate a fleet of short-lived
// gateways (the per-environment attack replay) into one section.
func (s Stats) Add(o Stats) Stats {
	out := Stats{
		Served:        s.Served + o.Served,
		Rejected503:   s.Rejected503 + o.Rejected503,
		MaxQueueDepth: s.MaxQueueDepth,
		Cache:         s.Cache.Add(o.Cache),
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
	cache    *pageCache
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
	workers  sync.WaitGroup

	// The traffic counters are registry handles (one atomic each, same
	// hot-path cost as the raw atomics they replaced), so /metricsz,
	// Stats(), and /varz all read the same instances. maxDepth keeps a
	// raw atomic for its CAS race and mirrors into a gauge.
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
	if !cfg.DisableCache {
		g.cache = newPageCache(cfg.CacheMaxEntries, cfg.CacheMaxBytes)
	}
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

// Mount registers an origin for virtual hosting with the queue shape
// from Config.Origins (or the defaults). Mounting is live: before
// Start it stages the origin; after Start the origin's workers spawn
// immediately and the COW table swap makes it routable without
// stalling a single in-flight request. Only http-scheme origins can
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

// MountOpts is Mount with an explicit queue shape and policy. Unset
// Workers/QueueDepth derive from the gateway defaults scaled by the
// origin's admission weight.
func (g *Gateway) MountOpts(o origin.Origin, cfg OriginConfig) error {
	if o.Scheme != "http" {
		return fmt.Errorf("httpd: cannot mount %s: only http origins are served", o)
	}
	if cfg.Weight <= 0 {
		cfg.Weight = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = cfg.Weight * g.cfg.DefaultWorkers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = cfg.Weight * g.cfg.DefaultQueueDepth
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
		cfg:     cfg,
		jobs:    make(chan *job, cfg.QueueDepth),
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
	if g.started {
		g.spawnWorkers(vh)
	}
	return nil
}

// Unmount removes an origin live: the COW table swap makes it
// unroutable, its workers exit, any requester still parked on its
// queue is rescued with a no-server answer (the in-memory semantics of
// an unregistered origin), and its policy document leaves the store.
// Unmounting an unknown origin is a no-op.
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

// spawnWorkers starts one origin's worker pool (mountMu held).
func (g *Gateway) spawnWorkers(vh *vhost) {
	for i := 0; i < vh.cfg.Workers; i++ {
		g.workers.Add(1)
		go g.work(vh)
	}
}

// MountNetwork mounts every origin currently registered on the
// network with the default queue shape.
func (g *Gateway) MountNetwork(n *web.Network) error {
	for _, o := range n.Origins() {
		if err := g.Mount(o); err != nil {
			return err
		}
	}
	return nil
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral loopback
// port), spawns every mounted origin's workers, and serves in the
// background until Shutdown.
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
	for _, vh := range g.table.Load().byOrigin {
		g.spawnWorkers(vh)
	}
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

// Shutdown gracefully stops the gateway: the listener closes, in-flight
// requests finish, then the origin workers exit.
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
	g.workers.Wait()
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
	st := Stats{
		Served:        g.served.Value(),
		Rejected503:   g.rejected.Value(),
		MaxQueueDepth: g.maxDepth.Load(),
	}
	if g.cache != nil {
		st.Cache = g.cache.stats()
	}
	return st
}

// work is one origin worker: pull a translated request, round-trip it
// on the inner transport, hand the result back. vh.stop ends the pool
// when the origin is unmounted; g.quit ends every pool at shutdown.
func (g *Gateway) work(vh *vhost) {
	defer g.workers.Done()
	timed := g.cfg.Stages != nil
	for {
		select {
		case j := <-vh.jobs:
			var res jobResult
			if timed && !j.enq.IsZero() {
				res.wait = time.Since(j.enq)
				hStart := time.Now()
				res.resp, res.err = g.inner.RoundTrip(j.req)
				res.handler = time.Since(hStart)
				g.cfg.Stages.Observe(obs.StageQueueWait, res.wait)
				g.cfg.Stages.Observe(obs.StageHandler, res.handler)
			} else {
				res.resp, res.err = g.inner.RoundTrip(j.req)
			}
			j.done <- res
		case <-vh.stop:
			return
		case <-g.quit:
			return
		}
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
// translated into. A request is returned to the pool only after its
// response is written (releaseRequest); the one path that abandons a
// possibly-queued job — shutdown — leaks its request to the GC
// instead, because a worker may still be reading it.
var reqPool = sync.Pool{New: func() any { return &web.Request{} }}

// releaseRequest hands a translated request back to the pool.
func releaseRequest(req *web.Request) { reqPool.Put(req) }

// jobPool recycles job envelopes; the buffered done channel is reused
// across requests. Jobs abandoned at shutdown are never pooled again
// (the worker may still deliver into done).
var jobPool = sync.Pool{New: func() any { return &job{done: make(chan jobResult, 1)} }}

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
// exactly. origKeys may be precomputed (cache hits); "" computes it.
func (g *Gateway) writeResponse(w http.ResponseWriter, resp *web.Response, etag, origKeys string) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if origKeys == "" {
		origKeys = origKeysValue(resp.Header)
	}
	w.Header().Set(HeaderOrigKeys, origKeys)
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
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
// worker queue (with a page-cache probe first), the admin endpoints
// answer only on the listener's own address (so a web-origin Host can
// never reach them — an unregistered origin's /healthz must 502
// exactly as it does in memory), and every other unmapped host falls
// back to the inner transport inline (late-registered or unregistered
// origins behave exactly as in memory, 502 log entry included).
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
		case "/metricsz":
			g.serveMetricsz(w)
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

// serveOrigin is the mounted-origin path: policy delivery, cache
// probe, bounded enqueue, worker round trip, response translation.
func (g *Gateway) serveOrigin(w http.ResponseWriter, r *http.Request, vh *vhost) {
	// arrival anchors the per-origin latency histogram (always on — the
	// per-origin tail must be observable without a BENCH run) and, with
	// stage timing configured, the request's slow-ring exemplar.
	arrival := time.Now()
	timed := g.cfg.Stages != nil
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
	var trans time.Duration
	if timed {
		trans = time.Since(arrival)
	}

	// GET-form submissions (non-empty Form) bypass the cache entirely:
	// they must reach the server and its request log like any other
	// form, whatever was cached under the same path and query.
	var key pageKey
	if g.cache != nil && r.Method == "GET" && len(req.Form) == 0 {
		key = pageKey{
			host:    hostKey(vh.origin),
			path:    req.Path(),
			query:   r.URL.RawQuery,
			cookies: cookieKey(req),
		}
		if page, ok := g.cache.get(key); ok {
			if r.Header.Get("If-None-Match") == page.etag {
				g.cache.notModified.Add(1)
				w.Header()["Etag"] = page.etagVal
				w.WriteHeader(http.StatusNotModified)
				vh.served.Add(1)
				g.served.Add(1)
				vh.latency.Observe(time.Since(arrival))
				releaseRequest(req)
				return
			}
			vh.served.Add(1)
			g.writeCachedPage(w, page)
			vh.latency.Observe(time.Since(arrival))
			releaseRequest(req)
			return
		}
	}

	j := jobPool.Get().(*job)
	j.req = req
	j.enq = time.Time{}
	if timed {
		j.enq = time.Now()
	}
	select {
	case vh.jobs <- j:
	default:
		vh.dropped.Add(1)
		g.rejected.Add(1)
		g.gatewayError(w, gatewayOverloaded, http.StatusServiceUnavailable,
			fmt.Sprintf("origin %s queue full", vh.origin))
		j.req = nil
		jobPool.Put(j)
		releaseRequest(req)
		return
	}
	for depth := int64(len(vh.jobs)); ; {
		cur := g.maxDepth.Load()
		if depth <= cur {
			break
		}
		if g.maxDepth.CompareAndSwap(cur, depth) {
			g.maxDepthG.Set(depth)
			break
		}
	}
	// Also watch quit and the vhost's own stop: a deadline-expired
	// Shutdown may stop the workers while this job is still queued, and
	// a live Unmount retires this origin's pool the same way — in both
	// cases an abandoned job must not strand its handler (done is
	// buffered, so a worker that did pick the job up can still deliver
	// and move on). An unmounted origin answers exactly like an
	// unregistered one: a marked no-server 502, the in-memory contract.
	// Abandoned jobs and their requests are NOT pooled again — the
	// worker may still touch both.
	var res jobResult
	select {
	case res = <-j.done:
	case <-vh.stop:
		g.gatewayError(w, gatewayNoServer, http.StatusBadGateway,
			fmt.Sprintf("origin %s unmounted", vh.origin))
		return
	case <-g.quit:
		g.gatewayError(w, gatewayShuttingDown, http.StatusServiceUnavailable, "gateway shutting down")
		return
	}
	j.req = nil
	jobPool.Put(j)
	if res.err != nil {
		g.routeError(w, res.err)
		releaseRequest(req)
		return
	}
	var etag string
	if g.cache != nil && cacheable(req, res.resp) {
		etag = g.cache.put(key, res.resp)
		g.cache.misses.Add(1)
	}
	vh.served.Add(1)
	wStart := time.Now()
	g.writeResponse(w, res.resp, etag, "")
	total := time.Since(arrival)
	vh.latency.Observe(total)
	if timed {
		// Translation is the gateway's own bookkeeping around the
		// round trip: request translation on the way in plus response
		// writing on the way out.
		trans += time.Since(wStart)
		g.cfg.Stages.Observe(obs.StageTranslate, trans)
		if req.TraceID != "" {
			var stages [obs.NumStages]int64
			stages[obs.StageQueueWait] = int64(res.wait)
			stages[obs.StageHandler] = int64(res.handler)
			stages[obs.StageTranslate] = int64(trans)
			g.cfg.Slow.Record("gateway", req.TraceID, total, stages)
		}
	}
	releaseRequest(req)
}

// writeCachedPage serves a page-cache hit without copying: headers are
// installed into the response header map by reference (the cached
// slices are frozen — see cachedPage) and the body is written straight
// from the cached byte slice. Apart from net/http's own plumbing the
// hit path allocates nothing.
func (g *Gateway) writeCachedPage(w http.ResponseWriter, page *cachedPage) {
	wh := w.Header()
	for k, vs := range page.header {
		wh[k] = vs
	}
	wh[HeaderOrigKeys] = page.origKeyVal
	wh["Etag"] = page.etagVal
	w.WriteHeader(page.status)
	if len(page.body) > 0 {
		w.Write(page.body) //nolint:errcheck // client went away; nothing to do
	}
	g.served.Add(1)
}

// servePprof dispatches the net/http/pprof handlers. It is reachable
// only on the admin host and only with Config.EnablePprof — the
// profiling surface shares /metricsz's isolation from web origins.
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
	g.writeResponse(w, resp, "", "")
}

// routeError maps inner-transport errors onto marked HTTP statuses.
func (g *Gateway) routeError(w http.ResponseWriter, err error) {
	if errors.Is(err, web.ErrNoServer) {
		g.gatewayError(w, gatewayNoServer, http.StatusBadGateway, err.Error())
		return
	}
	g.gatewayError(w, gatewayBadRequest, http.StatusBadGateway, err.Error())
}

// healthzJSON is the /healthz (readiness) document. The gateway
// serves nothing until Start has spawned every mounted origin's
// workers, so a gateway that answers is ready; /livez answers liveness
// alone.
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

// vhostJSON is one origin's row in /metricsz.
type vhostJSON struct {
	Origin   string `json:"origin"`
	Workers  int    `json:"workers"`
	Weight   int    `json:"weight"`
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
	Served   uint64 `json:"served"`
	Dropped  uint64 `json:"dropped_503"`
}

// stageJSON is one stage's latency summary in /metricsz (the JSON
// companion to the escudo_stage_seconds /varz family).
type stageJSON struct {
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	Count uint64  `json:"count"`
}

// metricszJSON is the /metricsz document: gateway counters, per-origin
// queue state, and whatever the configured StatsFunc reports (the load
// driver wires engine.Pool.Stats here).
type metricszJSON struct {
	Gateway Stats       `json:"gateway"`
	Origins []vhostJSON `json:"origins"`
	// Stages carries per-stage latency summaries keyed by stage name
	// when the deployment wired a StageSet.
	Stages map[string]stageJSON `json:"stages,omitempty"`
	Engine any                  `json:"engine,omitempty"`
	// Client carries the co-resident ClientTransport's stats
	// (connection reuse) when the driver wired ClientStatsFunc.
	Client  any       `json:"client,omitempty"`
	Version obs.Stamp `json:"version"`
}

func (g *Gateway) serveMetricsz(w http.ResponseWriter) {
	doc := metricszJSON{Gateway: g.Stats(), Version: obs.Version()}
	table := g.table.Load()
	doc.Origins = make([]vhostJSON, 0, len(table.byOrigin))
	for _, vh := range table.byOrigin {
		doc.Origins = append(doc.Origins, vhostJSON{
			Origin:   vh.origin.String(),
			Workers:  vh.cfg.Workers,
			Weight:   vh.cfg.Weight,
			QueueLen: len(vh.jobs),
			QueueCap: cap(vh.jobs),
			Served:   vh.served.Value(),
			Dropped:  vh.dropped.Value(),
		})
	}
	sort.Slice(doc.Origins, func(a, b int) bool { return doc.Origins[a].Origin < doc.Origins[b].Origin })
	if g.cfg.Stages != nil {
		doc.Stages = make(map[string]stageJSON, int(obs.NumStages))
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			h := g.cfg.Stages.Hist(st).Snapshot()
			if h.Total() == 0 {
				continue
			}
			doc.Stages[st.String()] = stageJSON{
				P50Ms: float64(h.Quantile(50).Nanoseconds()) / 1e6,
				P99Ms: float64(h.Quantile(99).Nanoseconds()) / 1e6,
				Count: h.Total(),
			}
		}
	}
	if g.cfg.StatsFunc != nil {
		doc.Engine = g.cfg.StatsFunc()
	}
	if g.cfg.ClientStatsFunc != nil {
		doc.Client = g.cfg.ClientStatsFunc()
	}
	writeJSON(w, doc)
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
