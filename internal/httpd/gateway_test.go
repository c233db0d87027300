package httpd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/origin"
	"repro/internal/web"
)

// startGateway builds, mounts, and starts a gateway over the network
// on an ephemeral loopback port, tearing it down with the test.
func startGateway(t *testing.T, n *web.Network, cfg Config) *Gateway {
	t.Helper()
	cfg.Inner = n
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := g.MountNetwork(n); err != nil {
		t.Fatalf("MountNetwork: %v", err)
	}
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// rawGet issues a GET straight at the listener with a chosen Host
// header, the way an arbitrary HTTP client would.
func rawGet(t *testing.T, g *Gateway, host, pathAndQuery string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", "http://"+g.Addr()+pathAndQuery, nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if host != "" {
		req.Host = host
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s (Host %s): %v", pathAndQuery, host, err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return string(data)
}

// echoHandler reports what the origin's server saw.
func echoHandler(name string) web.Handler {
	return web.HandlerFunc(func(req *web.Request) *web.Response {
		cookie, _ := req.Cookie("sid")
		return web.HTML(fmt.Sprintf("host=%s path=%s q=%s form=%s sid=%s",
			name, req.Path(), req.Query().Get("q"), req.Form.Get("field"), cookie))
	})
}

func TestVirtualHostingRoutesByHostHeader(t *testing.T) {
	n := web.NewNetwork()
	alpha := origin.MustParse("http://alpha.example")
	beta := origin.MustParse("http://beta.example")
	n.Register(alpha, echoHandler("alpha"))
	n.Register(beta, echoHandler("beta"))
	g := startGateway(t, n, Config{})

	for _, tc := range []struct{ host, want string }{
		{"alpha.example", "host=alpha"},
		{"alpha.example:80", "host=alpha"},
		{"beta.example", "host=beta"},
	} {
		resp := rawGet(t, g, tc.host, "/page?q=7", nil)
		body := readBody(t, resp)
		if resp.StatusCode != 200 || !strings.Contains(body, tc.want) {
			t.Fatalf("Host %s: status %d body %q, want %s", tc.host, resp.StatusCode, body, tc.want)
		}
		if !strings.Contains(body, "path=/page") || !strings.Contains(body, "q=7") {
			t.Fatalf("Host %s: translation lost path/query: %q", tc.host, body)
		}
	}
}

func TestClientTransportRoundTrip(t *testing.T) {
	n := web.NewNetwork()
	o := origin.MustParse("http://app.example")
	n.Register(o, web.HandlerFunc(func(req *web.Request) *web.Response {
		if req.Path() == "/submit" {
			// Form fields must arrive regardless of method — GET form
			// submissions carry them outside the URL query in memory.
			if req.Form.Get("field") != "val" {
				return web.Forbidden("missing form field")
			}
			return web.Redirect(o.URL("/done"))
		}
		if req.InitiatorLabel != "img" || req.InitiatorOrigin != o {
			return web.Forbidden(fmt.Sprintf("initiator lost: %q %s", req.InitiatorLabel, req.InitiatorOrigin))
		}
		resp := web.HTML("ok")
		resp.Header.Add("Set-Cookie", "sid=s3cret; Path=/app; HttpOnly")
		resp.Header.Set("X-Escudo-Maxring", "3")
		return resp
	}))
	g := startGateway(t, n, Config{})
	ct := NewClientTransport(g.Addr())
	defer ct.Close()

	// GET with initiator metadata: must survive the wire into the
	// server-side request (and its log).
	req := web.NewRequest("GET", o.URL("/fetch?x=1"))
	req.InitiatorOrigin = o
	req.InitiatorLabel = "img"
	resp, err := ct.RoundTrip(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	if resp.Status != 200 || resp.Body != "ok" {
		t.Fatalf("GET: status %d body %q", resp.Status, resp.Body)
	}
	// Response headers must round-trip byte-for-byte: the raw
	// Set-Cookie attribute string, the Escudo config header, and no
	// HTTP-plumbing additions (Date, Content-Length, sniffed types).
	if got := resp.Header.Values("Set-Cookie"); len(got) != 1 || got[0] != "sid=s3cret; Path=/app; HttpOnly" {
		t.Fatalf("Set-Cookie mangled: %q", got)
	}
	if got := resp.Header.Get("X-Escudo-Maxring"); got != "3" {
		t.Fatalf("X-Escudo-Maxring lost: %q", got)
	}
	for _, k := range []string{"Date", "Content-Length", HeaderOrigKeys, HeaderGateway} {
		if resp.Header.Get(k) != "" {
			t.Fatalf("plumbing header %s leaked into web.Response", k)
		}
	}

	// POST form: fields travel as a urlencoded body and come back as
	// req.Form on the server side; the 303 is NOT followed by the
	// transport (redirect policy is the browser's).
	post := web.NewRequest("POST", o.URL("/submit"))
	post.Form = url.Values{"field": {"val"}}
	resp, err = ct.RoundTrip(post)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if resp.Status != 303 || resp.Header.Get("Location") != o.URL("/done") {
		t.Fatalf("POST: status %d Location %q, want 303 to /done", resp.Status, resp.Header.Get("Location"))
	}

	// GET forms too: the in-memory substrate keeps Form distinct from
	// the URL query on any method, and the wire must preserve both
	// the handler's view and the request log's Form column.
	getForm := web.NewRequest("GET", o.URL("/submit?q=fromquery"))
	getForm.Form = url.Values{"field": {"val"}}
	resp, err = ct.RoundTrip(getForm)
	if err != nil {
		t.Fatalf("GET form: %v", err)
	}
	if resp.Status != 303 {
		t.Fatalf("GET form: status %d, want 303 (handler saw the form)", resp.Status)
	}
	logged := n.FindRequests(o, func(e web.LogEntry) bool { return e.Path == "/submit" && e.Method == "GET" })
	if len(logged) != 1 || logged[0].Form.Get("field") != "val" {
		t.Fatalf("GET form lost from request log: %+v", logged)
	}

	// The server-side request log looks exactly like in-memory
	// traffic: initiator metadata intact, no plumbing artifacts.
	entries := n.FindRequests(o, func(e web.LogEntry) bool { return e.Path == "/fetch" })
	if len(entries) != 1 {
		t.Fatalf("want 1 logged /fetch, got %d", len(entries))
	}
	if entries[0].InitiatorLabel != "img" || entries[0].InitiatorOrigin != o {
		t.Fatalf("log lost initiator: %+v", entries[0])
	}

	// Unregistered origins keep the in-memory error contract through
	// the gateway: web.ErrNoServer, and a 502 entry in the log.
	missing := origin.MustParse("http://missing.example")
	if _, err := ct.RoundTrip(web.NewRequest("GET", missing.URL("/x"))); err == nil || !strings.Contains(err.Error(), "no server") {
		t.Fatalf("missing origin: want ErrNoServer, got %v", err)
	}
	if logged502 := n.FindRequests(missing, nil); len(logged502) != 1 || logged502[0].Status != 502 {
		t.Fatalf("missing origin not logged as 502: %+v", logged502)
	}
}

func TestAdminEndpoints(t *testing.T) {
	n := web.NewNetwork()
	o := origin.MustParse("http://app.example")
	n.Register(o, echoHandler("app"))
	g := startGateway(t, n, Config{StatsFunc: func() any { return map[string]int{"tasks": 42} }})

	resp := rawGet(t, g, "", "/healthz", nil)
	var health healthzJSON
	if err := json.Unmarshal([]byte(readBody(t, resp)), &health); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	if health.Status != "ok" || health.Origins != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	// Drive some traffic, then read it back from /metricsz.
	rawGet(t, g, "app.example", "/", nil).Body.Close()
	resp = rawGet(t, g, "", "/metricsz", nil)
	body := readBody(t, resp)
	var doc metricszJSON
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("metricsz JSON: %v (%s)", err, body)
	}
	if doc.Gateway.Served != 1 {
		t.Fatalf("metricsz served = %d, want 1", doc.Gateway.Served)
	}
	if len(doc.Origins) != 1 || doc.Origins[0].Origin != "http://app.example" {
		t.Fatalf("metricsz origins = %+v", doc.Origins)
	}
	if !strings.Contains(body, `"tasks":42`) {
		t.Fatalf("metricsz missing engine stats: %s", body)
	}

	// A mounted origin's own /healthz is NOT shadowed by the admin
	// endpoint — vhosts win.
	resp = rawGet(t, g, "app.example", "/healthz", nil)
	if body := readBody(t, resp); !strings.Contains(body, "host=app") {
		t.Fatalf("vhost /healthz hijacked by admin: %q", body)
	}

	// And an UNREGISTERED origin's /healthz is not an admin page
	// either: it takes the fallback path and 502s exactly as the
	// in-memory network would, log entry included — a web-reachable
	// Host must never expose gateway internals.
	resp = rawGet(t, g, "unregistered.example", "/healthz", nil)
	readBody(t, resp)
	if resp.StatusCode != 502 || resp.Header.Get(HeaderGateway) != "no-server" {
		t.Fatalf("unregistered /healthz: status %d marker %q, want 502 no-server",
			resp.StatusCode, resp.Header.Get(HeaderGateway))
	}
	missing := origin.MustParse("http://unregistered.example")
	if logged := n.FindRequests(missing, nil); len(logged) != 1 || logged[0].Status != 502 {
		t.Fatalf("unregistered /healthz not logged as 502: %+v", logged)
	}

	// Unknown paths on the admin host are plain 404s, not fallback
	// round trips under a synthetic origin.
	resp = rawGet(t, g, "", "/nope", nil)
	if readBody(t, resp); resp.StatusCode != 404 {
		t.Fatalf("admin-host unknown path: status %d, want 404", resp.StatusCode)
	}
}

func TestPageCacheAndETag(t *testing.T) {
	n := web.NewNetwork()
	o := origin.MustParse("http://fixture.example")
	var builds atomic64
	n.Register(o, web.HandlerFunc(func(req *web.Request) *web.Response {
		builds.add(1)
		resp := web.HTML("immutable body for " + req.Path())
		resp.Header.Set("Cache-Control", "public, immutable")
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	mut := origin.MustParse("http://mutable.example")
	n.Register(mut, echoHandler("mutable"))
	g := startGateway(t, n, Config{})

	// First GET builds; second is served from cache with an ETag.
	r1 := rawGet(t, g, "fixture.example", "/p?a=1", nil)
	readBody(t, r1)
	r2 := rawGet(t, g, "fixture.example", "/p?a=1", nil)
	body := readBody(t, r2)
	if builds.load() != 1 {
		t.Fatalf("handler built %d times, want 1 (second hit cached)", builds.load())
	}
	if body != "immutable body for /p" {
		t.Fatalf("cached body = %q", body)
	}
	etag := r2.Header.Get("Etag")
	if etag == "" {
		t.Fatal("cached response missing ETag")
	}
	// A hit carries the origin's ESCUDO configuration headers exactly
	// as the miss did: the browser configures the page from them.
	if got, want := r2.Header.Values(core.HeaderMaxRing), r1.Header.Values(core.HeaderMaxRing); !reflect.DeepEqual(got, want) || len(want) != 1 {
		t.Fatalf("cached %s = %q, first response %q", core.HeaderMaxRing, got, want)
	}

	// Conditional revalidation: matching If-None-Match yields 304
	// with no body.
	r3 := rawGet(t, g, "fixture.example", "/p?a=1", map[string]string{"If-None-Match": etag})
	if b := readBody(t, r3); r3.StatusCode != 304 || b != "" {
		t.Fatalf("If-None-Match: status %d body %q, want 304 empty", r3.StatusCode, b)
	}

	// Different query is a different key.
	readBody(t, rawGet(t, g, "fixture.example", "/p?a=2", nil))
	if builds.load() != 2 {
		t.Fatalf("query variant not keyed separately: %d builds", builds.load())
	}

	// Unmarked handlers are never cached.
	readBody(t, rawGet(t, g, "mutable.example", "/m", nil))
	readBody(t, rawGet(t, g, "mutable.example", "/m", nil))
	if got := len(n.FindRequests(mut, nil)); got != 2 {
		t.Fatalf("mutable origin served %d from network, want 2 (no caching)", got)
	}

	st := g.Stats().Cache
	if st.Hits < 2 || st.Entries != 2 || st.NotModified != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
	if st.HitRate() <= 0 {
		t.Fatalf("hit rate = %f", st.HitRate())
	}
}

// TestPageCacheKeyedOnCookies pins that a page cached for a request
// with cookies is never served to a request without them: a fixture
// that sets the session cookie on a cookie-less request must still set
// it for a new session after a cookied request cached the page.
func TestPageCacheKeyedOnCookies(t *testing.T) {
	n := web.NewNetwork()
	n.Register(origin.MustParse("http://fixture.example"), web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML("fixture")
		resp.Header.Set("Cache-Control", "public, immutable")
		if _, ok := req.Cookie("sid"); !ok {
			resp.Header.Add("Set-Cookie", "sid=tok; Path=/")
		}
		return resp
	}))
	g := startGateway(t, n, Config{})
	// The second cookied request is served from the cache.
	for i := 0; i < 2; i++ {
		readBody(t, rawGet(t, g, "fixture.example", "/", map[string]string{"Cookie": "sid=tok"}))
	}
	if hits := g.Stats().Cache.Hits; hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	r := rawGet(t, g, "fixture.example", "/", nil)
	readBody(t, r)
	if r.Header.Get("Set-Cookie") == "" {
		t.Fatal("a cookie-less request got the cookied page without its Set-Cookie")
	}
}

func TestQueueOverflowReturns503(t *testing.T) {
	n := web.NewNetwork()
	slow := origin.MustParse("http://slow.example")
	release := make(chan struct{})
	started := make(chan struct{}, 64)
	n.Register(slow, web.HandlerFunc(func(req *web.Request) *web.Response {
		started <- struct{}{}
		<-release
		return web.HTML("done")
	}))
	fast := origin.MustParse("http://fast.example")
	n.Register(fast, echoHandler("fast"))

	g, err := New(Config{Inner: n})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := g.MountOpts(slow, OriginConfig{Workers: 1, QueueDepth: 1}); err != nil {
		t.Fatalf("MountOpts: %v", err)
	}
	if err := g.Mount(fast); err != nil {
		t.Fatalf("Mount: %v", err)
	}
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	// Cleanups run LIFO: unwedge the handler before g.Close waits for
	// the workers, even when the test fails early.
	var releaseOnce sync.Once
	releaseFn := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(releaseFn)

	get := func() int {
		req, _ := http.NewRequest("GET", "http://"+g.Addr()+"/", nil)
		req.Host = "slow.example"
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return -1
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}

	// Fill the single worker (request A), then the depth-1 queue
	// (request B), deterministically.
	codes := make(chan int, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); codes <- get() }()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("slow handler never started")
	}
	wg.Add(1)
	go func() { defer wg.Done(); codes <- get() }()
	vh := g.table.Load().byOrigin[slow]
	deadline := time.Now().Add(5 * time.Second)
	for len(vh.jobs) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request B never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	// The worker is busy and the queue is full: request C must be
	// rejected immediately with 503, not block.
	if code := get(); code != 503 {
		t.Fatalf("overflow request: status %d, want 503", code)
	}
	if st := g.Stats(); st.Rejected503 != 1 {
		t.Fatalf("Rejected503 = %d, want 1", st.Rejected503)
	}

	// Releasing the handler drains A and B successfully.
	releaseFn()
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != 200 {
			t.Fatalf("queued request finished with %d, want 200", code)
		}
	}

	// One hot origin must not starve the rest: the fast origin still
	// answers while slow.example's worker is wedged.
	resp := rawGet(t, g, "fast.example", "/", nil)
	if body := readBody(t, resp); resp.StatusCode != 200 || !strings.Contains(body, "host=fast") {
		t.Fatalf("fast origin starved: %d %q", resp.StatusCode, body)
	}
}

func TestGracefulShutdown(t *testing.T) {
	n := web.NewNetwork()
	o := origin.MustParse("http://app.example")
	n.Register(o, echoHandler("app"))
	g := startGateway(t, n, Config{})
	addr := g.Addr()

	readBody(t, rawGet(t, g, "app.example", "/", nil))
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

// atomic64 is a tiny counter for handler-side assertions.
type atomic64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.n }
