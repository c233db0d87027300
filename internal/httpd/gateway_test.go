package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestGatewayRefusesOversizedForm posts urlencoded form bodies at the
// gateway's limit and one byte over it: the first reaches the origin
// whole; the second gets a marked 413 and never reaches the origin,
// rather than arriving as whatever prefix of the form fits.
func TestGatewayRefusesOversizedForm(t *testing.T) {
	n := web.NewNetwork()
	o := origin.MustParse("http://app.example")
	n.Register(o, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML(strconv.Itoa(len(req.Form.Get("field"))))
	}))
	g := startGateway(t, n, Config{})
	post := func(size int) *http.Response {
		body := "field=" + strings.Repeat("x", size-len("field="))
		req, err := http.NewRequest("POST", "http://"+g.Addr()+"/submit", strings.NewReader(body))
		if err != nil {
			t.Fatalf("NewRequest: %v", err)
		}
		req.Host = "app.example"
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %d bytes: %v", size, err)
		}
		return resp
	}

	resp := post(maxFormBytes)
	if body := readBody(t, resp); resp.StatusCode != 200 || body != strconv.Itoa(maxFormBytes-len("field=")) {
		t.Fatalf("form at the limit: status %d, origin saw a field of %s bytes, want 200 and %d", resp.StatusCode, body, maxFormBytes-len("field="))
	}
	n.ResetLog()

	resp = post(maxFormBytes + 1)
	readBody(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || resp.Header.Get(HeaderGateway) != gatewayBadRequest {
		t.Fatalf("form over the limit: status %d marker %q, want 413 %s", resp.StatusCode, resp.Header.Get(HeaderGateway), gatewayBadRequest)
	}
	if logged := n.FindRequests(o, nil); len(logged) != 0 {
		t.Fatalf("form over the limit reached the origin: %d log entries, the first with a field of %d bytes", len(logged), len(logged[0].Form.Get("field")))
	}
}

func TestAdminEndpoints(t *testing.T) {
	n := web.NewNetwork()
	o := origin.MustParse("http://app.example")
	n.Register(o, echoHandler("app"))
	g := startGateway(t, n, Config{})

	resp := rawGet(t, g, "", "/healthz", nil)
	var health healthzJSON
	if err := json.Unmarshal([]byte(readBody(t, resp)), &health); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	if health.Status != "ok" || health.Origins != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	// Drive some traffic, then read it back from /varz.
	rawGet(t, g, "app.example", "/", nil).Body.Close()
	resp = rawGet(t, g, "", "/varz", nil)
	body := readBody(t, resp)
	for _, want := range []string{
		"escudo_gateway_served_total 1\n",
		`escudo_origin_served_total{origin="http://app.example"} 1` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/varz missing %q:\n%s", want, body)
		}
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

// TestShutdownDeadlineAnswersWaiting pins Shutdown past its deadline:
// while one origin's handler is wedged another origin still answers,
// Shutdown returns at its deadline although the handler is still
// running, and the wedged request finishes normally once released.
func TestShutdownDeadlineAnswersWaiting(t *testing.T) {
	n := web.NewNetwork()
	slow := origin.MustParse("http://slow.example")
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	n.Register(slow, web.HandlerFunc(func(req *web.Request) *web.Response {
		started <- struct{}{}
		<-release
		return web.HTML("done")
	}))
	n.Register(origin.MustParse("http://fast.example"), echoHandler("fast"))
	g := startGateway(t, n, Config{})
	// Cleanups run LIFO: unwedge the handler before g.Close drains the
	// request in flight, even when the test fails early.
	var releaseOnce sync.Once
	releaseFn := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(releaseFn)

	codes := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest("GET", "http://"+g.Addr()+"/", nil)
		req.Host = "slow.example"
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			codes <- -1
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		codes <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("slow handler never started")
	}

	// One wedged origin must not starve the rest: the fast origin still
	// answers while slow.example's handler is wedged.
	resp := rawGet(t, g, "fast.example", "/", nil)
	if body := readBody(t, resp); resp.StatusCode != 200 || !strings.Contains(body, "host=fast") {
		t.Fatalf("fast origin starved: %d %q", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := g.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a wedged handler returned %v, want the deadline", err)
	}
	releaseFn()
	select {
	case code := <-codes:
		if code != 200 {
			t.Fatalf("request in the handler answered %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request in the handler never finished")
	}
}
