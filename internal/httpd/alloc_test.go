package httpd

import (
	"net/http"
	"net/url"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps/phpbb"
	"repro/internal/nonce"
	"repro/internal/origin"
	"repro/internal/raceflag"
	"repro/internal/web"
)

// TestTranslateResponseAllocs bounds the client-side header-set
// reconstruction: the keep set is pooled, the X-Escudo-Orig-Keys list
// is cut in place, and value slices are adopted from the net/http
// header map — so a round trip's translation costs only the response
// struct and its header map.
func TestTranslateResponseAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	hresp := &http.Response{
		StatusCode: 200,
		Header: http.Header{
			"Content-Type":   {"text/html"},
			"Cache-Control":  {"immutable"},
			"Set-Cookie":     {"sess=1; Path=/", "prefs=dark"},
			"Date":           {"Thu, 01 Jan 2026 00:00:00 GMT"},
			"Content-Length": {"64"},
			HeaderGateway:    {"1"},
			HeaderOrigKeys:   {"Content-Type,Cache-Control,Set-Cookie"},
		},
	}
	body := "<html><body>fixture</body></html>"
	translateResponse(hresp, body) // warm the keep-set pool

	allocs := testing.AllocsPerRun(1000, func() {
		translateResponse(hresp, body)
	})
	// One web.Response struct plus one header map; anything above that
	// means the keep-set pooling or slice adoption regressed.
	if allocs > 3 {
		t.Fatalf("translateResponse allocates %.1f times per response, want <= 3", allocs)
	}

	// The diet must not change semantics: plumbing headers are stripped,
	// origin headers (multi-valued included) survive.
	resp := translateResponse(hresp, body)
	if resp.Header.Get("Date") != "" || resp.Header.Get(HeaderGateway) != "" {
		t.Fatalf("plumbing headers leaked through: %+v", resp.Header)
	}
	if got := resp.Header.Values("Set-Cookie"); len(got) != 2 {
		t.Fatalf("Set-Cookie values = %v, want 2 entries", got)
	}
	if resp.Header.Get("Content-Type") != "text/html" {
		t.Fatalf("Content-Type lost: %+v", resp.Header)
	}
}

// headerSink is a ResponseWriter whose header map outlives each
// response, so an allocation count sees only writeHeader's own work.
type headerSink struct {
	h      http.Header
	status int
}

func (s *headerSink) Header() http.Header         { return s.h }
func (s *headerSink) Write(b []byte) (int, error) { return len(b), nil }
func (s *headerSink) WriteHeader(status int)      { s.status = status }

// TestWriteHeaderAllocs bounds the gateway's response-header copy on a
// phpBB login response (two Set-Cookie values, two cookie labels, the
// API and ring headers, the redirect's Location): the value slices are
// handed over, so only the X-Escudo-Orig-Keys list costs allocations
// (its key slice, the joined string and Set's one-value slice).
func TestWriteHeaderAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	o := origin.MustParse("http://forum.example")
	app := phpbb.New(phpbb.Config{Origin: o, Escudo: true, Nonces: nonce.NewSeqSource(1)})
	app.AddUser("alice", "pw")
	req := web.NewRequest("POST", o.URL("/login"))
	req.Form = url.Values{"username": {"alice"}, "password": {"pw"}}
	resp := app.Serve(req)
	if len(resp.Header.Values("Set-Cookie")) != 2 {
		t.Fatalf("login response header %v, want two Set-Cookie values", resp.Header)
	}

	sink := &headerSink{h: http.Header{}}
	allocs := testing.AllocsPerRun(100, func() {
		clear(sink.h)
		writeHeader(sink, resp)
	})
	if allocs > 3 {
		t.Errorf("writeHeader allocates %.0f times per phpBB response, want <= 3", allocs)
	}

	// The wire header is what adding every value one at a time built.
	want := http.Header{}
	for k, vs := range resp.Header {
		for _, v := range vs {
			want.Add(k, v)
		}
	}
	want.Set(HeaderOrigKeys, origKeysValue(resp.Header))
	if sink.status != resp.Status || len(sink.h) != len(want) {
		t.Fatalf("status %d header %v, want %d %v", sink.status, sink.h, resp.Status, want)
	}
	for k, vs := range want {
		if !slices.Equal(sink.h[k], vs) {
			t.Errorf("%s = %q, want %q", k, sink.h[k], vs)
		}
	}
}

// TestPprofAdminGating pins the profiling surface's exposure: off by
// default (404 like any unknown admin path), and only on the admin
// host when Config.EnablePprof is set — a web origin's Host header
// must never reach it.
func TestPprofAdminGating(t *testing.T) {
	n := web.NewNetwork()
	o := origin.MustParse("http://pprof-origin.example")
	n.Register(o, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML("<html><body>ok</body></html>")
	}))

	off := startGateway(t, n, Config{})
	resp := rawGet(t, off, "", "/debug/pprof/", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without EnablePprof: status %d, want 404", resp.StatusCode)
	}

	on := startGateway(t, n, Config{EnablePprof: true})
	resp = rawGet(t, on, "", "/debug/pprof/", nil)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status %d body %q", resp.StatusCode, body[:min(len(body), 80)])
	}
	resp = rawGet(t, on, "", "/debug/pprof/cmdline", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d, want 200", resp.StatusCode)
	}

	// A mounted origin's Host must not expose the profiler even when
	// enabled: the path routes to the origin's handler instead.
	resp = rawGet(t, on, "pprof-origin.example", "/debug/pprof/", nil)
	originBody := readBody(t, resp)
	if strings.Contains(originBody, "goroutine profile") {
		t.Fatalf("pprof leaked onto a web origin's host: %q", originBody)
	}
}
