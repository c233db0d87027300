package httpd

import (
	"crypto/tls"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/web"
)

// tracedFixedSession is runFixedSession with provenance wired the way
// the engine wires it: a decision ring shared with the deployment and
// one task trace installed for the run.
func tracedFixedSession(t *testing.T, transport web.Transport, bench, forumO origin.Origin, topic int, ring *core.DecisionRing) (*browser.Browser, *obs.Trace) {
	t.Helper()
	b := browser.New(transport, browser.Options{Mode: browser.ModeEscudo, DecisionRing: ring})
	tr := obs.NewTrace()
	b.SetTrace(tr)
	driveFixedWorkload(t, b, bench, forumO, topic)
	b.SetTrace(nil)
	return b, tr
}

// fetchTracez queries the admin /tracez endpoint over the given
// scheme and decodes the document.
func fetchTracez(t *testing.T, client *http.Client, scheme, addr, query string) tracezJSON {
	t.Helper()
	resp, err := client.Get(scheme + "://" + addr + "/tracez" + query)
	if err != nil {
		t.Fatalf("GET /tracez: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /tracez: status %d", resp.StatusCode)
	}
	var doc tracezJSON
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding /tracez: %v", err)
	}
	return doc
}

// assertTraceLinks checks the PR's provenance invariant on one leg:
// the server-side request log carries the trace ID, and the same ID
// stamps at least one audited decision in the browser.
func assertTraceLinks(t *testing.T, leg string, n *web.Network, b *browser.Browser, tr *obs.Trace) {
	t.Helper()
	logged := 0
	for _, e := range n.Log() {
		if e.TraceID == tr.ID() {
			logged++
		}
	}
	if logged == 0 {
		t.Fatalf("%s: no server-logged request carries trace %s", leg, tr.ID())
	}
	stamped := 0
	for _, d := range b.Audit.All() {
		if d.TraceID == tr.ID() {
			stamped++
		}
	}
	if stamped == 0 {
		t.Fatalf("%s: no audited decision carries trace %s", leg, tr.ID())
	}
	t.Logf("%s: trace %s links %d logged requests to %d audited decisions", leg, tr.ID(), logged, stamped)
}

// TestTraceProvenanceEquivalence extends the transport-equivalence
// invariant to the provenance layer: the traced pipeline produces
// decision sequences identical to the untraced one over the in-memory
// network, a plain HTTP gateway, and a TLS/h2 gateway — and on every
// leg one trace ID links the server-logged requests to the audited
// decisions. On the gateway legs the trace is recovered from the
// admin /tracez endpoint, not from process memory.
func TestTraceProvenanceEquivalence(t *testing.T) {
	// Untraced baseline: the exact sessions the existing equivalence
	// tests pin.
	baseNet, bBench, bForumO, bTopic := buildSubstrate()
	baseline := runFixedSession(t, baseNet, bBench, bForumO, bTopic)
	baseTally := auditTally(baseline)
	baseLen := baseline.Audit.Len()
	if baseLen == 0 {
		t.Fatal("baseline session recorded no decisions; workload broken")
	}

	// Leg 1: traced over the in-memory web.Network.
	memNet, mBench, mForumO, mTopic := buildSubstrate()
	memRing := core.NewDecisionRing(0)
	memB, memTr := tracedFixedSession(t, memNet, mBench, mForumO, mTopic, memRing)
	if got := memB.Audit.Len(); got != baseLen {
		t.Fatalf("in-memory traced decision count %d, untraced %d", got, baseLen)
	}
	if got := auditTally(memB); !reflect.DeepEqual(baseTally, got) {
		t.Fatalf("in-memory traced tally diverges:\n  untraced: %v\n  traced:   %v", baseTally, got)
	}
	assertTraceLinks(t, "in-memory", memNet, memB, memTr)
	if got := len(memRing.Snapshot(obs.RingFilter{TraceID: memTr.ID(), Ring: -1})); got == 0 {
		t.Fatal("in-memory: decision ring holds no events for the trace")
	}

	// Leg 2: traced over a plain HTTP gateway, trace recovered from
	// /tracez on the admin host.
	httpNet, hBench, hForumO, hTopic := buildSubstrate()
	httpRing := core.NewDecisionRing(0)
	hg := startGateway(t, httpNet, Config{Ring: httpRing})
	hct := NewClientTransport(hg.Addr())
	defer hct.Close()
	httpB, httpTr := tracedFixedSession(t, hct, hBench, hForumO, hTopic, httpRing)
	if got := httpB.Audit.Len(); got != baseLen {
		t.Fatalf("http traced decision count %d, untraced %d", got, baseLen)
	}
	if got := auditTally(httpB); !reflect.DeepEqual(baseTally, got) {
		t.Fatalf("http traced tally diverges:\n  untraced: %v\n  traced:   %v", baseTally, got)
	}
	assertTraceLinks(t, "http", httpNet, httpB, httpTr)
	doc := fetchTracez(t, http.DefaultClient, "http", hg.Addr(), "?trace="+httpTr.ID())
	if doc.Matched == 0 {
		t.Fatalf("/tracez recovered no events for trace %s (total %d)", httpTr.ID(), doc.Total)
	}
	for _, e := range doc.Events {
		if e.TraceID != httpTr.ID() {
			t.Fatalf("/tracez filter leaked foreign event: %+v", e)
		}
	}

	// Leg 3: traced over a TLS gateway negotiating h2.
	tlsNet, tBench, tForumO, tTopic := buildSubstrate()
	tlsRing := core.NewDecisionRing(0)
	tg, ca := startGatewayTLS(t, tlsNet, Config{Ring: tlsRing})
	tct := NewClientTransportTLS(tg.Addr(), ca.Pool())
	defer tct.Close()
	tlsB, tlsTr := tracedFixedSession(t, tct, tBench, tForumO, tTopic, tlsRing)
	if st := tct.Stats(); st.Proto() != "h2" {
		t.Fatalf("TLS leg did not negotiate h2 (proto %q)", st.Proto())
	}
	if got := tlsB.Audit.Len(); got != baseLen {
		t.Fatalf("tls/h2 traced decision count %d, untraced %d", got, baseLen)
	}
	if got := auditTally(tlsB); !reflect.DeepEqual(baseTally, got) {
		t.Fatalf("tls/h2 traced tally diverges:\n  untraced: %v\n  traced:   %v", baseTally, got)
	}
	assertTraceLinks(t, "tls/h2", tlsNet, tlsB, tlsTr)
	tlsClient := &http.Client{Transport: &http.Transport{TLSClientConfig: &tls.Config{RootCAs: ca.Pool()}}}
	tdoc := fetchTracez(t, tlsClient, "https", tg.Addr(), "?trace="+tlsTr.ID())
	if tdoc.Matched == 0 {
		t.Fatalf("tls/h2 /tracez recovered no events for trace %s (total %d)", tlsTr.ID(), tdoc.Total)
	}
}

// TestTracezFiltersAndGating pins /tracez's admin isolation (a mounted
// origin's Host never reaches it; deployments without a ring 404) and
// its filter surface.
func TestTracezFiltersAndGating(t *testing.T) {
	n := web.NewNetwork()
	o := origin.MustParse("http://tracez-origin.example")
	n.Register(o, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML("<html><body>ok</body></html>")
	}))

	// No ring wired: admin /tracez is 404, like pprof when disabled.
	bare := startGateway(t, n, Config{})
	resp := rawGet(t, bare, "", "/tracez", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/tracez without a ring: status %d, want 404", resp.StatusCode)
	}

	ring := core.NewDecisionRing(16)
	ring.Record(core.Decision{TraceID: "t-1", Object: core.Context{Origin: o, Ring: 1}, Allowed: true, Rule: core.RuleAllowed})
	ring.Record(core.Decision{TraceID: "t-2", Object: core.Context{Origin: o, Ring: 3}, Allowed: false, Rule: core.RuleRing})
	g := startGateway(t, n, Config{Ring: ring})

	doc := fetchTracez(t, http.DefaultClient, "http", g.Addr(), "")
	if doc.Total != 2 || doc.Matched != 2 {
		t.Fatalf("unfiltered /tracez: %+v", doc)
	}
	doc = fetchTracez(t, http.DefaultClient, "http", g.Addr(), "?verdict=deny&ring=3")
	if doc.Matched != 1 || doc.Events[0].TraceID != "t-2" {
		t.Fatalf("filtered /tracez: %+v", doc)
	}
	resp = rawGet(t, g, "", "/tracez?ring=banana", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/tracez with bad ring: status %d, want 400", resp.StatusCode)
	}

	// A web origin's Host header must never expose the admin surface:
	// the path routes to the origin's handler instead.
	resp = rawGet(t, g, "tracez-origin.example", "/tracez", nil)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || body != "<html><body>ok</body></html>" {
		t.Fatalf("/tracez on an origin host: status %d body %q", resp.StatusCode, body)
	}
}

// TestVarzExposition pins the admin /varz surface: Prometheus text
// exposition of the gateway's registry, reachable only on the admin
// host.
func TestVarzExposition(t *testing.T) {
	n := web.NewNetwork()
	o := origin.MustParse("http://varz-origin.example")
	n.Register(o, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML("<html><body>ok</body></html>")
	}))
	g := startGateway(t, n, Config{})

	// Drive one origin request so the counters move.
	resp := rawGet(t, g, "varz-origin.example", "/", nil)
	resp.Body.Close()

	resp = rawGet(t, g, "", "/varz", nil)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/varz: status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"# TYPE escudo_gateway_served_total counter",
		"escudo_gateway_served_total 1",
		`escudo_origin_served_total{origin="http://varz-origin.example"} 1`,
		"# TYPE escudo_policy_generation gauge",
	} {
		if !contains(body, want) {
			t.Fatalf("/varz missing %q:\n%s", want, body)
		}
	}

	// The origin's Host must not expose the registry.
	resp = rawGet(t, g, "varz-origin.example", "/varz", nil)
	body = readBody(t, resp)
	if contains(body, "escudo_gateway_served_total") {
		t.Fatalf("/varz leaked onto a web origin's host: %q", body)
	}
}

func contains(s, sub string) bool {
	return len(sub) == 0 || len(s) >= len(sub) && (s == sub || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
