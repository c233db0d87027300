package httpd

import (
	"crypto/tls"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/web"
)

// timedFixedSession mirrors the engine's task harness: a trace and a
// stage clock installed for the run, the finished clock folded into
// the set and the slow ring after — the exact wiring engine.Pool uses
// when Config.Stages is set.
func timedFixedSession(t *testing.T, transport web.Transport, bench, forumO origin.Origin, topic int,
	ring *core.DecisionRing, stages *obs.StageSet, slow *obs.SlowRing, phase string) (*browser.Browser, *obs.Trace) {
	t.Helper()
	b := browser.New(transport, browser.Options{Mode: browser.ModeEscudo, DecisionRing: ring})
	tr := obs.NewTrace()
	b.SetTrace(tr)
	clock := obs.NewStageClock()
	b.SetStageClock(clock)
	start := time.Now()
	driveFixedWorkload(t, b, bench, forumO, topic)
	d := time.Since(start)
	b.SetStageClock(nil)
	b.SetTrace(nil)
	stages.Record(clock)
	slow.Record(phase, tr.ID(), d, clock.Snapshot())
	return b, tr
}

// fetchSlowz queries the admin /slowz endpoint and decodes the
// document.
func fetchSlowz(t *testing.T, client *http.Client, scheme, addr, query string) slowzJSON {
	t.Helper()
	resp, err := client.Get(scheme + "://" + addr + "/slowz" + query)
	if err != nil {
		t.Fatalf("GET /slowz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /slowz: status %d", resp.StatusCode)
	}
	var doc slowzJSON
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding /slowz: %v", err)
	}
	return doc
}

// TestStageTimingEquivalence extends the transport-equivalence
// invariant to the timing layer (invariant 9): with a stage clock,
// stage set, and slow ring wired the way the engine wires them, the
// decision sequence is identical to the untimed baseline over the
// in-memory network, a plain HTTP gateway, and a TLS/h2 gateway. On
// every leg the browser-side stages accrue real time, on the gateway
// legs the gateway-side stages do too, and the retained exemplar's
// trace ID resolves against the same gateway's /tracez — the
// "every p99 carries a real trace" contract.
func TestStageTimingEquivalence(t *testing.T) {
	// Untimed baseline: the exact sessions the existing equivalence
	// tests pin.
	baseNet, bBench, bForumO, bTopic := buildSubstrate()
	baseline := runFixedSession(t, baseNet, bBench, bForumO, bTopic)
	baseTally := auditTally(baseline)
	baseLen := baseline.Audit.Len()
	if baseLen == 0 {
		t.Fatal("baseline session recorded no decisions; workload broken")
	}

	assertBrowserStages := func(t *testing.T, leg string, stages *obs.StageSet) {
		t.Helper()
		for _, st := range []obs.Stage{obs.StageBatchAuth, obs.StageScriptVM, obs.StageRender} {
			if got := stages.Hist(st).Snapshot().Total(); got == 0 {
				t.Errorf("%s: stage %s recorded no observations", leg, st)
			}
		}
	}

	// Leg 1: timed over the in-memory web.Network — no gateway, so
	// only the browser-side stages accrue.
	memNet, mBench, mForumO, mTopic := buildSubstrate()
	memStages := obs.NewStageSet(obs.NewRegistry())
	memSlow := obs.NewSlowRing(0)
	memB, _ := timedFixedSession(t, memNet, mBench, mForumO, mTopic,
		core.NewDecisionRing(0), memStages, memSlow, "mem")
	if got := memB.Audit.Len(); got != baseLen {
		t.Fatalf("in-memory timed decision count %d, untimed %d", got, baseLen)
	}
	if got := auditTally(memB); !reflect.DeepEqual(baseTally, got) {
		t.Fatalf("in-memory timed tally diverges:\n  untimed: %v\n  timed:   %v", baseTally, got)
	}
	assertBrowserStages(t, "in-memory", memStages)
	for _, st := range []obs.Stage{obs.StageQueueWait, obs.StageHandler, obs.StageTranslate} {
		if got := memStages.Hist(st).Snapshot().Total(); got != 0 {
			t.Errorf("in-memory: gateway-only stage %s recorded %d observations", st, got)
		}
	}

	// Leg 2: timed over a plain HTTP gateway sharing the stage set and
	// slow ring, exemplar recovered from /slowz and joined via /tracez.
	httpNet, hBench, hForumO, hTopic := buildSubstrate()
	httpRing := core.NewDecisionRing(0)
	httpReg := obs.NewRegistry()
	httpStages := obs.NewStageSet(httpReg)
	httpSlow := obs.NewSlowRing(0)
	hg := startGateway(t, httpNet, Config{Obs: httpReg, Ring: httpRing, Stages: httpStages, Slow: httpSlow})
	hct := NewClientTransport(hg.Addr())
	defer hct.Close()
	httpB, httpTr := timedFixedSession(t, hct, hBench, hForumO, hTopic,
		httpRing, httpStages, httpSlow, "http")
	if got := httpB.Audit.Len(); got != baseLen {
		t.Fatalf("http timed decision count %d, untimed %d", got, baseLen)
	}
	if got := auditTally(httpB); !reflect.DeepEqual(baseTally, got) {
		t.Fatalf("http timed tally diverges:\n  untimed: %v\n  timed:   %v", baseTally, got)
	}
	assertBrowserStages(t, "http", httpStages)
	for _, st := range []obs.Stage{obs.StageHandler, obs.StageTranslate} {
		if got := httpStages.Hist(st).Snapshot().Total(); got == 0 {
			t.Errorf("http: gateway stage %s recorded no observations", st)
		}
	}
	// Nothing records queue_wait since the gateway stopped queueing.
	if got := httpStages.Hist(obs.StageQueueWait).Snapshot().Total(); got != 0 {
		t.Errorf("http: queue_wait recorded %d observations, want 0", got)
	}
	doc := fetchSlowz(t, http.DefaultClient, "http", hg.Addr(), "?phase=http")
	if len(doc.Exemplars) == 0 {
		t.Fatal("/slowz retained no exemplar for the timed session")
	}
	if doc.Exemplars[0].TraceID != httpTr.ID() {
		t.Fatalf("/slowz exemplar trace %s, want %s", doc.Exemplars[0].TraceID, httpTr.ID())
	}
	// The exemplar's trace must resolve on the same gateway's /tracez.
	tdoc := fetchTracez(t, http.DefaultClient, "http", hg.Addr(), "?trace="+doc.Exemplars[0].TraceID)
	if tdoc.Matched == 0 {
		t.Fatalf("/slowz exemplar trace %s resolves to no /tracez events", doc.Exemplars[0].TraceID)
	}
	// The gateway's own per-request exemplars land under the "gateway"
	// phase beside the session-level one.
	gdoc := fetchSlowz(t, http.DefaultClient, "http", hg.Addr(), "?phase=gateway")
	if len(gdoc.Exemplars) == 0 {
		t.Fatal("/slowz retained no gateway-phase exemplars for traced requests")
	}

	// Leg 3: timed over a TLS gateway negotiating h2.
	tlsNet, tBench, tForumO, tTopic := buildSubstrate()
	tlsRing := core.NewDecisionRing(0)
	tlsReg := obs.NewRegistry()
	tlsStages := obs.NewStageSet(tlsReg)
	tlsSlow := obs.NewSlowRing(0)
	tg, ca := startGatewayTLS(t, tlsNet, Config{Obs: tlsReg, Ring: tlsRing, Stages: tlsStages, Slow: tlsSlow})
	tct := NewClientTransportTLS(tg.Addr(), ca.Pool())
	defer tct.Close()
	tlsB, tlsTr := timedFixedSession(t, tct, tBench, tForumO, tTopic,
		tlsRing, tlsStages, tlsSlow, "tls")
	if st := tct.Stats(); st.Proto() != "h2" {
		t.Fatalf("TLS leg did not negotiate h2 (proto %q)", st.Proto())
	}
	if got := tlsB.Audit.Len(); got != baseLen {
		t.Fatalf("tls/h2 timed decision count %d, untimed %d", got, baseLen)
	}
	if got := auditTally(tlsB); !reflect.DeepEqual(baseTally, got) {
		t.Fatalf("tls/h2 timed tally diverges:\n  untimed: %v\n  timed:   %v", baseTally, got)
	}
	assertBrowserStages(t, "tls/h2", tlsStages)
	tlsClient := &http.Client{Transport: &http.Transport{TLSClientConfig: &tls.Config{RootCAs: ca.Pool()}}}
	sdoc := fetchSlowz(t, tlsClient, "https", tg.Addr(), "?phase=tls")
	if len(sdoc.Exemplars) == 0 || sdoc.Exemplars[0].TraceID != tlsTr.ID() {
		t.Fatalf("tls/h2 /slowz exemplars %+v, want trace %s", sdoc.Exemplars, tlsTr.ID())
	}
}

// TestSlowzFiltersAndGating pins /slowz's admin isolation (a mounted
// origin's Host never reaches it; deployments without a slow ring
// 404) and its phase filter — the same surface contract /tracez pins
// for the decision ring.
func TestSlowzFiltersAndGating(t *testing.T) {
	n := web.NewNetwork()
	o := origin.MustParse("http://slowz-origin.example")
	n.Register(o, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML("<html><body>ok</body></html>")
	}))

	// No slow ring wired: admin /slowz is 404, like /tracez without a
	// decision ring.
	bare := startGateway(t, n, Config{})
	resp := rawGet(t, bare, "", "/slowz", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/slowz without a ring: status %d, want 404", resp.StatusCode)
	}

	slow := obs.NewSlowRing(2)
	var spans [obs.NumStages]int64
	spans[obs.StageHandler] = int64(3 * time.Millisecond)
	slow.Record("alpha", "t-slow-1", 5*time.Millisecond, spans)
	slow.Record("alpha", "t-slow-2", 9*time.Millisecond, spans)
	slow.Record("beta", "t-slow-3", 2*time.Millisecond, [obs.NumStages]int64{})
	g := startGateway(t, n, Config{Slow: slow})

	doc := fetchSlowz(t, http.DefaultClient, "http", g.Addr(), "")
	if len(doc.Phases) != 2 || doc.Phases[0] != "alpha" || doc.Phases[1] != "beta" {
		t.Fatalf("/slowz phases %v, want [alpha beta]", doc.Phases)
	}
	if doc.Size != 2 || len(doc.Exemplars) != 3 {
		t.Fatalf("/slowz size %d exemplars %d, want 2 and 3", doc.Size, len(doc.Exemplars))
	}
	// Slowest first across phases.
	if doc.Exemplars[0].TraceID != "t-slow-2" {
		t.Fatalf("/slowz not slowest-first: %+v", doc.Exemplars)
	}
	if got := doc.Exemplars[0].Stages["handler"]; got != int64(3*time.Millisecond) {
		t.Fatalf("/slowz exemplar stage breakdown %v", doc.Exemplars[0].Stages)
	}

	doc = fetchSlowz(t, http.DefaultClient, "http", g.Addr(), "?phase=beta")
	if len(doc.Exemplars) != 1 || doc.Exemplars[0].TraceID != "t-slow-3" {
		t.Fatalf("/slowz phase filter: %+v", doc.Exemplars)
	}
	doc = fetchSlowz(t, http.DefaultClient, "http", g.Addr(), "?phase=nope")
	if len(doc.Exemplars) != 0 {
		t.Fatalf("/slowz unknown phase returned exemplars: %+v", doc.Exemplars)
	}

	// A web origin's Host header must never expose the admin surface:
	// the path routes to the origin's handler instead.
	resp = rawGet(t, g, "slowz-origin.example", "/slowz", nil)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || body != "<html><body>ok</body></html>" {
		t.Fatalf("/slowz on an origin host: status %d body %q", resp.StatusCode, body)
	}
}

// TestVarzStageAndOriginLatency pins the new /varz families: the
// per-origin latency summary every mounted origin gets for free, and
// the per-stage summaries when a StageSet is wired.
func TestVarzStageAndOriginLatency(t *testing.T) {
	n := web.NewNetwork()
	o := origin.MustParse("http://latency-origin.example")
	n.Register(o, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML("<html><body>ok</body></html>")
	}))
	reg := obs.NewRegistry()
	g := startGateway(t, n, Config{Obs: reg, Stages: obs.NewStageSet(reg)})

	resp := rawGet(t, g, "latency-origin.example", "/", nil)
	resp.Body.Close()

	resp = rawGet(t, g, "", "/varz", nil)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/varz: status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"# TYPE escudo_origin_latency_seconds summary",
		`escudo_origin_latency_seconds{origin="http://latency-origin.example",quantile="0.99"}`,
		`escudo_origin_latency_seconds_count{origin="http://latency-origin.example"} 1`,
		"# TYPE escudo_stage_seconds summary",
		`escudo_stage_seconds_count{stage="handler"} 1`,
		`escudo_stage_seconds_count{stage="translate"} 1`,
	} {
		if !contains(body, want) {
			t.Fatalf("/varz missing %q:\n%s", want, body)
		}
	}
}

// bodyWriteProbe is a ResponseWriter whose first body write checks
// that the gateway's translate stage already holds its observation.
type bodyWriteProbe struct {
	*httptest.ResponseRecorder
	t      *testing.T
	stages *obs.StageSet
	probed bool
}

func (w *bodyWriteProbe) probe() {
	if w.probed {
		return
	}
	w.probed = true
	if got := w.stages.Hist(obs.StageTranslate).Snapshot().Total(); got != 1 {
		w.t.Errorf("translate holds %d observations at the first body write, want 1", got)
	}
}

func (w *bodyWriteProbe) Write(b []byte) (int, error) {
	w.probe()
	return w.ResponseRecorder.Write(b)
}

func (w *bodyWriteProbe) WriteString(s string) (int, error) {
	w.probe()
	return w.ResponseRecorder.WriteString(s)
}

// TestTranslateStageEndsBeforeBody: the gateway's translate stage
// covers header translation but not the body write, which is the
// wire's time.
func TestTranslateStageEndsBeforeBody(t *testing.T) {
	net, bench, _, _ := buildSubstrate()
	stages := obs.NewStageSet(obs.NewRegistry())
	g, err := New(Config{Inner: net, Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Mount(bench); err != nil {
		t.Fatal(err)
	}
	w := &bodyWriteProbe{ResponseRecorder: httptest.NewRecorder(), t: t, stages: stages}
	g.ServeHTTP(w, httptest.NewRequest("GET", bench.URL("/s1"), nil))
	if w.Code != http.StatusOK || !w.probed {
		t.Fatalf("status %d, body written %v: want a 200 with a body", w.Code, w.probed)
	}
	if got := stages.Hist(obs.StageTranslate).Snapshot().Total(); got != 1 {
		t.Errorf("translate recorded %d observations, want 1", got)
	}
}
