package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestServeEmitsBenchJSON runs the full driver at the acceptance
// configuration — 8 concurrent sessions, all Figure-4 scenarios, the
// phpBB workload, the §6.4 attack corpus — and checks the emitted
// BENCH_engine.json: clean run, >50% cache hit rate on the phpBB
// phase, every attack neutralized under ESCUDO. Under `go test -race`
// this doubles as the pool-level race check.
func TestServeEmitsBenchJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_engine.json")
	err := run([]string{"-sessions", "8", "-iters", "2", "-phpbb-iters", "6", "-out", out})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read output: %v", err)
	}
	var report benchJSON
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("parse output: %v", err)
	}
	if report.Sessions != 8 {
		t.Fatalf("sessions = %d, want 8", report.Sessions)
	}
	byName := map[string]phaseJSON{}
	for _, ph := range report.Phases {
		byName[ph.Name] = ph
		if ph.Errors != 0 {
			t.Errorf("phase %s had %d errors", ph.Name, ph.Errors)
		}
		if ph.Tasks == 0 {
			t.Errorf("phase %s ran no tasks", ph.Name)
		}
		if ph.Decisions == 0 {
			t.Errorf("phase %s recorded no decisions", ph.Name)
		}
	}
	for _, want := range []string{"figure4", "phpbb", "mixed", "attacks"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("missing phase %q in %v", want, report.Phases)
		}
	}
	bb := byName["phpbb"]
	if bb.Cache == nil {
		t.Fatal("phpbb phase has no cache stats")
	}
	if bb.Cache.HitRate <= 0.5 {
		t.Fatalf("phpbb cache hit rate %.3f, want > 0.5", bb.Cache.HitRate)
	}
	if bb.Batch == nil {
		t.Fatal("phpbb phase has no batch stats")
	}
	if bb.Batch.DistinctDecisions >= bb.Batch.NodesAuthorized {
		t.Fatalf("phpbb batch: distinct %d >= nodes %d, want deduplication",
			bb.Batch.DistinctDecisions, bb.Batch.NodesAuthorized)
	}
	if mx := byName["mixed"]; mx.Batch == nil || mx.Batch.DistinctDecisions >= mx.Batch.NodesAuthorized {
		t.Errorf("mixed phase batch stats missing or undeduplicated: %+v", mx.Batch)
	}
	// The batch pins that are deterministic at this configuration:
	// figure4's node and distinct counts (2 iterations × 835 nodes →
	// 25 distinct), the phpbb and mixed distinct counts, and the attack
	// replay's decisions. The phpbb and mixed node totals are not
	// pinned: they depend on how the eight sessions' replies to the one
	// shared topic interleave.
	if f4 := byName["figure4"].Batch; f4 == nil || f4.NodesAuthorized != 1670 || f4.DistinctDecisions != 50 {
		t.Errorf("figure4 batch %+v, want 1670 nodes → 50 distinct", f4)
	}
	if got := bb.Batch.DistinctDecisions; got != 416 {
		t.Errorf("phpbb distinct decisions %d, want 416", got)
	}
	if mx := byName["mixed"].Batch; mx == nil || mx.DistinctDecisions != 512 {
		t.Errorf("mixed batch %+v, want 512 distinct", mx)
	}
	if got := byName["attacks"].Decisions; got != 42 {
		t.Errorf("attacks phase decisions %d, want 42", got)
	}
	atk := byName["attacks"].Attacks
	if atk == nil {
		t.Fatal("attacks phase has no attack stats")
	}
	if atk.Neutralized != atk.Total || atk.Succeeded != 0 {
		t.Fatalf("ESCUDO neutralized %d/%d (succeeded %d), want all",
			atk.Neutralized, atk.Total, atk.Succeeded)
	}
}

// TestServeSOPBaseline replays the corpus under the legacy monitor:
// attacks must succeed there (the paper's Figure-5 contrast), which
// guards against the cache accidentally hardening SOP mode.
func TestServeSOPBaseline(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_engine.json")
	err := run([]string{"-sessions", "4", "-iters", "1", "-phpbb-iters", "2",
		"-mode", "sop", "-out", out})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report benchJSON
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	for _, ph := range report.Phases {
		if ph.Attacks != nil && ph.Attacks.Succeeded == 0 {
			t.Fatal("no attack succeeded under SOP; the baseline lost its teeth")
		}
	}
}

// TestServeRejectsBadMode checks that the driver refuses an unknown
// protection mode and an open loop with no gateway address to run on.
func TestServeRejectsBadMode(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "bogus"},
		{"-openloop", "rate=10,duration=1s"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}

// TestServeHTTPSection runs the driver with the gateway enabled and
// checks the http section of the report: the loopback phases really
// went over sockets (requests counted, latency measured), and the
// attack corpus over sockets is fully neutralized with verdicts
// identical to in-memory.
func TestServeHTTPSection(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_engine.json")
	err := run([]string{"-sessions", "4", "-iters", "2", "-phpbb-iters", "2",
		"-mixed-iters", "2", "-http", "127.0.0.1:0", "-out", out})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report benchJSON
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	h := report.HTTP
	if h == nil {
		t.Fatal("report has no http section")
	}
	if h.Addr == "" {
		t.Fatal("http section has no gateway address")
	}
	byName := map[string]phaseJSON{}
	for _, ph := range h.Phases {
		byName[ph.Name] = ph
		if ph.Errors != 0 {
			t.Errorf("phase %s had %d errors", ph.Name, ph.Errors)
		}
	}
	fig, ok := byName["http-figure4"]
	if !ok {
		t.Fatalf("missing http-figure4 phase in %+v", h.Phases)
	}
	if fig.Requests == 0 || fig.ReqsPerSec <= 0 || fig.P50Ms <= 0 {
		t.Fatalf("http-figure4 did not measure socket traffic: %+v", fig)
	}
	if mx, ok := byName["http-mixed"]; !ok || mx.Requests == 0 {
		t.Fatalf("http-mixed missing or inert: %+v", mx)
	}
	if h.Attacks == nil {
		t.Fatal("http section has no attack stats")
	}
	if atk, ok := byName["http-attacks"]; !ok || atk.Requests == 0 {
		t.Fatalf("http-attacks phase missing or counted no per-env gateway traffic: %+v", atk)
	}
	if h.Attacks.Neutralized != h.Attacks.Total || h.Attacks.Succeeded != 0 {
		t.Fatalf("over sockets: neutralized %d/%d (succeeded %d), want all",
			h.Attacks.Neutralized, h.Attacks.Total, h.Attacks.Succeeded)
	}
	if h.AttacksMatchMemory == nil || !*h.AttacksMatchMemory {
		t.Fatal("attack verdicts and request logs over sockets not confirmed against in-memory")
	}
	if h.Gateway.Served == 0 {
		t.Fatalf("gateway served nothing: %+v", h.Gateway)
	}
}

// TestServeHTTPSectionTLS runs the single-process driver with the
// gateway in TLS mode: the http section must record tls=true, socket
// traffic over https, and the client connection accounting.
func TestServeHTTPSectionTLS(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_engine.json")
	err := run([]string{"-sessions", "2", "-iters", "1", "-phpbb-iters", "1",
		"-mixed-iters", "0", "-attacks=false", "-http", "127.0.0.1:0", "-tls", "-out", out})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report benchJSON
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	h := report.HTTP
	if h == nil || !h.TLS {
		t.Fatalf("http section missing or not TLS: %+v", h)
	}
	found := false
	for _, ph := range h.Phases {
		if ph.Name == "http-figure4" {
			found = true
			if ph.Requests == 0 || ph.Errors != 0 {
				t.Fatalf("http-figure4 over TLS inert: %+v", ph)
			}
		}
	}
	if !found {
		t.Fatal("no http-figure4 phase")
	}
	if h.Client == nil || h.Client.Requests == 0 || h.Client.ReusedConns == 0 {
		t.Fatalf("client accounting missing: %+v", h.Client)
	}
}

// TestServeControlSection runs the control-plane section at test
// scale: the substrate's origins on their own gateway, one live policy
// flip mid-load. No page may mix generations, the storm must straddle
// the flip, /policyz must serve every mounted document at the flip's
// generation, and the §6.4 corpus must stay 18/18 on both sides of the
// flip.
func TestServeControlSection(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_engine.json")
	err := run([]string{"-sessions", "2", "-iters", "1", "-phpbb-iters", "1", "-mixed-iters", "1",
		"-control", "-out", out})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report benchJSON
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	c := report.Control
	if c == nil {
		t.Fatal("report has no control section")
	}
	if c.GenerationsMixed != 0 || c.GenerationsSeen != 2 {
		t.Fatalf("generations: %d mixed, %d seen; want 0 mixed, 2 seen", c.GenerationsMixed, c.GenerationsSeen)
	}
	if report.Policy == nil {
		t.Fatal("report has no policy section")
	}
	if c.PolicyzOrigins != len(report.Policy.Origins) {
		t.Fatalf("policyz served %d documents, want the %d mounted", c.PolicyzOrigins, len(report.Policy.Origins))
	}
	s := c.Storm
	if s == nil {
		t.Fatal("control section has no storm")
	}
	if s.FlipGeneration != c.Generation {
		t.Fatalf("flip generation %d, fleet generation %d", s.FlipGeneration, c.Generation)
	}
	for name, a := range map[string]*attacksJSON{"pre-flip": s.AttacksPreFlip, "post-flip": s.AttacksPostFlip} {
		if a == nil || a.Total != 18 || a.Neutralized != 18 {
			t.Fatalf("%s attacks %+v, want 18/18 neutralized", name, a)
		}
	}
}

// TestServeOpenLoopSection runs the open-loop SLO section at test
// scale through the loopback gateway: the open-loop run must record no
// task errors, the churn bookkeeping must balance, and every slow
// exemplar must carry the trace ID that joins it to /tracez.
func TestServeOpenLoopSection(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_engine.json")
	err := run([]string{"-sessions", "2", "-iters", "1", "-phpbb-iters", "1", "-mixed-iters", "1",
		"-attacks=false", "-http", "127.0.0.1:0",
		"-openloop", "rate=100,duration=2s,churn=10", "-out", out})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report benchJSON
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	s := report.SLO
	if s == nil {
		t.Fatal("report has no slo section")
	}
	if s.Errors != 0 || s.Completed == 0 {
		t.Fatalf("slo: %d errors, %d completed", s.Errors, s.Completed)
	}
	if s.Logins != s.Logouts+s.LiveSessions {
		t.Fatalf("churn: %d logins != %d logouts + %d live", s.Logins, s.Logouts, s.LiveSessions)
	}
	if len(s.Exemplars) == 0 {
		t.Fatal("slo section retained no exemplars")
	}
	for _, ex := range s.Exemplars {
		if ex.TraceID == "" {
			t.Fatalf("exemplar without a trace ID: %+v", ex)
		}
	}
}
