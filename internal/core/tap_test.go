package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/origin"
)

// TestWithGenStampsScalarAndBatch pins the tap's generation stamp:
// every decision — scalar or batched — carries the pinned generation
// and page identity, and nothing else about the decision changes.
func TestWithGenStampsScalarAndBatch(t *testing.T) {
	inner := &ERM{}
	m := WithTap(Tap{Gen: 7, Page: 42})(inner)
	p := Principal(batchSite, 1, "script")
	o := Object(batchSite, 2, UniformACL(2), "node")

	d := m.Authorize(p, OpRead, o)
	want := inner.Authorize(p, OpRead, o)
	if d.Allowed != want.Allowed || d.Rule != want.Rule {
		t.Fatalf("stamping changed the verdict: %v/%v vs %v/%v", d.Allowed, d.Rule, want.Allowed, want.Rule)
	}
	if d.PolicyGen != 7 || d.PageID != 42 {
		t.Fatalf("scalar decision stamped %d/%d, want 7/42", d.PolicyGen, d.PageID)
	}

	ba, ok := m.(BatchAuthorizer)
	if !ok {
		t.Fatal("the tap lost the batched path")
	}
	out := ba.AuthorizeBatch(p, OpRead, batchObjects(20, 4))
	for i, d := range out {
		if d.PolicyGen != 7 || d.PageID != 42 {
			t.Fatalf("batch decision %d stamped %d/%d, want 7/42", i, d.PolicyGen, d.PageID)
		}
	}
}

// TestWithGenPreservesBatchDedup pins the batch counters across the
// tap: stamping happens after the inner batched path runs, so the
// distinct-decision dedup the cache relies on is untouched — the
// equivalence invariant's fixed batch counts survive a mounted
// control plane.
func TestWithGenPreservesBatchDedup(t *testing.T) {
	cache := NewDecisionCache()
	m := Compose(&ERM{}, WithCache(cache), WithTap(Tap{Gen: 3, Page: 9}))
	p := Principal(batchSite, 1, "script")
	objs := batchObjects(60, 3)
	m.(BatchAuthorizer).AuthorizeBatch(p, OpRead, objs)
	st := cache.Stats()
	if got := st.Hits + st.Misses; got != 3 {
		t.Fatalf("cache probes through the tap = %d, want 3 (one per class)", got)
	}
}

// TestWithGenZeroIsPassThrough pins the unwired default: a zero tap
// composes to the identity, so a stack with nothing to observe runs
// exactly its policy layers.
func TestWithGenZeroIsPassThrough(t *testing.T) {
	inner := &ERM{}
	if m := WithTap(Tap{})(inner); m != Monitor(inner) {
		t.Fatal("a zero Tap built a layer instead of passing through")
	}
}

// TestGenerationMixAudit pins the invariant's auditor: pages whose
// decisions all share one generation are clean; a page that records
// two generations is flagged as mixed.
func TestGenerationMixAudit(t *testing.T) {
	log := &AuditLog{}
	p := Principal(batchSite, 1, "script")
	o := Object(batchSite, 2, UniformACL(2), "node")

	// The production order: one tap outermost, so the log records
	// decisions already stamped with the pinned generation.
	stack := func(gen, page uint64) Monitor {
		return Compose(&ERM{}, WithTap(Tap{Log: log, Gen: gen, Page: page}))
	}

	// Page 1 decides twice under generation 4; page 2 once under 5.
	stack(4, 1).Authorize(p, OpRead, o)
	stack(4, 1).Authorize(p, OpWrite, o)
	stack(5, 2).Authorize(p, OpRead, o)
	// A request-scoped decision (no page) is invisible to the audit.
	stack(5, 0).Authorize(p, OpRead, o)

	mix := log.GenerationMix()
	if mix.Pages != 2 || mix.Mixed != 0 || mix.Generations != 2 {
		t.Fatalf("clean log mix = %+v, want 2 pages, 0 mixed, 2 generations", mix)
	}

	// Now poison page 1 with a second generation.
	stack(6, 1).Authorize(p, OpRead, o)
	mix = log.GenerationMix()
	if mix.Mixed != 1 {
		t.Fatalf("poisoned log mix = %+v, want 1 mixed page", mix)
	}
}

// stripProvenance zeroes the trace fields so decision sequences can be
// compared on policy outcome alone.
func stripProvenance(ds []Decision) []Decision {
	out := append([]Decision(nil), ds...)
	for i := range out {
		out[i].TraceID = ""
		out[i].Span = 0
	}
	return out
}

// obsRegion builds a wide batched region collapsing into exactly three
// (origin, ring, ACL) classes — the figure4/phpbb shape in miniature.
// The deterministic batch pins (figure4's node and distinct counts,
// the phpbb and mixed distinct counts) are asserted at load scale by
// escudo-serve's TestServeEmitsBenchJSON; this test pins the
// mechanism: the tap must not change how many decisions the batch
// path computes.
func obsRegion(site origin.Origin, n int) []Context {
	region := make([]Context, 0, n)
	for i := 0; i < n; i++ {
		ring := Ring(1 + i%3)
		region = append(region, Object(site, ring, UniformACL(ring), fmt.Sprintf("node-%d", i)))
	}
	return region
}

// TestWithObsBatchProvenance covers the tap's trace and ring under
// batch authorization: one trace event per node, consecutive
// spans, identical audit sequences and identical per-class computation
// counts versus the untraced pipeline.
func TestWithObsBatchProvenance(t *testing.T) {
	site := origin.MustParse("http://site.example")
	p := Principal(site, 1, "app-script")
	region := obsRegion(site, 120)

	run := func(m Monitor) ([]Decision, BatchStats) {
		before := ReadBatchStats()
		out := AuthorizeBatch(m, p, OpRead, region)
		return out, ReadBatchStats().Sub(before)
	}

	plainAudit := &AuditLog{}
	plain := Compose(&ERM{}, WithCache(NewDecisionCache()), WithAudit(plainAudit))
	plainOut, plainStats := run(plain)

	tr := obs.NewTrace()
	ring := NewDecisionRing(0)
	tracedAudit := &AuditLog{}
	traced := Compose(&ERM{}, WithCache(NewDecisionCache()),
		WithTap(Tap{Log: tracedAudit, Trace: func() *obs.Trace { return tr }, Ring: ring}))
	tracedOut, tracedStats := run(traced)

	// Per-class computation counts unchanged: the tap adds zero
	// decision computations.
	if plainStats != tracedStats {
		t.Fatalf("batch accounting diverged: plain %+v, traced %+v", plainStats, tracedStats)
	}
	if tracedStats.Nodes != uint64(len(region)) || tracedStats.Distinct != 3 {
		t.Fatalf("batch stats %+v, want %d nodes / 3 distinct", tracedStats, len(region))
	}

	// Identical decision sequences once provenance is stripped.
	if !reflect.DeepEqual(plainOut, stripProvenance(tracedOut)) {
		t.Fatal("traced pipeline changed the decision sequence")
	}
	if !reflect.DeepEqual(stripProvenance(plainAudit.All()), stripProvenance(tracedAudit.All())) {
		t.Fatal("audit sequences diverge between traced and untraced pipelines")
	}

	// Every node's decision is stamped: same trace ID, spans 1..N in
	// input order, and the audit log carries the stamps (the tap
	// stamps before it records).
	for i, d := range tracedOut {
		if d.TraceID != tr.ID() {
			t.Fatalf("node %d trace ID %q, want %q", i, d.TraceID, tr.ID())
		}
		if d.Span != uint64(i+1) {
			t.Fatalf("node %d span %d, want %d", i, d.Span, i+1)
		}
	}
	audited := tracedAudit.All()
	if len(audited) != len(region) {
		t.Fatalf("audit recorded %d decisions, want %d", len(audited), len(region))
	}
	if audited[0].TraceID != tr.ID() || audited[0].Span == 0 {
		t.Fatalf("audit lost provenance: %+v", audited[0])
	}

	// One ring event per node, in span order, faithful to the verdicts.
	events := ring.Snapshot(obs.RingFilter{TraceID: tr.ID(), Ring: -1})
	if len(events) != len(region) {
		t.Fatalf("ring holds %d events for the trace, want %d", len(events), len(region))
	}
	for i, e := range events {
		if e.Span != uint64(i+1) {
			t.Fatalf("event %d span %d, want %d", i, e.Span, i+1)
		}
		if e.Allowed != tracedOut[i].Allowed || e.Rule != tracedOut[i].Rule.String() {
			t.Fatalf("event %d diverges from decision: %+v vs %v", i, e, tracedOut[i])
		}
		if e.Origin != site.String() || e.Ring != int(region[i].Ring) {
			t.Fatalf("event %d object fields wrong: %+v", i, e)
		}
	}
}

// TestWithObsSingles pins the single-query path: stamped spans
// continue across calls and the ring mirrors each decision.
func TestWithObsSingles(t *testing.T) {
	site := origin.MustParse("http://site.example")
	other := origin.MustParse("http://other.example")
	p := Principal(site, 1, "app-script")

	tr := obs.NewTrace()
	ring := NewDecisionRing(8)
	m := Compose(&ERM{}, WithTap(Tap{Trace: func() *obs.Trace { return tr }, Ring: ring}))

	allow := m.Authorize(p, OpRead, Object(site, 2, UniformACL(2), "post"))
	deny := m.Authorize(p, OpUse, Object(other, 1, UniformACL(1), "foreign"))
	if !allow.Allowed || deny.Allowed {
		t.Fatalf("verdicts wrong: %v / %v", allow, deny)
	}
	if allow.Span != 1 || deny.Span != 2 || allow.TraceID != deny.TraceID {
		t.Fatalf("span stamping wrong: %+v / %+v", allow, deny)
	}
	if got := len(ring.Snapshot(obs.RingFilter{Verdict: "deny", Ring: -1})); got != 1 {
		t.Fatalf("ring deny filter matched %d, want 1", got)
	}
}

// TestWithObsNilTrace pins that a nil trace provider result leaves
// decisions unstamped but still mirrored, and that a tap with no trace
// and no ring is a pass-through.
func TestWithObsNilTrace(t *testing.T) {
	base := &ERM{}
	if m := Compose(base, WithTap(Tap{Trace: nil, Ring: nil})); m != Monitor(base) {
		t.Fatalf("a tap with no trace and no ring must be a pass-through, got %T", m)
	}

	site := origin.MustParse("http://site.example")
	p := Principal(site, 1, "s")
	ring := NewDecisionRing(4)
	m := Compose(base, WithTap(Tap{Trace: func() *obs.Trace { return nil }, Ring: ring}))
	d := m.Authorize(p, OpRead, Object(site, 2, UniformACL(2), "o"))
	if d.TraceID != "" || d.Span != 0 {
		t.Fatalf("untraced decision stamped: %+v", d)
	}
	if ring.Total() != 1 {
		t.Fatalf("ring total %d, want 1", ring.Total())
	}
}

// TestStageTimingNeverChangesDecisions pins invariant 9 at the tap:
// the same query stream through a timed and an untimed stack
// yields byte-identical audit sequences, and batched regions keep
// their exact decision counts.
func TestStageTimingNeverChangesDecisions(t *testing.T) {
	plainAudit := &AuditLog{}
	plain := Compose(&ERM{}, WithCache(NewDecisionCache()), WithAudit(plainAudit))

	clock := obs.NewStageClock()
	timedAudit := &AuditLog{}
	timed := Compose(&ERM{}, WithCache(NewDecisionCache()),
		WithTap(Tap{Log: timedAudit, Clock: func() *obs.StageClock { return clock }}))

	driveMonitor(plain)
	driveMonitor(timed)

	plainSeq, timedSeq := plainAudit.All(), timedAudit.All()
	if len(plainSeq) == 0 {
		t.Fatal("untimed stack recorded nothing; stream broken")
	}
	if !reflect.DeepEqual(plainSeq, timedSeq) {
		t.Fatalf("timing changed the decision sequence:\n untimed: %v\n timed: %v", plainSeq, timedSeq)
	}
	if clock.Nanos(obs.StageBatchAuth) <= 0 {
		t.Fatal("timed stack accrued no batch_auth time")
	}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		if s != obs.StageBatchAuth && clock.Nanos(s) != 0 {
			t.Fatalf("pipeline layer accrued time on foreign stage %s", s)
		}
	}

	// Batch counts are part of the invariant: the timed tap must
	// return the inner region verbatim.
	p, _, batchOp, region := pipeQueries()
	out := AuthorizeBatch(timed, p, batchOp, region)
	if len(out) != len(region) {
		t.Fatalf("timed batch returned %d decisions, want %d", len(out), len(region))
	}
}

// TestStageTimingNilClock pins the pass-through and the nil-resolve
// paths: a nil clock func composes to the base monitor, and a func
// that resolves to nil still authorizes correctly.
func TestStageTimingNilClock(t *testing.T) {
	base := &ERM{}
	if m := Compose(base, WithTap(Tap{Clock: nil})); m != Monitor(base) {
		t.Fatalf("nil clock func must compose to the base monitor, got %T", m)
	}
	m := Compose(base, WithTap(Tap{Clock: func() *obs.StageClock { return nil }}))
	p, singles, _, _ := pipeQueries()
	d := m.Authorize(p, singles[0].op, singles[0].o)
	if !d.Allowed {
		t.Fatalf("nil-resolving clock broke authorization: %v", d)
	}
}
