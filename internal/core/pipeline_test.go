package core

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/origin"
)

// pipeQueries builds a deterministic mixed query stream: same-origin
// allowed and denied singles plus a batched region with repeated
// equivalence classes.
func pipeQueries() (p Context, singles []struct {
	op Op
	o  Context
}, batchOp Op, region []Context) {
	site := origin.MustParse("http://site.example")
	other := origin.MustParse("http://other.example")
	p = Principal(site, 1, "app-script")
	singles = []struct {
		op Op
		o  Context
	}{
		{OpRead, Object(site, 2, UniformACL(2), "post")},
		{OpWrite, Object(site, 0, UniformACL(0), "head")},
		{OpUse, Object(other, 1, UniformACL(1), "foreign-cookie")},
		{OpRead, Object(site, 2, UniformACL(2), "post")}, // repeat: cache hit
	}
	batchOp = OpRead
	region = []Context{
		Object(site, 2, UniformACL(2), "c1"),
		Object(site, 2, UniformACL(2), "c2"), // same class as c1
		Object(site, 3, UniformACL(3), "u1"),
		Object(site, 0, ACL{}, "k1"),
		Object(site, 2, UniformACL(2), "c3"), // same class again
	}
	return
}

// driveMonitor runs the standard stream through a monitor.
func driveMonitor(m Monitor) {
	p, singles, batchOp, region := pipeQueries()
	for _, q := range singles {
		m.Authorize(p, q.op, q.o)
	}
	AuthorizeBatch(m, p, batchOp, region)
	for _, q := range singles {
		m.Authorize(p, q.op, q.o)
	}
}

// referenceDecisions is what the stream must audit under any stack:
// the bare monitor's per-node Authorize, with no cache and no batching
// — the rules the pipeline's layers only re-wire.
func referenceDecisions(base Monitor) []Decision {
	p, singles, batchOp, region := pipeQueries()
	var out []Decision
	for _, q := range singles {
		out = append(out, base.Authorize(p, q.op, q.o))
	}
	for _, o := range region {
		out = append(out, base.Authorize(p, batchOp, o))
	}
	for _, q := range singles {
		out = append(out, base.Authorize(p, q.op, q.o))
	}
	return out
}

// TestComposeMatchesHardwiredStack proves the pipeline audits exactly
// the reference decision sequence, for ERM and SOP, cached and
// uncached.
func TestComposeMatchesHardwiredStack(t *testing.T) {
	cases := []struct {
		name   string
		sop    bool
		cached bool
	}{
		{"erm-cached", false, true},
		{"erm-uncached", false, false},
		{"sop-cached", true, true},
		{"sop-uncached", true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var base Monitor = &ERM{}
			if tc.sop {
				base = &SOPMonitor{}
			}
			var cacheLayer Layer
			if tc.cached {
				cacheLayer = WithCache(NewDecisionCache())
			}
			newAudit := &AuditLog{}
			newM := Compose(base, cacheLayer, WithAudit(newAudit))
			driveMonitor(newM)

			refSeq, newSeq := referenceDecisions(base), newAudit.All()
			if len(refSeq) == 0 {
				t.Fatal("reference recorded nothing; stream broken")
			}
			if !reflect.DeepEqual(refSeq, newSeq) {
				t.Fatalf("decision sequences diverge:\n ref: %v\n new: %v", refSeq, newSeq)
			}
		})
	}
}

// TestComposeNilLayers pins that nil layers and nil layer arguments
// are pass-throughs.
func TestComposeNilLayers(t *testing.T) {
	base := &ERM{}
	m := Compose(base, nil, WithCache(nil), WithAudit(nil), WithDelegations(nil), WithTap(Tap{}))
	if m != Monitor(base) {
		t.Fatalf("nil layers must compose to the base monitor, got %T", m)
	}
}

// TestWithTraceUnrollsBatches checks the tap's ring sees one decision
// per node for batched regions, in input order.
func TestWithTraceUnrollsBatches(t *testing.T) {
	ring := NewDecisionRing(0)
	m := Compose(&ERM{}, WithTap(Tap{Ring: ring}))
	p, _, batchOp, region := pipeQueries()
	out := AuthorizeBatch(m, p, batchOp, region)
	seen := ring.Snapshot(obs.RingFilter{Ring: -1})
	if len(out) != len(region) || len(seen) != len(region) {
		t.Fatalf("batch returned %d decisions, ring saw %d, want %d", len(out), len(seen), len(region))
	}
	for i, e := range seen {
		want := event(out[i])
		want.Seq = e.Seq
		if e != want {
			t.Fatalf("ring stream diverges from returned decisions at %d: %+v vs %v", i, e, out[i])
		}
	}
}

// floorMap is a test DelegationSource.
type floorMap map[[2]origin.Origin]Ring

func (f floorMap) DelegationFloor(host, guest origin.Origin) (Ring, bool) {
	r, ok := f[[2]origin.Origin{host, guest}]
	return r, ok
}

// TestDelegationLayer checks the rewrite: floored ring inside the
// host, original principal reported, undeclared pairs denied by the
// origin rule, and batches split into per-principal runs.
func TestDelegationLayer(t *testing.T) {
	host := origin.MustParse("http://portal.example")
	guest := origin.MustParse("http://widget.example")
	rogue := origin.MustParse("http://rogue.example")
	src := floorMap{{host, guest}: 2}

	audit := &AuditLog{}
	m := Compose(&ERM{}, WithDelegations(src), WithAudit(audit))

	gp := Principal(guest, 0, "widget")
	slot := Object(host, 2, UniformACL(2), "slot")
	chrome := Object(host, 1, UniformACL(1), "chrome")

	if d := m.Authorize(gp, OpWrite, slot); !d.Allowed {
		t.Fatalf("delegated slot write denied: %v", d)
	} else if d.Principal != gp {
		t.Fatalf("decision must report the original principal, got %v", d.Principal)
	}
	if d := m.Authorize(gp, OpWrite, chrome); d.Allowed || d.Rule != RuleRing {
		t.Fatalf("floored guest must fail the ring rule on chrome, got %v", d)
	}
	if d := m.Authorize(Principal(rogue, 0, "rogue"), OpRead, slot); d.Allowed || d.Rule != RuleOrigin {
		t.Fatalf("undelegated origin must fail the origin rule, got %v", d)
	}

	// Mixed-origin region: host objects (delegated) interleaved with
	// guest-origin objects (same-origin for the guest principal).
	own := Object(guest, 2, UniformACL(2), "own")
	region := []Context{slot, own, slot, chrome}
	out := AuthorizeBatch(m, gp, OpRead, region)
	if len(out) != len(region) {
		t.Fatalf("batch returned %d decisions, want %d", len(out), len(region))
	}
	wantAllowed := []bool{true, true, true, false}
	for i, d := range out {
		if d.Allowed != wantAllowed[i] {
			t.Errorf("region[%d] allowed=%v, want %v (%v)", i, d.Allowed, wantAllowed[i], d)
		}
		if d.Object != region[i] {
			t.Errorf("region[%d] object mismatch: %v", i, d.Object)
		}
		if d.Principal.Origin != guest {
			t.Errorf("region[%d] principal re-homed in output: %v", i, d.Principal)
		}
	}
	if audit.Len() != 3+len(region) {
		t.Fatalf("audit recorded %d decisions, want %d", audit.Len(), 3+len(region))
	}
}

// TestDelegationOutsideCacheShares checks the canonical layer order:
// the cache under a delegation layer stores plain re-homed verdicts, so
// an undelegated monitor sharing the cache gets hits, never a foreign
// delegation's verdicts keyed by the original principal.
func TestDelegationOutsideCacheShares(t *testing.T) {
	host := origin.MustParse("http://portal.example")
	guest := origin.MustParse("http://widget.example")
	cache := NewDecisionCache()
	src := floorMap{{host, guest}: 2}

	delegated := Compose(&ERM{}, WithCache(cache), WithDelegations(src))
	plain := Compose(&ERM{}, WithCache(cache))

	slot := Object(host, 2, UniformACL(2), "slot")
	gp := Principal(guest, 0, "widget")
	if d := delegated.Authorize(gp, OpWrite, slot); !d.Allowed {
		t.Fatalf("delegated write denied: %v", d)
	}
	// The cached key is the re-homed query: a genuine host principal at
	// the floored ring asking the same question must hit.
	before := cache.Stats()
	hostP := Principal(host, 2, "widget→delegated")
	if d := plain.Authorize(hostP, OpWrite, slot); !d.Allowed {
		t.Fatalf("same-origin write denied: %v", d)
	}
	after := cache.Stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("expected a shared-cache hit, stats %+v → %+v", before, after)
	}
	// And the ORIGINAL cross-origin query must never have been cached
	// as allowed for a monitor without the delegation.
	if d := plain.Authorize(gp, OpWrite, slot); d.Allowed {
		t.Fatalf("undelegated monitor allowed a cross-origin write: %v", d)
	}
}
