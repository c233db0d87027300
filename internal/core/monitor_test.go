package core

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/origin"
)

var (
	siteA = origin.MustParse("http://a.example")
	siteB = origin.MustParse("http://b.example")
)

// A decision's verdict, rule and op share one word: every audited
// decision of a page load is 208 bytes.
func TestDecisionSize(t *testing.T) {
	if got := unsafe.Sizeof(Decision{}); got > 208 {
		t.Errorf("Decision is %d bytes, want <= 208", got)
	}
}

// TestRulesERM exercises the three-rule MAC policy of §4.2 as a
// decision table.
func TestRulesERM(t *testing.T) {
	erm := &ERM{}
	tests := []struct {
		name     string
		p        Context
		op       Op
		o        Context
		allowed  bool
		wantRule RuleID
	}{
		{
			name:     "same origin, dominating ring, permissive acl",
			p:        Principal(siteA, 1, "script"),
			op:       OpWrite,
			o:        Object(siteA, 2, PermissiveACL(3), "div"),
			allowed:  true,
			wantRule: RuleAllowed,
		},
		{
			name:     "origin rule denies cross-origin",
			p:        Principal(siteB, 0, "evil"),
			op:       OpRead,
			o:        Object(siteA, 3, PermissiveACL(3), "div"),
			allowed:  false,
			wantRule: RuleOrigin,
		},
		{
			name:     "ring rule denies lower-privileged principal",
			p:        Principal(siteA, 3, "comment script"),
			op:       OpWrite,
			o:        Object(siteA, 1, PermissiveACL(3), "app content"),
			allowed:  false,
			wantRule: RuleRing,
		},
		{
			name:     "acl rule denies within same ring",
			p:        Principal(siteA, 3, "comment script"),
			op:       OpWrite,
			o:        Object(siteA, 3, ACL{Read: 3, Write: 2, Use: 3}, "other comment"),
			allowed:  false,
			wantRule: RuleACL,
		},
		{
			name:     "equal rings allowed by ring rule",
			p:        Principal(siteA, 2, "p"),
			op:       OpRead,
			o:        Object(siteA, 2, PermissiveACL(3), "o"),
			allowed:  true,
			wantRule: RuleAllowed,
		},
		{
			name:     "use operation consults x ceiling",
			p:        Principal(siteA, 2, "img"),
			op:       OpUse,
			o:        Object(siteA, 3, ACL{Read: 3, Write: 3, Use: 1}, "cookie"),
			allowed:  false,
			wantRule: RuleACL,
		},
		{
			name:     "fail-safe zero acl admits only ring 0",
			p:        Principal(siteA, 1, "p"),
			op:       OpRead,
			o:        Object(siteA, 3, ACL{}, "o"),
			allowed:  false,
			wantRule: RuleACL,
		},
		{
			name:     "ring 0 passes the zero acl",
			p:        Principal(siteA, 0, "app"),
			op:       OpWrite,
			o:        Object(siteA, 3, ACL{}, "o"),
			allowed:  true,
			wantRule: RuleAllowed,
		},
		{
			name:     "invalid op denied",
			p:        Principal(siteA, 0, "p"),
			op:       Op(0),
			o:        Object(siteA, 0, PermissiveACL(3), "o"),
			allowed:  false,
			wantRule: RuleInvalidOp,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := erm.Authorize(tt.p, tt.op, tt.o)
			if d.Allowed != tt.allowed || d.Rule != tt.wantRule {
				t.Errorf("Authorize = %v, want allowed=%v rule=%v", d, tt.allowed, tt.wantRule)
			}
		})
	}
}

// TestRulesOrderOfEvaluation checks the first failing rule is the one
// reported, in the paper's order: origin, ring, ACL.
func TestRulesOrderOfEvaluation(t *testing.T) {
	erm := &ERM{}
	// Fails all three rules; origin must be reported.
	d := erm.Authorize(Principal(siteB, 3, "p"), OpWrite, Object(siteA, 1, ACL{}, "o"))
	if d.Rule != RuleOrigin {
		t.Errorf("rule = %v, want origin-rule first", d.Rule)
	}
	// Fails ring and ACL; ring must be reported.
	d = erm.Authorize(Principal(siteA, 3, "p"), OpWrite, Object(siteA, 1, ACL{}, "o"))
	if d.Rule != RuleRing {
		t.Errorf("rule = %v, want ring-rule before acl-rule", d.Rule)
	}
}

// TestACLCannotWeakenRing verifies the §4.2 remark: an ACL laxer than
// the object's ring is ineffective because the ring rule still
// denies.
func TestACLCannotWeakenRing(t *testing.T) {
	erm := &ERM{}
	// Object in ring 1 with an (illegally lax) ACL admitting ring 3.
	o := Object(siteA, 1, UniformACL(3), "object")
	p := Principal(siteA, 3, "outer principal")
	d := erm.Authorize(p, OpRead, o)
	if d.Allowed {
		t.Fatal("lax ACL must not override the ring rule")
	}
	if d.Rule != RuleRing {
		t.Errorf("rule = %v, want ring-rule", d.Rule)
	}
}

func TestSOPMonitor(t *testing.T) {
	sop := &SOPMonitor{}
	// Same origin: everything goes, regardless of rings and ACLs —
	// the §2.3 failure mode ESCUDO fixes.
	d := sop.Authorize(Principal(siteA, 3, "untrusted"), OpWrite, Object(siteA, 0, ACL{}, "trusted"))
	if !d.Allowed {
		t.Error("SOP must allow same-origin access irrespective of trustworthiness")
	}
	// Cross origin: denied.
	d = sop.Authorize(Principal(siteB, 0, "p"), OpRead, Object(siteA, 3, PermissiveACL(3), "o"))
	if d.Allowed || d.Rule != RuleOrigin {
		t.Errorf("SOP cross-origin = %v, want origin denial", d)
	}
}

// TestLegacyEquivalence verifies §6.3: a page with no configuration
// (all labels ring 0, permissive page) behaves identically under ERM
// and SOP.
func TestLegacyEquivalence(t *testing.T) {
	erm := &ERM{}
	sop := &SOPMonitor{}
	origins := []origin.Origin{siteA, siteB}
	ops := []Op{OpRead, OpWrite, OpUse}
	for _, po := range origins {
		for _, oo := range origins {
			for _, op := range ops {
				// Legacy labels: everything in ring 0 with a ring-0 ACL.
				p := Principal(po, 0, "p")
				o := Object(oo, 0, UniformACL(0), "o")
				if got, want := erm.Authorize(p, op, o).Allowed, sop.Authorize(p, op, o).Allowed; got != want {
					t.Errorf("legacy page: ERM=%v SOP=%v for %v %v %v", got, want, po, op, oo)
				}
			}
		}
	}
}

// TestMonotonicity property: granting a principal a more privileged
// ring never turns an allowed access into a denial (decisions are
// monotone in privilege). This is the fundamental soundness property
// of the HPR adaptation.
func TestMonotonicity(t *testing.T) {
	erm := &ERM{}
	f := func(pRing, oRing, r, w, x uint8, opSel uint8, sameOrigin bool) bool {
		maxRing := Ring(7)
		op := []Op{OpRead, OpWrite, OpUse}[opSel%3]
		po := siteA
		oo := siteA
		if !sameOrigin {
			oo = siteB
		}
		obj := Object(oo, Ring(oRing%8), ACL{Read: Ring(r % 8), Write: Ring(w % 8), Use: Ring(x % 8)}, "o")
		prev := false
		// Walk from least privileged to most privileged; allowed must
		// be monotone (once allowed, stays allowed as privilege grows).
		for ring := maxRing; ring >= 0; ring-- {
			d := erm.Authorize(Principal(po, ring, "p"), op, obj)
			if prev && !d.Allowed {
				return false
			}
			prev = d.Allowed
			if ring == 0 {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestERMStricterThanSOP property: every access ESCUDO allows, the SOP
// also allows — ESCUDO only subtracts privileges, never adds.
func TestERMStricterThanSOP(t *testing.T) {
	erm := &ERM{}
	sop := &SOPMonitor{}
	f := func(pRing, oRing, r, w, x uint8, opSel uint8, sameOrigin bool) bool {
		op := []Op{OpRead, OpWrite, OpUse}[opSel%3]
		oo := siteA
		if !sameOrigin {
			oo = siteB
		}
		p := Principal(siteA, Ring(pRing%8), "p")
		o := Object(oo, Ring(oRing%8), ACL{Read: Ring(r % 8), Write: Ring(w % 8), Use: Ring(x % 8)}, "o")
		if erm.Authorize(p, op, o).Allowed && !sop.Authorize(p, op, o).Allowed {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestAuditLog(t *testing.T) {
	log := &AuditLog{}
	erm := Compose(&ERM{}, WithAudit(log))
	erm.Authorize(Principal(siteA, 0, "p"), OpRead, Object(siteA, 3, PermissiveACL(3), "o"))
	erm.Authorize(Principal(siteB, 0, "p"), OpRead, Object(siteA, 3, PermissiveACL(3), "o"))
	if got := log.Len(); got != 2 {
		t.Fatalf("log.Len() = %d, want 2", got)
	}
	den := log.Denials()
	if len(den) != 1 || den[0].Rule != RuleOrigin {
		t.Errorf("Denials() = %v, want one origin denial", den)
	}
	all := log.All()
	if len(all) != 2 || !all[0].Allowed || all[1].Allowed {
		t.Errorf("All() = %v, want allow then deny", all)
	}
	log.Reset()
	if log.Len() != 0 {
		t.Error("Reset must clear the log")
	}

	// Singles and batches interleave: readers return them in recording
	// order. Span numbers each decision; even spans are denials.
	d := func(span uint64) Decision { return Decision{Allowed: span%2 == 1, Span: span} }
	spans := func(ds []Decision) []uint64 {
		out := make([]uint64, len(ds))
		for i, x := range ds {
			out[i] = x.Span
		}
		return out
	}
	log.Record(d(1))
	log.RecordAll([]Decision{d(2), d(3)})
	log.Record(d(4))
	log.RecordAll([]Decision{d(5)})
	log.Record(d(6))
	if got := log.Len(); got != 6 {
		t.Errorf("interleaved Len() = %d, want 6", got)
	}
	if got := spans(log.All()); !slices.Equal(got, []uint64{1, 2, 3, 4, 5, 6}) {
		t.Errorf("interleaved All() spans = %v, want 1..6 in order", got)
	}
	if got := spans(log.Denials()); !slices.Equal(got, []uint64{2, 4, 6}) {
		t.Errorf("interleaved Denials() spans = %v, want [2 4 6]", got)
	}
	log.Reset()
	if log.Len() != 0 || len(log.All()) != 0 || log.Denials() != nil {
		t.Error("Reset must clear singles and batches")
	}
	log.Record(d(7))
	log.RecordAll([]Decision{d(8)})
	if got := spans(log.All()); !slices.Equal(got, []uint64{7, 8}) || log.Len() != 2 {
		t.Errorf("after Reset All() spans = %v (Len %d), want [7 8]", got, log.Len())
	}
}

func TestDecisionString(t *testing.T) {
	erm := &ERM{}
	d := erm.Authorize(Principal(siteA, 3, "comment"), OpWrite, Object(siteA, 1, ACL{}, "post"))
	s := d.String()
	for _, want := range []string{"DENY", "ring-rule", "comment", "post", "write"} {
		if !contains(s, want) {
			t.Errorf("Decision.String() = %q, missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
