package core

import (
	"fmt"
	"sync"
)

// RuleID identifies which of the model's rules produced a decision.
type RuleID int8

// The rules of the ESCUDO MAC policy (§4.2), plus the synthetic
// "allowed" outcome when all rules pass.
const (
	RuleAllowed   RuleID = iota + 1 // every applicable rule passed
	RuleOrigin                      // O(P) = O(O) failed
	RuleRing                        // R(P) ≤ R(O) failed
	RuleACL                         // R(P) ≤ ⊓(O, op) failed
	RuleInvalidOp                   // the operation itself was malformed
)

// String names the rule for traces and test failures.
func (r RuleID) String() string {
	switch r {
	case RuleAllowed:
		return "allowed"
	case RuleOrigin:
		return "origin-rule"
	case RuleRing:
		return "ring-rule"
	case RuleACL:
		return "acl-rule"
	case RuleInvalidOp:
		return "invalid-op"
	default:
		return fmt.Sprintf("rule(%d)", int(r))
	}
}

// Decision is the outcome of a single authorization query.
//
// The three one-byte fields lead, so they share one word.
type Decision struct {
	// Allowed reports whether the access is permitted.
	Allowed bool
	// Rule identifies the first rule that denied the access, or
	// RuleAllowed when it is permitted.
	Rule RuleID
	// Op, Principal, Object echo the query for audit trails.
	Op        Op
	Principal Context
	Object    Context
	// TraceID and Span place the decision in the causal trace of the
	// task that triggered it (see internal/obs). Both are zero when the
	// decision was made outside any traced task or under no tap with a
	// Trace source (see Tap). They carry provenance only: equality of
	// the policy outcome is judged on the fields above.
	TraceID string
	Span    uint64
	// PolicyGen and PageID pin the decision to the fleet policy
	// generation its page load captured (see internal/ctlplane) and to
	// that load's identity. Both are zero under a tap with no Gen or
	// Page pinned. Like TraceID/Span they are provenance only — but the
	// control plane's standing invariant ("a page load observes exactly
	// one policy generation") is audited on them: every decision of one
	// PageID must carry the same PolicyGen.
	PolicyGen uint64
	PageID    uint64
}

// String renders the decision in the paper's ⟨P ⊳ O⟩ notation.
func (d Decision) String() string {
	verdict := "DENY"
	if d.Allowed {
		verdict = "ALLOW"
	}
	return fmt.Sprintf("%s ⟨%s %s %s⟩ (%s)", verdict, d.Principal, d.Op, d.Object, d.Rule)
}

// Monitor is the single chokepoint through which every mediated access
// in the browser flows: the DOM API, the cookie jar, XHR, event
// delivery and the request pipeline all consult a Monitor. ERM
// implements the ESCUDO policy; SOPMonitor implements the legacy
// same-origin policy.
type Monitor interface {
	// Authorize decides whether principal p may perform op on object o.
	Authorize(p Context, op Op, o Context) Decision
}

// ERM is the ESCUDO Reference Monitor (§6.1). An access ⟨P ⊳ O⟩ is
// permitted iff the Origin rule, the Ring rule, and the ACL rule all
// permit it (§4.2). The zero value is ready to use; mount WithAudit
// (or WithTap) around it to observe its decisions.
type ERM struct{}

var _ Monitor = (*ERM)(nil)

// Authorize implements Monitor with the three ESCUDO rules, evaluated
// in the paper's order: Origin, Ring, ACL. The first failing rule is
// reported in the decision.
func (m *ERM) Authorize(p Context, op Op, o Context) Decision {
	d := Decision{Principal: p, Op: op, Object: o}
	switch {
	case !op.Valid():
		d.Rule = RuleInvalidOp
	case !p.Origin.SameOrigin(o.Origin):
		d.Rule = RuleOrigin
	case !p.Ring.AtLeastAsPrivileged(o.Ring):
		d.Rule = RuleRing
	case !o.ACL.Permits(p.Ring, op):
		d.Rule = RuleACL
	default:
		d.Rule = RuleAllowed
		d.Allowed = true
	}
	return d
}

// SOPMonitor is the baseline same-origin policy: the only check is the
// Origin rule. Under it, "all principals inside the web application
// are associated with a single principal identified by the origin and
// are associated with all the privileges irrespective of their
// trustworthiness" (§2.3). The zero value is ready to use.
type SOPMonitor struct{}

var _ Monitor = (*SOPMonitor)(nil)

// Authorize implements Monitor with only the origin test.
func (m *SOPMonitor) Authorize(p Context, op Op, o Context) Decision {
	d := Decision{Principal: p, Op: op, Object: o}
	switch {
	case !op.Valid():
		d.Rule = RuleInvalidOp
	case !p.Origin.SameOrigin(o.Origin):
		d.Rule = RuleOrigin
	default:
		d.Rule = RuleAllowed
		d.Allowed = true
	}
	return d
}

// auditBatch is one batched region of decisions, recorded after the
// first at singles. The slice is stored as-is (callers hand over
// ownership), so recording a region costs one header append, not n
// record copies.
type auditBatch struct {
	at int
	ds []Decision
}

// AuditLog is a concurrency-safe decision recorder, fed by the
// pipeline's tap (WithAudit, or WithTap with Log set). The attack
// harness uses it to explain which rule neutralized each attack.
//
// Each browser records into its own log from the one goroutine driving
// it, so a single mutex is uncontended; it orders those writes against
// readers on other goroutines (engine stats, the open-loop trimmer).
type AuditLog struct {
	mu      sync.Mutex
	singles []Decision
	batches []auditBatch
	n       int
}

// Record appends a decision; it is safe for concurrent use.
func (l *AuditLog) Record(d Decision) {
	l.mu.Lock()
	l.singles = append(l.singles, d)
	l.n++
	l.mu.Unlock()
}

// RecordAll appends a batch of decisions in one step: it stores the
// slice itself, with its position among the singles, so a region
// costs one header append and no per-record copy. The caller hands
// over ownership: the slice must not be mutated after the call.
func (l *AuditLog) RecordAll(ds []Decision) {
	if len(ds) == 0 {
		return
	}
	l.mu.Lock()
	l.batches = append(l.batches, auditBatch{at: len(l.singles), ds: ds})
	l.n += len(ds)
	l.mu.Unlock()
}

// collect returns a copy of the recorded decisions that pass keep (all
// of them when keep is nil), in recording order; nil when keep passes
// none.
func (l *AuditLog) collect(keep func(Decision) bool) []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Decision
	if keep == nil {
		out = make([]Decision, 0, l.n)
	}
	add := func(ds []Decision) {
		for _, d := range ds {
			if keep == nil || keep(d) {
				out = append(out, d)
			}
		}
	}
	s := 0
	for _, b := range l.batches {
		add(l.singles[s:b.at])
		add(b.ds)
		s = b.at
	}
	add(l.singles[s:])
	return out
}

// Denials returns a copy of all denied decisions recorded so far, or
// nil if there are none.
func (l *AuditLog) Denials() []Decision {
	return l.collect(func(d Decision) bool { return !d.Allowed })
}

// All returns a copy of every recorded decision.
func (l *AuditLog) All() []Decision {
	return l.collect(nil)
}

// Reset clears the log.
func (l *AuditLog) Reset() {
	l.mu.Lock()
	l.singles, l.batches, l.n = nil, nil, 0
	l.mu.Unlock()
}

// GenerationMix summarizes how policy generations were observed across
// the log's page-pinned decisions (records whose PageID is non-zero;
// unpinned records predate the control plane or happened outside any
// page load and are not counted).
type GenerationMix struct {
	// Pages is the number of distinct page loads observed.
	Pages int `json:"pages"`
	// Mixed counts pages whose decisions carry more than one distinct
	// PolicyGen — the control plane's invariant demands zero.
	Mixed int `json:"mixed"`
	// Generations is the number of distinct policy generations seen
	// across all pinned records (≥2 after a mid-run flip).
	Generations int `json:"generations"`
}

// Add folds another summary into m (page sets are disjoint across
// sessions — each browser mints unique page IDs — so counts sum; the
// generation count takes the max, a lower bound on the union).
func (m GenerationMix) Add(o GenerationMix) GenerationMix {
	g := m.Generations
	if o.Generations > g {
		g = o.Generations
	}
	return GenerationMix{Pages: m.Pages + o.Pages, Mixed: m.Mixed + o.Mixed, Generations: g}
}

// GenerationMix scans the log and reports the per-page policy
// generation spread — the audit behind standing invariant 8.
func (l *AuditLog) GenerationMix() GenerationMix {
	firstGen := map[uint64]uint64{}
	mixed := map[uint64]bool{}
	gens := map[uint64]bool{}
	for _, d := range l.All() {
		if d.PageID == 0 {
			continue
		}
		gens[d.PolicyGen] = true
		if g, ok := firstGen[d.PageID]; !ok {
			firstGen[d.PageID] = d.PolicyGen
		} else if g != d.PolicyGen {
			mixed[d.PageID] = true
		}
	}
	return GenerationMix{Pages: len(firstGen), Mixed: len(mixed), Generations: len(gens)}
}

// Len returns the number of recorded decisions.
func (l *AuditLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}
