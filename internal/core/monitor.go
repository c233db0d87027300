package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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

// auditShardCount must be a power of two (records shard by sequence
// number). Sixteen shards keeps write contention negligible at the
// session counts the engine targets while reads stay cheap.
const auditShardCount = 16

// auditRecord is one decision stamped with its global sequence number,
// so the per-shard streams can be merged back into arrival order.
type auditRecord struct {
	seq uint64
	d   Decision
}

// auditBatch is one batched region of decisions: consecutive tickets
// start..start+len(ds)-1. The slice is stored as-is (callers hand over
// ownership), so recording a region costs one header append, not n
// record copies.
type auditBatch struct {
	start uint64
	ds    []Decision
}

// auditShard is one independently locked slice of the log.
type auditShard struct {
	mu      sync.RWMutex
	recs    []auditRecord
	batches []auditBatch
}

// AuditLog is a concurrency-safe decision recorder, fed by the
// pipeline's tap (WithAudit, or WithTap with Log set). The attack
// harness uses it to explain which rule neutralized each attack.
//
// Every decision on the hot path flows through Record, so the log is
// sharded: writers take a global atomic ticket and append under one of
// several shard locks, instead of serializing on a single mutex.
// Readers (rare, post-hoc) merge the shards back into ticket order.
type AuditLog struct {
	seq    atomic.Uint64
	shards [auditShardCount]auditShard
}

// Record appends a decision; it is safe for concurrent use.
func (l *AuditLog) Record(d Decision) {
	seq := l.seq.Add(1)
	s := &l.shards[seq&(auditShardCount-1)]
	s.mu.Lock()
	s.recs = append(s.recs, auditRecord{seq: seq, d: d})
	s.mu.Unlock()
}

// RecordAll appends a batch of decisions: it reserves a contiguous
// ticket range with a single atomic add, then stores the slice itself
// (with its start ticket) under one shard lock — no per-record copy,
// no per-record lock. The caller hands over ownership: the slice must
// not be mutated after the call. Ordering is unaffected — readers
// merge singles and batches by ticket — and concurrent batches land in
// different shards (the range start rotates), so sessions still don't
// serialize.
func (l *AuditLog) RecordAll(ds []Decision) {
	n := uint64(len(ds))
	if n == 0 {
		return
	}
	start := l.seq.Add(n) - n + 1
	s := &l.shards[start&(auditShardCount-1)]
	s.mu.Lock()
	s.batches = append(s.batches, auditBatch{start: start, ds: ds})
	s.mu.Unlock()
}

// merged snapshots every shard — singles and batched regions — and
// returns the records in recording order, optionally filtered.
func (l *AuditLog) merged(keep func(Decision) bool) []Decision {
	var recs []auditRecord
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.RLock()
		for _, r := range s.recs {
			if keep == nil || keep(r.d) {
				recs = append(recs, r)
			}
		}
		for _, b := range s.batches {
			for j, d := range b.ds {
				if keep == nil || keep(d) {
					recs = append(recs, auditRecord{seq: b.start + uint64(j), d: d})
				}
			}
		}
		s.mu.RUnlock()
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].seq < recs[b].seq })
	out := make([]Decision, len(recs))
	for i, r := range recs {
		out[i] = r.d
	}
	return out
}

// Denials returns a copy of all denied decisions recorded so far.
func (l *AuditLog) Denials() []Decision {
	out := l.merged(func(d Decision) bool { return !d.Allowed })
	if len(out) == 0 {
		return nil
	}
	return out
}

// All returns a copy of every recorded decision.
func (l *AuditLog) All() []Decision {
	return l.merged(nil)
}

// Reset clears the log.
func (l *AuditLog) Reset() {
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		s.recs = nil
		s.batches = nil
		s.mu.Unlock()
	}
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
	for _, d := range l.merged(nil) {
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
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.RLock()
		n += len(s.recs)
		for _, b := range s.batches {
			n += len(b.ds)
		}
		s.mu.RUnlock()
	}
	return n
}
