package obs

import "sync"

// DecisionEvent is one audited decision flattened into plain fields —
// no core types, so the ring can live below core in the import graph.
// The monitor pipeline's tap (core.WithTap) builds these from
// core.Decisions.
type DecisionEvent struct {
	// TraceID/Span place the decision in its causal trace; empty/zero
	// when the decision happened outside any traced task.
	TraceID string `json:"trace_id"`
	Span    uint64 `json:"span"`
	// Seq is the ring's own monotone sequence number, so a reader can
	// tell how much history the snapshot spans and whether events were
	// dropped between polls.
	Seq uint64 `json:"seq"`
	// Origin is the object's origin; Ring the object's protection
	// ring — the filterable dimensions of /tracez.
	Origin string `json:"origin"`
	Ring   int    `json:"ring"`
	// Gen is the policy generation the deciding page load was pinned
	// to; zero when no control plane stamped the decision.
	Gen uint64 `json:"gen,omitempty"`
	// Allowed and Rule are the verdict.
	Allowed bool   `json:"allowed"`
	Rule    string `json:"rule"`
	// Principal, Op, Object render the ⟨P ⊳ O⟩ triple for display.
	Principal string `json:"principal"`
	Op        string `json:"op"`
	Object    string `json:"object"`
}

// DecisionRing keeps the last N decision events for the admin /tracez
// endpoint. Recording overwrites the oldest entry; snapshots return
// events oldest-first. It is safe for concurrent use — Record takes
// one mutex and copies one struct, cheap enough for the audit path,
// and readers are rare (admin polls).
type DecisionRing struct {
	mu   sync.Mutex
	buf  []DecisionEvent
	next uint64 // total events ever recorded
}

// DefaultRingSize is the decision-history depth when NewDecisionRing
// is given n <= 0.
const DefaultRingSize = 4096

// NewDecisionRing returns a ring holding the last n events.
func NewDecisionRing(n int) *DecisionRing {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &DecisionRing{buf: make([]DecisionEvent, n)}
}

// Record appends one event, overwriting the oldest when full.
func (r *DecisionRing) Record(e DecisionEvent) {
	r.mu.Lock()
	r.next++
	e.Seq = r.next
	r.buf[(r.next-1)%uint64(len(r.buf))] = e
	r.mu.Unlock()
}

// Len returns how many events the ring currently holds.
func (r *DecisionRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Total returns how many events have ever been recorded (the ring
// holds the last min(Total, size) of them).
func (r *DecisionRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// RingFilter selects events from a snapshot. Zero values match
// everything; Verdict is "allow", "deny", or "" for both.
type RingFilter struct {
	TraceID string
	Origin  string
	Verdict string
	// Ring filters by object ring when >= 0; pass -1 for any.
	Ring int
}

// MatchAny is the filter that keeps every event.
var MatchAny = RingFilter{Ring: -1}

// matches reports whether e passes the filter.
func (f RingFilter) matches(e DecisionEvent) bool {
	if f.TraceID != "" && e.TraceID != f.TraceID {
		return false
	}
	if f.Origin != "" && e.Origin != f.Origin {
		return false
	}
	if f.Ring >= 0 && e.Ring != f.Ring {
		return false
	}
	switch f.Verdict {
	case "allow":
		return e.Allowed
	case "deny":
		return !e.Allowed
	}
	return true
}

// Snapshot returns the retained events passing the filter, oldest
// first.
func (r *DecisionRing) Snapshot(f RingFilter) []DecisionEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := uint64(len(r.buf))
	n := r.next
	start := uint64(0)
	if n > size {
		start = n - size
	}
	var out []DecisionEvent
	for seq := start; seq < n; seq++ {
		e := r.buf[seq%size]
		if f.matches(e) {
			out = append(out, e)
		}
	}
	return out
}
