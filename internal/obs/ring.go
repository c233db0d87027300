package obs

// DecisionEvent is one audited decision flattened into plain fields —
// no core types, so the /tracez document and its readers can live
// below core in the import graph. The decision ring (core.DecisionRing)
// renders these from its retained decisions when a reader asks.
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

// DefaultRingSize is the decision-history depth when a decision ring
// is given n <= 0.
const DefaultRingSize = 4096

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

// Matches reports whether e passes the filter.
func (f RingFilter) Matches(e DecisionEvent) bool {
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
