package core

import (
	"sync"

	"repro/internal/obs"
)

// DecisionRing keeps the last N decisions for the admin /tracez
// endpoint. Record copies the decision into its slot unformatted: the
// display strings of obs.DecisionEvent are built only when a reader
// takes a Snapshot, because Record sits on the audit path of every
// page load and readers are rare (admin polls). Recording overwrites
// the oldest entry; snapshots return events oldest-first. It is safe
// for concurrent use.
type DecisionRing struct {
	mu   sync.Mutex
	buf  []Decision
	next uint64 // total decisions ever recorded
}

// NewDecisionRing returns a ring holding the last n decisions
// (obs.DefaultRingSize when n <= 0).
func NewDecisionRing(n int) *DecisionRing {
	if n <= 0 {
		n = obs.DefaultRingSize
	}
	return &DecisionRing{buf: make([]Decision, n)}
}

// Record appends one decision, overwriting the oldest when full.
func (r *DecisionRing) Record(d Decision) {
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = d
	r.next++
	r.mu.Unlock()
}

// Len returns how many decisions the ring currently holds.
func (r *DecisionRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(min(r.next, uint64(len(r.buf))))
}

// Total returns how many decisions have ever been recorded (the ring
// holds the last min(Total, size) of them).
func (r *DecisionRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Snapshot renders the retained decisions passing the filter, oldest
// first. Each event's Seq is its 1-based position in the recording
// order. The lock covers only the copy out of the ring, so a reader
// never holds up the audit path for the rendering.
func (r *DecisionRing) Snapshot(f obs.RingFilter) []obs.DecisionEvent {
	r.mu.Lock()
	size := uint64(len(r.buf))
	first := r.next - min(r.next, size)
	held := make([]Decision, 0, r.next-first)
	for seq := first; seq < r.next; seq++ {
		held = append(held, r.buf[seq%size])
	}
	r.mu.Unlock()
	var out []obs.DecisionEvent
	for i, d := range held {
		e := event(d)
		e.Seq = first + uint64(i) + 1
		if f.Matches(e) {
			out = append(out, e)
		}
	}
	return out
}

// event flattens a stamped decision for display.
func event(d Decision) obs.DecisionEvent {
	return obs.DecisionEvent{
		TraceID:   d.TraceID,
		Span:      d.Span,
		Gen:       d.PolicyGen,
		Origin:    d.Object.Origin.String(),
		Ring:      int(d.Object.Ring),
		Allowed:   d.Allowed,
		Rule:      d.Rule.String(),
		Principal: d.Principal.String(),
		Op:        d.Op.String(),
		Object:    d.Object.String(),
	}
}
