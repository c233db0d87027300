package core

import (
	"time"

	"repro/internal/obs"
)

// Tap is everything that observes a pipeline's decisions, mounted as
// one layer by WithTap. Observation never decides (invariants 7, 9):
// the tap stamps provenance onto the inner stack's decisions, mirrors
// and records them, and times the call, but never changes a verdict, a
// rule, or how a batched region collapses into classes.
type Tap struct {
	// Log records every decision: singles via Record, batched regions
	// in one RecordAll.
	Log *AuditLog
	// Trace resolves the causal trace of the task asking, per call;
	// each decision carries its ID and the trace's next span. A nil
	// func or a nil result leaves decisions unstamped.
	Trace func() *obs.Trace
	// Ring mirrors every decision for the gateway's /tracez.
	Ring *obs.DecisionRing
	// Gen and Page pin the policy generation and page identity the
	// monitor was built for (captured once, at page-load entry), so the
	// audit log can prove no load mixed generations. Both zero leaves
	// the decisions' own values untouched.
	Gen, Page uint64
	// Clock resolves the asking task's stage clock, per call; the wall
	// time of the whole call, recording included, accrues on
	// obs.StageBatchAuth. A nil result skips timing.
	Clock func() *obs.StageClock
}

// WithTap returns the observation layer. Mount it outermost: it then
// stamps decisions after the cache (a cached verdict carries the
// asking task's trace, not the warming task's), after the delegation
// layer restores the original principal, and records each decision
// exactly once. A zero Tap yields a pass-through layer.
func WithTap(t Tap) Layer {
	return func(inner Monitor) Monitor {
		if t.Log == nil && t.Trace == nil && t.Ring == nil && t.Gen == 0 && t.Page == 0 && t.Clock == nil {
			return inner
		}
		return &tapLayer{Tap: t, inner: inner}
	}
}

// WithAudit returns a tap that only records: every decision lands in
// the log. A nil log yields a pass-through layer.
func WithAudit(log *AuditLog) Layer { return WithTap(Tap{Log: log}) }

// tapLayer is the one layer that stamps, records, or times decisions.
type tapLayer struct {
	Tap
	inner Monitor
}

var (
	_ Monitor         = (*tapLayer)(nil)
	_ BatchAuthorizer = (*tapLayer)(nil)
)

// start resolves the task's clock and, when there is one, the call's
// start time.
func (m *tapLayer) start() (*obs.StageClock, time.Time) {
	if m.Clock == nil {
		return nil, time.Time{}
	}
	c := m.Clock()
	if c == nil {
		return nil, time.Time{}
	}
	return c, time.Now()
}

// stamp writes the pinned generation and the asking task's trace and
// spans onto ds, in order, and mirrors each decision into the ring.
func (m *tapLayer) stamp(ds []Decision) {
	var t *obs.Trace
	if m.Trace != nil {
		t = m.Trace()
	}
	var id string
	if t != nil {
		id = t.ID()
	}
	for i := range ds {
		d := &ds[i]
		if m.Gen != 0 || m.Page != 0 {
			d.PolicyGen, d.PageID = m.Gen, m.Page
		}
		if t != nil {
			d.TraceID, d.Span = id, t.NextSpan()
		}
		if m.Ring != nil {
			m.Ring.Record(event(*d))
		}
	}
}

// Authorize implements Monitor.
func (m *tapLayer) Authorize(p Context, op Op, o Context) Decision {
	c, start := m.start()
	d := [1]Decision{m.inner.Authorize(p, op, o)}
	m.stamp(d[:])
	if m.Log != nil {
		m.Log.Record(d[0])
	}
	if c != nil {
		c.Add(obs.StageBatchAuth, time.Since(start))
	}
	return d[0]
}

// AuthorizeBatch implements BatchAuthorizer: the inner batch keeps its
// per-class dedup, then every node's decision gets its own span and
// ring event, and the region is recorded in one RecordAll.
func (m *tapLayer) AuthorizeBatch(p Context, op Op, objects []Context) []Decision {
	c, start := m.start()
	out := AuthorizeBatch(m.inner, p, op, objects)
	m.stamp(out)
	if m.Log != nil {
		m.Log.RecordAll(out)
	}
	if c != nil {
		c.Add(obs.StageBatchAuth, time.Since(start))
	}
	return out
}

// event flattens a stamped decision for the ring.
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
