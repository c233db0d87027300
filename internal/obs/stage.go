// Stage timing: latency attribution for the request path. A
// StageClock rides along with one task (a page load, an open-loop
// arrival) and accumulates wall time per pipeline stage — origin
// handler, batch authorization, script execution, render, transport
// translation — so a slow request can say *where* it was
// slow, not just that it was. A StageSet folds finished clocks into
// per-stage registry histograms (`escudo_stage_seconds{stage=...}` on
// /varz), and a SlowRing retains the slowest N tasks per phase as
// exemplars keyed by trace ID, so every reported tail percentile is
// one /tracez query away from a causal explanation.
//
// Invariant 9 lives here by construction: nothing in this file sees a
// Decision. Timing observes durations around the pipeline; it can
// never change a verdict or a batch count.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage names one segment of the request path. The set is fixed and
// small on purpose: a fixed-size array indexed by Stage is the whole
// per-task accumulator, so recording a span is one atomic add.
type Stage uint8

const (
	// StageQueueWait is recorded by nothing: the gateway hands every
	// request straight to its origin's handler. The stage and its
	// queue_wait label stay only because perfbench reads them (its
	// httpd.queue_wait_us reads 0); ROADMAP item 3 redraws the stages.
	StageQueueWait Stage = iota
	// StageHandler is the origin handler's round-trip as seen by the
	// gateway.
	StageHandler
	// StageBatchAuth is reference-monitor time: Authorize and
	// AuthorizeBatch through the composed pipeline, cache probes and
	// audit recording included.
	StageBatchAuth
	// StageScriptVM is script execution time: the parse-cache probe
	// and the interpreter's run.
	StageScriptVM
	// StageRender is layout/render time (hidden layout during load and
	// explicit RenderText).
	StageRender
	// StageTranslate is gateway transport translation: net/http
	// request to web.Request, and web.Response's status and header
	// back onto the wire. It ends before the body write, which is the
	// wire's time.
	StageTranslate

	// NumStages bounds the enum; arrays of per-stage state are
	// [NumStages]T.
	NumStages
)

// stageNames are the label values used on /varz and in JSON — keep
// them stable, dashboards key on them.
var stageNames = [NumStages]string{
	"queue_wait",
	"handler",
	"batch_auth",
	"script_vm",
	"render",
	"translate",
}

// String returns the stable label value for the stage.
func (s Stage) String() string {
	if s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// StageNames returns the label values in Stage order.
func StageNames() [NumStages]string { return stageNames }

// StageClock accumulates per-stage wall time for one task. It is
// shared between goroutines (the browser's load path and, in
// principle, anything else observing the same task), so spans land
// via atomic adds; Add on a nil clock is a no-op, which keeps the
// call sites branch-free when timing is disabled.
//
// A clock is reusable: Reset between tasks, no per-task allocation.
type StageClock struct {
	ns [NumStages]atomic.Int64
}

// NewStageClock returns a zeroed clock.
func NewStageClock() *StageClock { return &StageClock{} }

// Add accrues d against stage s. Nil-safe and allocation-free.
func (c *StageClock) Add(s Stage, d time.Duration) {
	if c == nil || s >= NumStages {
		return
	}
	c.ns[s].Add(int64(d))
}

// Nanos returns the accumulated nanoseconds for stage s.
func (c *StageClock) Nanos(s Stage) int64 {
	if c == nil || s >= NumStages {
		return 0
	}
	return c.ns[s].Load()
}

// Snapshot copies the accumulated nanoseconds per stage.
func (c *StageClock) Snapshot() [NumStages]int64 {
	var out [NumStages]int64
	if c == nil {
		return out
	}
	for i := range out {
		out[i] = c.ns[i].Load()
	}
	return out
}

// Total sums all stages. Spans can nest — batch-authorization time
// accrues inside script and render spans when a script or layout
// traversal queries the monitor — so the sum is an attribution
// measure, not a partition of wall time.
func (c *StageClock) Total() time.Duration {
	var t int64
	if c == nil {
		return 0
	}
	for i := range c.ns {
		t += c.ns[i].Load()
	}
	return time.Duration(t)
}

// Reset zeroes the clock for reuse.
func (c *StageClock) Reset() {
	if c == nil {
		return
	}
	for i := range c.ns {
		c.ns[i].Store(0)
	}
}

// StageSet is the sink finished clocks fold into: one registry
// histogram per stage, named escudo_stage_seconds with a stage label,
// so /varz exposes p50/p99 per stage and the mergeable snapshots feed
// the BENCH slo section. Construction registers the histograms;
// recording is lock-per-histogram with zero allocations on the warm
// path (the underlying metrics.Histogram grows its bucket slice
// once).
type StageSet struct {
	hists [NumStages]*Hist
}

// NewStageSet registers the per-stage histograms on reg.
func NewStageSet(reg *Registry) *StageSet {
	s := &StageSet{}
	for i := Stage(0); i < NumStages; i++ {
		s.hists[i] = reg.Histogram("escudo_stage_seconds", L("stage", i.String()))
	}
	return s
}

// Record folds a finished clock into the per-stage histograms. Stages
// the task never touched (zero nanoseconds) are skipped so in-memory
// runs don't flood the gateway-only stages with zeros. Nil-safe on
// both receiver and clock.
func (s *StageSet) Record(c *StageClock) {
	if s == nil || c == nil {
		return
	}
	for i := range c.ns {
		if ns := c.ns[i].Load(); ns > 0 {
			s.hists[i].Observe(time.Duration(ns))
		}
	}
}

// Observe records a single span directly, for paths (the gateway)
// that measure per-request stages without a per-task clock. Nil-safe.
func (s *StageSet) Observe(st Stage, d time.Duration) {
	if s == nil || st >= NumStages || d <= 0 {
		return
	}
	s.hists[st].Observe(d)
}

// Hist exposes the underlying registry histogram for stage st (nil if
// the set is nil) — the mergeable snapshot feeds BENCH sections.
func (s *StageSet) Hist(st Stage) *Hist {
	if s == nil || st >= NumStages {
		return nil
	}
	return s.hists[st]
}

// SlowExemplar is one retained slow task: its trace ID (joinable
// against /tracez and the decision ring), the phase that produced it,
// total latency, and the per-stage breakdown.
type SlowExemplar struct {
	TraceID string           `json:"trace_id"`
	Phase   string           `json:"phase"`
	TotalNs int64            `json:"total_ns"`
	Stages  map[string]int64 `json:"stages_ns,omitempty"`
}

// slowEntry is the internal, allocation-lean form: the stage map is
// materialized only at snapshot time.
type slowEntry struct {
	traceID string
	totalNs int64
	stages  [NumStages]int64
}

// DefaultSlowRingSize is the per-phase exemplar retention: the
// slowest 8 tasks per phase. Small on purpose — exemplars answer
// "show me one real slow trace", not "show me the distribution" (the
// histograms do that).
const DefaultSlowRingSize = 8

// SlowRing retains the slowest-N tasks per phase. Record is cheap to
// reject: a task faster than the phase's current floor takes the
// mutex, compares, and returns without allocating — the common case
// once the ring is warm. Snapshot returns exemplars sorted slowest
// first.
type SlowRing struct {
	mu     sync.Mutex
	size   int
	phases map[string][]slowEntry // each ascending by totalNs
}

// NewSlowRing returns a ring retaining the slowest n tasks per phase
// (DefaultSlowRingSize if n <= 0).
func NewSlowRing(n int) *SlowRing {
	if n <= 0 {
		n = DefaultSlowRingSize
	}
	return &SlowRing{size: n, phases: map[string][]slowEntry{}}
}

// Record offers one finished task. Tasks without a trace ID are
// dropped — an exemplar that can't be joined against /tracez is
// noise, not evidence. Tasks without a phase label are dropped too:
// they come from un-phased warmup pools (deliberately unmeasured),
// and an exemplar no ?phase= filter can select is equally useless.
func (r *SlowRing) Record(phase, traceID string, total time.Duration, stages [NumStages]int64) {
	if r == nil || traceID == "" || phase == "" {
		return
	}
	ns := int64(total)
	r.mu.Lock()
	defer r.mu.Unlock()
	entries := r.phases[phase]
	if len(entries) >= r.size && ns <= entries[0].totalNs {
		return // faster than the floor: reject without touching the ring
	}
	e := slowEntry{traceID: traceID, totalNs: ns, stages: stages}
	if len(entries) >= r.size {
		entries = entries[1:] // evict the floor
	}
	// Insert keeping ascending order; N is small, linear is fine.
	i := len(entries)
	entries = append(entries, slowEntry{})
	for i > 0 && entries[i-1].totalNs > ns {
		entries[i] = entries[i-1]
		i--
	}
	entries[i] = e
	r.phases[phase] = entries
}

// Floor returns the phase's current admission threshold: the fastest
// retained exemplar's total (0 until the ring is full).
func (r *SlowRing) Floor(phase string) time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	entries := r.phases[phase]
	if len(entries) < r.size {
		return 0
	}
	return time.Duration(entries[0].totalNs)
}

// Snapshot returns the retained exemplars, slowest first. With a
// non-empty phase only that phase's entries are returned; with ""
// all phases are merged (still slowest first).
func (r *SlowRing) Snapshot(phase string) []SlowExemplar {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var out []SlowExemplar
	emit := func(name string, entries []slowEntry) {
		for _, e := range entries {
			ex := SlowExemplar{
				TraceID: e.traceID,
				Phase:   name,
				TotalNs: e.totalNs,
				Stages:  map[string]int64{},
			}
			for i, ns := range e.stages {
				if ns > 0 {
					ex.Stages[stageNames[i]] = ns
				}
			}
			out = append(out, ex)
		}
	}
	if phase != "" {
		emit(phase, r.phases[phase])
	} else {
		for name, entries := range r.phases {
			emit(name, entries)
		}
	}
	r.mu.Unlock()
	// Slowest first for humans; insertion order inside the ring is
	// fastest-first.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].TotalNs < out[j].TotalNs; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Size returns the per-phase retention (slowest-N).
func (r *SlowRing) Size() int {
	if r == nil {
		return 0
	}
	return r.size
}

// Phases returns the phase names with retained exemplars.
func (r *SlowRing) Phases() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.phases))
	for name := range r.phases {
		names = append(names, name)
	}
	return names
}
