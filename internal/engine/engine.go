// Package engine runs many independent browser sessions concurrently
// against one in-memory web substrate. It is the scaffolding for the
// production-scale goal: each session owns its own browser.Browser
// (cookie jar, history, audit log, DOM state), all sessions share one
// web.Network of server applications and one core.DecisionCache, and
// a task queue spreads work across the sessions. The reference monitor
// stays the single chokepoint per page; the pool makes the chokepoints
// run in parallel with a shared memo of verdicts.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/web"
)

// Config configures a Pool.
type Config struct {
	// Sessions is the number of concurrent sessions (default 8).
	Sessions int
	// Transport is the substrate the sessions fetch through: the shared
	// in-memory *web.Network, or e.g. an httpd.ClientTransport speaking
	// real HTTP to a gateway over loopback. Exactly the same sessions,
	// tasks, and stats run either way; only the carrier changes.
	Transport web.Transport
	// Options is the per-browser configuration. Options.Cache is
	// overridden with the pool's shared cache.
	Options browser.Options
	// Cache is the shared decision cache; nil allocates a fresh one.
	Cache *core.DecisionCache
	// Stages, when non-nil, enables latency attribution: every task
	// runs with a per-session obs.StageClock installed on its browser,
	// and finished clocks fold into the set's per-stage histograms.
	// Timing never changes decisions (invariant 9).
	Stages *obs.StageSet
	// Slow, when non-nil, retains the slowest tasks per phase (see
	// SetPhase) as trace-ID-keyed exemplars. Requires Stages.
	Slow *obs.SlowRing
}

// Session is one concurrent browsing session: an execution slot with
// its own browser.
type Session struct {
	// ID numbers the session within its pool, 0-based.
	ID int
	// Browser is the session's private browser.
	Browser *browser.Browser

	// Latency is folded straight into a bucketed histogram plus a
	// running sum and max instead of an append-per-task sample slice:
	// record is on the per-request hot path and must not allocate in
	// steady state (the histogram's counts slice reaches full capacity
	// once and stays there). Percentiles come from the histogram,
	// merged across the pool's sessions in Stats.
	hist   metrics.Histogram
	latSum time.Duration
	latMax time.Duration
	done   uint64
	errs   []error
	mu     sync.Mutex

	// clock is the session's reusable stage clock (nil when the pool
	// runs without latency attribution). One task runs on a session at
	// a time, so resetting between tasks is race-free.
	clock *obs.StageClock
}

// record logs one task execution on this session. Only the session's
// worker goroutine calls it during a run; the mutex makes Stats safe
// to call concurrently anyway.
func (s *Session) record(d time.Duration, err error) {
	s.mu.Lock()
	s.hist.Observe(d)
	s.latSum += d
	if d > s.latMax {
		s.latMax = d
	}
	s.done++
	if err != nil {
		s.errs = append(s.errs, fmt.Errorf("session %d: %w", s.ID, err))
	}
	s.mu.Unlock()
}

// Task is one unit of work executed on a session.
type Task func(s *Session) error

// Pool runs tasks across a fixed set of sessions.
type Pool struct {
	cfg      Config
	cache    *core.DecisionCache
	sessions []*Session
	tasks    chan Task
	pending  sync.WaitGroup
	workers  sync.WaitGroup
	closed   bool
	mu       sync.Mutex
	// batchBase is the batch-counter snapshot taken at the last
	// ResetStats, so Stats reports per-phase deltas of the batched
	// authorization counters.
	batchBase core.BatchStats
	// phase labels the workload currently running, for the slow-ring's
	// per-phase exemplar retention. Swapped via SetPhase between
	// benchmark phases; read per task completion.
	phase atomic.Pointer[string]
}

// ErrClosed reports a submit to a closed pool.
var ErrClosed = errors.New("engine: pool closed")

// NewPool builds the sessions and starts one worker goroutine per
// session, each consuming from a shared queue.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.Transport == nil {
		return nil, errors.New("engine: Config.Transport is required")
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 8
	}
	p := &Pool{cfg: cfg, cache: cfg.Cache}
	if p.cache == nil {
		p.cache = core.NewDecisionCache()
	}
	// The task queue holds four tasks per session.
	p.tasks = make(chan Task, 4*cfg.Sessions)
	p.batchBase = core.ReadBatchStats()
	for i := 0; i < cfg.Sessions; i++ {
		opts := cfg.Options
		opts.Cache = p.cache
		s := &Session{ID: i, Browser: browser.New(cfg.Transport, opts)}
		if cfg.Stages != nil {
			s.clock = obs.NewStageClock()
		}
		p.sessions = append(p.sessions, s)
		p.workers.Add(1)
		go p.work(s)
	}
	return p, nil
}

// SetPhase labels the workload about to run; the slow-ring retains
// exemplars per phase label.
func (p *Pool) SetPhase(name string) { p.phase.Store(&name) }

// Phase returns the current workload label ("" before SetPhase).
func (p *Pool) Phase() string {
	if s := p.phase.Load(); s != nil {
		return *s
	}
	return ""
}

// runTask executes one task on a session with its full observability
// harness: a fresh trace, the session's stage clock (when attribution
// is on), wall-clock recording, and — for timed pools — the clock
// folded into the per-stage histograms and the task offered to the
// slow-ring as an exemplar keyed by its trace ID.
func (p *Pool) runTask(s *Session, t Task) {
	s.Browser.SetTrace(obs.NewTrace())
	if s.clock != nil {
		s.clock.Reset()
		s.Browser.SetStageClock(s.clock)
	}
	start := time.Now()
	err := t(s)
	d := time.Since(start)
	s.record(d, err)
	if s.clock != nil {
		s.Browser.SetStageClock(nil)
		p.cfg.Stages.Record(s.clock)
		p.cfg.Slow.Record(p.Phase(), s.Browser.Trace().ID(), d, s.clock.Snapshot())
	}
	s.Browser.SetTrace(nil)
}

// work is one session's loop: pull a task, mint its trace, run it,
// time it. The trace is the unit of provenance: every request the
// task issues and every decision its mediation produces carries this
// task's trace ID (see internal/obs).
func (p *Pool) work(s *Session) {
	defer p.workers.Done()
	for task := range p.tasks {
		p.runTask(s, task)
		p.pending.Done()
	}
}

// Cache returns the shared decision cache.
func (p *Pool) Cache() *core.DecisionCache { return p.cache }

// Sessions returns the pool's sessions (stable after NewPool).
func (p *Pool) Sessions() []*Session { return p.sessions }

// Submit enqueues a task for whichever session frees up first. It
// blocks when the queue is full, providing natural backpressure.
func (p *Pool) Submit(t Task) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.pending.Add(1)
	p.mu.Unlock()
	p.tasks <- t
	return nil
}

// TrySubmit enqueues a task only if the queue has room, never
// blocking. Open-loop load generation uses it: an arrival that can't
// be admitted is a drop (overload evidence), not backpressure —
// blocking the arrival process would silently turn the open loop
// closed. Returns false when the queue is full.
func (p *Pool) TrySubmit(t Task) (bool, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false, ErrClosed
	}
	p.pending.Add(1)
	p.mu.Unlock()
	select {
	case p.tasks <- t:
		return true, nil
	default:
		p.pending.Done()
		return false, nil
	}
}

// Wait blocks until every submitted task has finished. The pool stays
// usable; more work may be submitted afterwards.
func (p *Pool) Wait() {
	p.pending.Wait()
}

// Each runs one instance of the task on every session concurrently and
// waits for all of them — the fan-out used to replay a scenario across
// the whole pool. It bypasses the shared queue so each instance is
// pinned to its session.
func (p *Pool) Each(t Task) {
	var wg sync.WaitGroup
	for _, s := range p.sessions {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			p.runTask(s, t)
		}(s)
	}
	wg.Wait()
}

// Close drains the queue and stops the workers. Further submits fail
// with ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.pending.Wait()
	close(p.tasks)
	p.workers.Wait()
}

// Stats summarizes a run across all sessions.
type Stats struct {
	// Sessions is the pool size.
	Sessions int
	// Tasks counts completed task executions (Submit and Each).
	Tasks uint64
	// Errors collects task errors in session order.
	Errors []error
	// P50, P99, Mean, Max summarize per-task wall-clock latency. The
	// percentiles are computed from Hist (bucket upper bounds, ≤12.5%
	// relative error). Mean and Max are exact.
	P50, P99, Mean, Max time.Duration
	// Hist is the bucketed form of the same latencies, merged across
	// the pool's sessions; the open-loop section reports it whole.
	Hist metrics.Histogram
	// Decisions counts reference-monitor decisions recorded by every
	// session's audit log.
	Decisions uint64
	// GenMix folds every session's per-page policy-generation audit
	// (core.AuditLog.GenerationMix): after a live flip, Generations ≥ 2
	// and Mixed must still be 0 — no page load saw two generations.
	GenMix core.GenerationMix
	// Cache snapshots the shared decision cache.
	Cache core.CacheStats
	// Batch is the delta of the batched-authorization counters since
	// the last ResetStats: how many DOM nodes were authorized through
	// the batched path vs. how many distinct decisions were actually
	// computed. (The counters are process-wide, so run one pool at a
	// time when reading them.)
	Batch core.BatchStats
}

// Stats merges every session's measurements. Call it after Wait (or
// between phases); calling mid-flight is safe but yields a torn
// snapshot.
func (p *Pool) Stats() Stats {
	st := Stats{Sessions: len(p.sessions)}
	var sum time.Duration
	for _, s := range p.sessions {
		s.mu.Lock()
		st.Tasks += s.done
		st.Errors = append(st.Errors, s.errs...)
		st.Hist.Merge(s.hist)
		sum += s.latSum
		if s.latMax > st.Max {
			st.Max = s.latMax
		}
		s.mu.Unlock()
		st.Decisions += uint64(s.Browser.Audit.Len())
		st.GenMix = st.GenMix.Add(s.Browser.Audit.GenerationMix())
	}
	st.P50 = st.Hist.Quantile(50)
	st.P99 = st.Hist.Quantile(99)
	if st.Tasks > 0 {
		st.Mean = sum / time.Duration(st.Tasks)
	}
	st.Cache = p.cache.Stats()
	p.mu.Lock()
	base := p.batchBase
	p.mu.Unlock()
	st.Batch = core.ReadBatchStats().Sub(base)
	return st
}

// ResetStats clears per-session latency samples, task counts, errors,
// and audit logs, so each benchmark phase starts from zero. The shared
// decision cache is left warm (its counters are deltas via
// CacheStats.Sub).
func (p *Pool) ResetStats() {
	for _, s := range p.sessions {
		s.mu.Lock()
		// Zero the histogram in place, keeping its capacity: the full
		// backing array is cleared (not just the live prefix) so counts
		// beyond a later reslice cannot resurface.
		full := s.hist.Counts[:cap(s.hist.Counts)]
		clear(full)
		s.hist.Counts = full[:0]
		s.latSum = 0
		s.latMax = 0
		s.done = 0
		s.errs = nil
		s.mu.Unlock()
		s.Browser.Audit.Reset()
	}
	p.mu.Lock()
	p.batchBase = core.ReadBatchStats()
	p.mu.Unlock()
}
