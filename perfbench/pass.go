package main

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/httpd"
	"repro/internal/obs"
	"repro/internal/script"
)

// trimEvery is the op count of a block: the audit and request logs are
// trimmed after every block, and interleaved passes alternate by
// block. Trimming on op count keeps the retained state, and so the
// live heap, a function of the op sequence alone. It is a multiple of
// every workload's cycle.
const trimEvery = 80

// segmentOps is the op count of a segment, the unit the time metrics
// are taken over: about one nominal second of the workload in whole
// blocks, and never under 1040 ops, so that ten of a segment's ops lie
// beyond its 99th percentile. A segment holds many collection cycles.
func segmentOps(w *spec) int {
	return roundUp(max(w.rate, 1040), trimEvery)
}

func roundUp(n, m int) int { return (n + m - 1) / m * m }

// sequence draws the warm-up and timed op sequences from the seed,
// off the Go heap like the other per-op records. The timed count is
// rate × seconds rounded up to whole segments.
func sequence(w *spec, seed uint64, seconds int) (warm, timed []op, err error) {
	n := roundUp(w.rate*seconds, segmentOps(w))
	nw := roundUp(w.warm, w.cycle)
	all, err := offHeap[op](nw + n)
	if err != nil {
		return nil, nil, err
	}
	copy(all, w.gen(rand.New(rand.NewPCG(seed, 0x7065726662656e63)), nw+n))
	return all[:nw], all[nw:], nil
}

// setUp builds a fixture and runs the fixed warm-up sequence on it.
func setUp(w *spec, cfg fixtureConfig, warm []op) (fixture, error) {
	fx, err := w.build(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if _, err := runPass(w, fx, warm, nil, nil); err != nil {
		fx.base().close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return fx, nil
}

// passResult is what one pass over an op sequence measured.
type passResult struct {
	ops int
	// lat holds every op latency, sorted once the pass ends.
	lat []time.Duration
	// seg holds what each segment of the pass measured.
	seg []segment
	// decisions is the audited decision count of each op.
	decisions []int32
	// denials and denialHash fold every denied decision in order.
	denials    int
	denialHash uint64

	wall, cpu  time.Duration
	mallocs    uint64
	allocBytes uint64
	gc, gcAll  float64 // GC and total CPU seconds, runtime estimates
	liveHeap   uint64

	batch                      core.BatchStats
	cache                      core.CacheStats
	compileHits, compileMisses uint64
	client                     httpd.ClientStats

	// stage sums the ops' obs stage clocks (when they are on); replay
	// holds each replayer's timings.
	stage  [obs.NumStages]int64
	replay []replayStats
	// kinds is the latency breakdown by op kind, for the report.
	kinds []string
}

// kindBreakdown summarises latencies per op label, in first-seen order.
func kindBreakdown(ops []op, lat []time.Duration) []string {
	by := map[string][]time.Duration{}
	var order []string
	for i, o := range ops[:len(lat)] {
		k := o.label()
		if _, ok := by[k]; !ok {
			order = append(order, k)
		}
		by[k] = append(by[k], lat[i])
	}
	slices.Sort(order)
	var out []string
	for _, k := range order {
		d := by[k]
		slices.Sort(d)
		out = append(out, fmt.Sprintf("%s n=%d p50=%.3fms p99=%.3fms", k, len(d), float64(quantile(d, 0.5))/1e6, float64(quantile(d, 0.99))/1e6))
	}
	return out
}

func (p *passResult) gcFrac() float64 { return ratio(p.gc, p.gcAll) }

// segment is one segment's charged wall and CPU time and its exact
// latency percentiles.
type segment struct {
	ops       int
	wall, cpu time.Duration
	p50, p99  time.Duration
}

// segMedian is the median over the pass's segments of f. Taken this
// way, a burst of host noise that slows a few segments barely moves a
// time metric, where it would move a whole-window total.
func (p *passResult) segMedian(f func(s segment) float64) float64 {
	xs := make([]float64, len(p.seg))
	for i, s := range p.seg {
		xs[i] = f(s)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

// counters are the process-wide readings a block is charged by.
type counters struct {
	at           time.Time
	cpu          time.Duration
	gc, gcAll    float64
	mallocs      uint64
	allocBytes   uint64
	batch        core.BatchStats
	hits, misses uint64
}

// readCounters reads them; the clocks are read last at the start of a
// block and first at its end, so the reading itself is not charged.
func readCounters(start bool) counters {
	var c counters
	clocks := func() {
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		c.at = time.Now()
	}
	if !start {
		clocks()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	c.gc, c.gcAll = s[0].Value.Float64(), s[1].Value.Float64()
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	c.batch = core.ReadBatchStats()
	c.hits, c.misses = script.CompileCacheStats()
	if start {
		clocks()
	}
	return c
}

// charge adds the counters moved between c0 and c1 to the pass and to
// its segment seg.
func (p *passResult) charge(c0, c1 counters, seg int) {
	p.wall += c1.at.Sub(c0.at)
	p.cpu += c1.cpu - c0.cpu
	p.seg[seg].wall += c1.at.Sub(c0.at)
	p.seg[seg].cpu += c1.cpu - c0.cpu
	p.gc += c1.gc - c0.gc
	p.gcAll += c1.gcAll - c0.gcAll
	p.mallocs += c1.mallocs - c0.mallocs
	p.allocBytes += c1.allocBytes - c0.allocBytes
	b := c1.batch.Sub(c0.batch)
	p.batch.Nodes += b.Nodes
	p.batch.Distinct += b.Distinct
	p.compileHits += c1.hits - c0.hits
	p.compileMisses += c1.misses - c0.misses
}

// lane is one fixture running a pass over the op sequence. Several
// lanes can run interleaved block by block, so that passes compared
// with each other see the same machine: the host's speed drifts by
// tens of percent over seconds, far more than the differences the
// traced run reports.
type lane struct {
	w   *spec
	ops []op
	fx  fixture
	tr  *tracer
	rps []*replayer
	// replayEvery replays one block in this many; the others' pages
	// are dropped.
	replayEvery int
	segOps      int
	r           *passResult

	cur    op
	opErr  error
	queue  int32
	task   engine.Task
	prev   int
	first  map[op]int32
	failed []error
	fold   hash.Hash64
	cache0 core.CacheStats
	cli0   httpd.ClientStats
}

func newLane(w *spec, fx fixture, tr *tracer, rps []*replayer, n int) (*lane, error) {
	lat, err := offHeap[time.Duration](n)
	if err != nil {
		return nil, err
	}
	decisions, err := offHeap[int32](n)
	if err != nil {
		return nil, err
	}
	segOps := segmentOps(w)
	l := &lane{w: w, fx: fx, tr: tr, rps: rps, replayEvery: 1, first: map[op]int32{}, fold: fnv.New64a(), queue: -1, segOps: segOps,
		r: &passResult{ops: n, lat: lat[:0], decisions: decisions[:0], seg: make([]segment, roundUp(n, segOps)/segOps)}}
	l.task = func(s *engine.Session) error {
		l.tr.end(l.queue)
		l.opErr = l.fx.do(s, l.cur)
		if c := s.Browser.StageClock(); c != nil {
			for i, ns := range c.Snapshot() {
				l.r.stage[i] += ns
			}
		}
		return l.opErr
	}
	return l, nil
}

// runPass runs ops closed-loop on one fixture.
func runPass(w *spec, fx fixture, ops []op, tr *tracer, rps []*replayer) (*passResult, error) {
	l, err := newLane(w, fx, tr, rps, len(ops))
	if err != nil {
		return nil, err
	}
	err = runLanes(ops, l)
	return l.r, err
}

// runLanes runs the op sequence on every lane, one block at a time per
// lane in rotating order. Each op is submitted to the lane's
// one-session engine pool and the next waits for it. Every op's
// outputs are checked; a failed op fails the pass.
func runLanes(ops []op, lanes ...*lane) error {
	for _, l := range lanes {
		l.ops = ops
		s := l.fx.base()
		s.audit().Reset()
		s.net.ResetLog()
		l.cache0 = s.cache.Stats()
		if s.client != nil {
			l.cli0 = s.client.Stats()
		}
	}
	runtime.GC()
	for b, round := 0, 0; b < len(ops); b, round = b+trimEvery, round+1 {
		end := min(b+trimEvery, len(ops))
		for k := range lanes {
			if err := lanes[(round+k)%len(lanes)].block(ops, b, end, round); err != nil {
				return err
			}
		}
	}
	var errs []error
	for _, l := range lanes {
		if err := l.finish(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	// The live heap after a forced collection: fixtures, caches, the
	// trimmed logs and whatever state the ops added.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for _, l := range lanes {
		l.r.liveHeap = ms.HeapAlloc
	}
	return nil
}

// block runs ops[b:end] on the lane and charges them to its pass;
// then, uncharged, it trims the logs and replays the block's pages
// when this block is sampled for replay.
func (l *lane) block(ops []op, b, end, round int) error {
	s := l.fx.base()
	audit := s.audit()
	r := l.r
	c0 := readCounters(true)
	for i := b; i < end; i++ {
		o := ops[i]
		l.cur = o
		sp := l.tr.beginOp(i)
		t0 := time.Now()
		l.queue = l.tr.begin(spanQueue)
		if err := s.pool.Submit(l.task); err != nil {
			return err
		}
		s.pool.Wait()
		r.lat = append(r.lat, time.Since(t0))
		l.tr.end(sp)

		n := audit.Len()
		dec := int32(n - l.prev)
		l.prev = n
		r.decisions = append(r.decisions, dec)
		err := l.opErr
		if err == nil && l.w.fixedDecisions {
			if want, ok := l.first[o]; !ok {
				l.first[o] = dec
			} else if dec != want {
				err = fmt.Errorf("%d audited decisions, the first identical op made %d", dec, want)
			}
		}
		if err != nil {
			l.failed = append(l.failed, fmt.Errorf("op %d (kind %d, arg %d): %w", i, o.kind, o.arg, err))
		}
	}
	r.charge(c0, readCounters(false), b/l.segOps)

	for _, d := range audit.Denials() {
		r.denials++
		fmt.Fprintf(l.fold, "%d/%d/%d/%d/%s;", d.Rule, d.Op, d.Principal.Ring, d.Object.Ring, d.Principal.Label)
	}
	audit.Reset()
	s.net.ResetLog()
	l.prev = 0
	if len(l.rps) > 0 {
		pages := l.tr.takeCaptured()
		if round%l.replayEvery == 0 {
			for _, rp := range l.rps {
				if err := rp.run(pages, end-b); err != nil {
					return fmt.Errorf("replay: %w", err)
				}
			}
		}
	}
	return nil
}

// finish closes the lane's pass and runs the end-of-window gates.
func (l *lane) finish() error {
	r := l.r
	s := l.fx.base()
	r.cache = s.cache.Stats().Sub(l.cache0)
	if s.client != nil {
		r.client = s.client.Stats().Sub(l.cli0)
	}
	for _, rp := range l.rps {
		r.replay = append(r.replay, rp.stats)
	}
	r.denialHash = l.fold.Sum64()
	r.kinds = kindBreakdown(l.ops, r.lat)
	for k := range r.seg {
		lat := r.lat[k*l.segOps : min((k+1)*l.segOps, len(r.lat))]
		slices.Sort(lat)
		s := &r.seg[k]
		s.ops, s.p50, s.p99 = len(lat), quantile(lat, 0.50), quantile(lat, 0.99)
	}
	slices.Sort(r.lat)
	if l.tr != nil && l.tr.dropped > 0 {
		l.failed = append(l.failed, fmt.Errorf("span storage ran out: %d spans dropped", l.tr.dropped))
	}
	if len(l.failed) > 0 {
		return fmt.Errorf("%d of %d ops failed; first: %w", len(l.failed), r.ops, l.failed[0])
	}
	return l.fx.finish()
}

// quantile is the nearest-rank percentile of sorted durations.
func quantile(sorted []time.Duration, p float64) time.Duration {
	i := int(math.Ceil(float64(len(sorted))*p)) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// reconcile checks that an instrumented pass made exactly the
// decisions, batch classes and verdicts its untraced twin made:
// observation never decides.
func reconcile(u, t *passResult) error {
	var errs []error
	if !slices.Equal(u.decisions, t.decisions) {
		errs = append(errs, fmt.Errorf("per-op decision counts differ (untraced %d total, traced %d)", sum32(u.decisions), sum32(t.decisions)))
	}
	if u.batch != t.batch {
		errs = append(errs, fmt.Errorf("batch nodes/distinct differ: untraced %d/%d, traced %d/%d", u.batch.Nodes, u.batch.Distinct, t.batch.Nodes, t.batch.Distinct))
	}
	if u.denials != t.denials || u.denialHash != t.denialHash {
		errs = append(errs, fmt.Errorf("denied verdicts differ: untraced %d (%x), traced %d (%x)", u.denials, u.denialHash, t.denials, t.denialHash))
	}
	if u.cache.Hits != t.cache.Hits || u.cache.Misses != t.cache.Misses {
		errs = append(errs, fmt.Errorf("decision cache differs: untraced %d/%d hits/misses, traced %d/%d", u.cache.Hits, u.cache.Misses, t.cache.Hits, t.cache.Misses))
	}
	return errors.Join(errs...)
}

func sum32(xs []int32) int64 {
	var s int64
	for _, x := range xs {
		s += int64(x)
	}
	return s
}

// escudoMode and sopMode are the two protection models compared.
var (
	escudoMode = browser.ModeEscudo
	sopMode    = browser.ModeSOP
)

// sopStack is the SOP browser's policy stack.
func sopStack(c *core.DecisionCache) core.Monitor {
	return core.Compose(&core.SOPMonitor{}, core.WithCache(c))
}
