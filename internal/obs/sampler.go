package obs

import (
	"runtime"
	"sync"
	"time"
)

// SeriesInt summarizes one sampled gauge over a run: the first and
// last observations plus the running min/max. "Goroutines returned to
// the post-warmup band" is Last vs PostWarmupGoroutines.
type SeriesInt struct {
	First int64 `json:"first"`
	Last  int64 `json:"last"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// observe folds one sample into the series.
func (s *SeriesInt) observe(v int64, first bool) {
	if first {
		s.First, s.Min, s.Max = v, v, v
	}
	s.Last = v
	if v < s.Min {
		s.Min = v
	}
	if v > s.Max {
		s.Max = v
	}
}

// SamplerStats is a run's runtime-health summary: the obs section of
// BENCH_engine.json carries one.
type SamplerStats struct {
	Samples    int     `json:"samples"`
	IntervalMs float64 `json:"interval_ms"`
	// Goroutines tracks runtime.NumGoroutine.
	Goroutines SeriesInt `json:"goroutines"`
	// PostWarmupGoroutines is the goroutine count captured by Mark()
	// after the driver's warm-up — the baseline the soak gate bands
	// the final count against (0 when Mark was never called).
	PostWarmupGoroutines int64 `json:"post_warmup_goroutines,omitempty"`
	// HeapAllocBytes tracks runtime.MemStats.HeapAlloc.
	HeapAllocBytes SeriesInt `json:"heap_alloc_bytes"`
	// HeapSysBytes is the last-sampled runtime.MemStats.Sys — the
	// process's reserved (RSS-shaped) memory.
	HeapSysBytes int64 `json:"heap_sys_bytes"`
	// GCPauseTotalMs and NumGC are deltas since the sampler started.
	GCPauseTotalMs float64 `json:"gc_pause_total_ms"`
	NumGC          uint32  `json:"num_gc"`
	// HeapSeries, GoroutineSeries, and HeapSysSeries are the retained
	// time series behind the summary: bounded to maxRetainedSamples
	// points by stride-doubling downsampling, spaced SeriesStrideMs
	// apart. They are what the leak verdict regresses over, and what a
	// human plots when the verdict fires.
	HeapSeries      []int64 `json:"heap_series,omitempty"`
	GoroutineSeries []int64 `json:"goroutine_series,omitempty"`
	HeapSysSeries   []int64 `json:"heap_sys_series,omitempty"`
	SeriesStrideMs  float64 `json:"series_stride_ms,omitempty"`
}

// maxRetainedSamples bounds the retained series: past it every other
// point is dropped and the stride doubles, so an arbitrarily long
// soak keeps a constant-memory, evenly spaced series.
const maxRetainedSamples = 240

// DriftReport is the linear-drift leak verdict: a least-squares line
// through the retained heap series. A genuine leak grows the heap
// roughly linearly through GC oscillation; the verdict therefore
// requires BOTH a positive slope whose projected growth over the
// window is a substantial fraction of the mean heap AND a meaningful
// absolute growth — so GC noise on a small heap can't fire it, and a
// slow steady leak on a big heap can't hide in the relative term.
type DriftReport struct {
	// SlopeBytesPerSec is the fitted heap growth rate.
	SlopeBytesPerSec float64 `json:"slope_bytes_per_sec"`
	// GrowthFraction is the projected growth over the observed window
	// divided by the mean heap — the relative-drift term.
	GrowthFraction float64 `json:"growth_fraction"`
	// WindowSec is the time span the fit covered.
	WindowSec float64 `json:"window_sec"`
	// Points is how many series points went into the fit.
	Points int `json:"points"`
	// Suspected is the verdict: true when the fitted drift looks like
	// a leak. CI gates on false.
	Suspected bool `json:"leak_suspected"`
}

// Drift-verdict thresholds: the projected growth over the window must
// exceed a quarter of the mean heap AND 8 MiB before the verdict
// fires, and the fit needs enough points and span to mean anything.
const (
	driftMinPoints      = 8
	driftMinWindowSec   = 5.0
	driftMinFraction    = 0.25
	driftMinGrowthBytes = 8 << 20
)

// ComputeDrift fits a least-squares line through HeapSeries and
// returns the verdict, or nil when the series is too short to judge.
func (s *SamplerStats) ComputeDrift() *DriftReport {
	n := len(s.HeapSeries)
	if n < driftMinPoints || s.SeriesStrideMs <= 0 {
		return nil
	}
	window := s.SeriesStrideMs / 1e3 * float64(n-1)
	if window < driftMinWindowSec {
		return nil
	}
	// Least squares with x in seconds from the first point.
	var sumX, sumY, sumXY, sumXX, mean float64
	for i, y := range s.HeapSeries {
		x := float64(i) * s.SeriesStrideMs / 1e3
		fy := float64(y)
		sumX += x
		sumY += fy
		sumXY += x * fy
		sumXX += x * x
	}
	fn := float64(n)
	mean = sumY / fn
	denom := fn*sumXX - sumX*sumX
	if denom == 0 || mean <= 0 {
		return nil
	}
	slope := (fn*sumXY - sumX*sumY) / denom
	growth := slope * window
	d := &DriftReport{
		SlopeBytesPerSec: slope,
		GrowthFraction:   growth / mean,
		WindowSec:        window,
		Points:           n,
	}
	d.Suspected = growth > driftMinGrowthBytes && d.GrowthFraction > driftMinFraction
	return d
}

// Sampler periodically samples runtime health — goroutine count, heap
// in use, reserved memory, GC pause time — into registry gauges and a
// running summary. One Sampler serves a whole process.
type Sampler struct {
	reg      *Registry
	interval time.Duration

	mu        sync.Mutex
	stats     SamplerStats
	started   bool
	baseGC    uint32
	basePause uint64
	// strideTicks/tick implement the stride-doubling downsampler: only
	// every strideTicks-th sample is retained in the series, and when
	// the series fills, every other retained point is dropped and the
	// stride doubles.
	strideTicks int
	tick        int

	stop chan struct{}
	done chan struct{}

	gGoroutines *Gauge
	gHeapAlloc  *Gauge
	gHeapSys    *Gauge
	gGCPauseNs  *Gauge
	gNumGC      *Gauge
}

// NewSampler builds a sampler publishing into reg (nil is allowed:
// the summary still accumulates, nothing is exported). interval <= 0
// defaults to one second.
func NewSampler(reg *Registry, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = time.Second
	}
	s := &Sampler{
		reg:      reg,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.stats.IntervalMs = float64(interval.Nanoseconds()) / 1e6
	s.stats.SeriesStrideMs = s.stats.IntervalMs
	s.strideTicks = 1
	if reg != nil {
		s.gGoroutines = reg.Gauge("escudo_goroutines")
		s.gHeapAlloc = reg.Gauge("escudo_heap_alloc_bytes")
		s.gHeapSys = reg.Gauge("escudo_heap_sys_bytes")
		s.gGCPauseNs = reg.Gauge("escudo_gc_pause_total_ns")
		s.gNumGC = reg.Gauge("escudo_gc_cycles_total")
	}
	return s
}

// Start samples once immediately (so short runs still have a first
// sample) and then on every interval tick until Stop.
func (s *Sampler) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.baseGC = m.NumGC
	s.basePause = m.PauseTotalNs
	s.mu.Unlock()

	s.Sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Sample()
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop halts the background loop, takes one final sample, and returns
// the summary.
func (s *Sampler) Stop() SamplerStats {
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		select {
		case <-s.stop:
		default:
			close(s.stop)
		}
		<-s.done
	}
	s.Sample()
	return s.Stats()
}

// halveSeries drops every other point in place (keeping even indices,
// so the first point survives) — one stride-doubling step.
func halveSeries(v []int64) []int64 {
	n := 0
	for i := 0; i < len(v); i += 2 {
		v[n] = v[i]
		n++
	}
	return v[:n]
}

// Sample takes one observation now. Phase boundaries call it so the
// series brackets the interesting moments even when the run is
// shorter than the tick interval.
func (s *Sampler) Sample() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	goroutines := int64(runtime.NumGoroutine())

	s.mu.Lock()
	first := s.stats.Samples == 0
	s.stats.Samples++
	s.stats.Goroutines.observe(goroutines, first)
	s.stats.HeapAllocBytes.observe(int64(m.HeapAlloc), first)
	s.stats.HeapSysBytes = int64(m.Sys)
	s.stats.GCPauseTotalMs = float64(m.PauseTotalNs-s.basePause) / 1e6
	s.stats.NumGC = m.NumGC - s.baseGC
	if s.tick%s.strideTicks == 0 {
		s.stats.HeapSeries = append(s.stats.HeapSeries, int64(m.HeapAlloc))
		s.stats.GoroutineSeries = append(s.stats.GoroutineSeries, goroutines)
		s.stats.HeapSysSeries = append(s.stats.HeapSysSeries, int64(m.Sys))
		if len(s.stats.HeapSeries) > maxRetainedSamples {
			s.stats.HeapSeries = halveSeries(s.stats.HeapSeries)
			s.stats.GoroutineSeries = halveSeries(s.stats.GoroutineSeries)
			s.stats.HeapSysSeries = halveSeries(s.stats.HeapSysSeries)
			s.strideTicks *= 2
			s.stats.SeriesStrideMs *= 2
		}
	}
	s.tick++
	s.mu.Unlock()

	if s.gGoroutines != nil {
		s.gGoroutines.Set(goroutines)
		s.gHeapAlloc.Set(int64(m.HeapAlloc))
		s.gHeapSys.Set(int64(m.Sys))
		s.gGCPauseNs.Set(int64(m.PauseTotalNs - s.basePause))
		s.gNumGC.Set(int64(m.NumGC - s.baseGC))
	}
}

// Mark records the post-warmup goroutine baseline the soak gate bands
// the run's final count against.
func (s *Sampler) Mark() {
	g := int64(runtime.NumGoroutine())
	s.mu.Lock()
	s.stats.PostWarmupGoroutines = g
	s.mu.Unlock()
}

// Stats snapshots the summary so far. The retained series are copied
// so the snapshot can't be mutated by later sampling.
func (s *Sampler) Stats() SamplerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.HeapSeries = append([]int64(nil), s.stats.HeapSeries...)
	out.GoroutineSeries = append([]int64(nil), s.stats.GoroutineSeries...)
	out.HeapSysSeries = append([]int64(nil), s.stats.HeapSysSeries...)
	return out
}
