package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/raceflag"
)

func TestTraceIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTrace().ID()
		if id == "" {
			t.Fatal("empty trace ID")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	if tr.Spans() != 0 {
		t.Fatalf("fresh trace has %d spans", tr.Spans())
	}
	if got := tr.NextSpan(); got != 1 {
		t.Fatalf("first span = %d, want 1", got)
	}
	if got := tr.NextSpan(); got != 2 {
		t.Fatalf("second span = %d, want 2", got)
	}
	if tr.Spans() != 2 {
		t.Fatalf("Spans() = %d, want 2", tr.Spans())
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.NextSpan() != 0 || tr.Spans() != 0 {
		t.Fatal("nil trace must be inert")
	}
	if Adopt("") != nil {
		t.Fatal("Adopt(\"\") must be nil")
	}
	ad := Adopt("abc-123")
	if ad.ID() != "abc-123" {
		t.Fatalf("adopted ID = %q", ad.ID())
	}
	if ad.NextSpan() != 1 {
		t.Fatal("adopted trace must continue spans locally")
	}
}

func TestRegistryIdempotentAndTyped(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("reqs", L("origin", "a.test"))
	c2 := r.Counter("reqs", L("origin", "a.test"))
	if c1 != c2 {
		t.Fatal("re-registering the same counter must return the same handle")
	}
	if c3 := r.Counter("reqs", L("origin", "b.test")); c3 == c1 {
		t.Fatal("different label sets must get distinct handles")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("reqs", L("origin", "a.test"))
}

func TestRegistryExpose(t *testing.T) {
	r := NewRegistry()
	r.Counter("escudo_requests_total", L("origin", "a.test")).Add(7)
	r.Counter("escudo_requests_total", L("origin", "b.test")).Add(3)
	r.Gauge("escudo_goroutines").Set(42)
	h := r.Histogram("escudo_task_seconds", L("phase", "figure4"))
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	out := r.Expose()
	for _, want := range []string{
		"# TYPE escudo_requests_total counter",
		`escudo_requests_total{origin="a.test"} 7`,
		`escudo_requests_total{origin="b.test"} 3`,
		"# TYPE escudo_goroutines gauge",
		"escudo_goroutines 42",
		"# TYPE escudo_task_seconds summary",
		`escudo_task_seconds{phase="figure4",quantile="0.5"}`,
		`escudo_task_seconds{phase="figure4",quantile="0.99"}`,
		`escudo_task_seconds_count{phase="figure4"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE escudo_requests_total counter") != 1 {
		t.Fatalf("TYPE header repeated:\n%s", out)
	}
	snap := r.Snapshot()
	if snap[`escudo_requests_total{origin="a.test"}`] != 7 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap["escudo_goroutines"] != 42 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestRegistryConcurrentLookup(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("c", L("k", "v")).Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c", L("k", "v")).Value(); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
}

// The registry's promise is zero-alloc recording through a warm
// handle — the same bar the PR 7 request path meets.
func TestRecordingAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	h.Observe(time.Hour) // grow buckets to capacity once
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(5)
		h.Observe(time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("hot-path recording allocates %.1f/op, want 0", allocs)
	}
	// Handle lookup for an already-registered metric must also stay
	// clean so call sites may resolve lazily without a hidden cost.
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Counter("c").Inc()
	}); allocs != 0 {
		t.Fatalf("warm unlabeled lookup allocates %.1f/op, want 0", allocs)
	}
}

func TestSampler(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, 10*time.Millisecond)
	s.Start()
	s.Mark()
	time.Sleep(35 * time.Millisecond)
	stats := s.Stop()
	if stats.Samples < 2 {
		t.Fatalf("samples = %d, want >= 2", stats.Samples)
	}
	if stats.Goroutines.Last <= 0 || stats.HeapAllocBytes.Last <= 0 {
		t.Fatalf("empty series: %+v", stats)
	}
	if stats.PostWarmupGoroutines <= 0 {
		t.Fatal("Mark() did not record a baseline")
	}
	if reg.Gauge("escudo_goroutines").Value() <= 0 {
		t.Fatal("sampler did not publish gauges")
	}
	// Stop is idempotent-ish: calling Stats after Stop still works.
	if s.Stats().Samples != stats.Samples {
		t.Fatal("stats changed after stop")
	}
}

func TestSamplerMerge(t *testing.T) {
	a := SamplerStats{Samples: 3, Goroutines: SeriesInt{First: 10, Last: 11, Min: 9, Max: 12},
		HeapAllocBytes: SeriesInt{First: 100, Last: 90, Min: 80, Max: 120},
		HeapMonotonic:  false, HeapSysBytes: 1000, GCPauseTotalMs: 1.5, NumGC: 2, PostWarmupGoroutines: 10}
	b := SamplerStats{Samples: 4, Goroutines: SeriesInt{First: 5, Last: 6, Min: 5, Max: 7},
		HeapAllocBytes: SeriesInt{First: 50, Last: 60, Min: 50, Max: 60},
		HeapMonotonic:  true, HeapSysBytes: 500, GCPauseTotalMs: 0.5, NumGC: 1, PostWarmupGoroutines: 5}
	a.Merge(b)
	if a.Samples != 7 || a.Goroutines.Last != 17 || a.Goroutines.Max != 19 {
		t.Fatalf("merge: %+v", a)
	}
	if a.HeapMonotonic {
		t.Fatal("merged HeapMonotonic must be false when any worker dipped")
	}
	if a.NumGC != 3 || a.HeapSysBytes != 1500 || a.PostWarmupGoroutines != 15 {
		t.Fatalf("merge: %+v", a)
	}
}

func TestVersionStamp(t *testing.T) {
	v := Version()
	if v.Module == "" || v.Go == "" || v.GOMAXPROCS <= 0 {
		t.Fatalf("incomplete stamp: %+v", v)
	}
	if !SameBinary(v, Version()) {
		t.Fatal("a process must match its own stamp")
	}
	other := v
	other.Go = "go0.0"
	if SameBinary(v, other) {
		t.Fatal("different toolchains must not match")
	}
	other = v
	other.GOMAXPROCS = v.GOMAXPROCS + 1
	if !SameBinary(v, other) {
		t.Fatal("GOMAXPROCS must not affect binary identity")
	}
}
