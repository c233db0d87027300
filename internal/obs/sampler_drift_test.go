package obs

import (
	"testing"
	"time"
)

// syntheticStats builds a SamplerStats whose heap series follows gen.
func syntheticStats(n int, strideMs float64, gen func(i int) int64) SamplerStats {
	s := SamplerStats{SeriesStrideMs: strideMs}
	for i := 0; i < n; i++ {
		s.HeapSeries = append(s.HeapSeries, gen(i))
	}
	return s
}

func TestDriftVerdictFiresOnLinearGrowth(t *testing.T) {
	// 64 points, 200ms apart (12.6s window), 2 MiB growth per point
	// from a 16 MiB base: unambiguous leak shape.
	s := syntheticStats(64, 200, func(i int) int64 {
		return 16<<20 + int64(i)*(2<<20)
	})
	d := s.ComputeDrift()
	if d == nil {
		t.Fatal("ComputeDrift returned nil for a long leaking series")
	}
	if !d.Suspected {
		t.Fatalf("leak not suspected: %+v", d)
	}
	if d.SlopeBytesPerSec < float64(1<<20) {
		t.Fatalf("slope %f too small for 2MiB/200ms growth", d.SlopeBytesPerSec)
	}
	if d.Points != 64 {
		t.Fatalf("points = %d, want 64", d.Points)
	}
}

func TestDriftVerdictCleanOnOscillation(t *testing.T) {
	// GC-shaped sawtooth around a stable mean: heap climbs then drops
	// every 8 samples. No net drift, verdict must stay clean.
	s := syntheticStats(64, 200, func(i int) int64 {
		return 64<<20 + int64(i%8)*(4<<20)
	})
	d := s.ComputeDrift()
	if d == nil {
		t.Fatal("ComputeDrift returned nil for a long steady series")
	}
	if d.Suspected {
		t.Fatalf("steady sawtooth flagged as leak: %+v", d)
	}
	if d.GrowthFraction > driftMinFraction {
		t.Fatalf("growth fraction %f exceeds threshold on a sawtooth", d.GrowthFraction)
	}
}

func TestDriftVerdictRequiresAbsoluteGrowth(t *testing.T) {
	// Steep relative growth on a tiny heap (1 KiB -> ~64 KiB): large
	// fraction, negligible bytes. The absolute floor keeps it clean.
	s := syntheticStats(64, 200, func(i int) int64 {
		return 1<<10 + int64(i)*(1<<10)
	})
	d := s.ComputeDrift()
	if d == nil {
		t.Fatal("ComputeDrift returned nil")
	}
	if d.Suspected {
		t.Fatalf("sub-threshold absolute growth flagged as leak: %+v", d)
	}
}

func TestDriftNilWhenSeriesTooShort(t *testing.T) {
	short := syntheticStats(driftMinPoints-1, 200, func(i int) int64 { return 1 << 20 })
	if d := short.ComputeDrift(); d != nil {
		t.Fatalf("drift computed from %d points: %+v", driftMinPoints-1, d)
	}
	// Enough points but a sub-5s window.
	narrow := syntheticStats(16, 10, func(i int) int64 { return 1 << 20 })
	if d := narrow.ComputeDrift(); d != nil {
		t.Fatalf("drift computed from a %.1fs window: %+v", narrow.SeriesStrideMs/1e3*15, d)
	}
}

func TestSamplerRetainsBoundedSeries(t *testing.T) {
	s := NewSampler(nil, time.Second)
	// Drive Sample directly well past the retention cap: the series
	// must stay bounded, stay aligned, and the stride must double.
	for i := 0; i < maxRetainedSamples*2+10; i++ {
		s.Sample()
	}
	st := s.Stats()
	if len(st.HeapSeries) == 0 || len(st.HeapSeries) > maxRetainedSamples {
		t.Fatalf("retained %d heap points, want 1..%d", len(st.HeapSeries), maxRetainedSamples)
	}
	if len(st.GoroutineSeries) != len(st.HeapSeries) || len(st.HeapSysSeries) != len(st.HeapSeries) {
		t.Fatalf("series misaligned: heap=%d goroutines=%d sys=%d",
			len(st.HeapSeries), len(st.GoroutineSeries), len(st.HeapSysSeries))
	}
	if st.SeriesStrideMs <= st.IntervalMs {
		t.Fatalf("stride %f never doubled past interval %f", st.SeriesStrideMs, st.IntervalMs)
	}
	// The snapshot must be isolated from further sampling.
	before := append([]int64(nil), st.HeapSeries...)
	for i := 0; i < 16; i++ {
		s.Sample()
	}
	for i := range before {
		if st.HeapSeries[i] != before[i] {
			t.Fatal("Stats snapshot shares backing array with live series")
		}
	}
}

func TestSamplerStopComputesDrift(t *testing.T) {
	s := NewSampler(nil, time.Millisecond)
	s.Start()
	// Synthesize enough samples for a fit window regardless of timer
	// behavior under load; real elapsed time is irrelevant because the
	// fit uses the nominal stride.
	for i := 0; i < driftMinPoints+8; i++ {
		s.Sample()
	}
	st := s.Stop()
	if st.Samples == 0 {
		t.Fatal("no samples recorded")
	}
	// With a 1ms stride the window is far below driftMinWindowSec, so
	// the verdict must abstain (nil) rather than guess.
	if d := st.ComputeDrift(); d != nil {
		t.Fatalf("sub-window drift report: %+v", d)
	}
}

func TestHalveSeriesKeepsFirstPoint(t *testing.T) {
	v := halveSeries([]int64{10, 11, 12, 13, 14})
	want := []int64{10, 12, 14}
	if len(v) != len(want) {
		t.Fatalf("len = %d, want %d", len(v), len(want))
	}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("halved[%d] = %d, want %d", i, v[i], want[i])
		}
	}
}
