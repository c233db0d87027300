package metrics

import (
	"encoding/json"
	"testing"
	"time"
)

// TestHistogramBucketsMonotonic pins the bucket layout: indices grow
// with duration and every bucket's upper bound dominates the values
// mapped into it.
func TestHistogramBucketsMonotonic(t *testing.T) {
	prev := -1
	for us := 0; us < 1<<14; us++ {
		d := time.Duration(us) * time.Microsecond
		i := bucketOf(d)
		if i < prev {
			t.Fatalf("bucket index regressed at %v: %d after %d", d, i, prev)
		}
		prev = i
		if up := bucketUpper(i); up < d {
			t.Fatalf("bucketUpper(%d) = %v < observed %v", i, up, d)
		}
		// Relative error bound: the upper bound never overstates the
		// value by more than 12.5% (plus one µs of quantization).
		if up := bucketUpper(i); float64(up) > float64(d)*1.125+float64(time.Microsecond) {
			t.Fatalf("bucket %d upper %v overstates %v by more than 12.5%%", i, up, d)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if got := h.Total(); got != 1000 {
		t.Fatalf("Total = %d, want 1000", got)
	}
	p50 := h.Quantile(50)
	if p50 < 450*time.Microsecond || p50 > 570*time.Microsecond {
		t.Fatalf("p50 = %v, want ~500µs", p50)
	}
	p99 := h.Quantile(99)
	if p99 < 900*time.Microsecond || p99 > 1150*time.Microsecond {
		t.Fatalf("p99 = %v, want ~990µs", p99)
	}
	if h.Quantile(0) == 0 {
		t.Fatal("Quantile(0) on a non-empty histogram returned 0")
	}
}

// TestHistogramMerge is the property the engine pool depends on:
// merging per-session histograms then taking a quantile equals
// bucketing the union of the samples.
func TestHistogramMerge(t *testing.T) {
	var a, b, union Histogram
	for i := 1; i <= 500; i++ {
		d := time.Duration(i) * time.Microsecond
		a.Observe(d)
		union.Observe(d)
	}
	for i := 5000; i <= 9000; i += 10 {
		d := time.Duration(i) * time.Microsecond
		b.Observe(d)
		union.Observe(d)
	}
	a.Merge(b)
	if a.Total() != union.Total() {
		t.Fatalf("merged total %d != union total %d", a.Total(), union.Total())
	}
	for _, p := range []float64{10, 50, 90, 99} {
		if got, want := a.Quantile(p), union.Quantile(p); got != want {
			t.Fatalf("p%.0f: merged %v != union %v", p, got, want)
		}
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 40 * time.Microsecond} {
		h.Observe(d)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Total() != h.Total() || back.Quantile(50) != h.Quantile(50) {
		t.Fatalf("round trip diverged: %+v vs %+v", back, h)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Total() != 0 || h.Quantile(50) != 0 {
		t.Fatalf("empty histogram: total %d, p50 %v", h.Total(), h.Quantile(50))
	}
}

func TestHistogramSub(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Microsecond)
	before := h
	before.Counts = append([]uint64(nil), h.Counts...)
	h.Observe(20 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	d := h.Sub(before)
	if d.Total() != 2 {
		t.Fatalf("delta total %d, want 2", d.Total())
	}
	if q := d.Quantile(50); q < 15*time.Millisecond {
		t.Fatalf("delta p50 %v includes pre-snapshot observations", q)
	}
	// Subtracting a larger snapshot clamps instead of underflowing.
	if got := before.Sub(h).Total(); got != 0 {
		t.Fatalf("reverse delta total %d, want 0", got)
	}
}

// TestHistogramQuantileEdgeCases pins Quantile's behavior on
// degenerate inputs: an empty histogram must report 0 at every
// percentile (never a bucket-edge artifact), a single observation is
// every percentile, and merging empties — in either direction, or
// with explicit all-zero counts as a JSON round trip can produce —
// must not fabricate observations.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	single := Histogram{}
	single.Observe(100 * time.Microsecond)

	mergedEmptyIntoEmpty := Histogram{}
	mergedEmptyIntoEmpty.Merge(Histogram{})

	zeroCounts := Histogram{Counts: []uint64{0, 0, 0, 0}}

	emptyIntoZeroCounts := Histogram{Counts: []uint64{0, 0}}
	emptyIntoZeroCounts.Merge(Histogram{})

	singleViaMerge := Histogram{}
	singleViaMerge.Merge(single)
	singleViaMerge.Merge(Histogram{})

	cases := []struct {
		name string
		h    Histogram
		p    float64
		want time.Duration
	}{
		{"empty p0", Histogram{}, 0, 0},
		{"empty p50", Histogram{}, 50, 0},
		{"empty p99", Histogram{}, 99, 0},
		{"empty p100", Histogram{}, 100, 0},
		{"zero counts p99", zeroCounts, 99, 0},
		{"merged empty into empty p99", mergedEmptyIntoEmpty, 99, 0},
		{"merged empty into zero counts p50", emptyIntoZeroCounts, 50, 0},
		{"single observation p0", single, 0, single.Quantile(50)},
		{"single observation p50", single, 50, single.Quantile(99)},
		{"single via merge p99", singleViaMerge, 99, single.Quantile(99)},
	}
	for _, tc := range cases {
		if got := tc.h.Quantile(tc.p); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
	// A single observation reports the same (nonzero) bucket edge at
	// every percentile.
	if single.Quantile(50) == 0 || single.Quantile(0) != single.Quantile(100) {
		t.Fatalf("single observation quantiles diverge: p0=%v p50=%v p100=%v",
			single.Quantile(0), single.Quantile(50), single.Quantile(100))
	}
}
