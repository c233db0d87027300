package metrics

import (
	"math"
	"math/bits"
	"time"
)

// Histogram is a mergeable latency histogram: log2-spaced major
// buckets subdivided into 8 linear sub-buckets, over microseconds.
// Relative bucket error is bounded at 12.5%, which is what makes
// percentile merging honest: the engine pool sums its sessions'
// histograms element-wise, and a quantile over the sum is the
// pool-wide percentile — something per-session p50/p99 values can
// never be recombined into.
//
// The zero value is an empty histogram ready for Observe.
type Histogram struct {
	// Counts[i] is the number of observations in bucket i. Trailing
	// zero buckets are trimmed before serialization, so the JSON stays
	// compact for fast phases.
	Counts []uint64 `json:"counts"`
}

// histSub is the log2 of the linear sub-bucket count per power of two.
const histSub = 3

// maxBucket caps the bucket index: the last bucket is open-ended and
// absorbs everything from ~2^34 µs (≈ 4.7 hours) up.
const maxBucket = 8 + 8*31

// bucketOf maps a duration to its bucket index. Values under 8 µs get
// exact linear buckets (index == µs); above, the index advances by 8
// per power of two with 8 linear steps inside each.
func bucketOf(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	if us < 8 {
		return int(us)
	}
	major := bits.Len64(us) - 1 // >= 3
	minor := (us >> (uint(major) - histSub)) & 7
	idx := 8*(major-histSub) + int(minor) + 8
	if idx > maxBucket {
		return maxBucket
	}
	return idx
}

// bucketUpper returns the inclusive upper bound of bucket i, the value
// a quantile lookup reports for observations landing there.
func bucketUpper(i int) time.Duration {
	if i < 8 {
		return time.Duration(i) * time.Microsecond
	}
	major := histSub + (i-8)/8 + 1
	minor := uint64((i - 8) % 8)
	lower := uint64(1)<<uint(major-1) + minor<<(uint(major-1)-histSub)
	width := uint64(1) << (uint(major-1) - histSub)
	return time.Duration(lower+width-1) * time.Microsecond
}

// Observe records one measurement. The counts slice is grown with
// full maxBucket+1 capacity on the first observation that needs more
// room, so a warm histogram never allocates again whatever latencies
// arrive — Observe sits on the per-request stats path and the
// AllocsPerRun gate in histogram_test pins the steady state at zero.
func (h *Histogram) Observe(d time.Duration) {
	i := bucketOf(d)
	if i >= len(h.Counts) {
		if i < cap(h.Counts) {
			h.Counts = h.Counts[:i+1]
		} else {
			grown := make([]uint64, i+1, maxBucket+1)
			copy(grown, h.Counts)
			h.Counts = grown
		}
	}
	h.Counts[i]++
}

// Sub returns h minus an earlier snapshot o: the observations that
// arrived between the two. Buckets never go negative — a bucket where
// o somehow exceeds h clamps to zero — so a stale "before" snapshot
// degrades to overcounting nothing rather than underflowing.
func (h Histogram) Sub(o Histogram) Histogram {
	out := Histogram{Counts: make([]uint64, len(h.Counts))}
	for i, c := range h.Counts {
		prev := uint64(0)
		if i < len(o.Counts) {
			prev = o.Counts[i]
		}
		if c > prev {
			out.Counts[i] = c - prev
		}
	}
	return out
}

// Merge adds o's counts into h.
func (h *Histogram) Merge(o Histogram) {
	if len(o.Counts) > len(h.Counts) {
		grown := make([]uint64, len(o.Counts))
		copy(grown, h.Counts)
		h.Counts = grown
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
}

// Total returns the observation count.
func (h Histogram) Total() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Quantile returns the p-th percentile (0..100) by nearest rank over
// the bucketed counts, reporting the matched bucket's upper bound.
func (h Histogram) Quantile(p float64) time.Duration {
	total := h.Total()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(float64(total) * p / 100))
	if rank == 0 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(len(h.Counts) - 1)
}

// Histogram folds the sample into bucketed form for merging across
// processes.
func (s *Sample) Histogram() Histogram {
	var h Histogram
	for _, d := range s.durations {
		h.Observe(d)
	}
	return h
}
