// Package slo models open-loop load for SLO measurement. A closed
// loop (the BENCH phases) waits for each response before sending the
// next request, so a slowdown in the system politely throttles the
// load and the measured latency flatters the server. The open-loop
// mode keeps its appointments instead: arrivals follow a seeded
// Poisson process at a target rate whether or not the system keeps
// up, queues grow when it can't, and the tail percentiles show the
// coordinated-omission-free truth. Session churn (logins and logouts
// during the run) rides along so the measured path includes principal
// creation and teardown, not just steady-state authorization.
//
// The package provides the arrival schedule, the churn bookkeeping,
// and the `slo` BENCH section; the driver in escudo-serve
// owns the actual traffic.
package slo

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Arrivals is a seeded Poisson arrival process: inter-arrival gaps
// are exponentially distributed with mean 1/rate, so the same seed
// always reproduces the same schedule.
type Arrivals struct {
	rng  *rand.Rand
	rate float64
}

// NewArrivals builds an arrival process at rate requests/second.
// rate <= 0 defaults to 1.
func NewArrivals(rate float64, seed int64) *Arrivals {
	if rate <= 0 {
		rate = 1
	}
	return &Arrivals{rng: rand.New(rand.NewSource(seed)), rate: rate}
}

// Rate returns the target arrival rate in requests/second.
func (a *Arrivals) Rate() float64 { return a.rate }

// Next draws the next inter-arrival gap. The mean gap is 1/rate; the
// driver adds gaps to an absolute deadline (never "now"), which is
// what makes the loop open — a late sender does not stretch the
// schedule.
func (a *Arrivals) Next() time.Duration {
	// Inverse-CDF sampling: -ln(U)/rate with U in (0,1]. Float64
	// returns [0,1); flip it to (0,1] so the log is finite.
	u := 1 - a.rng.Float64()
	gap := -math.Log(u) / a.rate
	return time.Duration(gap * float64(time.Second))
}

// Schedule returns the absolute offsets (from the run start) of the
// next n arrivals. Used by tests to check rate accuracy without a
// wall clock.
func (a *Arrivals) Schedule(n int) []time.Duration {
	out := make([]time.Duration, n)
	var t time.Duration
	for i := range out {
		t += a.Next()
		out[i] = t
	}
	return out
}

// Churn tracks session login/logout bookkeeping during an open-loop
// run. The invariant — logins == logouts + live — holds by
// construction under the mutex, and the race-enabled test hammers it
// from many goroutines.
type Churn struct {
	mu      sync.Mutex
	logins  int64
	logouts int64
	live    int64
}

// Login records one session creation.
func (c *Churn) Login() {
	c.mu.Lock()
	c.logins++
	c.live++
	c.mu.Unlock()
}

// Logout records one session teardown. Returns false (and records
// nothing) when no session is live — the driver never logs out more
// than it logged in, and the bookkeeping refuses to go negative.
func (c *Churn) Logout() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live == 0 {
		return false
	}
	c.logouts++
	c.live--
	return true
}

// Counts returns (logins, logouts, live).
func (c *Churn) Counts() (int64, int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logins, c.logouts, c.live
}

// StageStats is one stage's latency summary inside the slo section.
// The histogram is the truth; Finalize derives the quantiles from it.
type StageStats struct {
	P50Ms  float64           `json:"p50_ms"`
	P99Ms  float64           `json:"p99_ms"`
	P999Ms float64           `json:"p999_ms"`
	Count  uint64            `json:"count"`
	Hist   metrics.Histogram `json:"hist"`
}

// Result is the `slo` BENCH section: counts and histograms filled by
// the open-loop run, quantiles and verdicts derived by Finalize.
type Result struct {
	// TargetRate is the configured arrival rate. OfferedRate is what
	// the scheduler actually offered (arrivals / duration);
	// AchievedRate is what the system completed.
	TargetRate   float64 `json:"target_rate"`
	OfferedRate  float64 `json:"offered_rate"`
	AchievedRate float64 `json:"achieved_rate"`
	DurationSec  float64 `json:"duration_sec"`
	Seed         int64   `json:"seed"`

	Arrivals  int64 `json:"arrivals"`
	Completed int64 `json:"completed"`
	// Dropped counts arrivals rejected at submit time (queue full):
	// open-loop overload evidence, not an error in the system under
	// test.
	Dropped int64 `json:"dropped"`
	Errors  int64 `json:"errors"`
	// ErrorFraction is (dropped+errors)/arrivals — the spent error
	// budget.
	ErrorFraction float64 `json:"error_fraction"`

	Logins       int64 `json:"logins"`
	Logouts      int64 `json:"logouts"`
	LiveSessions int64 `json:"live_sessions"`

	// Total is the end-to-end task latency distribution; P*Ms are
	// derived from it by Finalize.
	Total  metrics.Histogram `json:"total_hist"`
	P50Ms  float64           `json:"p50_ms"`
	P99Ms  float64           `json:"p99_ms"`
	P999Ms float64           `json:"p999_ms"`

	// P99BudgetMs is the declared budget (0 = none declared);
	// P99WithinBudget is the verdict Finalize derives.
	P99BudgetMs     float64 `json:"p99_budget_ms,omitempty"`
	P99WithinBudget bool    `json:"p99_within_budget"`

	// Stages maps stage name -> per-stage latency summary.
	Stages map[string]StageStats `json:"stages,omitempty"`

	// Leak is the sampler's linear-drift verdict for the run.
	Leak *obs.DriftReport `json:"leak,omitempty"`

	// Exemplars are the slowest retained tasks, each joinable against
	// /tracez by trace ID — the proof that the reported p99 is made of
	// real requests.
	Exemplars []obs.SlowExemplar `json:"exemplars,omitempty"`
}

// msQuantile converts a histogram quantile to milliseconds.
func msQuantile(h metrics.Histogram, p float64) float64 {
	return float64(h.Quantile(p)) / float64(time.Millisecond)
}

// Finalize derives the quantile fields, error fraction, and budget
// verdict from the counts and histograms. Call after filling them.
func (r *Result) Finalize() {
	r.P50Ms = msQuantile(r.Total, 50)
	r.P99Ms = msQuantile(r.Total, 99)
	r.P999Ms = msQuantile(r.Total, 99.9)
	for name, st := range r.Stages {
		st.Count = st.Hist.Total()
		st.P50Ms = msQuantile(st.Hist, 50)
		st.P99Ms = msQuantile(st.Hist, 99)
		st.P999Ms = msQuantile(st.Hist, 99.9)
		r.Stages[name] = st
	}
	if r.Arrivals > 0 {
		r.ErrorFraction = float64(r.Dropped+r.Errors) / float64(r.Arrivals)
	}
	if r.DurationSec > 0 {
		r.OfferedRate = float64(r.Arrivals) / r.DurationSec
		r.AchievedRate = float64(r.Completed) / r.DurationSec
	}
	r.P99WithinBudget = r.P99BudgetMs <= 0 || r.P99Ms <= r.P99BudgetMs
}
