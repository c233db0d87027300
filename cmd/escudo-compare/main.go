// Command escudo-compare diffs two BENCH_engine.json reports phase by
// phase, printing old-vs-new p50/p99 deltas — the review artifact for
// perf PRs (`make bench-compare` runs it against a fresh serve run).
//
// Usage:
//
//	escudo-compare OLD.json NEW.json
//
// Exit status is 0 even when phases regress: the tool reports, humans
// (and PR review) judge — benchmark noise on shared runners makes a
// hard gate counterproductive.
//
// The slo section is the one deliberate exception. An open-loop run
// declares its own pass/fail terms (a p99 budget, a leak watch), so
// escudo-compare exits nonzero when the new report's slo section
// carries a dirty leak verdict, misses its declared p99 budget, or
// regresses p99 beyond a generous noise envelope (> 2x the old p99
// AND > 5 ms absolute) — the CI gate ISSUE.md calls for, tolerant
// enough that shared-runner jitter cannot trip it.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/metrics"
)

// phase mirrors the subset of escudo-serve's phase JSON the comparison
// needs; unknown fields are ignored.
type phase struct {
	Name      string  `json:"name"`
	Tasks     uint64  `json:"tasks"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	Decisions uint64  `json:"decisions"`
}

// clientSection mirrors the http section's transport connection
// accounting. Proto is absent in pre-h2 reports — rendered as "?" so old-vs-new
// comparisons against them stay one-sided instead of failing.
type clientSection struct {
	Requests    uint64  `json:"requests"`
	NewConns    uint64  `json:"new_conns"`
	ReusedConns uint64  `json:"reused_conns"`
	ReuseRate   float64 `json:"reuse_rate"`
	Proto       string  `json:"proto"`
}

// proto renders the negotiated protocol, "?" for older reports that
// predate the field.
func (c *clientSection) proto() string {
	if c == nil || c.Proto == "" {
		return "?"
	}
	return c.Proto
}

// reuseRate tolerates sections with no client accounting at all.
func (c *clientSection) reuseRate() float64 {
	if c == nil {
		return 0
	}
	return c.ReuseRate
}

// proto on the http section prefers the section-level field (the
// headline) and is "?" for reports that predate it.
func (h *httpSection) proto() string {
	if h == nil || h.Proto == "" {
		return "?"
	}
	return h.Proto
}

// httpPhase mirrors one phase of the http section.
type httpPhase struct {
	Name       string  `json:"name"`
	Tasks      uint64  `json:"tasks"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	Requests   uint64  `json:"requests"`
	ReqsPerSec float64 `json:"reqs_per_sec"`
}

// httpSection mirrors the subset of the http section compared: wire
// protocol, connection reuse, and the allocation-diet headline number.
type httpSection struct {
	TLS              bool           `json:"tls"`
	Proto            string         `json:"proto"`
	AllocsPerRequest float64        `json:"allocs_per_request"`
	Phases           []httpPhase    `json:"phases"`
	Client           *clientSection `json:"client"`
}

// controlStorm mirrors the invalidation-storm measurement of the
// control section.
type controlStorm struct {
	FlipGeneration        uint64  `json:"flip_generation"`
	PushAckMs             float64 `json:"push_ack_ms"`
	PropagationMs         float64 `json:"propagation_ms"`
	CacheRefillMs         float64 `json:"cache_refill_ms"`
	BaselineReqsPerSec    float64 `json:"baseline_reqs_per_sec"`
	MinPostFlipReqsPerSec float64 `json:"min_post_flip_reqs_per_sec"`
	DipPercent            float64 `json:"dip_percent"`
}

// controlNoisy mirrors the noisy-neighbor harness figures.
type controlNoisy struct {
	VictimP99AloneMs float64 `json:"victim_p99_alone_ms"`
	VictimP99NoisyMs float64 `json:"victim_p99_noisy_ms"`
	P99Ratio         float64 `json:"p99_ratio"`
}

// controlSection mirrors the subset of the control-plane section
// compared: propagation and refill latency, tenant scale, the
// mixed-generation gate, and noisy-neighbor isolation.
type controlSection struct {
	TenantsMounted   int           `json:"tenants_mounted"`
	Generation       uint64        `json:"generation"`
	GenerationsMixed int           `json:"generations_mixed"`
	Storm            *controlStorm `json:"storm"`
	Noisy            *controlNoisy `json:"noisy_neighbor"`
}

// obsSeries mirrors one sampled runtime series of the obs section.
type obsSeries struct {
	First int64 `json:"first"`
	Last  int64 `json:"last"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// obsSampler mirrors the runtime sampler summary inside the obs
// section.
type obsSampler struct {
	Samples              int       `json:"samples"`
	Goroutines           obsSeries `json:"goroutines"`
	PostWarmupGoroutines int64     `json:"post_warmup_goroutines"`
	HeapAllocBytes       obsSeries `json:"heap_alloc_bytes"`
	HeapMonotonic        bool      `json:"heap_monotonic"`
	GCPauseTotalMs       float64   `json:"gc_pause_total_ms"`
	NumGC                uint32    `json:"num_gc"`
}

// obsVersion mirrors the build stamp of the obs section.
type obsVersion struct {
	Module string `json:"module"`
	Go     string `json:"go"`
}

// obsSection mirrors the subset of the obs section compared. Reports
// that predate the section carry nil and are rendered one-sided.
type obsSection struct {
	Version                obsVersion `json:"version"`
	Sampler                obsSampler `json:"sampler"`
	DecisionEventsRecorded uint64     `json:"decision_events_recorded"`
}

// sloStage mirrors one stage's latency summary inside the slo section.
type sloStage struct {
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	Count  uint64  `json:"count"`
}

// sloLeak mirrors the open-loop leak-watch verdict.
type sloLeak struct {
	SlopeBytesPerSec float64 `json:"slope_bytes_per_sec"`
	GrowthFraction   float64 `json:"growth_fraction"`
	WindowSec        float64 `json:"window_sec"`
	Points           int     `json:"points"`
	Suspected        bool    `json:"leak_suspected"`
}

// sloSection mirrors the subset of the open-loop slo section compared
// and gated on.
type sloSection struct {
	TargetRate      float64             `json:"target_rate"`
	OfferedRate     float64             `json:"offered_rate"`
	AchievedRate    float64             `json:"achieved_rate"`
	DurationSec     float64             `json:"duration_sec"`
	Dropped         int64               `json:"dropped"`
	Errors          int64               `json:"errors"`
	ErrorFraction   float64             `json:"error_fraction"`
	P50Ms           float64             `json:"p50_ms"`
	P99Ms           float64             `json:"p99_ms"`
	P999Ms          float64             `json:"p999_ms"`
	P99BudgetMs     float64             `json:"p99_budget_ms"`
	P99WithinBudget bool                `json:"p99_within_budget"`
	Stages          map[string]sloStage `json:"stages"`
	Leak            *sloLeak            `json:"leak"`
}

// report mirrors the subset of BENCH_engine.json being compared.
type report struct {
	Sessions   int             `json:"sessions"`
	Mode       string          `json:"mode"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Phases     []phase         `json:"phases"`
	HTTP       *httpSection    `json:"http"`
	Control    *controlSection `json:"control"`
	Obs        *obsSection     `json:"obs"`
	SLO        *sloSection     `json:"slo"`
	TotalMs    float64         `json:"total_ms"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "escudo-compare:", err)
		os.Exit(1)
	}
}

func load(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// delta formats a old→new change with its signed percentage.
func delta(old, new float64) string {
	if old == 0 {
		return fmt.Sprintf("%.3f → %.3f", old, new)
	}
	pct := 100 * (new - old) / old
	return fmt.Sprintf("%.3f → %.3f (%+.1f%%)", old, new, pct)
}

func run(args []string, out *os.File) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: escudo-compare OLD.json NEW.json")
	}
	oldR, err := load(args[0])
	if err != nil {
		return err
	}
	newR, err := load(args[1])
	if err != nil {
		return err
	}

	oldByName := map[string]phase{}
	for _, p := range oldR.Phases {
		oldByName[p.Name] = p
	}

	fmt.Fprintf(out, "old: %s (%d sessions, mode %s, gomaxprocs %d, %.0f ms total)\n",
		args[0], oldR.Sessions, oldR.Mode, oldR.GoMaxProcs, oldR.TotalMs)
	fmt.Fprintf(out, "new: %s (%d sessions, mode %s, gomaxprocs %d, %.0f ms total)\n\n",
		args[1], newR.Sessions, newR.Mode, newR.GoMaxProcs, newR.TotalMs)

	t := metrics.NewTable("Phase", "Tasks", "p50 (ms)", "p99 (ms)", "Decisions")
	seen := map[string]bool{}
	for _, np := range newR.Phases {
		seen[np.Name] = true
		op, ok := oldByName[np.Name]
		if !ok {
			t.AddRow(np.Name+" (new)",
				fmt.Sprintf("%d", np.Tasks),
				fmt.Sprintf("%.3f", np.P50Ms),
				fmt.Sprintf("%.3f", np.P99Ms),
				fmt.Sprintf("%d", np.Decisions))
			continue
		}
		t.AddRow(np.Name,
			fmt.Sprintf("%d", np.Tasks),
			delta(op.P50Ms, np.P50Ms),
			delta(op.P99Ms, np.P99Ms),
			fmt.Sprintf("%d → %d", op.Decisions, np.Decisions))
	}
	for _, op := range oldR.Phases {
		if !seen[op.Name] {
			t.AddRow(op.Name+" (removed)",
				fmt.Sprintf("%d", op.Tasks),
				fmt.Sprintf("%.3f", op.P50Ms),
				fmt.Sprintf("%.3f", op.P99Ms),
				fmt.Sprintf("%d", op.Decisions))
		}
	}
	fmt.Fprint(out, t.String())
	compareHTTP(out, oldR.HTTP, newR.HTTP)
	compareControl(out, oldR.Control, newR.Control)
	compareObs(out, oldR.Obs, newR.Obs)
	return compareSLO(out, oldR.SLO, newR.SLO)
}

// SLO regression envelope: the new p99 must exceed BOTH bounds before
// the gate trips, so shared-runner jitter on a sub-millisecond tail
// can never fail a build on its own.
const (
	sloP99RegressRatio   = 2.0 // new p99 > 2x old p99, and
	sloP99RegressFloorMs = 5.0 // new p99 at least 5 ms worse
)

// describeSLO renders one report's open-loop summary on a line.
func describeSLO(s *sloSection) string {
	return fmt.Sprintf("%.0f req/s offered over %.1fs, p99 %.3f ms, %d dropped, %.2f%% errors",
		s.OfferedRate, s.DurationSec, s.P99Ms, s.Dropped, 100*s.ErrorFraction)
}

// compareSLO diffs the open-loop slo sections and enforces the gate:
// unlike every other section, a dirty leak verdict, a missed p99
// budget, or a p99 regression past the noise envelope returns an
// error (nonzero exit). The diff always prints first, so a failing
// run still shows the numbers that failed it.
func compareSLO(out *os.File, oldS, newS *sloSection) error {
	if oldS == nil && newS == nil {
		return nil
	}
	fmt.Fprintf(out, "\nslo: ")
	switch {
	case oldS == nil:
		fmt.Fprintf(out, "old report has none; new: %s\n", describeSLO(newS))
	case newS == nil:
		fmt.Fprintf(out, "new report has none; old: %s\n", describeSLO(oldS))
		return nil
	default:
		fmt.Fprintf(out, "offered %s req/s, achieved %s req/s, dropped %d → %d, errors %d → %d\n",
			delta(oldS.OfferedRate, newS.OfferedRate),
			delta(oldS.AchievedRate, newS.AchievedRate),
			oldS.Dropped, newS.Dropped, oldS.Errors, newS.Errors)
	}

	oldStages := map[string]sloStage{}
	var oldTotal sloStage
	if oldS != nil {
		oldStages = oldS.Stages
		oldTotal = sloStage{P50Ms: oldS.P50Ms, P99Ms: oldS.P99Ms, P999Ms: oldS.P999Ms}
	}
	t := metrics.NewTable("SLO stage", "p50 (ms)", "p99 (ms)", "p99.9 (ms)")
	t.AddRow("total",
		delta(oldTotal.P50Ms, newS.P50Ms),
		delta(oldTotal.P99Ms, newS.P99Ms),
		delta(oldTotal.P999Ms, newS.P999Ms))
	names := make([]string, 0, len(newS.Stages))
	for name := range newS.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		np := newS.Stages[name]
		op := oldStages[name]
		t.AddRow(name,
			delta(op.P50Ms, np.P50Ms),
			delta(op.P99Ms, np.P99Ms),
			delta(op.P999Ms, np.P999Ms))
	}
	fmt.Fprint(out, t.String())
	if newS.Leak != nil {
		fmt.Fprintf(out, "leak watch: slope %.0f B/s over %.1fs (%d points), suspected=%v\n",
			newS.Leak.SlopeBytesPerSec, newS.Leak.WindowSec, newS.Leak.Points, newS.Leak.Suspected)
	}

	// The gate. Each failure is named; all failures print before the
	// first one is returned.
	var failures []string
	if newS.Leak != nil && newS.Leak.Suspected {
		failures = append(failures, fmt.Sprintf(
			"leak verdict dirty: heap grew %.0f B/s (%.1f%% of mean) over %.1fs",
			newS.Leak.SlopeBytesPerSec, 100*newS.Leak.GrowthFraction, newS.Leak.WindowSec))
	}
	if newS.P99BudgetMs > 0 && !newS.P99WithinBudget {
		failures = append(failures, fmt.Sprintf(
			"p99 %.3f ms misses the declared %.1f ms budget", newS.P99Ms, newS.P99BudgetMs))
	}
	if oldS != nil && oldS.P99Ms > 0 &&
		newS.P99Ms > oldS.P99Ms*sloP99RegressRatio &&
		newS.P99Ms-oldS.P99Ms > sloP99RegressFloorMs {
		failures = append(failures, fmt.Sprintf(
			"p99 regressed %.3f → %.3f ms (> %.0fx and > %.0f ms past the noise envelope)",
			oldS.P99Ms, newS.P99Ms, sloP99RegressRatio, sloP99RegressFloorMs))
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(out, "SLO GATE FAIL: %s\n", f)
		}
		return fmt.Errorf("slo gate: %s", failures[0])
	}
	fmt.Fprintf(out, "SLO gate: pass\n")
	return nil
}

// describeControl renders one report's control-plane summary.
func describeControl(c *controlSection) string {
	s := fmt.Sprintf("%d tenants at generation %d, %d mixed pages", c.TenantsMounted, c.Generation, c.GenerationsMixed)
	if c.Storm != nil {
		s += fmt.Sprintf(", propagation %.1f ms, refill %.1f ms", c.Storm.PropagationMs, c.Storm.CacheRefillMs)
	}
	return s
}

// compareControl diffs the control-plane sections: tenant scale, flip
// propagation and cache refill latency, the throughput dip, and the
// noisy-neighbor isolation ratio. One-sided when either report
// predates the section.
func compareControl(out *os.File, oldC, newC *controlSection) {
	if oldC == nil && newC == nil {
		return
	}
	fmt.Fprintf(out, "\ncontrol: ")
	switch {
	case oldC == nil:
		fmt.Fprintf(out, "old report has none; new: %s\n", describeControl(newC))
	case newC == nil:
		fmt.Fprintf(out, "new report has none; old: %s\n", describeControl(oldC))
		return
	default:
		fmt.Fprintf(out, "tenants %d → %d, generation %d → %d, mixed pages %d → %d\n",
			oldC.TenantsMounted, newC.TenantsMounted, oldC.Generation, newC.Generation,
			oldC.GenerationsMixed, newC.GenerationsMixed)
	}
	if newC.Storm != nil {
		if oldC != nil && oldC.Storm != nil {
			fmt.Fprintf(out, "storm: propagation %s ms, cache refill %s ms, reqs/s dip %s%%\n",
				delta(oldC.Storm.PropagationMs, newC.Storm.PropagationMs),
				delta(oldC.Storm.CacheRefillMs, newC.Storm.CacheRefillMs),
				delta(oldC.Storm.DipPercent, newC.Storm.DipPercent))
		} else {
			fmt.Fprintf(out, "storm: propagation %.1f ms, cache refill %.1f ms, reqs/s dip %.1f%% (baseline %.0f, min %.0f)\n",
				newC.Storm.PropagationMs, newC.Storm.CacheRefillMs, newC.Storm.DipPercent,
				newC.Storm.BaselineReqsPerSec, newC.Storm.MinPostFlipReqsPerSec)
		}
	}
	if newC.Noisy != nil {
		if oldC != nil && oldC.Noisy != nil {
			fmt.Fprintf(out, "noisy neighbor: victim p99 %s ms flooded, ratio %s\n",
				delta(oldC.Noisy.VictimP99NoisyMs, newC.Noisy.VictimP99NoisyMs),
				delta(oldC.Noisy.P99Ratio, newC.Noisy.P99Ratio))
		} else {
			fmt.Fprintf(out, "noisy neighbor: victim p99 %.3f ms alone vs %.3f ms flooded (ratio %.2f)\n",
				newC.Noisy.VictimP99AloneMs, newC.Noisy.VictimP99NoisyMs, newC.Noisy.P99Ratio)
		}
	}
}

// describeObs renders one report's runtime-health summary on a line.
func describeObs(o *obsSection) string {
	return fmt.Sprintf("%s, goroutines post-warmup/last %d/%d, heap last %.1f MiB (monotonic=%v), %d GC cycles, %d decision events",
		o.Version.Go, o.Sampler.PostWarmupGoroutines, o.Sampler.Goroutines.Last,
		float64(o.Sampler.HeapAllocBytes.Last)/(1<<20), o.Sampler.HeapMonotonic,
		o.Sampler.NumGC, o.DecisionEventsRecorded)
}

// compareObs diffs the observability sections: runtime-health shape
// and decision-trace traffic. One-sided when either report predates
// the section — an old report without obs must render, not error.
func compareObs(out *os.File, oldO, newO *obsSection) {
	if oldO == nil && newO == nil {
		return
	}
	fmt.Fprintf(out, "\nobs: ")
	switch {
	case oldO == nil:
		fmt.Fprintf(out, "old report has none; new: %s\n", describeObs(newO))
	case newO == nil:
		fmt.Fprintf(out, "new report has none; old: %s\n", describeObs(oldO))
	default:
		fmt.Fprintf(out, "goroutines last %d → %d, heap last %s MiB, GC cycles %d → %d, decision events %d → %d\n",
			oldO.Sampler.Goroutines.Last, newO.Sampler.Goroutines.Last,
			delta(float64(oldO.Sampler.HeapAllocBytes.Last)/(1<<20), float64(newO.Sampler.HeapAllocBytes.Last)/(1<<20)),
			oldO.Sampler.NumGC, newO.Sampler.NumGC,
			oldO.DecisionEventsRecorded, newO.DecisionEventsRecorded)
		if oldO.Version.Go != newO.Version.Go {
			fmt.Fprintf(out, "toolchain changed: %s → %s\n", oldO.Version.Go, newO.Version.Go)
		}
	}
}

// compareHTTP diffs the http sections: negotiated protocol, connection
// reuse, the allocs-per-request headline, and the per-phase wire
// throughput. One-sided when either report predates the section (or
// the h2/alloc fields inside it).
func compareHTTP(out *os.File, oldH, newH *httpSection) {
	if oldH == nil && newH == nil {
		return
	}
	fmt.Fprintf(out, "\nhttp: ")
	switch {
	case oldH == nil:
		fmt.Fprintf(out, "old report has none; new: proto %s, conn reuse %.2f, %.0f allocs/request\n",
			newH.proto(), newH.Client.reuseRate(), newH.AllocsPerRequest)
	case newH == nil:
		fmt.Fprintf(out, "new report has none; old: proto %s\n", oldH.proto())
		return
	default:
		fmt.Fprintf(out, "proto %s → %s, conn reuse %s, allocs/request %s\n",
			oldH.proto(), newH.proto(),
			delta(oldH.Client.reuseRate(), newH.Client.reuseRate()),
			delta(oldH.AllocsPerRequest, newH.AllocsPerRequest))
	}

	oldPhases := map[string]httpPhase{}
	if oldH != nil {
		for _, p := range oldH.Phases {
			oldPhases[p.Name] = p
		}
	}
	t := metrics.NewTable("HTTP phase", "Tasks", "Reqs/s", "p50 (ms)", "p99 (ms)")
	for _, np := range newH.Phases {
		op, ok := oldPhases[np.Name]
		if !ok {
			t.AddRow(np.Name+" (new)",
				fmt.Sprintf("%d", np.Tasks),
				fmt.Sprintf("%.0f", np.ReqsPerSec),
				fmt.Sprintf("%.3f", np.P50Ms),
				fmt.Sprintf("%.3f", np.P99Ms))
			continue
		}
		t.AddRow(np.Name,
			fmt.Sprintf("%d", np.Tasks),
			delta(op.ReqsPerSec, np.ReqsPerSec),
			delta(op.P50Ms, np.P50Ms),
			delta(op.P99Ms, np.P99Ms))
	}
	fmt.Fprint(out, t.String())
}
