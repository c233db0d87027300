// Open-loop SLO mode: Poisson arrivals at a configured rate against
// the gateway, with session login/logout churn riding along. The
// closed-loop BENCH phases wait for each response before sending the
// next request, so an overloaded system politely throttles its own
// load generator and the measured tail flatters it (coordinated
// omission). Here the schedule is absolute — arrival times are drawn
// up front from a seeded exponential process and submission never
// waits for completions — so queueing delay lands in the measurements
// and overload shows up as drops, exactly as an external client fleet
// would see it.
package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/slo"
)

// openLoopSpec is the parsed -openloop flag:
// rate=R,duration=D[,churn=C][,p99=MS][,seed=N].
type openLoopSpec struct {
	raw      string        // the flag as given, passed on to cluster workers
	rate     float64       // target arrivals/sec
	duration time.Duration // how long to offer load
	churn    float64       // login/logout events/sec woven into the arrivals
	p99Ms    float64       // declared p99 budget in ms (0 = none)
	seed     int64         // arrival-schedule seed
}

// parseOpenLoop parses the -openloop spec. rate and duration are
// required; churn, p99, and seed are optional.
func parseOpenLoop(s string) (openLoopSpec, error) {
	spec := openLoopSpec{raw: s, seed: 1}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return spec, fmt.Errorf("-openloop: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "rate":
			spec.rate, err = strconv.ParseFloat(v, 64)
		case "duration":
			spec.duration, err = time.ParseDuration(v)
		case "churn":
			spec.churn, err = strconv.ParseFloat(v, 64)
		case "p99":
			spec.p99Ms, err = strconv.ParseFloat(v, 64)
		case "seed":
			spec.seed, err = strconv.ParseInt(v, 10, 64)
		default:
			return spec, fmt.Errorf("-openloop: unknown key %q", k)
		}
		if err != nil {
			return spec, fmt.Errorf("-openloop: %s: %w", k, err)
		}
	}
	if spec.rate <= 0 {
		return spec, fmt.Errorf("-openloop: rate must be > 0")
	}
	if spec.duration <= 0 {
		return spec, fmt.Errorf("-openloop: duration must be > 0")
	}
	if spec.churn < 0 || spec.churn > spec.rate {
		return spec, fmt.Errorf("-openloop: churn must be in [0, rate]")
	}
	return spec, nil
}

// openLoopPhase is the slow-ring phase label the open-loop tasks
// record exemplars under.
const openLoopPhase = "openloop"

// trimInterval is the soak-retention cadence: how often the driver
// drops the append-only accumulators (session audit logs, and
// whatever the caller's trim hook owns). Long enough that resets are
// off the per-arrival path, short enough that the retained backlog
// between trims stays a few megabytes — a sawtooth the leak watch's
// least-squares fit reads as flat.
const trimInterval = 2 * time.Second

// leakWarmup is how long the driver offers load before the leak
// watch starts sampling: the first seconds of a storm pay one-time
// steady-state costs (the 65536-entry decision ring filling, h2
// stream buffers, histogram bucket slices) that a fit over the whole
// window would read as linear growth. The leak question is whether
// *steady-state* load accretes memory, so the watch opens after the
// warm fraction — capped so short diagnostic runs still leave most
// of their window to the fit (which abstains below 5s anyway).
func leakWarmup(d time.Duration) time.Duration {
	w := d / 4
	if w > 5*time.Second {
		w = 5 * time.Second
	}
	return w
}

// driveOpenLoop offers spec.duration of Poisson load to an
// already-warm pool and packages the slo section. The pool must be
// wired to the plane pl (that is how per-stage spans and exemplars
// reach the result); account names the phpBB login a session uses for
// churn.
//
// trim, when non-nil, is called once per trimInterval alongside the
// driver's own retention work: the session audit logs accrue one
// record per decision — fine for the bounded closed-loop phases,
// fatal for a soak (the leak watch would correctly convict the
// driver itself) — so they are dropped on the same cadence. The
// decision ring and the slow ring are bounded and keep serving
// /tracez and /slowz joins across trims.
func driveOpenLoop(pool *engine.Pool, spec openLoopSpec, pl *plane, account func(sessionID int) string,
	trim func()) (*slo.Result, error) {

	paths := scenarioPaths()

	// Churn bookkeeping: per-session login state is only ever touched
	// by that session's own goroutine, so plain bools suffice; the
	// Churn tracker owns the cross-session tally.
	var churn slo.Churn
	loggedIn := make([]bool, len(pool.Sessions()))
	churnTask := func(s *engine.Session) error {
		if loggedIn[s.ID] {
			if _, err := s.Browser.Navigate(forumO.URL("/logout")); err != nil {
				return err
			}
			loggedIn[s.ID] = false
			churn.Logout()
			return nil
		}
		if err := login(s, account(s.ID)); err != nil {
			return fmt.Errorf("openloop churn: %w", err)
		}
		loggedIn[s.ID] = true
		churn.Login()
		return nil
	}

	// The leak watch is scoped to the open-loop window: a dedicated
	// sampler (no registry — the run's gauges stay owned by the main
	// sampler) whose drift verdict judges only this phase's heap. It
	// starts after leakWarmup so one-time steady-state costs stay out
	// of the fitted series (see leakWarmup).
	smp := obs.NewSampler(nil, 200*time.Millisecond)
	smpStarted := false

	// Per-stage histograms are shared with the rest of the run, so the
	// section reports the delta across the open-loop window.
	var stageBefore [obs.NumStages]metrics.Histogram
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if h := pl.stages.Hist(st); h != nil {
			stageBefore[st] = h.Snapshot()
		}
	}

	pool.SetPhase(openLoopPhase)
	pool.ResetStats()

	arr := slo.NewArrivals(spec.rate, spec.seed)
	coin := rand.New(rand.NewSource(spec.seed ^ 0x5deece66d))
	churnP := 0.0
	if spec.churn > 0 {
		churnP = spec.churn / spec.rate
	}

	res := &slo.Result{
		TargetRate:  spec.rate,
		Seed:        spec.seed,
		P99BudgetMs: spec.p99Ms,
	}
	start := time.Now()
	deadline := start.Add(spec.duration)
	warmOver := start.Add(leakWarmup(spec.duration))
	next := start
	nextTrim := start.Add(trimInterval)
	pathIdx := 0
	for {
		next = next.Add(arr.Next())
		if next.After(deadline) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		if !smpStarted && time.Now().After(warmOver) {
			smp.Start()
			smp.Mark()
			smpStarted = true
		}
		if now := time.Now(); now.After(nextTrim) {
			for _, s := range pool.Sessions() {
				s.Browser.Audit.Reset()
			}
			if trim != nil {
				trim()
			}
			nextTrim = now.Add(trimInterval)
		}
		res.Arrivals++
		var task engine.Task
		if churnP > 0 && coin.Float64() < churnP {
			task = churnTask
		} else {
			task = visit(benchO.URL(paths[pathIdx%len(paths)]))
			pathIdx++
		}
		ok, err := pool.TrySubmit(task)
		if err != nil {
			return nil, err
		}
		if !ok {
			// Queue full: the open-loop equivalent of a connection
			// refused under overload — counted, never retried.
			res.Dropped++
		}
	}
	if !smpStarted {
		// Arrivals ran dry before the warmup elapsed (tiny rate or
		// duration): open the watch now so Stop below is well-defined;
		// the fit abstains on windows this short.
		smp.Start()
		smp.Mark()
	}
	pool.Wait()
	res.DurationSec = time.Since(start).Seconds()

	st := pool.Stats()
	res.Completed = int64(st.Tasks)
	res.Errors = int64(len(st.Errors))
	res.Total = st.Hist
	res.Logins, res.Logouts, res.LiveSessions = churn.Counts()

	res.Stages = map[string]slo.StageStats{}
	for stg := obs.Stage(0); stg < obs.NumStages; stg++ {
		h := pl.stages.Hist(stg)
		if h == nil {
			continue
		}
		delta := h.Snapshot().Sub(stageBefore[stg])
		if delta.Total() == 0 {
			continue
		}
		res.Stages[stg.String()] = slo.StageStats{Hist: delta}
	}

	res.Exemplars = pl.slow.Snapshot(openLoopPhase)

	samp := smp.Stop()
	res.Leak = samp.Drift

	res.Finalize()
	return res, nil
}

// printSLO renders the slo section on stdout.
func printSLO(s *slo.Result) {
	fmt.Printf("\nOpen-loop SLO — target %.0f req/s for %.1fs (seed %d): offered %.1f, achieved %.1f, %d dropped, %d errors (%.2f%% budget spent)\n",
		s.TargetRate, s.DurationSec, s.Seed, s.OfferedRate, s.AchievedRate,
		s.Dropped, s.Errors, 100*s.ErrorFraction)
	fmt.Printf("Churn: %d logins, %d logouts, %d live (invariant logins == logouts + live: %v)\n",
		s.Logins, s.Logouts, s.LiveSessions, s.Logins == s.Logouts+s.LiveSessions)
	t := metrics.NewTable("Stage", "Count", "p50 (ms)", "p99 (ms)", "p99.9 (ms)")
	t.AddRow("total", fmt.Sprintf("%d", s.Total.Total()),
		fmt.Sprintf("%.3f", s.P50Ms), fmt.Sprintf("%.3f", s.P99Ms), fmt.Sprintf("%.3f", s.P999Ms))
	for _, name := range obs.StageNames() {
		st, ok := s.Stages[name]
		if !ok {
			continue
		}
		t.AddRow(name, fmt.Sprintf("%d", st.Count),
			fmt.Sprintf("%.3f", st.P50Ms), fmt.Sprintf("%.3f", st.P99Ms), fmt.Sprintf("%.3f", st.P999Ms))
	}
	fmt.Print(t.String())
	if s.P99BudgetMs > 0 {
		fmt.Printf("p99 budget %.1f ms: within=%v\n", s.P99BudgetMs, s.P99WithinBudget)
	}
	if s.Leak != nil {
		fmt.Printf("Leak watch: slope %.0f B/s over %.1fs (%d points), growth %.1f%% of mean heap — suspected=%v\n",
			s.Leak.SlopeBytesPerSec, s.Leak.WindowSec, s.Leak.Points,
			100*s.Leak.GrowthFraction, s.Leak.Suspected)
	} else {
		fmt.Println("Leak watch: window too short for a verdict")
	}
	for i, ex := range s.Exemplars {
		if i >= 3 {
			fmt.Printf("  … %d more exemplars on /slowz\n", len(s.Exemplars)-3)
			break
		}
		fmt.Printf("  exemplar %s: %.3f ms total (phase %s)\n",
			ex.TraceID, float64(ex.TotalNs)/1e6, ex.Phase)
	}
}
