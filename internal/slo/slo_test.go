package slo

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestArrivalsDeterministicWithSeed(t *testing.T) {
	a := NewArrivals(500, 42)
	b := NewArrivals(500, 42)
	sa := a.Schedule(1000)
	sb := b.Schedule(1000)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, sa[i], sb[i])
		}
	}
	// A different seed must produce a different schedule.
	c := NewArrivals(500, 43)
	sc := c.Schedule(1000)
	same := true
	for i := range sa {
		if sa[i] != sc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestArrivalsOfferedRateAccuracy checks the scheduler's offered rate
// against the target at three rates, with no wall clock: the last
// offset of an n-arrival schedule estimates n/rate, and for a Poisson
// process its relative standard error is 1/sqrt(n), so 20k arrivals
// land within 5% with enormous margin.
func TestArrivalsOfferedRateAccuracy(t *testing.T) {
	const n = 20000
	for _, rate := range []float64{100, 1000, 10000} {
		a := NewArrivals(rate, 7)
		sched := a.Schedule(n)
		span := sched[n-1].Seconds()
		offered := float64(n) / span
		if rel := math.Abs(offered-rate) / rate; rel > 0.05 {
			t.Errorf("rate %.0f: offered %.1f (%.2f%% off)", rate, offered, rel*100)
		}
		// Offsets must be strictly increasing — an open-loop schedule
		// never goes backwards.
		for i := 1; i < n; i++ {
			if sched[i] <= sched[i-1] {
				t.Fatalf("rate %.0f: schedule not increasing at %d", rate, i)
			}
		}
	}
}

func TestArrivalsGapDistribution(t *testing.T) {
	// Mean gap must be ~1/rate; also sanity-check the gaps are spread
	// (exponential, not constant): the sample standard deviation of an
	// exponential equals its mean.
	a := NewArrivals(1000, 11)
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		g := a.Next().Seconds()
		sum += g
		sumSq += g * g
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-1e-3)/1e-3 > 0.05 {
		t.Fatalf("mean gap %.6fs, want ~0.001s", mean)
	}
	if std < mean*0.9 || std > mean*1.1 {
		t.Fatalf("gap std %.6f vs mean %.6f: not exponential-shaped", std, mean)
	}
}

// TestChurnBookkeepingUnderRace hammers Login/Logout from many
// goroutines; the invariant logins == logouts + live must hold at the
// end (and Logout must refuse to go negative). Run with -race.
func TestChurnBookkeepingUnderRace(t *testing.T) {
	var c Churn
	var wg sync.WaitGroup
	const workers = 8
	const perWorker = 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Login()
				if i%3 != 0 {
					c.Logout()
				}
			}
		}(w)
	}
	// Concurrent logouts racing the logins: some fail (nothing live),
	// which is fine — failures record nothing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < workers*perWorker; i++ {
			c.Logout()
		}
	}()
	wg.Wait()
	logins, logouts, live := c.Counts()
	if logins != logouts+live {
		t.Fatalf("invariant broken: logins %d != logouts %d + live %d", logins, logouts, live)
	}
	if logins != workers*perWorker {
		t.Fatalf("logins = %d, want %d", logins, workers*perWorker)
	}
	if live < 0 || logouts < 0 {
		t.Fatalf("negative bookkeeping: logouts %d live %d", logouts, live)
	}
}

func TestChurnLogoutRefusesWhenEmpty(t *testing.T) {
	var c Churn
	if c.Logout() {
		t.Fatal("logout succeeded with nothing live")
	}
	c.Login()
	if !c.Logout() {
		t.Fatal("logout failed with a live session")
	}
	if c.Logout() {
		t.Fatal("second logout succeeded on a drained tracker")
	}
}

// TestResultFinalizeAndMerge builds one Result from two sample sets,
// a fast one and a slow one, and checks what Finalize derives from it.
func TestResultFinalizeAndMerge(t *testing.T) {
	a := Result{DurationSec: 10, Seed: 1, Stages: map[string]StageStats{}}
	st := StageStats{}
	for _, base := range []time.Duration{10 * time.Millisecond, 50 * time.Millisecond} {
		for i := 0; i < 100; i++ {
			d := base + time.Duration(i)*time.Millisecond
			a.Total.Observe(d)
			st.Hist.Observe(d / 2)
			a.Arrivals++
			a.Completed++
		}
	}
	a.Stages["batch_auth"] = st
	a.Dropped = 10
	a.Arrivals += 10
	a.Finalize()

	if a.Arrivals != 210 || a.Completed != 200 || a.Dropped != 10 {
		t.Fatalf("counts: arrivals %d completed %d dropped %d", a.Arrivals, a.Completed, a.Dropped)
	}
	if a.OfferedRate != 21 || a.AchievedRate != 20 {
		t.Fatalf("rates: offered %f achieved %f", a.OfferedRate, a.AchievedRate)
	}
	if a.ErrorFraction <= 0 || a.ErrorFraction > 0.05 {
		t.Fatalf("error fraction %f", a.ErrorFraction)
	}
	if a.Total.Total() != 200 {
		t.Fatalf("total hist count %d", a.Total.Total())
	}
	// The p99 must reflect the slow set's tail (~148ms), not the fast
	// set's (~108ms).
	if a.P99Ms < 120 {
		t.Fatalf("p99 %fms lost the slow set's tail", a.P99Ms)
	}
	stage := a.Stages["batch_auth"]
	if stage.Count != 200 || stage.P50Ms <= 0 {
		t.Fatalf("stage: %+v", stage)
	}

	// Budget verdicts.
	a.P99BudgetMs = 1
	a.Finalize()
	if a.P99WithinBudget {
		t.Fatal("1ms budget reported as met with a ~148ms p99")
	}
	a.P99BudgetMs = 10000
	a.Finalize()
	if !a.P99WithinBudget {
		t.Fatal("10s budget reported as blown")
	}
	a.P99BudgetMs = 0
	a.Finalize()
	if !a.P99WithinBudget {
		t.Fatal("no declared budget must report within budget")
	}
}
