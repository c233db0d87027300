// Control-plane section of the benchmark: a multi-tenant gateway at
// -tenants template-stamped origins, a live policy flip pushed through
// POST /policyz/reload while the figure-4 workload runs (the
// invalidation storm), and a noisy-neighbor harness showing a flooded
// tenant cannot move another tenant's p99. The section exists to
// measure the propagation machinery end to end over a real socket:
// push → long-poll observation → cache invalidation → refill, with
// the generation-isolation invariant (no page load observes two
// policy generations) asserted on the way out.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/engine"
	"repro/internal/httpd"
	"repro/internal/metrics"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/scenarios"
	"repro/internal/web"
)

// stormJSON is the invalidation-storm measurement: one live policy
// push landing mid-load, timed at every hop.
type stormJSON struct {
	// FlipGeneration is the fleet generation the push was accepted at.
	FlipGeneration uint64 `json:"flip_generation"`
	// PushAckMs is POST /policyz/reload round-trip time (validate +
	// atomic swap + answer).
	PushAckMs float64 `json:"push_ack_ms"`
	// PropagationMs is push-start → the loadgen watcher observing the
	// new generation through its long poll.
	PropagationMs float64 `json:"propagation_ms"`
	// CacheEntriesBefore is the warm decision-cache population the
	// flip invalidates; CacheRefillMs is flip-observed → the cache
	// holding at least that many live entries again.
	CacheEntriesBefore int     `json:"cache_entries_before"`
	CacheRefillMs      float64 `json:"cache_refill_ms"`
	// BaselineReqsPerSec is the median 20ms-window gateway throughput
	// before the push; MinPostFlipReqsPerSec the worst window in the
	// second after it; DipPercent the relative depth; DipDurationMs
	// how long throughput stayed below 90% of baseline.
	BaselineReqsPerSec    float64 `json:"baseline_reqs_per_sec"`
	MinPostFlipReqsPerSec float64 `json:"min_post_flip_reqs_per_sec"`
	DipPercent            float64 `json:"dip_percent"`
	DipDurationMs         float64 `json:"dip_duration_ms"`
	// The full §6.4 corpus replayed against the pool's cache on both
	// sides of the flip: neutralization must not regress across a
	// live policy push.
	AttacksPreFlip  *attacksJSON `json:"attacks_pre_flip,omitempty"`
	AttacksPostFlip *attacksJSON `json:"attacks_post_flip,omitempty"`
}

// noisyJSON is the noisy-neighbor harness: one tenant flooded into
// queue overflow, a second tenant's latency probed concurrently.
type noisyJSON struct {
	VictimP99AloneMs float64 `json:"victim_p99_alone_ms"`
	VictimP99NoisyMs float64 `json:"victim_p99_noisy_ms"`
	// P99Ratio is noisy/alone — the isolation figure. Per-origin
	// bounded queues keep it near 1; a shared unbounded queue would
	// let the flood drag it up.
	P99Ratio      float64 `json:"p99_ratio"`
	FloodRequests uint64  `json:"flood_requests"`
	Flood503      uint64  `json:"flood_rejected_503"`
}

// controlJSON is the control section of BENCH_engine.json.
type controlJSON struct {
	// TenantsMounted is how many template-stamped tenant origins the
	// gateway carried (plus the hot loadgen origin).
	TenantsMounted int `json:"tenants_mounted"`
	// Generation is the fleet policy generation after the run;
	// PolicyzOrigins the number of documents /policyz served.
	Generation     uint64 `json:"generation"`
	PolicyzOrigins int    `json:"policyz_origins"`
	// GenerationsMixed is the invariant gate: pages whose decisions
	// span two policy generations. Must be 0 — a page load observes
	// exactly one generation even with a flip landing mid-run.
	GenerationsMixed int `json:"generations_mixed"`
	PagesAudited     int `json:"pages_audited"`
	// GenerationsSeen counts distinct generations across the storm
	// phase's pages — ≥2 proves the flip really landed mid-load.
	GenerationsSeen int         `json:"generations_seen"`
	Storm           *stormJSON  `json:"storm,omitempty"`
	Noisy           *noisyJSON  `json:"noisy_neighbor,omitempty"`
	Phases          []phaseJSON `json:"phases"`
}

// stormWindow is the throughput sampling cadence during the storm —
// coarse enough that single-CPU scheduler jitter does not produce
// empty windows, fine enough to resolve a sub-second dip.
const stormWindow = 50 * time.Millisecond

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// probeP99 issues n sequential GETs for pathQ against the origin
// through ct and returns the p99 latency. Any non-200 answer is an
// error: the victim must stay fully served.
func probeP99(ct *httpd.ClientTransport, o origin.Origin, pathQ string, n int) (time.Duration, error) {
	var s metrics.Sample
	for i := 0; i < n; i++ {
		start := time.Now()
		resp, err := ct.RoundTrip(web.NewRequest("GET", o.URL(pathQ)))
		if err != nil {
			return 0, fmt.Errorf("victim probe: %w", err)
		}
		if resp.Status != 200 {
			return 0, fmt.Errorf("victim probe: status %d", resp.Status)
		}
		s.Add(time.Since(start))
	}
	return s.Percentile(99), nil
}

// runControlSection mounts the hot origin plus cfg.tenants stamped
// tenants on a fresh gateway, subscribes a ctlplane.Watcher for the
// loadgen pool (generation pinned per page load, cache invalidated on
// flip), and measures the invalidation storm and the noisy-neighbor
// isolation. Its pool has a cache of its own, so the storm's
// invalidation cannot perturb the equivalence-checked phases.
func runControlSection(cfg config, pl *plane) (*controlJSON, error) {
	if cfg.tenants < 2 {
		return nil, fmt.Errorf("-tenants must be >= 2 for the noisy-neighbor harness, got %d", cfg.tenants)
	}

	// Substrate: one hot origin carrying the figure-4 load, plus the
	// tenant fleet sharing one stamped handler. Every origin mounts
	// with its own derived policy document, so /policyz lists the
	// whole fleet and the storm's push targets a real mounted doc.
	n := web.NewNetwork()
	hot := origin.MustParse("http://app.control.example")
	n.Register(hot, scenarios.Handler())
	tenants := scenarios.RegisterTenants(n, cfg.tenants)
	docs := map[string]policy.Policy{hot.String(): scenarios.Policy(hot)}
	for _, o := range tenants {
		docs[o.String()] = scenarios.Policy(o)
	}
	// Tenants get one run slot each: the point of the fleet is mount
	// scale and per-origin isolation, not aggregate tenant throughput.
	// The hot origin keeps httpd's default shape.
	gw, ct, cleanup, err := gateway(pl, n, "127.0.0.1:0", docs, httpd.Config{
		DefaultWorkers:    1,
		DefaultQueueDepth: 8,
		Origins:           map[string]httpd.OriginConfig{hot.String(): {Workers: 4, QueueDepth: 64}},
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// The subscription: generation published through the watcher, the
	// shared decision cache invalidated on every observed flip. The
	// cache lands in cacheRef after the pool exists — the watcher only
	// needs it once a flip arrives, long after Start.
	var cacheRef atomic.Pointer[core.DecisionCache]
	var flipWaitGen atomic.Uint64
	flipObserved := make(chan struct{})
	var flipOnce sync.Once
	w := ctlplane.NewWatcher(ctlplane.WatcherConfig{
		Addr:         gw.Addr(),
		HoldFor:      5 * time.Second,
		PollInterval: 10 * time.Millisecond,
		OnFlip: func(gen uint64) {
			if c := cacheRef.Load(); c != nil {
				c.Invalidate()
			}
			if want := flipWaitGen.Load(); want != 0 && gen >= want {
				flipOnce.Do(func() { close(flipObserved) })
			}
		},
	})
	if err := w.Start(context.Background()); err != nil {
		return nil, fmt.Errorf("control watcher: %w", err)
	}
	defer w.Stop()

	s, err := newSection(cfg, pl, ct, nil, browser.Options{PolicyGen: w.Generation})
	if err != nil {
		return nil, err
	}
	defer s.pool.Close()
	s.gw = gw
	pool := s.pool
	cacheRef.Store(pool.Cache())

	section := &controlJSON{TenantsMounted: cfg.tenants}

	// Warm round: session cookies plus a fully populated decision
	// cache, so the storm invalidates (and refills) a realistic
	// working set rather than a cold one.
	if err := s.warm(func(se *engine.Session) error {
		for _, p := range scenarioPaths() {
			if err := visit(hot.URL(p))(se); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("control %w", err)
	}

	storm := &stormJSON{}
	// The refill target is the hot origin's working set as the warm
	// round populated it — the entries the post-flip load will put
	// back. Snapshot it before the attack replay, whose environments
	// park extra entries the storm load never touches again.
	if c := pool.Cache(); c != nil {
		storm.CacheEntriesBefore = c.Stats().Entries
	}
	if cfg.attacks {
		if storm.AttacksPreFlip, _, err = s.replay(cfg.mode); err != nil {
			return nil, err
		}
	}

	// The invalidation storm: figure-4 rounds stream through the pool
	// while one policy push lands. The load loops until the flip has
	// been observed and the cache has refilled (with the configured
	// round count as a floor), so both sides of the flip carry real
	// page loads.
	type sample struct {
		at     time.Duration
		served uint64
	}
	var samples []sample
	var phaseStart, pushStart, ackAt, observedAt, refillAt time.Time
	var flipErr error
	stormPhase := s.phase("control-storm", func() {
		phaseStart = time.Now()
		samplerStop := make(chan struct{})
		var samplerDone sync.WaitGroup
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			tick := time.NewTicker(stormWindow)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					samples = append(samples, sample{time.Since(phaseStart), gw.Stats().Served})
				case <-samplerStop:
					return
				}
			}
		}()

		flipDone := make(chan struct{})
		go func() {
			defer close(flipDone)
			// Establish a pre-flip baseline first.
			time.Sleep(300 * time.Millisecond)
			doc := scenarios.Policy(hot)
			data, err := json.Marshal(doc)
			if err != nil {
				flipErr = err
				return
			}
			pushStart = time.Now()
			res, err := ctlplane.PostReload(context.Background(), nil, "http", gw.Addr(), data)
			ackAt = time.Now()
			if err != nil {
				flipErr = fmt.Errorf("storm push: %w", err)
				return
			}
			storm.FlipGeneration = res.Generation
			flipWaitGen.Store(res.Generation)
			if w.Generation() >= res.Generation {
				flipOnce.Do(func() { close(flipObserved) })
			}
			select {
			case <-flipObserved:
				observedAt = time.Now()
			case <-time.After(10 * time.Second):
				flipErr = fmt.Errorf("storm: generation %d never observed by the watcher", res.Generation)
				return
			}
			if c := pool.Cache(); c != nil {
				deadline := time.Now().Add(10 * time.Second)
				for c.Stats().Entries < storm.CacheEntriesBefore && time.Now().Before(deadline) {
					time.Sleep(2 * time.Millisecond)
				}
				refillAt = time.Now()
			}
		}()

		// The load itself: one figure-4 round per lap across the pool,
		// looping until the flip work is finished, with the configured
		// round count as the floor (5000 laps is a runaway guard; the
		// flip deadline fires first).
		finished := func() bool {
			select {
			case <-flipDone:
				return true
			default:
				return false
			}
		}
		for rounds := 0; rounds < cfg.iters || !finished() && rounds < 5000; rounds++ {
			figure4Rounds(pool, hot, 1)
		}
		<-flipDone
		close(samplerStop)
		samplerDone.Wait()
	})
	if flipErr != nil {
		return nil, flipErr
	}

	storm.PushAckMs = ms(ackAt.Sub(pushStart))
	storm.PropagationMs = ms(observedAt.Sub(pushStart))
	if !refillAt.IsZero() {
		storm.CacheRefillMs = ms(refillAt.Sub(observedAt))
	}

	// Throughput windows: gateway served-count deltas per sampler
	// tick, split at the push.
	var pre, post []float64
	pushRel := pushStart.Sub(phaseStart)
	for i := 1; i < len(samples); i++ {
		rate := float64(samples[i].served-samples[i-1].served) / stormWindow.Seconds()
		if samples[i].at < pushRel {
			pre = append(pre, rate)
		} else if samples[i].at < pushRel+time.Second {
			post = append(post, rate)
		}
	}
	if len(pre) > 0 {
		storm.BaselineReqsPerSec = median(pre)
	}
	if len(post) > 0 {
		min := post[0]
		for _, r := range post[1:] {
			if r < min {
				min = r
			}
		}
		storm.MinPostFlipReqsPerSec = min
		if storm.BaselineReqsPerSec > 0 {
			storm.DipPercent = 100 * (1 - min/storm.BaselineReqsPerSec)
			below := 0
			for _, r := range post {
				if r < 0.9*storm.BaselineReqsPerSec {
					below++
				} else if below > 0 {
					break
				}
			}
			storm.DipDurationMs = float64(below) * ms(stormWindow)
		}
	}

	// The invariant gate: the storm phase's pages, audited per page.
	mix := pool.Stats().GenMix
	section.GenerationsMixed, section.PagesAudited, section.GenerationsSeen = mix.Mixed, mix.Pages, mix.Generations
	if cfg.attacks {
		if storm.AttacksPostFlip, _, err = s.replay(cfg.mode); err != nil {
			return nil, err
		}
	}
	section.Storm = storm
	section.Phases = append(section.Phases, stormPhase)

	// Noisy neighbor: flood tenant[1] into queue overflow through its
	// own transport while probing tenant[0] through another. The
	// per-origin admission bounds are the isolation mechanism under
	// test: the flood saturates its origin's single run slot and
	// eight-deep queue, overflow answers 503 immediately, and the
	// victim's run slot never sees any of it.
	victim, noisy := tenants[0], tenants[1]
	victimCT := httpd.NewClientTransport(gw.Addr())
	defer victimCT.Close()
	noisyCT := httpd.NewClientTransport(gw.Addr())
	defer noisyCT.Close()

	const probeN = 300
	warmPath := scenarioPaths()[0]
	// One warm request so the victim's probe measures steady state.
	if _, err := probeP99(victimCT, victim, warmPath, 8); err != nil {
		return nil, err
	}
	aloneP99, err := probeP99(victimCT, victim, warmPath, probeN)
	if err != nil {
		return nil, err
	}

	before := gw.Stats()
	floodStop := make(chan struct{})
	var floodReqs atomic.Uint64
	var floodWG sync.WaitGroup
	// Enough concurrency to keep the noisy tenant's single run slot busy
	// and its eight-deep queue overflowing — the 503 shed path is part
	// of what isolates the victim.
	for i := 0; i < 32; i++ {
		floodWG.Add(1)
		go func() {
			defer floodWG.Done()
			for {
				select {
				case <-floodStop:
					return
				default:
				}
				// 503s are the expected overflow answer; transport errors
				// just mean the flood outpaced the listener — keep going.
				if _, err := noisyCT.RoundTrip(web.NewRequest("GET", noisy.URL(warmPath))); err == nil {
					floodReqs.Add(1)
				}
			}
		}()
	}
	noisyP99, err := probeP99(victimCT, victim, warmPath, probeN)
	close(floodStop)
	floodWG.Wait()
	if err != nil {
		return nil, err
	}
	floodDelta := gw.Stats().Sub(before)

	noisySec := &noisyJSON{
		VictimP99AloneMs: ms(aloneP99),
		VictimP99NoisyMs: ms(noisyP99),
		FloodRequests:    floodReqs.Load(),
		Flood503:         floodDelta.Rejected503,
	}
	if aloneP99 > 0 {
		noisySec.P99Ratio = float64(noisyP99) / float64(aloneP99)
	}
	section.Noisy = noisySec

	// Fleet cross-check: /policyz serves the whole tenant set plus the
	// hot origin, at a generation covering every mount plus the flip
	// (verify holds both), and the watcher has caught up with it.
	doc, err := ctlplane.FetchPolicyz(context.Background(), nil, "http", gw.Addr())
	if err != nil {
		return nil, err
	}
	section.Generation = doc.Generation
	section.PolicyzOrigins = len(doc.Policies)
	if w.Generation() != doc.Generation {
		return nil, fmt.Errorf("control: watcher at generation %d, gateway at %d", w.Generation(), doc.Generation)
	}
	return section, nil
}

// printControl renders the control section on stdout.
func printControl(c *controlJSON) {
	fmt.Printf("\nControl plane: %d tenants mounted, fleet generation %d (%d documents on /policyz)\n",
		c.TenantsMounted, c.Generation, c.PolicyzOrigins)
	if s := c.Storm; s != nil {
		fmt.Printf("  storm: flip to gen %d — push ack %.1f ms, propagation %.1f ms, cache refill %.1f ms (%d entries)\n",
			s.FlipGeneration, s.PushAckMs, s.PropagationMs, s.CacheRefillMs, s.CacheEntriesBefore)
		fmt.Printf("  storm: reqs/s baseline %.0f, post-flip min %.0f (dip %.1f%% for %.0f ms)\n",
			s.BaselineReqsPerSec, s.MinPostFlipReqsPerSec, s.DipPercent, s.DipDurationMs)
		if s.AttacksPreFlip != nil && s.AttacksPostFlip != nil {
			fmt.Printf("  storm: attacks %d/%d neutralized pre-flip, %d/%d post-flip\n",
				s.AttacksPreFlip.Neutralized, s.AttacksPreFlip.Total,
				s.AttacksPostFlip.Neutralized, s.AttacksPostFlip.Total)
		}
	}
	fmt.Printf("  generations: %d pages audited, %d generations seen, %d mixed\n",
		c.PagesAudited, c.GenerationsSeen, c.GenerationsMixed)
	if nn := c.Noisy; nn != nil {
		fmt.Printf("  noisy neighbor: victim p99 %.3f ms alone vs %.3f ms flooded (ratio %.2f; flood %d reqs, %d × 503)\n",
			nn.VictimP99AloneMs, nn.VictimP99NoisyMs, nn.P99Ratio, nn.FloodRequests, nn.Flood503)
	}
}
