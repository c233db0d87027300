// Control-plane section of the benchmark: the substrate on a gateway
// of its own, and a live policy flip pushed through POST
// /policyz/reload while the figure-4 workload runs (the invalidation
// storm). The section exists to measure the propagation machinery end
// to end over a real socket: push → long-poll observation → cache
// invalidation → refill, with the generation-isolation invariant (no
// page load observes two policy generations) asserted on the way out.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/engine"
	"repro/internal/httpd"
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
	// The full §6.4 corpus replayed against the pool's cache on both
	// sides of the flip: neutralization must not regress across a
	// live policy push.
	AttacksPreFlip  *attacksJSON `json:"attacks_pre_flip,omitempty"`
	AttacksPostFlip *attacksJSON `json:"attacks_post_flip,omitempty"`
}

// controlJSON is the control section of BENCH_engine.json.
type controlJSON struct {
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
	Phases          []phaseJSON `json:"phases"`
}

// runControlSection mounts the substrate's origins with their policy
// documents on a gateway of its own, subscribes a ctlplane.Watcher for
// the loadgen pool (generation pinned per page load, cache invalidated
// on flip), and measures the invalidation storm. Its pool has a cache
// of its own, so the storm's invalidation cannot perturb the
// equivalence-checked phases.
func runControlSection(cfg config, pl *plane, sub *substrate) (*controlJSON, error) {
	gw, ct, cleanup, err := gateway(pl, sub.net, "127.0.0.1:0", httpd.Config{Origins: sub.policies})
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// The subscription: generation published through the watcher, the
	// section's decision cache invalidated on every observed flip.
	cache := core.NewDecisionCache()
	var flipWaitGen atomic.Uint64
	flipObserved := make(chan struct{})
	var flipOnce sync.Once
	w := ctlplane.NewWatcher(ctlplane.WatcherConfig{
		Addr:         gw.Addr(),
		HoldFor:      5 * time.Second,
		PollInterval: 10 * time.Millisecond,
		OnFlip: func(gen uint64) {
			cache.Invalidate()
			if want := flipWaitGen.Load(); want != 0 && gen >= want {
				flipOnce.Do(func() { close(flipObserved) })
			}
		},
	})
	if err := w.Start(context.Background()); err != nil {
		return nil, fmt.Errorf("control watcher: %w", err)
	}
	defer w.Stop()

	s, err := newSection(cfg, pl, ct, cache, browser.Options{PolicyGen: w.Generation})
	if err != nil {
		return nil, err
	}
	defer s.pool.Close()
	s.gw = gw
	pool := s.pool

	section := &controlJSON{}

	// Warm round: session cookies plus a fully populated decision
	// cache, so the storm invalidates (and refills) a realistic
	// working set rather than a cold one.
	if err := s.warm(func(se *engine.Session) error {
		for _, p := range scenarioPaths() {
			if err := visit(benchO.URL(p))(se); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("control %w", err)
	}

	storm := &stormJSON{}
	// The refill target is bench.example's working set as the warm
	// round populated it — the entries the post-flip load will put
	// back. Snapshot it before the attack replay, whose environments
	// park extra entries the storm load never touches again.
	storm.CacheEntriesBefore = cache.Stats().Entries
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
	var pushStart, ackAt, observedAt, refillAt time.Time
	var flipErr error
	stormPhase := s.phase("control-storm", func() {
		flipDone := make(chan struct{})
		go func() {
			defer close(flipDone)
			// Let the first storm pages load under the pre-flip
			// generation, so the phase sees both (generations_seen == 2).
			time.Sleep(300 * time.Millisecond)
			data, err := json.Marshal(sub.policies[benchO.String()])
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
			deadline := time.Now().Add(10 * time.Second)
			for cache.Stats().Entries < storm.CacheEntriesBefore && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
			refillAt = time.Now()
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
			figure4Rounds(pool, benchO, 1)
		}
		<-flipDone
	})
	if flipErr != nil {
		return nil, flipErr
	}

	storm.PushAckMs = ms(ackAt.Sub(pushStart))
	storm.PropagationMs = ms(observedAt.Sub(pushStart))
	storm.CacheRefillMs = ms(refillAt.Sub(observedAt))

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

	// Cross-check: /policyz serves every mounted document, at a
	// generation covering every mount plus the flip (verify holds
	// both), and the watcher has caught up with it.
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
	fmt.Printf("\nControl plane: fleet generation %d (%d documents on /policyz)\n",
		c.Generation, c.PolicyzOrigins)
	if s := c.Storm; s != nil {
		fmt.Printf("  storm: flip to gen %d — push ack %.1f ms, propagation %.1f ms, cache refill %.1f ms (%d entries)\n",
			s.FlipGeneration, s.PushAckMs, s.PropagationMs, s.CacheRefillMs, s.CacheEntriesBefore)
		if s.AttacksPreFlip != nil && s.AttacksPostFlip != nil {
			fmt.Printf("  storm: attacks %d/%d neutralized pre-flip, %d/%d post-flip\n",
				s.AttacksPreFlip.Neutralized, s.AttacksPreFlip.Total,
				s.AttacksPostFlip.Neutralized, s.AttacksPostFlip.Total)
		}
	}
	fmt.Printf("  generations: %d pages audited, %d generations seen, %d mixed\n",
		c.PagesAudited, c.GenerationsSeen, c.GenerationsMixed)
}
