package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/origin"
)

// The ESCUDO rules are pure functions of the security contexts: a
// decision ⟨P ⊳ O⟩ depends only on the two origins, the two rings, the
// operation, and the object's ACL — never on element identity or
// labels. That makes verdicts memoizable, and a browser serving many
// pages of the same application repeats a tiny set of distinct keys
// (every cookie attachment on every phpBB page asks the same
// question). DecisionCache exploits that: one map from packed decision
// keys to verdicts under one RWMutex, and a generation counter so a
// policy change invalidates every cached verdict in O(1). One lock is
// enough: an engine pool's sessions share the cache, but they probe it
// a few thousand times per phase and ask the same few dozen questions.

// cacheKey packs every input the Origin, Ring, and ACL rules read.
type cacheKey struct {
	pOrigin origin.Origin
	oOrigin origin.Origin
	pRing   Ring
	oRing   Ring
	op      Op
	acl     ACL
}

// verdict is the cached outcome plus the generation it was computed
// under; stale generations are treated as misses.
type verdict struct {
	gen     uint64
	rule    RuleID
	allowed bool
}

// maxEntries bounds the cache; on overflow the map is rebuilt keeping
// only current-generation entries, and cleared outright if still over
// the bound. The workload's distinct-key population is tiny (rings ×
// ops × a handful of origins and ACLs), so this is a backstop against
// pathological key churn, not a working-set limit.
const maxEntries = 4096

// DecisionCache memoizes reference-monitor verdicts. It is safe for
// concurrent use and is designed to be shared: one cache can back
// every session of a pool, so a verdict computed by one session is a
// hit for all of them.
//
// All monitors sharing one cache must enforce the same policy — a
// cache populated by an ERM must not serve a SOPMonitor, since the two
// map the same key to different verdicts. Invalidate exists for
// callers that change policy in place.
type DecisionCache struct {
	gen    atomic.Uint64
	hits   atomic.Uint64
	misses atomic.Uint64
	mu     sync.RWMutex
	m      map[cacheKey]verdict
}

// NewDecisionCache returns an empty cache.
func NewDecisionCache() *DecisionCache {
	return &DecisionCache{}
}

// key builds the packed cache key for a query.
func key(p Context, op Op, o Context) cacheKey {
	return cacheKey{
		pOrigin: p.Origin,
		oOrigin: o.Origin,
		pRing:   p.Ring,
		oRing:   o.Ring,
		op:      op,
		acl:     o.ACL,
	}
}

// lookup returns the cached verdict for the key, if one from the
// current generation exists, along with the generation observed — a
// miss's verdict must be stored under that generation, not the one
// current at store time, or a verdict computed just before a
// concurrent Invalidate would be cached as fresh. The read path takes
// only the read lock, so parallel hits proceed without serializing.
func (c *DecisionCache) lookup(k cacheKey) (verdict, uint64, bool) {
	gen := c.gen.Load()
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if !ok || v.gen != gen {
		c.misses.Add(1)
		return verdict{}, gen, false
	}
	c.hits.Add(1)
	return v, gen, true
}

// store records a verdict under the generation observed by the lookup
// that missed. If Invalidate ran in between, gen is already stale and
// the entry is dead on arrival — correct, since the verdict was
// computed under the old policy.
func (c *DecisionCache) store(k cacheKey, d Decision, gen uint64) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[cacheKey]verdict)
	}
	if len(c.m) >= maxEntries {
		cur := c.gen.Load()
		live := make(map[cacheKey]verdict, len(c.m)/2)
		for ek, ev := range c.m {
			if ev.gen == cur {
				live[ek] = ev
			}
		}
		if len(live) >= maxEntries {
			live = make(map[cacheKey]verdict)
		}
		c.m = live
	}
	c.m[k] = verdict{gen: gen, rule: d.Rule, allowed: d.Allowed}
	c.mu.Unlock()
}

// Invalidate advances the cache generation, atomically making every
// cached verdict stale. Call it whenever the policy a monitor enforces
// changes out from under the cache (a page reconfigured in place, a
// monitor swapped for one with different semantics). Entries are
// evicted lazily when the map fills.
func (c *DecisionCache) Invalidate() {
	c.gen.Add(1)
}

// Generation returns the current cache generation (starts at 0,
// incremented by Invalidate).
func (c *DecisionCache) Generation() uint64 {
	return c.gen.Load()
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Hits and Misses count lookups since the cache was created.
	Hits   uint64
	Misses uint64
	// Entries counts live (current-generation) cached verdicts.
	Entries int
	// Generation is the current invalidation generation.
	Generation uint64
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Sub returns the stats delta since an earlier snapshot, for measuring
// one phase of a longer run.
func (s CacheStats) Sub(earlier CacheStats) CacheStats {
	return CacheStats{
		Hits:       s.Hits - earlier.Hits,
		Misses:     s.Misses - earlier.Misses,
		Entries:    s.Entries,
		Generation: s.Generation,
	}
}

// Stats snapshots the cache counters.
func (c *DecisionCache) Stats() CacheStats {
	st := CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Generation: c.gen.Load(),
	}
	c.mu.RLock()
	for _, v := range c.m {
		if v.gen == st.Generation {
			st.Entries++
		}
	}
	c.mu.RUnlock()
	return st
}

// WithCache returns the caching layer: verdict lookups hit the shared
// DecisionCache and only misses reach the inner monitor. On a hit the
// Decision is rebuilt from the cached verdict and the live query
// contexts, so audit trails still carry the real labels. A nil cache
// yields a pass-through layer.
func WithCache(c *DecisionCache) Layer {
	return func(inner Monitor) Monitor {
		if c == nil {
			return inner
		}
		return &cacheLayer{inner: inner, cache: c}
	}
}

// cacheLayer memoizes the inner monitor's verdicts.
type cacheLayer struct {
	inner Monitor
	cache *DecisionCache
}

var _ Monitor = (*cacheLayer)(nil)

// Authorize implements Monitor with the cache fast path.
func (m *cacheLayer) Authorize(p Context, op Op, o Context) Decision {
	k := key(p, op, o)
	v, gen, ok := m.cache.lookup(k)
	if ok {
		return Decision{Allowed: v.allowed, Rule: v.rule, Principal: p, Op: op, Object: o}
	}
	d := m.inner.Authorize(p, op, o)
	m.cache.store(k, d, gen)
	return d
}
