package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/origin"
)

func cacheContexts() (Context, Context) {
	app := origin.MustParse("http://forum.example")
	p := Principal(app, 2, "script#test")
	o := Object(app, 2, UniformACL(2), "dom p#x")
	return p, o
}

// TestCachedMonitorMatchesInner checks the caching layer against its
// inner monitor: same verdicts and rules on the filling miss and the
// hit, query labels echoed, one miss and one hit per query.
func TestCachedMonitorMatchesInner(t *testing.T) {
	app := origin.MustParse("http://forum.example")
	other := origin.MustParse("http://evil.example")
	cases := []struct {
		name string
		p    Context
		op   Op
		o    Context
	}{
		{"allowed", Principal(app, 1, "a"), OpRead, Object(app, 2, UniformACL(2), "b")},
		{"origin-denied", Principal(other, 0, "a"), OpRead, Object(app, 2, UniformACL(2), "b")},
		{"ring-denied", Principal(app, 3, "a"), OpWrite, Object(app, 1, UniformACL(1), "b")},
		{"acl-denied", Principal(app, 2, "a"), OpWrite, Object(app, 2, ACL{Read: 2}, "b")},
		{"invalid-op", Principal(app, 1, "a"), Op(99), Object(app, 2, UniformACL(2), "b")},
	}
	inner := &ERM{}
	cache := NewDecisionCache()
	cached := Compose(&ERM{}, WithCache(cache))
	for _, tc := range cases {
		want := inner.Authorize(tc.p, tc.op, tc.o)
		// Twice: once to fill, once from cache.
		for round := 0; round < 2; round++ {
			got := cached.Authorize(tc.p, tc.op, tc.o)
			if got.Allowed != want.Allowed || got.Rule != want.Rule {
				t.Errorf("%s round %d: got (%v,%v), want (%v,%v)",
					tc.name, round, got.Allowed, got.Rule, want.Allowed, want.Rule)
			}
			if got.Principal.Label != tc.p.Label || got.Object.Label != tc.o.Label {
				t.Errorf("%s round %d: cached decision lost query labels: %v", tc.name, round, got)
			}
		}
	}
	st := cache.Stats()
	if st.Hits != uint64(len(cases)) || st.Misses != uint64(len(cases)) {
		t.Errorf("stats = %d hits / %d misses, want %d/%d", st.Hits, st.Misses, len(cases), len(cases))
	}
}

// TestCacheKeyIgnoresLabels checks that two queries differing only in
// human-readable labels share one cache entry — labels are audit
// metadata, not policy inputs.
func TestCacheKeyIgnoresLabels(t *testing.T) {
	p, o := cacheContexts()
	c := NewDecisionCache()
	m := Compose(&ERM{}, WithCache(c))
	m.Authorize(p, OpRead, o)
	p.Label, o.Label = "script#other", "dom div#y"
	m.Authorize(p, OpRead, o)
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("relabeled query missed the cache: %+v", st)
	}
}

// TestCacheHitsTraceLikeMisses checks the audit stream is identical
// with and without the cache: the audit tap records every decision,
// hit or miss.
func TestCacheHitsTraceLikeMisses(t *testing.T) {
	p, o := cacheContexts()
	log := &AuditLog{}
	m := Compose(&ERM{}, WithCache(NewDecisionCache()), WithAudit(log))
	for i := 0; i < 5; i++ {
		m.Authorize(p, OpRead, o)
	}
	if log.Len() != 5 {
		t.Fatalf("audit saw %d decisions, want 5", log.Len())
	}
}

// TestInvalidateEvictsVerdicts is the policy-change test: after
// Invalidate, previously cached verdicts must be recomputed, and the
// entry count must reflect only current-generation entries.
func TestInvalidateEvictsVerdicts(t *testing.T) {
	p, o := cacheContexts()
	c := NewDecisionCache()
	m := Compose(&ERM{}, WithCache(c))

	m.Authorize(p, OpRead, o)
	if st := c.Stats(); st.Entries != 1 || st.Misses != 1 {
		t.Fatalf("after fill: %+v", st)
	}
	m.Authorize(p, OpRead, o)
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("warm lookup missed: %+v", st)
	}

	c.Invalidate()
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("stale entries still counted live: %+v", st)
	}
	m.Authorize(p, OpRead, o)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("post-invalidate lookup should miss: %+v", st)
	}
	if st.Generation != 1 {
		t.Fatalf("generation = %d, want 1", st.Generation)
	}
	// The recomputed verdict is cached again under the new generation.
	m.Authorize(p, OpRead, o)
	if st := c.Stats(); st.Hits != 2 {
		t.Fatalf("refill did not restore hits: %+v", st)
	}
}

// TestInvalidateSwapsPolicy demonstrates the scenario Invalidate
// exists for: the monitor behind the cache changes semantics, and the
// cache must not keep serving the old policy's verdicts.
func TestInvalidateSwapsPolicy(t *testing.T) {
	app := origin.MustParse("http://forum.example")
	// Ring-3 principal writing a ring-1 object: ERM denies, SOP allows.
	p := Principal(app, 3, "script#ad")
	o := Object(app, 1, UniformACL(1), "dom")

	c := NewDecisionCache()
	if d := Compose(&ERM{}, WithCache(c)).Authorize(p, OpWrite, o); d.Allowed {
		t.Fatal("ERM should deny")
	}
	c.Invalidate()
	if d := Compose(&SOPMonitor{}, WithCache(c)).Authorize(p, OpWrite, o); !d.Allowed {
		t.Fatal("stale ERM verdict served after policy swap + Invalidate")
	}
}

// TestStoreDuringInvalidateStaysStale pins the lookup/store race down:
// a verdict computed before an Invalidate (its miss observed the old
// generation) must be stored as already-stale, not resurrected under
// the new generation.
func TestStoreDuringInvalidateStaysStale(t *testing.T) {
	p, o := cacheContexts()
	c := NewDecisionCache()
	k := key(p, OpRead, o)
	_, gen, ok := c.lookup(k)
	if ok || gen != 0 {
		t.Fatalf("expected clean miss at gen 0, got ok=%v gen=%d", ok, gen)
	}
	// Policy changes between the miss and the store.
	c.Invalidate()
	c.store(k, Decision{Allowed: true, Rule: RuleAllowed}, gen)
	if _, _, ok := c.lookup(k); ok {
		t.Fatal("verdict computed under the old generation served as fresh")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("stale store counted live: %+v", st)
	}
}

// TestCacheOverflow drives one run of distinct keys well past the
// cache's bound and checks the cache stays correct (never serves a
// wrong verdict) while bounding its population.
func TestCacheOverflow(t *testing.T) {
	c := NewDecisionCache()
	m := Compose(&ERM{}, WithCache(c))
	app := origin.MustParse("http://forum.example")
	// Vary the ACL to generate maxEntries*3 distinct keys.
	for i := 0; i < maxEntries*3; i++ {
		o := Object(app, 3, ACL{Read: Ring(i), Write: Ring(i), Use: Ring(i)}, "obj")
		d := m.Authorize(Principal(app, 0, "p"), OpRead, o)
		if !d.Allowed {
			t.Fatalf("ring-0 read denied at i=%d: %v", i, d)
		}
	}
	st := c.Stats()
	if st.Entries > maxEntries {
		t.Fatalf("cache unbounded: %d entries", st.Entries)
	}
}

// TestCacheConcurrentHammer pounds one shared cache from many
// goroutines mixing lookups, stores, and invalidations; the race
// detector validates the locking, and every returned decision is
// checked against a fresh uncached monitor.
func TestCacheConcurrentHammer(t *testing.T) {
	const goroutines = 16
	const iters = 2000

	var apps []origin.Origin
	for i := 0; i < 4; i++ {
		apps = append(apps, origin.MustParse(fmt.Sprintf("http://app%d.example", i)))
	}
	c := NewDecisionCache()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := Compose(&ERM{}, WithCache(c))
			oracle := &ERM{}
			for i := 0; i < iters; i++ {
				p := Principal(apps[(g+i)%len(apps)], Ring(i%4), "p")
				o := Object(apps[i%len(apps)], Ring((i/2)%4), UniformACL(Ring(i%3)), "o")
				op := Op(i%3 + 1)
				got := m.Authorize(p, op, o)
				want := oracle.Authorize(p, op, o)
				if got.Allowed != want.Allowed || got.Rule != want.Rule {
					t.Errorf("goroutine %d iter %d: got (%v,%v), want (%v,%v)",
						g, i, got.Allowed, got.Rule, want.Allowed, want.Rule)
					return
				}
				if i%500 == 499 && g == 0 {
					c.Invalidate()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatal("hammer produced no cache hits")
	}
}

// TestAuditLogConcurrentHammer checks the audit log under parallel
// writers: no records lost, filtered denials.
func TestAuditLogConcurrentHammer(t *testing.T) {
	const goroutines = 8
	const perG = 1000
	log := &AuditLog{}
	app := origin.MustParse("http://forum.example")
	m := Compose(&ERM{}, WithAudit(log))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Even iterations allowed, odd denied by the ring rule.
				pr := Ring(i % 2 * 3)
				m.Authorize(Principal(app, pr, "p"), OpRead, Object(app, 1, UniformACL(1), "o"))
			}
		}(g)
	}
	wg.Wait()
	if got := log.Len(); got != goroutines*perG {
		t.Fatalf("Len = %d, want %d", got, goroutines*perG)
	}
	all := log.All()
	if len(all) != goroutines*perG {
		t.Fatalf("All = %d records, want %d", len(all), goroutines*perG)
	}
	denials := log.Denials()
	if want := goroutines * perG / 2; len(denials) != want {
		t.Fatalf("Denials = %d, want %d", len(denials), want)
	}
	log.Reset()
	if log.Len() != 0 || len(log.All()) != 0 {
		t.Fatal("Reset did not clear the log")
	}
}

func BenchmarkERMUncached(b *testing.B) {
	p, o := cacheContexts()
	m := &ERM{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Authorize(p, OpRead, o)
	}
}

func BenchmarkCacheLayerHit(b *testing.B) {
	p, o := cacheContexts()
	m := Compose(&ERM{}, WithCache(NewDecisionCache()))
	m.Authorize(p, OpRead, o)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Authorize(p, OpRead, o)
	}
}

func BenchmarkCacheLayerHitParallel(b *testing.B) {
	p, o := cacheContexts()
	m := Compose(&ERM{}, WithCache(NewDecisionCache()))
	m.Authorize(p, OpRead, o)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Authorize(p, OpRead, o)
		}
	})
}
