package engine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/mashup"
	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/scenarios"
	"repro/internal/web"
)

// benchNet builds a network serving the Figure-4 scenarios at
// http://bench.example.
func benchNet(t testing.TB) (*web.Network, origin.Origin) {
	t.Helper()
	net := web.NewNetwork()
	o := origin.MustParse("http://bench.example")
	net.Register(o, scenarios.Handler())
	return net, o
}

func TestPoolSessionsAreIsolated(t *testing.T) {
	net, o := benchNet(t)
	pool, err := NewPool(Config{Sessions: 4, Transport: net})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	pool.Each(func(s *Session) error {
		_, err := s.Browser.Navigate(o.URL("/s1"))
		return err
	})
	st := pool.Stats()
	if len(st.Errors) > 0 {
		t.Fatalf("errors: %v", st.Errors)
	}
	if st.Tasks != 4 {
		t.Fatalf("tasks = %d, want 4", st.Tasks)
	}
	// Every session must own its own jar: each got its own copy of the
	// session cookie, not a shared one.
	for _, s := range pool.Sessions() {
		if _, ok := s.Browser.Jar().Get(o, scenarios.SessionCookie); !ok {
			t.Fatalf("session %d missing its own %s cookie", s.ID, scenarios.SessionCookie)
		}
		if n := s.Browser.History().Len(); n != 1 {
			t.Fatalf("session %d history length %d, want 1", s.ID, n)
		}
	}
}

func TestPoolSharedCacheAccumulatesHits(t *testing.T) {
	net, o := benchNet(t)
	pool, err := NewPool(Config{Sessions: 8, Transport: net})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const rounds = 4
	for r := 0; r < rounds; r++ {
		pool.Each(func(s *Session) error {
			for _, path := range scenarios.Paths() {
				if _, err := s.Browser.Navigate(o.URL(path)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	st := pool.Stats()
	if len(st.Errors) > 0 {
		t.Fatalf("errors: %v", st.Errors)
	}
	if st.Decisions == 0 {
		t.Fatal("no monitor decisions recorded")
	}
	if st.Cache.Hits == 0 {
		t.Fatal("shared cache saw no hits across sessions")
	}
	if rate := st.Cache.HitRate(); rate < 0.5 {
		t.Fatalf("cache hit rate %.2f, want > 0.5 (stats %+v)", rate, st.Cache)
	}
}

func TestPoolSubmitQueueDistributesWork(t *testing.T) {
	net, o := benchNet(t)
	pool, err := NewPool(Config{Sessions: 8, Transport: net})
	if err != nil {
		t.Fatal(err)
	}

	var ran atomic.Uint64
	const tasks = 64
	for i := 0; i < tasks; i++ {
		path := scenarios.Paths()[i%8]
		if err := pool.Submit(func(s *Session) error {
			ran.Add(1)
			_, err := s.Browser.Navigate(o.URL(path))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	pool.Wait()
	if ran.Load() != tasks {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), tasks)
	}
	st := pool.Stats()
	if st.Tasks != tasks {
		t.Fatalf("stats counted %d tasks, want %d", st.Tasks, tasks)
	}
	if len(st.Errors) > 0 {
		t.Fatalf("errors: %v", st.Errors)
	}
	if st.P99 < st.P50 {
		t.Fatalf("p99 %v < p50 %v", st.P99, st.P50)
	}

	pool.Close()
	if err := pool.Submit(func(*Session) error { return nil }); err != ErrClosed {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	pool.Close() // idempotent
}

func TestPoolTaskErrorsAreReported(t *testing.T) {
	net, _ := benchNet(t)
	pool, err := NewPool(Config{Sessions: 2, Transport: net})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	boom := fmt.Errorf("boom")
	pool.Submit(func(*Session) error { return boom })
	pool.Wait()
	st := pool.Stats()
	if len(st.Errors) != 1 || !strings.Contains(st.Errors[0].Error(), "boom") {
		t.Fatalf("errors = %v, want one wrapping boom", st.Errors)
	}
}

func TestPoolUncachedBaseline(t *testing.T) {
	net, o := benchNet(t)
	pool, err := NewPool(Config{Sessions: 2, Transport: net, Uncached: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Cache() != nil {
		t.Fatal("Uncached pool still has a cache")
	}
	pool.Each(func(s *Session) error {
		_, err := s.Browser.Navigate(o.URL("/s1"))
		return err
	})
	st := pool.Stats()
	if len(st.Errors) > 0 {
		t.Fatalf("errors: %v", st.Errors)
	}
	if st.Cache.Hits != 0 || st.Cache.Misses != 0 {
		t.Fatalf("uncached pool reported cache traffic: %+v", st.Cache)
	}
}

func TestPoolResetStatsKeepsCacheWarm(t *testing.T) {
	net, o := benchNet(t)
	pool, err := NewPool(Config{Sessions: 2, Transport: net})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	// Navigate twice: the first load only receives the session cookie,
	// the second attaches it and produces use decisions.
	pool.Each(func(s *Session) error {
		for i := 0; i < 2; i++ {
			if _, err := s.Browser.Navigate(o.URL("/s3")); err != nil {
				return err
			}
		}
		return nil
	})
	before := pool.Stats()
	if before.Tasks == 0 || before.Decisions == 0 {
		t.Fatalf("warmup recorded nothing: %+v", before)
	}
	pool.ResetStats()
	after := pool.Stats()
	if after.Tasks != 0 || after.Decisions != 0 || len(after.Errors) != 0 {
		t.Fatalf("ResetStats left residue: %+v", after)
	}
	if after.Cache.Entries == 0 {
		t.Fatal("ResetStats cleared the shared cache; it must stay warm")
	}
}

// TestPoolModeSOPStillWorks runs the pool with the legacy monitor to
// cover the second Mode path through the cached monitor construction.
func TestPoolModeSOPStillWorks(t *testing.T) {
	net, o := benchNet(t)
	pool, err := NewPool(Config{
		Sessions:  2,
		Transport: net,
		Options:   browser.Options{Mode: browser.ModeSOP},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.Each(func(s *Session) error {
		_, err := s.Browser.Navigate(o.URL("/s1"))
		return err
	})
	if st := pool.Stats(); len(st.Errors) > 0 {
		t.Fatalf("errors: %v", st.Errors)
	}
}

// TestPoolSharedCacheInvalidation checks a policy flip mid-run: after
// Invalidate the pool keeps answering correctly and repopulates.
func TestPoolSharedCacheInvalidation(t *testing.T) {
	net, o := benchNet(t)
	cache := core.NewDecisionCache()
	pool, err := NewPool(Config{Sessions: 4, Transport: net, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	nav := func(s *Session) error {
		for i := 0; i < 2; i++ {
			if _, err := s.Browser.Navigate(o.URL("/s4")); err != nil {
				return err
			}
		}
		return nil
	}
	pool.Each(nav)
	warm := cache.Stats()
	if warm.Entries == 0 {
		t.Fatal("no cache entries after warmup")
	}
	cache.Invalidate()
	pool.Each(nav)
	st := pool.Stats()
	if len(st.Errors) > 0 {
		t.Fatalf("errors after invalidation: %v", st.Errors)
	}
	if got := cache.Stats(); got.Entries == 0 {
		t.Fatal("cache did not repopulate after invalidation")
	}
}

func BenchmarkPoolNavigate(b *testing.B) {
	net, o := benchNet(b)
	pool, err := NewPool(Config{Sessions: 8, Transport: net})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Submit(func(s *Session) error {
			_, err := s.Browser.Navigate(o.URL("/s3"))
			return err
		})
	}
	pool.Wait()
}

// TestPoolRunsDelegatedSessions mounts the §7 delegation monitor into
// every pooled session via browser.Options.MonitorFactory: the widget
// renders into its delegated slot across all sessions while its
// overreach is denied, and the shared decision cache keeps working
// under the re-homed queries.
func TestPoolRunsDelegatedSessions(t *testing.T) {
	net := web.NewNetwork()
	portal := origin.MustParse("http://portal.example")
	widget := origin.MustParse("http://widget.example")
	net.Register(portal, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(`<html><body>` +
			`<div ring=1 r=1 w=1 x=1 id=chrome>portal chrome</div>` +
			`<div ring=2 r=2 w=2 x=2 id=slot>loading</div>` +
			`</body></html>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))

	pol := mashup.NewPolicy()
	pol.Delegate(mashup.Delegation{Host: portal, Guest: widget, Floor: 2})
	cache := core.NewDecisionCache()
	pool, err := NewPool(Config{
		Sessions:  4,
		Transport: net,
		Cache:     cache,
		Options: browser.Options{
			Mode: browser.ModeEscudo,
			MonitorFactory: func(browser.PageRef) core.Monitor {
				return core.Compose(&core.ERM{}, core.WithCache(cache), core.WithDelegations(pol))
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	pool.Each(func(s *Session) error {
		p, err := s.Browser.Navigate(portal.URL("/"))
		if err != nil {
			return err
		}
		if err := p.RunScriptAs(core.Principal(widget, 0, "widget"),
			`document.getElementById("slot").innerHTML = "rendered";`); err != nil {
			return fmt.Errorf("delegated slot write denied: %w", err)
		}
		if err := p.RunScriptAs(core.Principal(widget, 0, "widget"),
			`document.getElementById("chrome").innerHTML = "pwned";`); err == nil {
			return fmt.Errorf("floored guest rewrote ring-1 chrome")
		}
		return nil
	})
	st := pool.Stats()
	if len(st.Errors) > 0 {
		t.Fatalf("errors: %v", st.Errors)
	}
	if st.Decisions == 0 {
		t.Fatal("no decisions audited across the pool")
	}
	denials := 0
	for _, s := range pool.Sessions() {
		denials += len(s.Browser.Audit.Denials())
	}
	if denials < 4 {
		t.Fatalf("denials = %d, want at least one per session", denials)
	}
	if cs := cache.Stats(); cs.Hits == 0 {
		t.Fatalf("shared cache unused under delegation: %+v", cs)
	}
}

// TestPoolTapSinksReconcile runs the eight Figure-4 pages through a
// pool with every sink of the browser's tap wired — the decision ring,
// stage timing, and a policy-generation source — and reconciles the
// sinks against the audit logs they were fed alongside: the ring saw
// every audited decision and nothing else, each task's spans run 1..n
// without gaps in audit order, every page-pinned decision carries the
// source's generation, and batch_auth recorded time.
func TestPoolTapSinksReconcile(t *testing.T) {
	net, o := benchNet(t)
	ring := core.NewDecisionRing(1 << 13)
	stages := obs.NewStageSet(obs.NewRegistry())
	const gen = 7
	pool, err := NewPool(Config{
		Sessions:  2,
		Transport: net,
		Stages:    stages,
		Options:   browser.Options{DecisionRing: ring, PolicyGen: func() uint64 { return gen }},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	for round := 0; round < 2; round++ {
		pool.Each(func(s *Session) error {
			for _, path := range scenarios.Paths() {
				if _, err := s.Browser.Navigate(o.URL(path)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	st := pool.Stats()
	if len(st.Errors) > 0 {
		t.Fatalf("errors: %v", st.Errors)
	}
	if st.Decisions == 0 {
		t.Fatal("no decisions audited")
	}
	if got := ring.Total(); got != st.Decisions {
		t.Fatalf("ring recorded %d events, audit logs %d decisions", got, st.Decisions)
	}

	type key struct {
		trace string
		span  uint64
	}
	audited := map[key]core.Decision{}
	pinned := 0
	for _, s := range pool.Sessions() {
		next := map[string]uint64{}
		for i, d := range s.Browser.Audit.All() {
			if d.TraceID == "" {
				t.Fatalf("session %d decision %d carries no trace: %v", s.ID, i, d)
			}
			next[d.TraceID]++
			if d.Span != next[d.TraceID] {
				t.Fatalf("session %d decision %d: trace %s span %d, want %d (gap or reorder)",
					s.ID, i, d.TraceID, d.Span, next[d.TraceID])
			}
			if d.PageID != 0 {
				pinned++
				if d.PolicyGen != gen {
					t.Fatalf("session %d decision %d pinned generation %d, want %d", s.ID, i, d.PolicyGen, gen)
				}
			}
			audited[key{d.TraceID, d.Span}] = d
		}
		if len(next) != 2 {
			t.Fatalf("session %d decisions span %d traces, want one per task (2)", s.ID, len(next))
		}
	}
	// Every decision of this workload happens inside a page load
	// (navigation, its scripts, its cookie attachments), so every one
	// must be pinned.
	if uint64(pinned) != st.Decisions {
		t.Fatalf("%d of %d decisions pinned to a page load, want all", pinned, st.Decisions)
	}
	for _, e := range ring.Snapshot(obs.RingFilter{Ring: -1}) {
		d, ok := audited[key{e.TraceID, e.Span}]
		if !ok {
			t.Fatalf("ring event %s#%d has no audited decision", e.TraceID, e.Span)
		}
		if e.Allowed != d.Allowed || e.Rule != d.Rule.String() || e.Gen != d.PolicyGen || e.Object != d.Object.String() {
			t.Fatalf("ring event %+v diverges from its audit record %v", e, d)
		}
	}
	if st.GenMix.Mixed != 0 || st.GenMix.Generations != 1 {
		t.Fatalf("generation mix %+v, want one generation and no mixed pages", st.GenMix)
	}
	if stages.Hist(obs.StageBatchAuth).Snapshot().Total() == 0 {
		t.Fatal("batch_auth histogram is empty")
	}
	t.Logf("%d ring events = %d audited decisions, %d page-pinned", ring.Total(), st.Decisions, pinned)
}
