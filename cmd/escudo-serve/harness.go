// The shared harness of escudo-serve. Every section of the report —
// in memory, over the loopback gateway, open loop, and control plane —
// is a short list of phases over one session pool, and the sections
// differ only in the pool's transport. This file holds the pieces they
// share: the substrate, the observability plane, the gateway helper,
// the phase recorder, and the task library.
package main

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/apps/phpbb"
	"repro/internal/apps/phpcal"
	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/httpd"
	"repro/internal/nonce"
	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/scenarios"
	"repro/internal/template"
	"repro/internal/web"
)

// The substrate's origins.
var (
	benchO  = origin.MustParse("http://bench.example")
	forumO  = origin.MustParse("http://forum.example")
	calO    = origin.MustParse("http://cal.example")
	portalO = origin.MustParse("http://portal.example")
	widgetO = origin.MustParse("http://widget.example")
)

// topicID is the seeded phpBB topic every session browses. The
// substrate seeds exactly one topic into a fresh forum and phpBB
// numbers topics from 1.
const topicID = 1

// scenarioPaths is the Figure-4 page list. scenarios.Paths renders all
// eight pages, so it runs once per process.
var scenarioPaths = sync.OnceValue(scenarios.Paths)

// substrate is the shared benchmark world: the Figure-4 scenario
// server, phpBB, PHP-Calendar, the mashup portal and its widget, and
// the origins' unified policy documents.
type substrate struct {
	net          *web.Network
	portalPolicy policy.Policy
	policies     map[string]policy.Policy
}

// buildSubstrate assembles the substrate with users phpBB and
// PHP-Calendar accounts.
func buildSubstrate(users int) *substrate {
	s := &substrate{net: web.NewNetwork()}
	s.net.Register(benchO, scenarios.Handler())

	forum := phpbb.New(phpbb.Config{Origin: forumO, Escudo: true, Nonces: nonce.CryptoSource{}})
	cal := phpcal.New(phpcal.Config{Origin: calO, Escudo: true, Nonces: nonce.CryptoSource{}})
	for i := 0; i < users; i++ {
		forum.AddUser(account(i), "pw")
		cal.AddUser(account(i), "pw")
	}
	forum.SeedTopic(account(0), "Welcome", "first post")
	cal.SeedEvent(account(0), 1, "kickoff")
	s.net.Register(forumO, forum)
	s.net.Register(calO, cal)

	s.net.Register(portalO, portalHandler())
	s.net.Register(widgetO, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML(`<html><body><p id=w>widget content</p></body></html>`)
	}))

	// The unified policy documents: derived from the apps' Table 3/
	// Table 5 configurations and the scenario server, plus the
	// portal's §7 delegation of ring 2 to the widget origin.
	s.portalPolicy = policy.New(portalO, core.DefaultMaxRing)
	s.portalPolicy.Delegate(widgetO, 2)
	s.policies = map[string]policy.Policy{
		benchO.String():  scenarios.Policy(benchO),
		forumO.String():  forum.Policy(),
		calO.String():    cal.Policy(),
		portalO.String(): s.portalPolicy,
	}
	return s
}

// portalHandler serves the mashup-portal host page: ring-1 chrome, a
// row of ring-2 AC-tagged widget slots, a cross-origin widget iframe,
// and a ring-1 script that snapshots the slot region via innerHTML —
// the batched region-read path — on every load.
//
// The page is generated once at construction, same as
// scenarios.Handler: its content is a fixed benchmark fixture with no
// user-influenced markup, so reusing one nonce set across responses
// does not weaken the §5 randomization defense (which matters only
// when injected content could anticipate the nonces).
func portalHandler() web.Handler {
	bld := template.NewACBuilder(nonce.CryptoSource{})
	var b strings.Builder
	b.WriteString("<html><head><title>portal</title></head><body>")
	b.WriteString(bld.Wrap(1, core.UniformACL(1), "id=chrome", "<h1>My Portal</h1>"))
	var slots strings.Builder
	for i := 0; i < 8; i++ {
		slots.WriteString(bld.Wrap(2, core.UniformACL(2), fmt.Sprintf("id=slot%d", i),
			fmt.Sprintf("<p>widget slot %d: forecasts markets mail feeds</p>", i)))
	}
	b.WriteString(bld.Wrap(1, core.UniformACL(2), "id=slots", slots.String()))
	b.WriteString(`<iframe src="http://widget.example/widget"></iframe>`)
	b.WriteString(bld.Wrap(1, core.UniformACL(1), "id=refresh",
		`<script id=reader>var snapshot = document.getElementById("slots").innerHTML;</script>`))
	b.WriteString("</body></html>")
	page := b.String()
	return web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(page)
		resp.Header.Set(core.HeaderMaxRing, core.DefaultMaxRing.String())
		return resp
	})
}

// plane is one process's observability plane: the metrics registry
// (/varz), the decision ring every session records into (/tracez), the
// runtime sampler, the per-stage histograms, and the slowest-N
// exemplar ring (/slowz). Every pool and gateway of the process shares
// it. Observation never changes a verdict or a batch count (invariant
// 9).
type plane struct {
	reg    *obs.Registry
	ring   *core.DecisionRing
	smp    *obs.Sampler
	stages *obs.StageSet
	slow   *obs.SlowRing
}

// newPlane builds the plane and starts its sampler.
func newPlane() *plane {
	reg := obs.NewRegistry()
	pl := &plane{
		reg:    reg,
		ring:   core.NewDecisionRing(0),
		smp:    obs.NewSampler(reg, 200*time.Millisecond),
		stages: obs.NewStageSet(reg),
		slow:   obs.NewSlowRing(0),
	}
	pl.smp.Start()
	return pl
}

// gateway mounts n on a gateway listening at addr and returns it with a
// client transport speaking to it. Every document in base.Origins is
// mounted, so the gateway serves it at the well-known path and lists it
// on /policyz — policy as data on the wire, enforcement staying
// browser-side. The gateway is wired to the plane pl (nil leaves it a
// private registry and no rings); base carries the rest of its
// configuration, TLS included.
func gateway(pl *plane, n *web.Network, addr string, base httpd.Config) (*httpd.Gateway, *httpd.ClientTransport, func(), error) {
	if pl != nil {
		base.Obs, base.Ring, base.Stages, base.Slow = pl.reg, pl.ring, pl.stages, pl.slow
	}
	return httpd.WrapNetwork(n, base, addr)
}

// newCA returns an ephemeral in-memory CA when on, nil otherwise.
func newCA(on bool) (*httpd.CA, error) {
	if !on {
		return nil, nil
	}
	return httpd.NewCA()
}

// attackWire is the §6.4 replay's transport over a wire: each attack
// environment's private network gets its own throwaway loopback
// gateway (TLS when the section is), and the environments' gateway
// traffic accumulates here for the phase's accounting.
type attackWire struct {
	ca     *httpd.CA
	mu     sync.Mutex
	served httpd.Stats
}

// wrap implements attack.TransportWrapper.
func (a *attackWire) wrap(n *web.Network) (web.Transport, func(), error) {
	gw, ct, cleanup, err := gateway(nil, n, "127.0.0.1:0", httpd.Config{TLS: a.ca})
	if err != nil {
		return nil, nil, err
	}
	return ct, func() {
		a.mu.Lock()
		a.served = a.served.Add(gw.Stats())
		a.mu.Unlock()
		cleanup()
	}, nil
}

// totals returns the accumulated environment traffic.
func (a *attackWire) totals() httpd.Stats {
	if a == nil {
		return httpd.Stats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.served
}

// section is one session pool and the wire it runs over. In memory gw
// and env are nil. Over a loopback gateway gw is set; env, when set,
// replays the §6.4 corpus over the wire too.
type section struct {
	pool *engine.Pool
	gw   *httpd.Gateway
	env  *attackWire
}

// newSection builds the pool over t (the in-memory network or a client
// transport), wired to the plane and sharing cache (nil: a fresh one).
func newSection(cfg config, pl *plane, t web.Transport, cache *core.DecisionCache, opts browser.Options) (*section, error) {
	opts.Mode = cfg.mode
	opts.DecisionRing = pl.ring
	pool, err := engine.NewPool(engine.Config{
		Sessions:  cfg.sessions,
		Transport: t,
		Options:   opts,
		Cache:     cache,
		Stages:    pl.stages,
		Slow:      pl.slow,
	})
	if err != nil {
		return nil, err
	}
	return &section{pool: pool}, nil
}

// served reads the section's cumulative gateway counters: the local
// gateway's plus the attack environments' gateways'. gw must be set.
func (s *section) served() httpd.Stats {
	return s.gw.Stats().Add(s.env.totals())
}

// phase runs fn as one measured phase on the section's pool and
// returns its row: task latency, decisions, cache and batch deltas,
// and over a gateway the phase's traffic. The name also labels the
// pool's slow-ring exemplars for the duration.
func (s *section) phase(name string, fn func()) phaseJSON {
	pool := s.pool
	pool.SetPhase(name)
	pool.ResetStats()
	cacheBefore := pool.Cache().Stats()
	var servedBefore httpd.Stats
	if s.gw != nil {
		servedBefore = s.served()
	}
	start := time.Now()
	fn()
	elapsed := time.Since(start)

	st := pool.Stats()
	ph := phaseJSON{
		Name:      name,
		Tasks:     st.Tasks,
		Errors:    len(st.Errors),
		P50Ms:     ms(st.P50),
		P99Ms:     ms(st.P99),
		MeanMs:    ms(st.Mean),
		ElapsedMs: ms(elapsed),
		Decisions: st.Decisions,
	}
	delta := st.Cache.Sub(cacheBefore)
	ph.Cache = &cacheJSON{Hits: delta.Hits, Misses: delta.Misses, HitRate: delta.HitRate(), Entries: st.Cache.Entries}
	if ph.Decisions == 0 {
		// Attack environments keep their own audit logs; the shared
		// cache still sees every mediated decision.
		ph.Decisions = delta.Hits + delta.Misses
	}
	if st.Batch.Nodes > 0 {
		ph.Batch = &batchJSON{
			NodesAuthorized:   st.Batch.Nodes,
			DistinctDecisions: st.Batch.Distinct,
			DedupRatio:        st.Batch.DedupRatio(),
		}
	}
	secs := elapsed.Seconds()
	if secs > 0 {
		ph.DecisionsPerSec = float64(ph.Decisions) / secs
	}
	if s.gw != nil {
		served := s.served().Sub(servedBefore)
		g := &GatewayJSON{Requests: served.Served}
		if secs > 0 {
			g.ReqsPerSec = float64(g.Requests) / secs
		}
		ph.GatewayJSON = g
	}
	for _, err := range st.Errors {
		fmt.Fprintf(os.Stderr, "escudo-serve: %s: %v\n", name, err)
	}
	return ph
}

// warm runs task once per session, unmeasured, and fails on any error.
func (s *section) warm(task engine.Task) error {
	s.pool.ResetStats()
	s.pool.Each(task)
	if st := s.pool.Stats(); len(st.Errors) > 0 {
		return fmt.Errorf("warmup: %w", st.Errors[0])
	}
	return nil
}

// visit is the task that loads one page.
func visit(u string) engine.Task {
	return func(s *engine.Session) error {
		_, err := s.Browser.Navigate(u)
		return err
	}
}

// figure4Rounds submits rounds passes over the eight Figure-4 pages on
// origin o across the pool and waits for them.
func figure4Rounds(pool *engine.Pool, o origin.Origin, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, p := range scenarioPaths() {
			pool.Submit(visit(o.URL(p)))
		}
	}
	pool.Wait()
}

// login signs the session into account on the forum through the index
// page's login form.
func login(s *engine.Session, account string) error {
	p, err := s.Browser.Navigate(forumO.URL("/"))
	if err != nil {
		return err
	}
	form := p.Doc.ByID("loginform")
	if form == nil {
		return fmt.Errorf("no loginform")
	}
	_, err = p.SubmitForm(form, map[string][]string{"username": {account}, "password": {"pw"}})
	return err
}

// phpbbTask logs each session into its own account, then alternates
// the forum index and the seeded topic iters times, posting a reply
// every fifth round — the paper's "active session with a trusted site"
// workload, whose decision stream is the cache's best case.
func phpbbTask(iters int) engine.Task {
	return func(s *engine.Session) error {
		who := account(s.ID)
		if err := login(s, who); err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if _, err := s.Browser.Navigate(forumO.URL("/")); err != nil {
				return err
			}
			tp, err := s.Browser.Navigate(forumO.URL(fmt.Sprintf("/viewtopic?t=%d", topicID)))
			if err != nil {
				return err
			}
			if i%5 != 4 {
				continue
			}
			reply := tp.Doc.ByID("replyform")
			if reply == nil {
				return fmt.Errorf("no replyform")
			}
			if _, err := tp.SubmitForm(reply, map[string][]string{
				"message": {fmt.Sprintf("reply from %s round %d", who, i)},
			}); err != nil {
				return err
			}
		}
		return nil
	}
}

// mixedTask builds the mixed-workload session task: the sessions split
// three ways across one substrate — phpBB browsing (sessions must
// already be logged in), PHP-Calendar event tracking (logs in itself),
// and a mashup portal with cross-origin widgets.
func mixedTask(iters int) engine.Task {
	return func(s *engine.Session) error {
		switch s.ID % 3 {
		case 0: // phpBB browsing.
			for i := 0; i < iters; i++ {
				if _, err := s.Browser.Navigate(forumO.URL("/")); err != nil {
					return err
				}
				if _, err := s.Browser.Navigate(forumO.URL(fmt.Sprintf("/viewtopic?t=%d", topicID))); err != nil {
					return err
				}
			}
		case 1: // PHP-Calendar: log in, add events, re-render the month.
			p, err := s.Browser.Navigate(calO.URL("/"))
			if err != nil {
				return err
			}
			if form := p.Doc.ByID("loginform"); form != nil {
				if _, err := p.SubmitForm(form, map[string][]string{
					"username": {account(s.ID)}, "password": {"pw"},
				}); err != nil {
					return err
				}
			}
			for i := 0; i < iters; i++ {
				mp, err := s.Browser.Navigate(calO.URL("/"))
				if err != nil {
					return err
				}
				if i%4 == 3 {
					form := mp.Doc.ByID("newevent")
					if form == nil {
						return fmt.Errorf("no newevent form")
					}
					if _, err := mp.SubmitForm(form, map[string][]string{
						"day": {fmt.Sprintf("%d", i%28+1)}, "text": {fmt.Sprintf("event s%d r%d", s.ID, i)},
					}); err != nil {
						return err
					}
				}
			}
		default: // mashup portal: host page + cross-origin widget frames.
			for i := 0; i < iters; i++ {
				p, err := s.Browser.Navigate(portalO.URL("/"))
				if err != nil {
					return err
				}
				if len(p.ScriptErrors) > 0 {
					return fmt.Errorf("portal script: %v", p.ScriptErrors[0])
				}
			}
		}
		return nil
	}
}

// replay runs the §6.4 corpus across the section's pool, every attack
// in a fresh environment sharing the pool's decision cache. Over a
// wire each attack runs twice, in memory and through its own gateway,
// and the tally counts the wire verdicts; match reports that every
// wire run equaled the in-memory one in its verdict and in the
// origins' request log. Comparing verdicts alone cannot see a
// transport that loses cookies: under ESCUDO a lost cookie looks like
// a neutralized attack. err joins the attacks' own failures, which a
// measured phase also counts as its task errors.
func (s *section) replay(mode browser.Mode) (tally *attacksJSON, match bool, err error) {
	corpus := attack.Corpus()
	mem := make([]attack.Result, len(corpus))
	wire := make([]attack.Result, len(corpus))
	for i, atk := range corpus {
		s.pool.Submit(func(*engine.Session) error {
			mem[i] = attack.RunOne(atk, mode, attack.WithCache(s.pool.Cache()))
			wire[i] = mem[i]
			if s.env != nil && mem[i].Err == nil {
				wire[i] = attack.RunOne(atk, mode, attack.WithCache(s.pool.Cache()), attack.Over(s.env.wrap))
			}
			return wire[i].Err
		})
	}
	s.pool.Wait()
	tally, match = &attacksJSON{Total: len(corpus)}, true
	var errs []error
	for i, r := range wire {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("attack %s: %w", corpus[i].Name, r.Err))
		}
		if r.Neutralized() {
			tally.Neutralized++
		} else {
			tally.Succeeded++
		}
		if r.Succeeded != mem[i].Succeeded {
			match = false
			fmt.Fprintf(os.Stderr, "escudo-serve: VERDICT DIVERGENCE %s: in-memory succeeded=%v, wire succeeded=%v\n",
				corpus[i].Name, mem[i].Succeeded, r.Succeeded)
		}
		if !slices.Equal(r.Requests, mem[i].Requests) {
			match = false
			fmt.Fprintf(os.Stderr, "escudo-serve: REQUEST LOG DIVERGENCE %s: in-memory %q, wire %q\n",
				corpus[i].Name, mem[i].Requests, r.Requests)
		}
	}
	return tally, match, errors.Join(errs...)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
