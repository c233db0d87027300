// Command escudo-serve is the concurrent load driver for the engine:
// it replays the Figure-4 scenario pages, a logged-in phpBB browsing
// workload, and a mixed workload (concurrent phpBB + PHP-Calendar +
// mashup-portal sessions against one network) across a pool of N
// independent browser sessions sharing one decision cache, then
// replays the §6.4 attack corpus across the same pool, and emits
// BENCH_engine.json with p50/p99 task latency, decisions/sec, cache
// hit rates, and batched-authorization dedup per phase.
//
// With -http it additionally mounts the same origins on a real
// net/http gateway (internal/httpd) over loopback and re-runs the
// figure-4 and mixed workloads plus the attack replay through
// httpd.ClientTransport — real sockets, Host-header virtual hosting —
// into an "http" section; -tls
// terminates https on that gateway with an ephemeral in-memory CA.
// -openloop (with -http, on the same address) and -control add the
// open-loop SLO and policy control-plane sections. Every section is a
// short list of phases over one session pool (harness.go); the
// sections differ only in the pool's transport.
//
// The run exits 1 when an invariant it measured breaks (see verify):
// a task error, an attack that lands under ESCUDO, a socket verdict
// that differs from the in-memory one, and the like.
//
// Usage:
//
//	escudo-serve [-sessions N] [-iters N] [-phpbb-iters N]
//	             [-mixed-iters N] [-procs N]
//	             [-mode escudo|sop] [-attacks]
//	             [-http addr] [-tls] [-openloop spec]
//	             [-control]
//	             [-pprof] [-cpuprofile f] [-memprofile f]
//	             [-out BENCH_engine.json]
package main

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/engine"
	"repro/internal/httpd"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/slo"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "escudo-serve:", err)
		os.Exit(1)
	}
}

// cacheJSON is the cache section of one phase.
type cacheJSON struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	Entries int     `json:"entries"`
}

// attacksJSON is the attack-replay section.
type attacksJSON struct {
	Total       int `json:"total"`
	Neutralized int `json:"neutralized"`
	Succeeded   int `json:"succeeded"`
}

// batchJSON is the batched-authorization section of one phase: how
// many DOM nodes flowed through the batched path vs. how many
// distinct decisions were actually computed.
type batchJSON struct {
	NodesAuthorized   uint64  `json:"nodes_authorized"`
	DistinctDecisions uint64  `json:"distinct_decisions"`
	DedupRatio        float64 `json:"dedup_ratio"`
}

// obsJSON is the observability section of BENCH_engine.json: the
// process's build stamp, the runtime sampler's summary over the whole
// run (goroutines, heap, GC), and the decision-trace ring's traffic.
type obsJSON struct {
	Version obs.Stamp        `json:"version"`
	Sampler obs.SamplerStats `json:"sampler"`
	// DecisionEventsRecorded counts every decision-trace event recorded
	// over the run; DecisionEventsRetained is how many the ring still
	// holds (min of recorded and ring capacity).
	DecisionEventsRecorded uint64 `json:"decision_events_recorded"`
	DecisionEventsRetained int    `json:"decision_events_retained"`
}

// phaseJSON is one measured phase in BENCH_engine.json, in any
// section. Tasks and latency are measured at the client sessions;
// decisions, cache and batch figures come from the pool. Phases that
// ran over a wire carry its traffic in the embedded GatewayJSON.
type phaseJSON struct {
	Name  string `json:"name"`
	Tasks uint64 `json:"tasks"`
	// Errors counts harness-level task failures (0 on a clean run).
	Errors    int     `json:"errors"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MeanMs    float64 `json:"mean_ms"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Decisions counts reference-monitor verdicts during the phase:
	// audit-log records for pool phases, cache lookups for the attack
	// replay (whose environments own their audit logs).
	Decisions       uint64       `json:"decisions"`
	DecisionsPerSec float64      `json:"decisions_per_sec"`
	Cache           *cacheJSON   `json:"cache,omitempty"`
	Batch           *batchJSON   `json:"batch,omitempty"`
	Attacks         *attacksJSON `json:"attacks,omitempty"`
	*GatewayJSON
}

// GatewayJSON is a phase's wire traffic: requests is the gateway's
// served delta for the phase. It is exported because encoding/json
// only fills embedded struct pointers of exported types.
type GatewayJSON struct {
	Requests   uint64  `json:"requests"`
	ReqsPerSec float64 `json:"reqs_per_sec"`
	// AllocsPerRequest is the process-wide heap-allocation count per
	// gateway-served request during the phase (client sessions, wire,
	// gateway, and handlers all included — the whole request path the
	// allocation diet targets). Measured on http-figure4 only.
	AllocsPerRequest float64 `json:"allocs_per_request,omitempty"`
}

// clientJSON is the http section's client row: the loadgen
// transport's connection accounting. Proto names the negotiated wire
// protocol of the counted traffic ("h2"/"h1", "" when nothing was
// counted); H2Requests is the raw count behind it.
type clientJSON struct {
	Requests    uint64  `json:"requests"`
	NewConns    uint64  `json:"new_conns"`
	ReusedConns uint64  `json:"reused_conns"`
	ReuseRate   float64 `json:"reuse_rate"`
	H2Requests  uint64  `json:"h2_requests"`
	Proto       string  `json:"proto,omitempty"`
}

// fromClientStats converts transport counters to the client row.
func fromClientStats(s httpd.ClientStats) clientJSON {
	return clientJSON{
		Requests:    s.Requests,
		NewConns:    s.NewConns,
		ReusedConns: s.ReusedConns,
		ReuseRate:   s.ReuseRate(),
		H2Requests:  s.H2Requests,
		Proto:       s.Proto(),
	}
}

// httpJSON is the http section of BENCH_engine.json: the same
// workloads replayed over real sockets through the gateway.
type httpJSON struct {
	Addr string `json:"addr"`
	TLS  bool   `json:"tls"`
	// Proto is the negotiated wire protocol of the loadgen traffic:
	// "h2" on the TLS paths (ALPN + ForceAttemptHTTP2), "h1" on plain
	// keep-alive loopback.
	Proto string `json:"proto"`
	// AllocsPerRequest mirrors the http-figure4 phase's figure — the
	// headline number the allocation-diet gate asserts.
	AllocsPerRequest float64     `json:"allocs_per_request,omitempty"`
	Phases           []phaseJSON `json:"phases"`
	Gateway          httpd.Stats `json:"gateway"`
	// Client is the loadgen transport's connection accounting (new
	// vs reused keep-alive connections).
	Client *clientJSON `json:"client,omitempty"`
	// PolicyzOrigins counts the mounted policy documents the admin
	// /policyz endpoint served back unchanged.
	PolicyzOrigins int          `json:"policyz_origins"`
	Attacks        *attacksJSON `json:"attacks,omitempty"`
	// AttacksMatchMemory reports that every attack's verdict and
	// origin request log over sockets equaled its in-memory run — the
	// transport-independence invariant, asserted at runtime.
	AttacksMatchMemory *bool `json:"attacks_match_memory,omitempty"`
}

// policyJSON is the policy section of BENCH_engine.json: the unified
// documents derived for the substrate's origins, a serialization
// round-trip check, and the delegated-session phase — the §7 monitor
// mounted into a pool of real sessions via MonitorFactory.
type policyJSON struct {
	// Origins lists the origins with a derived policy document.
	Origins []string `json:"origins"`
	// Delegations counts delegation rows across the documents.
	Delegations int `json:"delegations"`
	// RoundTripOK reports Parse(Marshal(p)) == p for every document.
	RoundTripOK bool `json:"round_trip_ok"`
	// Phases holds the delegated-session phase measurements.
	Phases []phaseJSON `json:"phases"`
}

// benchJSON is the whole BENCH_engine.json document.
type benchJSON struct {
	Sessions int    `json:"sessions"`
	Mode     string `json:"mode"`
	// ProcsRequested is the -procs flag value (0 when unset);
	// GoMaxProcs is the effective setting after clamping to the
	// machine's CPU count.
	ProcsRequested int         `json:"procs_requested,omitempty"`
	GoMaxProcs     int         `json:"gomaxprocs"`
	Phases         []phaseJSON `json:"phases"`
	Policy         *policyJSON `json:"policy,omitempty"`
	HTTP           *httpJSON   `json:"http,omitempty"`
	// Control is the policy control plane section (written by -control
	// runs): the invalidation storm and the generation audit.
	Control *controlJSON `json:"control,omitempty"`
	// Obs is the run's observability summary: build stamp, runtime
	// sampler series, decision-trace ring traffic.
	Obs *obsJSON `json:"obs,omitempty"`
	// SLO is the open-loop section (written by -openloop runs): offered
	// vs achieved rate, per-stage latency percentiles, error budget,
	// exemplar traces, and the leak verdict for the window.
	SLO     *slo.Result `json:"slo,omitempty"`
	TotalMs float64     `json:"total_ms"`
}

// config is the run's configuration, parsed once from the flags.
type config struct {
	sessions, iters, phpbbIters, mixedIters int
	procs                                   int
	mode                                    browser.Mode
	attacks                                 bool
	httpAddr                                string
	tls, pprof                              bool
	cpuProfile, memProfile                  string
	openloop                                openLoopSpec
	control                                 bool
	out                                     string
}

// account names the phpBB/PHP-Calendar account session sessionID owns.
func account(sessionID int) string {
	return fmt.Sprintf("user%d", sessionID)
}

// parseConfig parses and checks the flags.
func parseConfig(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("escudo-serve", flag.ContinueOnError)
	fs.IntVar(&c.sessions, "sessions", 8, "number of concurrent browser sessions")
	fs.IntVar(&c.iters, "iters", 5, "rounds through all Figure-4 scenarios per session")
	fs.IntVar(&c.phpbbIters, "phpbb-iters", 20, "phpBB page views per session")
	fs.IntVar(&c.mixedIters, "mixed-iters", 10, "mixed-workload rounds per session (0 disables the phase)")
	fs.IntVar(&c.procs, "procs", 0, "GOMAXPROCS override (0 keeps the runtime default)")
	fs.BoolVar(&c.pprof, "pprof", false, "expose net/http/pprof on the gateway's admin host under /debug/pprof (with -http)")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile (after the run, post-GC) to this file")
	modeFlag := fs.String("mode", "escudo", "protection mode: escudo or sop")
	fs.BoolVar(&c.attacks, "attacks", true, "replay the §6.4 attack corpus")
	fs.StringVar(&c.httpAddr, "http", "", "also mount the origins on a real HTTP gateway at this address (e.g. 127.0.0.1:0) and replay the workloads over loopback sockets")
	openloop := fs.String("openloop", "", "open-loop SLO mode: rate=R,duration=D[,churn=C][,p99=MS][,seed=N] — offer Poisson arrivals at R req/s for D against a gateway at the -http address (C login/logout events/s woven in) and write the slo section")
	fs.BoolVar(&c.tls, "tls", false, "terminate https on the -http gateway with an ephemeral in-memory CA")
	fs.BoolVar(&c.control, "control", false, "run the policy control-plane section: mount the origins on a dedicated gateway and push a live policy flip mid-load (invalidation storm)")
	fs.StringVar(&c.out, "out", "BENCH_engine.json", "output JSON path")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.sessions < 1 {
		return c, fmt.Errorf("-sessions must be >= 1, got %d", c.sessions)
	}
	if c.tls && c.httpAddr == "" {
		return c, fmt.Errorf("-tls needs a gateway: combine it with -http")
	}
	switch *modeFlag {
	case "escudo":
		c.mode = browser.ModeEscudo
	case "sop":
		c.mode = browser.ModeSOP
	default:
		return c, fmt.Errorf("unknown -mode %q", *modeFlag)
	}
	if *openloop != "" {
		if c.httpAddr == "" {
			return c, fmt.Errorf("-openloop needs a gateway: combine it with -http")
		}
		var err error
		if c.openloop, err = parseOpenLoop(*openloop); err != nil {
			return c, err
		}
	}
	return c, nil
}

// run is the driver: the in-memory phases, the policy section, and
// whichever of the http, slo and control sections the flags ask for,
// written to one report and verified.
func run(args []string) error {
	cfg, err := parseConfig(args)
	if err != nil {
		return err
	}
	if cfg.procs > 0 {
		// Clamp to the physical CPU count: GOMAXPROCS above it buys no
		// parallelism, only OS-thread thrash that wrecks tail latency.
		effective := cfg.procs
		if n := runtime.NumCPU(); effective > n {
			fmt.Fprintf(os.Stderr, "escudo-serve: -procs %d clamped to %d (machine CPU count)\n", cfg.procs, n)
			effective = n
		}
		runtime.GOMAXPROCS(effective)
	}

	// Profiling covers the whole run: all in-memory phases plus the
	// http section, which is where the hot request path lives.
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return fmt.Errorf("creating -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if cfg.memProfile != "" {
		defer func() {
			f, err := os.Create(cfg.memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "escudo-serve: creating -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "escudo-serve: writing heap profile: %v\n", err)
			}
		}()
	}

	pl := newPlane()
	sub := buildSubstrate(cfg.sessions)
	mem, err := newSection(cfg, pl, sub.net, nil, browser.Options{})
	if err != nil {
		return err
	}
	defer mem.pool.Close()
	cache := mem.pool.Cache()

	report := benchJSON{
		Sessions:       cfg.sessions,
		Mode:           cfg.mode.String(),
		ProcsRequested: cfg.procs,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
	}
	total := time.Now()

	// One unmeasured navigation per session first, so the session
	// cookie exists and every measured load exercises cookie use. The
	// post-warmup mark is the pool's steady-state goroutine count, the
	// baseline `make soak` compares the end-of-run count against.
	if err := mem.warm(visit(benchO.URL(scenarioPaths()[0]))); err != nil {
		return err
	}
	pl.smp.Mark()
	report.Phases = append(report.Phases, mem.phase("figure4", func() { figure4Rounds(mem.pool, benchO, cfg.iters) }))
	report.Phases = append(report.Phases, mem.phase("phpbb", func() { mem.pool.Each(phpbbTask(cfg.phpbbIters)) }))
	if cfg.mixedIters > 0 {
		report.Phases = append(report.Phases, mem.phase("mixed", func() { mem.pool.Each(mixedTask(cfg.mixedIters)) }))
	}
	if cfg.attacks {
		var tally *attacksJSON
		ph := mem.phase("attacks", func() { tally, _, _ = mem.replay(cfg.mode) })
		ph.Attacks = tally
		report.Phases = append(report.Phases, ph)
	}

	if report.Policy, err = policySection(cfg, pl, sub, cache); err != nil {
		return err
	}
	if cfg.httpAddr != "" {
		if report.HTTP, err = httpSection(cfg, pl, sub, cache); err != nil {
			return err
		}
	}
	if cfg.openloop.rate > 0 {
		if report.SLO, err = sloSection(cfg, pl, sub, cache); err != nil {
			return err
		}
	}
	if cfg.control {
		if report.Control, err = runControlSection(cfg, pl, sub); err != nil {
			return err
		}
	}
	report.Obs = &obsJSON{
		Version:                obs.Version(),
		Sampler:                pl.smp.Stop(),
		DecisionEventsRecorded: pl.ring.Total(),
		DecisionEventsRetained: pl.ring.Len(),
	}
	report.TotalMs = ms(time.Since(total))
	if err := writeJSON(cfg.out, report); err != nil {
		return err
	}
	printReport(&report)
	fmt.Printf("\nWrote %s (%.0f ms total)\n", cfg.out, report.TotalMs)
	return verify(&report)
}

// policySection round-trips the unified documents and runs the
// delegated-session phase: a pool whose sessions mount the §7
// delegation monitor through browser.Options.MonitorFactory (sharing
// the run's decision cache), so the delegated widget renders into its
// portal slot across real concurrent sessions while its overreach is
// denied. ESCUDO mode only: delegation is meaningless under the flat
// SOP baseline.
func policySection(cfg config, pl *plane, sub *substrate, cache *core.DecisionCache) (*policyJSON, error) {
	sec := &policyJSON{RoundTripOK: true}
	for o, doc := range sub.policies {
		sec.Origins = append(sec.Origins, o)
		sec.Delegations += len(doc.Delegations)
		data, err := doc.Marshal()
		if err != nil {
			return nil, err
		}
		back, err := policy.Parse(data)
		if err != nil || !back.Equal(doc) {
			sec.RoundTripOK = false
		}
	}
	sort.Strings(sec.Origins)
	if cfg.mode != browser.ModeEscudo {
		return sec, nil
	}
	delPol, err := sub.portalPolicy.DelegationPolicy()
	if err != nil {
		return nil, err
	}
	del, err := newSection(cfg, pl, sub.net, cache, browser.Options{
		MonitorFactory: func(browser.PageRef) core.Monitor {
			return core.Compose(&core.ERM{}, core.WithCache(cache), core.WithDelegations(delPol))
		},
	})
	if err != nil {
		return nil, err
	}
	defer del.pool.Close()
	iters := max(cfg.mixedIters, 1)
	widget := core.Principal(widgetO, 0, "widget")
	sec.Phases = append(sec.Phases, del.phase("delegated-session", func() {
		del.pool.Each(func(s *engine.Session) error {
			for i := 0; i < iters; i++ {
				p, err := s.Browser.Navigate(portalO.URL("/"))
				if err != nil {
					return err
				}
				if err := p.RunScriptAs(widget, fmt.Sprintf(
					`document.getElementById("slot%d").innerHTML = "forecast s%d r%d";`,
					i%8, s.ID, i)); err != nil {
					return fmt.Errorf("delegated slot write denied: %w", err)
				}
				if err := p.RunScriptAs(widget,
					`document.getElementById("chrome").innerHTML = "pwned";`); err == nil {
					return fmt.Errorf("delegation failed to confine the widget to its floor")
				}
			}
			return nil
		})
	}))
	return sec, nil
}

// httpSection is the client/server split: the substrate served from a
// real net/http gateway, the workloads replayed by fresh sessions over
// loopback sockets through the shared decision cache, and the attack
// corpus cross-checked transport for transport.
func httpSection(cfg config, pl *plane, sub *substrate, cache *core.DecisionCache) (*httpJSON, error) {
	ca, err := newCA(cfg.tls)
	if err != nil {
		return nil, err
	}
	gw, ct, cleanup, err := gateway(pl, sub.net, cfg.httpAddr, httpd.Config{Origins: sub.policies, TLS: ca, EnablePprof: cfg.pprof})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	s, err := newSection(cfg, pl, ct, cache, browser.Options{})
	if err != nil {
		return nil, err
	}
	defer s.pool.Close()
	s.gw, s.env = gw, &attackWire{ca: ca}
	sec := &httpJSON{Addr: gw.Addr(), TLS: cfg.tls}

	// Wire delivery: count the mounted documents /policyz serves back
	// unchanged (verify holds the count to the mounted set).
	scheme, client := "http", (*http.Client)(nil)
	if ca != nil {
		scheme = "https"
		client = &http.Client{
			Transport: &http.Transport{TLSClientConfig: &tls.Config{RootCAs: ca.Pool(), MinVersion: tls.VersionTLS12}},
			Timeout:   10 * time.Second,
		}
	}
	served, err := ctlplane.FetchPolicyz(context.Background(), client, scheme, gw.Addr())
	if err != nil {
		return nil, err
	}
	for o, raw := range served.Policies {
		if got, err := policy.Parse(raw); err == nil && got.Equal(sub.policies[o]) {
			sec.PolicyzOrigins++
		}
	}

	// Unmeasured warm round: the scenario session cookie and the phpBB
	// logins the mixed workload's browsing arm assumes.
	if err := s.warm(func(se *engine.Session) error {
		if err := visit(benchO.URL(scenarioPaths()[0]))(se); err != nil {
			return err
		}
		return login(se, account(se.ID))
	}); err != nil {
		return nil, fmt.Errorf("http %w", err)
	}

	// The figure4 replay doubles as the allocation gate: the phase's
	// process-wide Mallocs delta over the gateway's served count. A GC
	// cycle beforehand keeps the previous phases' garbage out of the
	// window.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fig4 := s.phase("http-figure4", func() { figure4Rounds(s.pool, benchO, cfg.iters) })
	runtime.ReadMemStats(&after)
	if fig4.Requests > 0 {
		fig4.AllocsPerRequest = float64(after.Mallocs-before.Mallocs) / float64(fig4.Requests)
	}
	sec.AllocsPerRequest = fig4.AllocsPerRequest
	sec.Phases = append(sec.Phases, fig4)
	if cfg.mixedIters > 0 {
		sec.Phases = append(sec.Phases, s.phase("http-mixed", func() { s.pool.Each(mixedTask(cfg.mixedIters)) }))
	}
	if cfg.attacks {
		var match bool
		sec.Phases = append(sec.Phases, s.phase("http-attacks", func() { sec.Attacks, match, _ = s.replay(cfg.mode) }))
		sec.AttacksMatchMemory = &match
	}

	sec.Gateway = gw.Stats()
	cs := fromClientStats(ct.Stats())
	sec.Client, sec.Proto = &cs, cs.Proto
	return sec, nil
}

// sloSection offers open-loop Poisson arrivals to a gateway of its own
// at the -http address, sharing the substrate, cache, and
// observability plane, so the storm cannot perturb the
// equivalence-checked phases and the address's admin host answers for
// the whole open loop.
func sloSection(cfg config, pl *plane, sub *substrate, cache *core.DecisionCache) (*slo.Result, error) {
	_, ct, cleanup, err := gateway(pl, sub.net, cfg.httpAddr, httpd.Config{Origins: sub.policies, EnablePprof: cfg.pprof})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	s, err := newSection(cfg, pl, ct, cache, browser.Options{})
	if err != nil {
		return nil, err
	}
	defer s.pool.Close()
	if err := s.warm(visit(benchO.URL(scenarioPaths()[0]))); err != nil {
		return nil, fmt.Errorf("openloop %w", err)
	}
	// The in-memory substrate's request log is the other append-only
	// accumulator in this process; drop it on the trim cadence.
	return driveOpenLoop(s.pool, cfg.openloop, pl, sub.net.ResetLog)
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// verify checks every invariant the report measured and returns the
// broken ones; a non-nil result makes the run exit 1. Thresholds that
// depend on run length or host speed (connection reuse, allocation
// ceilings, the offered rate) are not invariants; the make targets
// assert those.
func verify(r *benchJSON) error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	escudo := r.Mode == browser.ModeEscudo.String()
	corpus := len(attack.Corpus())
	clean := func(where string, rows []phaseJSON) {
		for _, ph := range rows {
			if ph.Errors > 0 {
				fail("%sphase %s had %d task errors", where, ph.Name, ph.Errors)
			}
			// Every task of a wire phase loads at least one page, and the
			// gateway's served count never includes an admin answer, so a
			// task whose pages all missed their origin shows up here.
			if ph.GatewayJSON != nil && ph.Requests < ph.Tasks {
				fail("%sphase %s: the gateway served %d origin requests for %d tasks", where, ph.Name, ph.Requests, ph.Tasks)
			}
		}
	}
	// Under SOP attacks succeeding is the baseline working.
	tally := func(where string, a *attacksJSON) {
		if escudo && a != nil && (a.Total != corpus || a.Neutralized != a.Total) {
			fail("%s: %d/%d attacks neutralized, want %d/%d", where, a.Neutralized, a.Total, corpus, corpus)
		}
	}
	clean("", r.Phases)
	for _, ph := range r.Phases {
		tally("in memory", ph.Attacks)
	}
	if p := r.Policy; p != nil {
		clean("policy ", p.Phases)
		if !p.RoundTripOK {
			fail("policy documents failed the serialization round trip")
		}
	}
	if h := r.HTTP; h != nil {
		clean("http ", h.Phases)
		tally("over sockets", h.Attacks)
		if h.AttacksMatchMemory != nil && !*h.AttacksMatchMemory {
			fail("attack verdicts or origin request logs diverge between in-memory and socket transports")
		}
		if r.Policy != nil && h.PolicyzOrigins != len(r.Policy.Origins) {
			fail("/policyz served back %d of %d mounted documents unchanged", h.PolicyzOrigins, len(r.Policy.Origins))
		}
		if h.TLS && h.Proto != "h2" {
			fail("http: the TLS loadgen negotiated %q, want h2", h.Proto)
		}
	}
	if c := r.Control; c != nil {
		clean("control ", c.Phases)
		if c.GenerationsMixed != 0 {
			fail("control: %d pages observed more than one policy generation", c.GenerationsMixed)
		}
		if c.GenerationsSeen < 2 {
			fail("control: storm pages saw %d generation(s); the flip did not land mid-load", c.GenerationsSeen)
		}
		if r.Policy != nil && c.PolicyzOrigins != len(r.Policy.Origins) {
			fail("control: /policyz served %d documents, mounted %d", c.PolicyzOrigins, len(r.Policy.Origins))
		}
		if s := c.Storm; s != nil {
			if s.FlipGeneration != c.Generation {
				fail("control: fleet generation %d, want the flip's %d", c.Generation, s.FlipGeneration)
			}
			tally("control before the flip", s.AttacksPreFlip)
			tally("control after the flip", s.AttacksPostFlip)
		}
	}
	if s := r.SLO; s != nil {
		if s.Errors > 0 {
			fail("open-loop run had %d task errors", s.Errors)
		}
		if s.Leak != nil && s.Leak.Suspected {
			fail("open-loop leak watch suspects a leak (%.0f B/s)", s.Leak.SlopeBytesPerSec)
		}
		if s.P99BudgetMs > 0 && !s.P99WithinBudget {
			fail("open-loop p99 %.1f ms misses its %.1f ms budget", s.P99Ms, s.P99BudgetMs)
		}
		if s.Logins != s.Logouts+s.LiveSessions {
			fail("churn: %d logins != %d logouts + %d live sessions", s.Logins, s.Logouts, s.LiveSessions)
		}
	}
	return errors.Join(errs...)
}

// printReport renders the report on stdout.
func printReport(r *benchJSON) {
	fmt.Printf("ESCUDO engine load driver — %d sessions, mode %s (GOMAXPROCS %d)\n\n",
		r.Sessions, r.Mode, r.GoMaxProcs)
	t := metrics.NewTable("Phase", "Tasks", "p50 (ms)", "p99 (ms)", "Decisions", "Dec/s", "Cache hit rate", "Batch n→k")
	for _, ph := range r.Phases {
		hitRate := "-"
		if ph.Cache != nil {
			hitRate = fmt.Sprintf("%.1f%%", 100*ph.Cache.HitRate)
		}
		batch := "-"
		if ph.Batch != nil {
			batch = fmt.Sprintf("%d→%d", ph.Batch.NodesAuthorized, ph.Batch.DistinctDecisions)
		}
		t.AddRow(ph.Name, fmt.Sprintf("%d", ph.Tasks), fmt.Sprintf("%.3f", ph.P50Ms), fmt.Sprintf("%.3f", ph.P99Ms),
			fmt.Sprintf("%d", ph.Decisions), fmt.Sprintf("%.0f", ph.DecisionsPerSec), hitRate, batch)
	}
	fmt.Print(t.String())
	for _, ph := range r.Phases {
		if ph.Attacks != nil {
			fmt.Printf("\nAttack corpus: %d/%d neutralized under %s\n", ph.Attacks.Neutralized, ph.Attacks.Total, r.Mode)
		}
	}
	if pol := r.Policy; pol != nil {
		fmt.Printf("\nPolicy: %d origin documents (%d delegations), round-trip ok=%v\n",
			len(pol.Origins), pol.Delegations, pol.RoundTripOK)
		for _, ph := range pol.Phases {
			fmt.Printf("  %s: %d tasks, p50 %.3f ms, %d decisions\n", ph.Name, ph.Tasks, ph.P50Ms, ph.Decisions)
		}
	}
	if h := r.HTTP; h != nil {
		fmt.Printf("\nHTTP gateway at %s\n\n", h.Addr)
		t := metrics.NewTable("Phase", "Tasks", "p50 (ms)", "p99 (ms)", "Reqs", "Reqs/s")
		for _, ph := range h.Phases {
			t.AddRow(ph.Name, fmt.Sprintf("%d", ph.Tasks), fmt.Sprintf("%.3f", ph.P50Ms), fmt.Sprintf("%.3f", ph.P99Ms),
				fmt.Sprintf("%d", ph.Requests), fmt.Sprintf("%.0f", ph.ReqsPerSec))
		}
		fmt.Print(t.String())
		if c := h.Client; c != nil {
			fmt.Printf("\nTransport: proto %s, conn reuse %.2f (%d new / %d reused), %.0f allocs/request\n",
				c.Proto, c.ReuseRate, c.NewConns, c.ReusedConns, h.AllocsPerRequest)
		}
		if h.Attacks != nil {
			fmt.Printf("\nAttack corpus over sockets: %d/%d neutralized under %s (verdicts match in-memory: %v)\n",
				h.Attacks.Neutralized, h.Attacks.Total, r.Mode, *h.AttacksMatchMemory)
		}
	}
	if c := r.Control; c != nil {
		printControl(c)
	}
	if s := r.SLO; s != nil {
		printSLO(s)
	}
	if o := r.Obs; o != nil {
		fmt.Printf("\nObs: %s, %d samples every %.0f ms — goroutines first/post-warmup/last %d/%d/%d, %d GC cycles, %d decision events (%d retained)\n",
			o.Version.Go, o.Sampler.Samples, o.Sampler.IntervalMs,
			o.Sampler.Goroutines.First, o.Sampler.PostWarmupGoroutines, o.Sampler.Goroutines.Last,
			o.Sampler.NumGC,
			o.DecisionEventsRecorded, o.DecisionEventsRetained)
	}
}
