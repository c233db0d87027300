// The multi-process modes of escudo-serve: -serve-only (a gateway
// process that mounts the substrate and serves until SIGTERM),
// -connect (a loadgen worker process driving a remote gateway and
// writing a BENCH shard), and -cluster N (a supervisor that fork/execs
// one server plus N workers and merges the shards into the `cluster`
// section of BENCH_engine.json).
//
// Enforcement placement is the whole point: the reference monitors run
// inside the worker processes' browsers, and the server process is a
// dumb policy-serving transport — so the cluster benchmark measures
// Escudo mediation with client and server genuinely across a process
// (and, with -tls, a cryptographic) boundary.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/browser"
	"repro/internal/cluster"
	"repro/internal/httpd"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/web"
)

// runServeOnly mounts the substrate on a gateway and serves until the
// stop channel closes (SIGTERM in production), then shuts down
// gracefully and writes its gateway-side stats. Readiness protocol:
// the gateway starts in HoldReady, the address file is written as soon
// as the listener is bound (so a supervisor can begin polling), and
// /healthz flips from "starting" to ok only after a warm self-check
// round-trips a scenario page through the full stack.
func runServeOnly(cfg config, stop <-chan struct{}) error {
	// A cluster supervisor passes -accounts workers×sessions so every
	// worker process gets a private, non-overlapping phpBB account
	// range; a bare serve-only run registers one account per session.
	sub := buildSubstrate(max(cfg.sessions, cfg.accounts))
	// Enforcement runs in the workers, so the server's decision ring
	// stays empty — the endpoint existing uniformly across modes is the
	// point.
	pl := newPlane(false)
	ca, err := newCA(cfg.tls)
	if err != nil {
		return err
	}
	addr := cfg.httpAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	gw, ct, cleanup, err := gateway(pl, sub.net, addr, sub.policies, httpd.Config{TLS: ca, HoldReady: true})
	if err != nil {
		return err
	}
	defer cleanup()

	// Publish the trust anchor before the address: a worker that can
	// read the address must already be able to read the CA.
	if cfg.tlsCAOut != "" {
		if ca == nil {
			return fmt.Errorf("-tls-ca-out given without -tls")
		}
		if err := ca.WriteCertPEM(cfg.tlsCAOut); err != nil {
			return err
		}
	}
	if cfg.addrFile != "" {
		if err := os.WriteFile(cfg.addrFile, []byte(gw.Addr()), 0o644); err != nil {
			return err
		}
	}

	// Warm self-check: one scenario page through the real stack
	// (socket, vhosting, worker queue, and TLS when on) before
	// declaring readiness.
	resp, err := ct.RoundTrip(web.NewRequest("GET", benchO.URL(scenarioPaths()[0])))
	if err != nil {
		return fmt.Errorf("self-check: %w", err)
	}
	if resp.Status != 200 {
		return fmt.Errorf("self-check: scenario page answered %d", resp.Status)
	}
	gw.SetReady(true)
	pl.smp.Mark()
	fmt.Printf("escudo-serve: serving %d origins at %s (tls=%v), ready\n", substrateOrigins, gw.Addr(), cfg.tls)

	<-stop
	fmt.Println("escudo-serve: SIGTERM, draining")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	if cfg.statsFile != "" {
		sampStats := pl.smp.Stop()
		if err := writeJSON(cfg.statsFile, cluster.ServerStats{
			Addr:    gw.Addr(),
			TLS:     cfg.tls,
			Origins: substrateOrigins,
			Gateway: gw.Stats(),
			Version: obs.Version(),
			Obs:     &sampStats,
		}); err != nil {
			return err
		}
	}
	fmt.Println("escudo-serve: shut down cleanly")
	return nil
}

// runConnect is the worker process: it trusts the remote gateway (via
// the CA bundle when TLS), runs the figure-4 and phpBB phases over the
// process boundary, replays the §6.4 corpus over per-environment local
// gateways (TLS when -tls) with every socket verdict checked against
// the in-memory one, optionally offers its share of the open-loop
// load, and writes its BENCH shard.
func runConnect(cfg config) error {
	start := time.Now()
	if cfg.tls && cfg.tlsCA == "" {
		return fmt.Errorf("-connect with -tls needs -tls-ca (the server's CA bundle)")
	}
	// One source of truth: the CA bundle decides TLS for the main
	// transport, the shard label, and the attack-env gateways alike.
	cfg.tls = cfg.tlsCA != ""
	var ct *httpd.ClientTransport
	if cfg.tls {
		roots, err := httpd.LoadCAPool(cfg.tlsCA)
		if err != nil {
			return err
		}
		ct = httpd.NewClientTransportTLS(cfg.connect, roots)
	} else {
		ct = httpd.NewClientTransport(cfg.connect)
	}
	defer ct.Close()

	// Worker-side observability: the monitors run here, not in the
	// server, so decisions, stages and exemplars land in the worker's
	// own plane, and the sampler feeds the shard for the supervisor to
	// merge fleet-wide.
	pl := newPlane(cfg.openloop.rate > 0)
	s, err := newSection(cfg, pl, ct, nil, browser.Options{})
	if err != nil {
		return err
	}
	defer s.pool.Close()
	ca, err := newCA(cfg.tls)
	if err != nil {
		return err
	}
	s.env = &attackWire{ca: ca}

	shard := cluster.Shard{
		Worker:   cfg.workerID,
		PID:      os.Getpid(),
		Sessions: cfg.sessions,
		Mode:     cfg.mode.String(),
		TLS:      cfg.tls,
		Version:  obs.Version(),
	}
	if err := s.warm(visit(benchO.URL(scenarioPaths()[0]))); err != nil {
		return fmt.Errorf("worker %d %w", cfg.workerID, err)
	}
	pl.smp.Mark()

	shard.Phases = append(shard.Phases, s.phase("figure4", func() { figure4Rounds(s.pool, benchO, cfg.iters) }).shard())
	// Login is inside the phpbb phase on purpose: stateful
	// authenticated traffic is part of what the cluster measures, here
	// through this worker's private account range.
	if cfg.phpbbIters > 0 {
		shard.Phases = append(shard.Phases, s.phase("phpbb", func() { s.pool.Each(phpbbTask(cfg.account, cfg.phpbbIters)) }).shard())
	}
	if cfg.attacks {
		tally := &cluster.ShardAttacks{}
		shard.Phases = append(shard.Phases, s.phase("attacks", func() {
			a, match, _ := s.replay(cfg.mode)
			tally.Total, tally.Neutralized, tally.Succeeded, tally.MatchMemory = a.Total, a.Neutralized, a.Succeeded, match
		}).shard())
		shard.Attacks = tally
		// The attack environments are per-attack throwaway gateways
		// whose connections are new by construction; their wire is
		// reported apart from the long-lived gateway path.
		_, envClient := s.env.totals()
		ac := cluster.FromClientStats(envClient)
		shard.AttackClient = &ac
	}
	if cfg.openloop.rate > 0 {
		if shard.SLO, err = driveOpenLoop(s.pool, cfg.openloop, pl, cfg.account, nil); err != nil {
			return fmt.Errorf("worker %d openloop: %w", cfg.workerID, err)
		}
	}
	shard.Client = cluster.FromClientStats(ct.Stats())
	sampStats := pl.smp.Stop()
	shard.Obs = &sampStats
	shard.ElapsedMs = ms(time.Since(start))
	if err := shard.WriteFile(cfg.out); err != nil {
		return err
	}
	fmt.Printf("escudo-serve: worker %d done — %d phases, shard %s\n", cfg.workerID, len(shard.Phases), cfg.out)
	// A worker holds itself to the invariants of its own shard, so a
	// standalone -connect run fails the same way a cluster run does.
	rep, err := cluster.MergeShards([]cluster.Shard{shard})
	if err != nil {
		return err
	}
	return verify(&benchJSON{Mode: shard.Mode, Cluster: rep})
}

// runCluster fork/execs one -serve-only server and N -connect workers
// of this same binary, supervises the run, and merges the shards into
// the `cluster` section of the BENCH report at -out (other sections
// of an existing report are preserved, so a cluster run composes with
// `make serve-http` output).
func runCluster(cfg config) error {
	bin := cfg.clusterBin
	if bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("resolving own binary for fork/exec: %w", err)
		}
		bin = exe
	}
	dir, err := os.MkdirTemp("", "escudo-cluster-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	addrFile := filepath.Join(dir, "addr")
	statsFile := filepath.Join(dir, "server_stats.json")
	caFile := ""
	serverArgs := []string{
		"-serve-only",
		"-http", "127.0.0.1:0",
		"-sessions", strconv.Itoa(cfg.sessions),
		"-accounts", strconv.Itoa(cfg.cluster * cfg.sessions),
		"-addr-file", addrFile,
		"-stats-file", statsFile,
	}
	if cfg.tls {
		caFile = filepath.Join(dir, "ca.pem")
		serverArgs = append(serverArgs, "-tls", "-tls-ca-out", caFile)
	}
	shardFiles := make([]string, cfg.cluster)
	for i := range shardFiles {
		shardFiles[i] = filepath.Join(dir, fmt.Sprintf("shard_%d.json", i))
	}

	sup, err := cluster.NewSupervisor(cluster.Config{
		Server:          cluster.Spec{Name: "server", Path: bin, Args: serverArgs},
		NumWorkers:      cfg.cluster,
		AddrFile:        addrFile,
		CAFile:          caFile,
		ShardFiles:      shardFiles,
		ServerStatsFile: statsFile,
		ExpectOrigins:   substrateOrigins,
		ExpectPolicies:  substratePolicies,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
		Worker: func(i int, addr string) cluster.Spec {
			args := []string{
				"-connect", addr,
				"-worker-id", strconv.Itoa(i),
				"-sessions", strconv.Itoa(cfg.sessions),
				"-iters", strconv.Itoa(cfg.iters),
				"-phpbb-iters", strconv.Itoa(cfg.phpbbIters),
				"-mode", cfg.mode.String(),
				fmt.Sprintf("-attacks=%v", cfg.attacks),
				fmt.Sprintf("-uncached=%v", cfg.uncached),
				"-out", shardFiles[i],
			}
			if cfg.tls {
				args = append(args, "-tls", "-tls-ca", caFile)
			}
			// Each worker offers the spec's rate, so the fleet's target
			// is workers × rate and the merged section reflects that.
			if cfg.openloop.rate > 0 {
				args = append(args, "-openloop", cfg.openloop.raw)
			}
			return cluster.Spec{Name: fmt.Sprintf("worker-%d", i), Path: bin, Args: args}
		},
	})
	if err != nil {
		return err
	}
	rep, err := sup.Run(context.Background())
	if err != nil {
		return err
	}

	// Merge into the report file: a cluster run refreshes the cluster
	// section and leaves any other sections (in-memory phases, http,
	// policy) from an earlier run intact.
	var report benchJSON
	if data, err := os.ReadFile(cfg.out); err == nil {
		if err := json.Unmarshal(data, &report); err != nil {
			return fmt.Errorf("existing %s is not a BENCH report (move it aside): %w", cfg.out, err)
		}
	} else {
		report.Sessions = cfg.cluster * cfg.sessions
		report.Mode = cfg.mode.String()
	}
	report.Cluster = rep
	if err := writeJSON(cfg.out, report); err != nil {
		return err
	}
	printCluster(rep)
	fmt.Printf("\nWrote cluster section to %s (%.0f ms total)\n", cfg.out, rep.ElapsedMs)
	return verify(&benchJSON{Mode: cfg.mode.String(), Cluster: rep})
}

// printCluster renders the merged cluster section on stdout.
func printCluster(rep *cluster.Report) {
	fmt.Printf("ESCUDO cluster — 1 server + %d workers × %d sessions, tls=%v, server %s\n",
		rep.Workers, rep.SessionsPerWorker, rep.TLS, rep.Addr)
	fmt.Printf("ready in %.0f ms (%d starting polls)\n\n", rep.ReadyMs, rep.StartingPolls)
	t := metrics.NewTable("Phase", "Tasks", "Reqs", "Aggregate reqs/s", "p50 (ms)", "p99 (ms)")
	for _, ph := range rep.Phases {
		t.AddRow(ph.Name, fmt.Sprintf("%d", ph.Tasks), fmt.Sprintf("%d", ph.Requests),
			fmt.Sprintf("%.0f", ph.ReqsPerSec), fmt.Sprintf("%.3f", ph.P50Ms), fmt.Sprintf("%.3f", ph.P99Ms))
	}
	fmt.Print(t.String())
	fmt.Println()
	wt := metrics.NewTable("Worker", "PID", "Tasks", "Reqs/s", "p99 (ms)", "Attacks neutralized")
	for _, w := range rep.PerWorker {
		wt.AddRow(fmt.Sprintf("worker-%d", w.Worker), fmt.Sprintf("%d", w.PID), fmt.Sprintf("%d", w.Tasks),
			fmt.Sprintf("%.0f", w.ReqsPerSec), fmt.Sprintf("%.3f", w.P99Ms),
			fmt.Sprintf("%d/%d", w.AttacksNeutralized, rep.AttacksTotal))
	}
	fmt.Print(wt.String())
	if rep.AttacksTotal > 0 {
		fmt.Printf("\nAttack corpus across %d processes: %d/%d neutralized (verdicts match in-memory: %v)\n",
			rep.Workers, rep.AttacksNeutralized, rep.AttacksTotal, rep.AttacksMatchMemory)
	}
	fmt.Printf("Gateway transport across workers: proto %s, %d new, %d reused (%.1f%% reuse)\n",
		rep.Client.Proto, rep.Client.NewConns, rep.Client.ReusedConns, 100*rep.Client.ReuseRate)
	if ac := rep.AttackClient; ac != nil {
		fmt.Printf("Attack-env wire (throwaway gateways): %d requests, %d new conns\n", ac.Requests, ac.NewConns)
	}
	if o := rep.Obs; o != nil {
		fmt.Printf("Fleet obs (%s): %d samples, goroutines post-warmup/last %d/%d (summed), heap monotonic=%v, %d GC cycles\n",
			rep.Version.Go, o.Samples, o.PostWarmupGoroutines, o.Goroutines.Last, o.HeapMonotonic, o.NumGC)
	}
	if s := rep.SLO; s != nil {
		printSLO(s)
	}
}
