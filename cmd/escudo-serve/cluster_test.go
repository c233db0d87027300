package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// waitForFile polls until path exists with non-empty content.
func waitForFile(t *testing.T, path string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
			return strings.TrimSpace(string(data))
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s not written within %v", path, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeOnlyConnectTLS drives the two process roles in-process:
// a serve-only gateway (TLS, HoldReady protocol, addr/CA files) and a
// connect worker generating the figure-4 load against it over https,
// then a graceful stop that writes the server stats file.
func TestServeOnlyConnectTLS(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	caFile := filepath.Join(dir, "ca.pem")
	statsFile := filepath.Join(dir, "stats.json")
	shardFile := filepath.Join(dir, "shard.json")

	stop := make(chan struct{})
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- runServeOnly(config{
			httpAddr:  "127.0.0.1:0",
			sessions:  2,
			tls:       true,
			tlsCAOut:  caFile,
			addrFile:  addrFile,
			statsFile: statsFile,
		}, stop)
	}()

	addr := waitForFile(t, addrFile, 10*time.Second)
	waitForFile(t, caFile, 10*time.Second)

	err := runConnect(config{
		connect:  addr,
		sessions: 2,
		iters:    2,
		mode:     0, // browser.ModeEscudo
		attacks:  false,
		tls:      true,
		tlsCA:    caFile,
		workerID: 3,
		out:      shardFile,
	})
	if err != nil {
		t.Fatalf("runConnect: %v", err)
	}
	data, err := os.ReadFile(shardFile)
	if err != nil {
		t.Fatalf("shard: %v", err)
	}
	var shard struct {
		Worker int  `json:"worker"`
		TLS    bool `json:"tls"`
		Phases []struct {
			Name     string `json:"name"`
			Tasks    uint64 `json:"tasks"`
			Errors   int    `json:"errors"`
			Requests uint64 `json:"requests"`
			Hist     struct {
				Counts []uint64 `json:"counts"`
			} `json:"latency_hist"`
		} `json:"phases"`
		Client struct {
			Requests    uint64 `json:"requests"`
			ReusedConns uint64 `json:"reused_conns"`
		} `json:"client"`
	}
	if err := json.Unmarshal(data, &shard); err != nil {
		t.Fatalf("parse shard: %v", err)
	}
	if shard.Worker != 3 || !shard.TLS {
		t.Fatalf("shard header: %+v", shard)
	}
	if len(shard.Phases) != 1 || shard.Phases[0].Name != "figure4" {
		t.Fatalf("phases: %+v", shard.Phases)
	}
	fig := shard.Phases[0]
	if fig.Tasks == 0 || fig.Errors != 0 || fig.Requests == 0 || len(fig.Hist.Counts) == 0 {
		t.Fatalf("figure4 shard phase inert: %+v", fig)
	}
	if shard.Client.Requests == 0 || shard.Client.ReusedConns == 0 {
		t.Fatalf("client conn accounting inert: %+v", shard.Client)
	}

	// Graceful stop: the serve-only process drains and writes stats.
	close(stop)
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("runServeOnly: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve-only did not stop")
	}
	var stats struct {
		Addr    string `json:"addr"`
		TLS     bool   `json:"tls"`
		Origins int    `json:"origins"`
		Gateway struct {
			Served uint64 `json:"served"`
		} `json:"gateway"`
	}
	if err := json.Unmarshal([]byte(waitForFile(t, statsFile, 5*time.Second)), &stats); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Addr != addr || !stats.TLS || stats.Origins != substrateOrigins || stats.Gateway.Served == 0 {
		t.Fatalf("server stats: %+v", stats)
	}
}

// TestConnectTLSRequiresCA pins the trust hand-off: a TLS worker
// without a CA bundle must refuse to start rather than dial
// unverified.
func TestConnectTLSRequiresCA(t *testing.T) {
	err := runConnect(config{connect: "127.0.0.1:1", tls: true, sessions: 1, iters: 1,
		out: filepath.Join(t.TempDir(), "shard.json")})
	if err == nil || !strings.Contains(err.Error(), "-tls-ca") {
		t.Fatalf("runConnect = %v, want -tls-ca requirement", err)
	}
}

// buildServeBinary compiles this command once for fork/exec tests.
func buildServeBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "escudo-serve")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestClusterEndToEnd is the acceptance run: `escudo-serve -cluster 2
// -tls` with real fork/exec'd processes — one TLS gateway server, two
// loadgen workers — running figure4 and the §6.4 attack corpus over
// https, merged into the cluster section with all 18 attacks
// neutralized in every worker.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("fork/exec cluster run in -short mode")
	}
	bin := buildServeBinary(t)
	out := filepath.Join(t.TempDir(), "BENCH_engine.json")
	err := run([]string{"-cluster", "2", "-tls", "-sessions", "1", "-iters", "1",
		"-cluster-bin", bin, "-out", out})
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report benchJSON
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("parse report: %v", err)
	}
	c := report.Cluster
	if c == nil {
		t.Fatal("report has no cluster section")
	}
	if c.Workers != 2 || !c.TLS || c.Addr == "" {
		t.Fatalf("cluster header: %+v", c)
	}
	byName := map[string]bool{}
	for _, ph := range c.Phases {
		byName[ph.Name] = true
		if ph.Errors != 0 {
			t.Errorf("phase %s had %d errors", ph.Name, ph.Errors)
		}
		if ph.Tasks == 0 || ph.Requests == 0 || ph.P99Ms <= 0 {
			t.Errorf("phase %s inert: %+v", ph.Name, ph)
		}
	}
	if !byName["figure4"] || !byName["attacks"] {
		t.Fatalf("cluster phases missing figure4/attacks: %+v", c.Phases)
	}
	if c.AttacksTotal != 18 || c.AttacksNeutralized != 18 || !c.AttacksMatchMemory {
		t.Fatalf("attack tally: total %d neutralized %d match %v",
			c.AttacksTotal, c.AttacksNeutralized, c.AttacksMatchMemory)
	}
	if len(c.PerWorker) != 2 {
		t.Fatalf("per-worker breakdown: %+v", c.PerWorker)
	}
	for _, w := range c.PerWorker {
		if w.AttacksNeutralized != 18 || w.PID == 0 {
			t.Fatalf("worker row: %+v", w)
		}
	}
	if c.Server == nil || c.Server.Origins != substrateOrigins || !c.Server.TLS {
		t.Fatalf("server stats: %+v", c.Server)
	}
	if c.Client.Requests == 0 || c.Client.ReusedConns == 0 {
		t.Fatalf("merged client stats inert: %+v", c.Client)
	}
	if c.ReadyMs <= 0 {
		t.Fatalf("ReadyMs = %v", c.ReadyMs)
	}

	// A second cluster run into the same file must preserve nothing it
	// shouldn't and still parse (section replacement, not corruption) —
	// and a cluster run composes with other sections already present.
	report.Sessions = 9
	if data, err := json.Marshal(report); err == nil {
		os.WriteFile(out, data, 0o644) //nolint:errcheck
	}
	err = run([]string{"-cluster", "1", "-sessions", "1", "-iters", "1", "-attacks=false",
		"-cluster-bin", bin, "-out", out})
	if err != nil {
		t.Fatalf("second cluster run: %v", err)
	}
	data, err = os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var second benchJSON
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if second.Sessions != 9 {
		t.Fatalf("existing report fields clobbered: sessions = %d, want 9", second.Sessions)
	}
	if second.Cluster == nil || second.Cluster.Workers != 1 || second.Cluster.TLS {
		t.Fatalf("cluster section not refreshed: %+v", second.Cluster)
	}
}

// TestServeHTTPSectionTLS runs the single-process driver with the
// gateway in TLS mode: the http section must record tls=true, socket
// traffic over https, and the client connection accounting.
func TestServeHTTPSectionTLS(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_engine.json")
	err := run([]string{"-sessions", "2", "-iters", "1", "-phpbb-iters", "1",
		"-mixed-iters", "0", "-attacks=false", "-http", "127.0.0.1:0", "-tls", "-out", out})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report benchJSON
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	h := report.HTTP
	if h == nil || !h.TLS {
		t.Fatalf("http section missing or not TLS: %+v", h)
	}
	found := false
	for _, ph := range h.Phases {
		if ph.Name == "http-figure4" {
			found = true
			if ph.Requests == 0 || ph.Errors != 0 {
				t.Fatalf("http-figure4 over TLS inert: %+v", ph)
			}
		}
	}
	if !found {
		t.Fatal("no http-figure4 phase")
	}
	if h.Client == nil || h.Client.Requests == 0 || h.Client.ReusedConns == 0 {
		t.Fatalf("client accounting missing: %+v", h.Client)
	}
}
