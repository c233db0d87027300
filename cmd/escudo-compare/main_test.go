package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const oldJSON = `{
  "sessions": 8, "mode": "escudo", "gomaxprocs": 1, "total_ms": 60,
  "phases": [
    {"name": "figure4", "tasks": 40, "p50_ms": 0.30, "p99_ms": 20.0, "decisions": 40},
    {"name": "phpbb", "tasks": 8, "p50_ms": 4.00, "p99_ms": 8.0, "decisions": 700}
  ]
}`

const newJSON = `{
  "sessions": 8, "mode": "escudo", "gomaxprocs": 4, "total_ms": 50,
  "phases": [
    {"name": "figure4", "tasks": 40, "p50_ms": 0.27, "p99_ms": 10.0, "decisions": 4000},
    {"name": "mixed", "tasks": 8, "p50_ms": 1.00, "p99_ms": 3.0, "decisions": 3000}
  ]
}`

func TestCompareReportsDeltas(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(oldPath, []byte(oldJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(newJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.txt")
	f, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{oldPath, newPath}, f); err != nil {
		t.Fatalf("run: %v", err)
	}
	f.Close()
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	// figure4 is compared with signed percentages.
	if !strings.Contains(out, "0.300 → 0.270 (-10.0%)") {
		t.Errorf("missing figure4 p50 delta in:\n%s", out)
	}
	if !strings.Contains(out, "20.000 → 10.000 (-50.0%)") {
		t.Errorf("missing figure4 p99 delta in:\n%s", out)
	}
	// Phases present on only one side are labeled.
	if !strings.Contains(out, "mixed (new)") {
		t.Errorf("missing new-phase marker in:\n%s", out)
	}
	if !strings.Contains(out, "phpbb (removed)") {
		t.Errorf("missing removed-phase marker in:\n%s", out)
	}
}

const oldObsJSON = `{
  "sessions": 8, "mode": "escudo", "gomaxprocs": 1, "total_ms": 60,
  "phases": [],
  "obs": {
    "version": {"module": "repro", "go": "go1.22.0"},
    "sampler": {
      "samples": 10,
      "goroutines": {"first": 20, "last": 21, "min": 18, "max": 30},
      "post_warmup_goroutines": 20,
      "heap_alloc_bytes": {"first": 10485760, "last": 10485760, "min": 8388608, "max": 20971520},
      "heap_monotonic": false, "gc_pause_total_ms": 1.5, "num_gc": 4
    },
    "decision_events_recorded": 4000
  }
}`

const newObsJSON = `{
  "sessions": 8, "mode": "escudo", "gomaxprocs": 1, "total_ms": 55,
  "phases": [],
  "obs": {
    "version": {"module": "repro", "go": "go1.23.0"},
    "sampler": {
      "samples": 12,
      "goroutines": {"first": 20, "last": 24, "min": 18, "max": 35},
      "post_warmup_goroutines": 22,
      "heap_alloc_bytes": {"first": 10485760, "last": 12582912, "min": 8388608, "max": 25165824},
      "heap_monotonic": false, "gc_pause_total_ms": 2.0, "num_gc": 6
    },
    "decision_events_recorded": 5000
  }
}`

// TestCompareObsSection pins the observability diff: goroutine/heap
// shape, GC cycles, decision-event traffic, and a toolchain-change
// note. A pair where only one side has the section still diffs
// cleanly — old reports predating obs must render, not error.
func TestCompareObsSection(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(oldPath, []byte(oldObsJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(newObsJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.txt")
	f, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{oldPath, newPath}, f); err != nil {
		t.Fatalf("run: %v", err)
	}
	f.Close()
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, "goroutines last 21 → 24") {
		t.Errorf("missing goroutine delta in:\n%s", out)
	}
	if !strings.Contains(out, "GC cycles 4 → 6") {
		t.Errorf("missing GC cycle delta in:\n%s", out)
	}
	if !strings.Contains(out, "decision events 4000 → 5000") {
		t.Errorf("missing decision-event delta in:\n%s", out)
	}
	if !strings.Contains(out, "toolchain changed: go1.22.0 → go1.23.0") {
		t.Errorf("missing toolchain note in:\n%s", out)
	}

	// One-sided: old report without an obs section.
	plainPath := filepath.Join(dir, "plain.json")
	if err := os.WriteFile(plainPath, []byte(oldJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	f2, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{plainPath, newPath}, f2); err != nil {
		t.Fatalf("run one-sided: %v", err)
	}
	f2.Close()
	data, err = os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "obs: old report has none") {
		t.Errorf("one-sided obs diff not reported in:\n%s", data)
	}
}

const oldSLOJSON = `{
  "sessions": 8, "mode": "escudo", "gomaxprocs": 1, "total_ms": 60,
  "phases": [],
  "slo": {
    "target_rate": 200, "offered_rate": 195, "achieved_rate": 190,
    "duration_sec": 30, "dropped": 2, "errors": 0, "error_fraction": 0,
    "p50_ms": 1.0, "p99_ms": 8.0, "p999_ms": 20.0,
    "p99_budget_ms": 250, "p99_within_budget": true,
    "stages": {
      "handler": {"p50_ms": 0.5, "p99_ms": 4.0, "p999_ms": 10.0, "count": 5000}
    },
    "leak": {"slope_bytes_per_sec": 100, "growth_fraction": 0.01,
             "window_sec": 29, "points": 140, "leak_suspected": false}
  }
}`

const newSLOJSON = `{
  "sessions": 8, "mode": "escudo", "gomaxprocs": 1, "total_ms": 55,
  "phases": [],
  "slo": {
    "target_rate": 200, "offered_rate": 198, "achieved_rate": 196,
    "duration_sec": 30, "dropped": 1, "errors": 0, "error_fraction": 0,
    "p50_ms": 0.9, "p99_ms": 9.0, "p999_ms": 18.0,
    "p99_budget_ms": 250, "p99_within_budget": true,
    "stages": {
      "handler": {"p50_ms": 0.4, "p99_ms": 3.5, "p999_ms": 9.0, "count": 5200}
    },
    "leak": {"slope_bytes_per_sec": 80, "growth_fraction": 0.01,
             "window_sec": 29, "points": 140, "leak_suspected": false}
  }
}`

// sloVariant patches newSLOJSON for the gate cases.
func sloVariant(t *testing.T, old, new string) string {
	t.Helper()
	out := strings.Replace(newSLOJSON, old, new, 1)
	if out == newSLOJSON {
		t.Fatalf("variant pattern %q not found", old)
	}
	return out
}

// TestCompareSLOSection pins the one section with teeth: a clean pair
// passes, and each gate condition — dirty leak verdict, missed p99
// budget, p99 regression past the noise envelope — fails the run
// after printing its diff. Small regressions inside the envelope
// stay advisory.
func TestCompareSLOSection(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	if err := os.WriteFile(oldPath, []byte(oldSLOJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	runPair := func(t *testing.T, newDoc string) (string, error) {
		t.Helper()
		newPath := filepath.Join(dir, "new.json")
		if err := os.WriteFile(newPath, []byte(newDoc), 0o644); err != nil {
			t.Fatal(err)
		}
		outPath := filepath.Join(dir, "out.txt")
		f, err := os.Create(outPath)
		if err != nil {
			t.Fatal(err)
		}
		runErr := run([]string{oldPath, newPath}, f)
		f.Close()
		data, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		return string(data), runErr
	}

	// Clean pair: diff prints, gate passes.
	out, err := runPair(t, newSLOJSON)
	if err != nil {
		t.Fatalf("clean pair failed the gate: %v\noutput:\n%s", err, out)
	}
	if !strings.Contains(out, "slo: offered 195.000 → 198.000") {
		t.Errorf("missing offered-rate delta in:\n%s", out)
	}
	if !strings.Contains(out, "8.000 → 9.000 (+12.5%)") {
		t.Errorf("missing total p99 delta in:\n%s", out)
	}
	if !strings.Contains(out, "handler") {
		t.Errorf("missing per-stage row in:\n%s", out)
	}
	if !strings.Contains(out, "SLO gate: pass") {
		t.Errorf("missing gate pass line in:\n%s", out)
	}

	// Dirty leak verdict fails.
	out, err = runPair(t, sloVariant(t, `"leak_suspected": false}`, `"leak_suspected": true}`))
	if err == nil {
		t.Errorf("dirty leak verdict passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "SLO GATE FAIL: leak verdict dirty") {
		t.Errorf("leak failure not named in:\n%s", out)
	}

	// Missed p99 budget fails.
	out, err = runPair(t, sloVariant(t, `"p99_within_budget": true`, `"p99_within_budget": false`))
	if err == nil {
		t.Errorf("missed budget passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "misses the declared 250.0 ms budget") {
		t.Errorf("budget failure not named in:\n%s", out)
	}

	// Regression past the envelope (8 → 40 ms: > 2x and > 5 ms) fails.
	out, err = runPair(t, sloVariant(t, `"p99_ms": 9.0`, `"p99_ms": 40.0`))
	if err == nil {
		t.Errorf("5x p99 regression passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "SLO GATE FAIL: p99 regressed 8.000 → 40.000 ms") {
		t.Errorf("regression failure not named in:\n%s", out)
	}

	// Regression inside the envelope (8 → 12 ms: < 2x) stays advisory.
	out, err = runPair(t, sloVariant(t, `"p99_ms": 9.0`, `"p99_ms": 12.0`))
	if err != nil {
		t.Errorf("in-envelope regression tripped the gate: %v\noutput:\n%s", err, out)
	}

	// One-sided: a new slo section with no old counterpart renders and
	// still enforces its own declared terms (budget, leak) but has no
	// regression baseline.
	if err := os.WriteFile(oldPath, []byte(oldJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runPair(t, newSLOJSON)
	if err != nil {
		t.Fatalf("one-sided slo diff failed: %v\noutput:\n%s", err, out)
	}
	if !strings.Contains(out, "slo: old report has none") {
		t.Errorf("one-sided slo diff not reported in:\n%s", out)
	}
}

func TestCompareUsageError(t *testing.T) {
	if err := run([]string{"one.json"}, os.Stdout); err == nil {
		t.Fatal("want usage error with one argument")
	}
	if err := run([]string{"/nonexistent/a.json", "/nonexistent/b.json"}, os.Stdout); err == nil {
		t.Fatal("want error for missing files")
	}
}
