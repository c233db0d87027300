// Command perfbench is the repository's benchmark. It drives one
// browser session, closed-loop, through an engine.Pool with one
// session at GOMAXPROCS=1, over a fixed seeded op sequence of one
// workload, and checks the session's outputs while it is timed.
//
//	perfbench --workload figure4|forum|mashup|all --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics: the time metrics as medians
// over the timed window's segments, and setup_s as the median of
// set-ups timed in fresh processes of this program, started with
// --setup-only. --trace 1 runs a sequence of half the length on an
// untraced and a traced session (and, on figure4, a traced SOP
// session) interleaved, then on a session whose pages are replayed
// through the parse and render layers, and prints the per-layer
// metrics. The last line of standard output is the JSON result. Any failed correctness gate — a failed op, a wrong
// verdict, a lost forum reply, a changed decision count, a §6.4
// attack that is not neutralised, or a traced run whose decisions
// differ from the untraced run's — exits 1 without a result.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// A trace-0 run times setupsBefore set-ups before the timed window and
// setupsAfter after it, each in a fresh process; setup_s is the median.
// Spreading the set-ups over the run keeps one burst of machine noise
// from deciding the figure.
const (
	setupsBefore = 3
	setupsAfter  = 4
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: figure4, forum, mashup, or all three in turn")
	seed := fs.Int64("seed", 1, "seed the op sequence and fixtures are drawn from")
	seconds := fs.Int("seconds", 10, "run length: the timed op count is the workload's nominal rate times this")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	outdir := fs.String("outdir", ".bench_build/perfbench-out", "directory for span dumps and run history")
	setupOnly := fs.Bool("setup-only", false, "set the workload up once in this process, print the seconds it took and exit (how a run times setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := specByName(*name)
	if (!ok && *name != "all") || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload figure4|forum|mashup|all, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if !ok {
		return runAll(args, stdout, stderr)
	}
	runtime.GOMAXPROCS(1)
	if *setupOnly {
		return setUpOnce(w, uint64(*seed), *seconds, stdout, stderr)
	}
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d numcpu=%d go=%s sessions=1 closed-loop\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(stdout, "why: %s\n", c.why[w.name])

	var vals map[string]float64
	var notes map[string]string
	var attempted int
	var lines []string
	names := c.endToEnd
	if *trace == 0 {
		vals, notes, attempted, lines, err = endToEnd(w, uint64(*seed), *seconds)
	} else {
		names = c.perLayer
		vals, notes, attempted, lines, err = traced(w, uint64(*seed), *seconds, *outdir)
	}
	if err == nil {
		err = attacksNeutralised()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: correctness gate failed: %v\n", w.name, *seed, err)
		return 1
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	ms := make([]metric, len(names))
	for i, n := range names {
		ms[i] = metric{name: n, unit: c.unit[n], value: vals[n], note: notes[n]}
	}
	printTable(stdout, historyPath(*outdir, w, *trace, *seconds), *seed, ms, c.bound)

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Attempted: attempted, Metrics: map[string]map[string]any{}}
	for _, m := range ms {
		out.Metrics[m.name] = map[string]any{"value": finite(m.value), "unit": m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// runAll runs every workload in turn, each in a child process of its
// own so that no workload inherits another's heap, and fails if any
// does.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, s := range specs {
		cmd := exec.Command(self, append(args, "--workload", s.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", s.name, err)
			code = 1
		}
	}
	return code
}

// e2eNames are the end-to-end metrics a trace-0 run computes.
var e2eNames = []string{
	"ops_per_s", "op_p50_ms", "op_p99_ms", "cpu_ms_per_op",
	"allocs_per_op", "alloc_bytes_per_op", "live_heap_mb", "setup_s",
}

// endToEnd times the op sequence untraced, with default options. The
// time metrics are medians over the window's segments; the counts are
// totals over the window. Set-up is timed in fresh processes.
func endToEnd(w *spec, seed uint64, seconds int) (map[string]float64, map[string]string, int, []string, error) {
	warm, ops, err := sequence(w, seed, seconds)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	var times []float64
	coldSetUps := func(k int) error {
		for i := 0; i < k; i++ {
			t, err := coldSetUp(w, seed, seconds)
			if err != nil {
				return err
			}
			times = append(times, t)
		}
		return nil
	}
	if err := coldSetUps(setupsBefore); err != nil {
		return nil, nil, len(ops), nil, err
	}
	fx, err := setUp(w, fixtureConfig{seed: seed, mode: escudoMode}, warm)
	if err != nil {
		return nil, nil, len(ops), nil, err
	}
	p, err := runPass(w, fx, ops, nil, nil)
	fx.base().close()
	if err != nil {
		return nil, nil, len(ops), nil, err
	}
	if err := coldSetUps(setupsAfter); err != nil {
		return nil, nil, len(ops), nil, err
	}
	n := float64(p.ops)
	segRate := func(s segment) float64 { return float64(s.ops) / s.wall.Seconds() }
	vals := map[string]float64{
		"ops_per_s":          p.segMedian(segRate),
		"op_p50_ms":          p.segMedian(func(s segment) float64 { return millis(s.p50) }),
		"op_p99_ms":          p.segMedian(func(s segment) float64 { return millis(s.p99) }),
		"cpu_ms_per_op":      p.segMedian(func(s segment) float64 { return millis(s.cpu) / float64(s.ops) }),
		"allocs_per_op":      float64(p.mallocs) / n,
		"alloc_bytes_per_op": float64(p.allocBytes) / n,
		"live_heap_mb":       float64(p.liveHeap) / 1e6,
		"setup_s":            median(times),
	}
	seg := segmentOps(w)
	segs := fmt.Sprintf("median of %d segments of %d ops", len(p.seg), seg)
	notes := map[string]string{
		"ops_per_s":     segs,
		"op_p50_ms":     segs,
		"op_p99_ms":     fmt.Sprintf("%s, %d beyond in each", segs, seg-int(math.Ceil(0.99*float64(seg)))),
		"cpu_ms_per_op": segs + ", getrusage user+sys",
		"live_heap_mb":  "HeapAlloc after GC",
		"setup_s":       fmt.Sprintf("median of %d set-ups, each in a fresh process", len(times)),
	}
	rates := make([]float64, len(p.seg))
	for i, s := range p.seg {
		rates[i] = segRate(s)
	}
	slices.Sort(rates)
	lines := []string{fmt.Sprintf("window: %d ops in %.3f s; segment ops/s min %.1f median %.1f max %.1f; exact over the window p50 %.4f ms, p99 %.4f ms",
		p.ops, p.wall.Seconds(), rates[0], median(rates), rates[len(rates)-1], millis(quantile(p.lat, 0.50)), millis(quantile(p.lat, 0.99)))}
	slices.Sort(times)
	lines = append(lines, fmt.Sprintf("set-ups (s): %s", strings.Trim(fmt.Sprint(times), "[]")))
	for _, k := range p.kinds {
		lines = append(lines, "op latency by kind: "+k)
	}
	return vals, notes, p.ops, lines, nil
}

// coldSetUp times one set-up of the workload in a fresh process of this
// program, so that every timed set-up starts with empty process-wide
// state (the compiled-script cache among it), as a user's first does.
func coldSetUp(w *spec, seed uint64, seconds int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--setup-only", "--workload", w.name,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// setUpOnce is a set-up process: it sets the workload up once and
// prints the seconds that took. Set-up is the program's work: the
// fixtures, seeding, the CA, gateway and login where the workload has
// them, and the fixed warm-up ops; drawing the op sequence is not.
func setUpOnce(w *spec, seed uint64, seconds int, stdout, stderr io.Writer) int {
	warm, _, err := sequence(w, seed, seconds)
	if err == nil {
		runtime.GC()
		t0 := time.Now()
		var fx fixture
		if fx, err = setUp(w, fixtureConfig{seed: seed, mode: escudoMode}, warm); err == nil {
			d := time.Since(t0)
			fx.base().close()
			fmt.Fprintln(stdout, d.Seconds())
			return 0
		}
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, seed, err)
	return 1
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// replaySample is how many blocks the replay pass runs per block it
// replays: the replay costs several times the ops it replays.
const replaySample = 4

// traced runs the op sequence on separately set-up sessions: an
// untraced one, one with spans and obs stage clocks, and on figure4 a
// SOP session with the same instrumentation, interleaved block by
// block so their comparisons see the same machine; then a session
// whose pages are captured and replayed through the parse and render
// layers (under SOP as well on figure4). It checks that no
// instrumentation changed a decision and derives the per-layer
// metrics.
func traced(w *spec, seed uint64, seconds int, outdir string) (map[string]float64, map[string]string, int, []string, error) {
	// The traced run makes three or four passes over its sequence and
	// replays a sample of one, so it draws the sequence for half the
	// run length: a traced run then takes a few times --seconds.
	warm, ops, err := sequence(w, seed, max(seconds/2, 1))
	if err != nil {
		return nil, nil, 0, nil, err
	}
	var fixtures []fixture
	defer func() {
		for _, fx := range fixtures {
			fx.base().close()
		}
	}()
	newPassLane := func(mode browser.Mode, tr *tracer, stages *obs.StageSet, replay bool) (*lane, error) {
		fx, err := setUp(w, fixtureConfig{seed: seed, mode: mode, tr: tr, stages: stages}, warm)
		if err != nil {
			return nil, err
		}
		fixtures = append(fixtures, fx)
		tr.reset()
		var rps []*replayer
		if replay {
			rps = append(rps, newReplayer(true, fx.base().stack))
			if w == figure4Spec {
				rps = append(rps, newReplayer(false, sopStack))
			}
		}
		return newLane(w, fx, tr, rps, len(ops))
	}

	r := &tracedRun{gateway: w == forumSpec}
	u, err := newPassLane(escudoMode, nil, nil, false)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	tr, err := spanTracer(len(ops))
	if err != nil {
		return nil, nil, 0, nil, err
	}
	stages := obs.NewStageSet(obs.NewRegistry())
	t, err := newPassLane(escudoMode, tr, stages, false)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	lanes := []*lane{u, t}
	var trS *tracer
	if w == figure4Spec {
		if trS, err = spanTracer(len(ops)); err != nil {
			return nil, nil, 0, nil, err
		}
		s, err := newPassLane(sopMode, trS, obs.NewStageSet(obs.NewRegistry()), false)
		if err != nil {
			return nil, nil, 0, nil, err
		}
		lanes = append(lanes, s)
	}
	gw0 := stageHists(stages)
	if err := runLanes(ops, lanes...); err != nil {
		return nil, nil, len(lanes) * len(ops), nil, err
	}
	for i, h := range stageHists(stages) {
		r.gw[i] = h.Sub(gw0[i])
	}
	r.u, r.t, r.st = u.r, t.r, tr.totals()
	if trS != nil {
		r.s, r.ss = lanes[2].r, trS.totals()
	}

	rl, err := newPassLane(escudoMode, captureTracer(), nil, true)
	if err != nil {
		return nil, nil, len(lanes) * len(ops), nil, err
	}
	rl.replayEvery = replaySample
	attempted := (len(lanes) + 1) * len(ops)
	if err := runLanes(ops, rl); err != nil {
		return nil, nil, attempted, nil, fmt.Errorf("replay pass: %w", err)
	}
	r.r = rl.r
	for _, p := range []*passResult{r.t, r.r} {
		if err := reconcile(r.u, p); err != nil {
			return nil, nil, attempted, nil, fmt.Errorf("instrumented pass disagrees with the untraced pass: %w", err)
		}
	}

	spans := filepath.Join(outdir, "spans-"+w.name+".txt.gz")
	if err := tr.write(spans); err != nil {
		return nil, nil, attempted, nil, err
	}
	lines := append(r.reconciliation(), fmt.Sprintf("spans: %d written to %s", len(tr.spans), spans))

	vals := r.layerValues()
	notes := map[string]string{}
	for _, d := range layerDefs {
		if _, ok := vals[d.name]; !ok {
			return nil, nil, attempted, nil, fmt.Errorf("no value for per-layer metric %s", d.name)
		}
		notes[d.name] = fmt.Sprintf("%s; moves %s; heavy %s, light %s", d.how, d.moves, d.heavy, d.light)
	}
	return vals, notes, attempted, lines, nil
}

func stageHists(s *obs.StageSet) (h [obs.NumStages]metrics.Histogram) {
	for i := range h {
		h[i] = s.Hist(obs.Stage(i)).Snapshot()
	}
	return h
}

// attacksNeutralised replays the §6.4 corpus in ESCUDO mode; every
// attack must be stopped.
func attacksNeutralised() error {
	var failed []string
	corpus := attack.Corpus()
	for _, atk := range corpus {
		res := attack.RunOne(atk, browser.ModeEscudo)
		switch {
		case res.Err != nil:
			failed = append(failed, fmt.Sprintf("%s: %v", atk.Name, res.Err))
		case !res.Neutralized():
			failed = append(failed, atk.Name+": succeeded")
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d/%d §6.4 attacks neutralised: %s", len(corpus)-len(failed), len(corpus), strings.Join(failed, "; "))
	}
	return nil
}

// historyPath names the run history of one workload, trace mode, run
// length and binary, so that a printed spread compares only runs of
// the same build and length.
func historyPath(outdir string, w *spec, trace, seconds int) string {
	id := "unknown"
	if self, err := os.Executable(); err == nil {
		if f, err := os.Open(self); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil)[:6])
			}
			f.Close()
		}
	}
	return filepath.Join(outdir, fmt.Sprintf("history-%s-trace%d-s%d-%s.jsonl", w.name, trace, seconds, id))
}

// printTable prints every metric with its unit and its run-to-run
// spread: the interquartile range over the median of this and up to
// nine earlier runs in the history file, beside the bound
// BENCHMARK.json sets for it.
func printTable(out io.Writer, hist string, seed int64, ms []metric, bounds map[string]float64) {
	past := readHistory(hist)
	cur := map[string]float64{}
	for _, m := range ms {
		cur[m.name] = m.value
	}
	past = append(past, cur)
	if len(past) > 10 {
		past = past[len(past)-10:]
	}
	appendHistory(hist, seed, cur)

	fmt.Fprintf(out, "%-28s %14s %-6s %-22s %s\n", "metric", "value", "unit", "spread (runs)", "notes")
	for _, m := range ms {
		var vals []float64
		for _, h := range past {
			if v, ok := h[m.name]; ok {
				vals = append(vals, v)
			}
		}
		spread := "-"
		if s, ok := iqrShare(vals); ok {
			spread = fmt.Sprintf("%.2f%% (%d)", 100*s, len(vals))
			if b, ok := bounds[m.name]; ok {
				spread += fmt.Sprintf(" /%g%%", 100*b)
			}
		}
		fmt.Fprintf(out, "%-28s %14.6g %-6s %-22s %s\n", m.name, m.value, m.unit, spread, m.note)
	}
}

// iqrShare is (Q3 − Q1) / median with Python's statistics.quantiles
// default ("exclusive") method, the way the spread is judged.
func iqrShare(vals []float64) (float64, bool) {
	n := len(vals)
	if n < 2 {
		return 0, false
	}
	s := slices.Sorted(slices.Values(vals))
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := float64(i*m - j*4)
		lo := s[max(j-1, 0)]
		hi := s[min(j, n-1)]
		return (lo*(4-delta) + hi*delta) / 4
	}
	med := q(2)
	if med == 0 {
		return 0, false
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med), true
}

func readHistory(path string) []map[string]float64 {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	var out []map[string]float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var rec struct {
			Metrics map[string]float64 `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Metrics != nil {
			out = append(out, rec.Metrics)
		}
	}
	return out
}

func appendHistory(path string, seed int64, m map[string]float64) {
	b, err := json.Marshal(struct {
		Seed    int64              `json:"seed"`
		Metrics map[string]float64 `json:"metrics"`
	}{seed, m})
	if err != nil {
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	_, werr := f.Write(append(b, '\n'))
	if err := errors.Join(werr, f.Close()); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: history: %v\n", err)
	}
}

// contract is what the program takes from BENCHMARK.json: why each
// workload was chosen, the metrics in the order they are reported,
// their units and the end-to-end bounds. The program keeps only how
// each metric is computed.
type contract struct {
	why                map[string]string
	endToEnd, perLayer []string
	unit               map[string]string
	bound              map[string]float64
}

// readContract reads BENCHMARK.json from the run's directory and
// checks that it names exactly this program's workloads and metrics.
func readContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type metricDoc struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDoc `json:"end_to_end"`
		PerLayer []metricDoc `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	c := &contract{why: map[string]string{}, unit: map[string]string{}, bound: map[string]float64{}}
	var workloads, specNames, layerNames []string
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
		c.why[w.Name] = w.Why
	}
	for _, m := range doc.EndToEnd {
		c.endToEnd = append(c.endToEnd, m.Name)
		c.unit[m.Name], c.bound[m.Name] = m.Unit, m.Bound
	}
	for _, m := range doc.PerLayer {
		c.perLayer = append(c.perLayer, m.Name)
		c.unit[m.Name] = m.Unit
	}
	for _, s := range specs {
		specNames = append(specNames, s.name)
	}
	for _, d := range layerDefs {
		layerNames = append(layerNames, d.name)
	}
	for _, l := range []struct {
		what      string
		doc, have []string
	}{{"workloads", workloads, specNames}, {"end_to_end metrics", c.endToEnd, e2eNames}, {"per_layer metrics", c.perLayer, layerNames}} {
		if !sameSet(l.doc, l.have) {
			return nil, fmt.Errorf("%s lists %s %v; this program has %v", path, l.what, l.doc, l.have)
		}
	}
	return c, nil
}

func sameSet(a, b []string) bool {
	a, b = slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))
	return slices.Equal(a, b)
}
