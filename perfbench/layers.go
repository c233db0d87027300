package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// layerDef is one per-layer metric of the traced run: what it times,
// the end-to-end metric it should move and the workloads expected to
// show the move ("heavy") and to show no change ("light").
// BENCHMARK.json lists the names and units; this table is where the
// mapping lives, and the traced run prints it.
type layerDef struct {
	name, how, moves, heavy, light string
}

var layerDefs = []layerDef{
	{"html.tokenize_us", "html.NewTokenizer + Next to EOF on the op's pages (replay)", "cpu_ms_per_op", "figure4", "mashup"},
	{"html.parse_us", "html.Parse with the page's labelling options (replay)", "op_p50_ms, ops_per_s", "figure4", "mashup"},
	{"html.allocs", "Mallocs around the parse replay", "allocs_per_op", "figure4", "mashup"},
	{"dom.build_us", "dom.NewDocument minus html.parse_us (self time, replay)", "op_p50_ms", "figure4", "mashup"},
	{"dom.region_auth_us", "dom.NewAPI(..).AuthorizeRenderRegion through the session's policy stack (replay)", "op_p50_ms", "figure4", "forum"},
	{"css.resolve_us", "css.Parse + NewResolver + HiddenSet (replay; no page has a stylesheet)", "op_p50_ms", "figure4", "forum"},
	{"layout.us", "layout.LayoutHidden (replay)", "ops_per_s, cpu_ms_per_op", "figure4", "mashup"},
	{"layout.allocs", "Mallocs around the layout replay", "alloc_bytes_per_op", "figure4", "forum"},
	{"script.run_us", "Page.RunScriptAs calls the workload makes, self time", "op_p50_ms", "mashup", "forum"},
	{"script.load_us", "obs script_vm stage minus script.run spans: page-load scripts", "cpu_ms_per_op", "figure4", "forum"},
	{"script.compile_hit_ratio", "script.CompileCacheStats delta", "cpu_ms_per_op", "mashup, figure4", "-"},
	{"core.batch_us", "AuthorizeBatch on a MonitorFactory wrapper around the unchanged policy stack", "op_p50_ms", "figure4, mashup", "forum"},
	{"core.authorize_us", "Authorize on the same wrapper (cookie use, DOM access)", "op_p50_ms", "mashup, forum", "figure4"},
	{"core.tap_us", "obs batch_auth stage minus core.batch and core.authorize: the gen/obs/audit layers", "cpu_ms_per_op", "figure4", "forum"},
	{"core.decisions_per_op", "AuditLog.Len delta", "none: constant under complete mediation", "all", "all"},
	{"core.batch_dedup_ratio", "core.ReadBatchStats distinct / nodes (replay excluded)", "cpu_ms_per_op", "figure4", "-"},
	{"core.cache_hit_ratio", "DecisionCache.Stats delta", "op_p50_ms", "all", "-"},
	{"web.roundtrip_us", "the session's web.Transport.RoundTrip", "op_p50_ms", "forum", "figure4"},
	{"web.requests_per_op", "the same seam, counted", "none: the workload's shape", "all", "all"},
	{"httpd.wire_us", "per request: client round trip minus the gateway-Inner span (0 without a gateway)", "op_p50_ms, cpu_ms_per_op", "forum", "figure4, mashup"},
	{"httpd.queue_wait_us", "per request: gateway queue_wait stage, histogram mean (0 without a gateway)", "op_p99_ms", "forum", "-"},
	{"httpd.translate_us", "per request: gateway translate stage, histogram mean (0 without a gateway)", "op_p99_ms", "forum", "-"},
	{"httpd.conn_reuse_ratio", "ClientTransport.Stats().ReuseRate() delta (0 without a gateway)", "op_p99_ms", "forum", "-"},
	{"phpbb.handler_us", "per request: a timing web.Transport set as the gateway's Config.Inner (0 without a gateway)", "op_p50_ms", "forum", "-"},
	{"engine.queue_wait_us", "engine Submit → task start", "op_p50_ms", "mashup", "figure4"},
	{"browser.self_us", "op span minus every attributed child span", "op_p50_ms", "all", "-"},
	{"runtime.gc_cpu_fraction", "GC share of CPU over the untraced pass (runtime/metrics)", "cpu_ms_per_op", "figure4", "mashup"},
	{"trace.overhead_pct", "untraced vs traced (spans + obs stage clocks) ops_per_s, passes interleaved", "none", "all", "all"},
	{"browser.escudo_overhead_pct", "traced op mean, ESCUDO vs an interleaved browser.ModeSOP session (figure4 only)", "none: the paper's +5.09%", "figure4", "-"},
	{"html.escudo_overhead_pct", "parse replay, ESCUDO labelling vs html.LegacyOptions (figure4 only)", "none: the paper's +5.09% by layer", "figure4", "-"},
	{"core.escudo_overhead_pct", "region-auth replay, ESCUDO stack vs core.SOPMonitor (figure4 only)", "none: the paper's +5.09% by layer", "figure4", "-"},
	{"layout.escudo_overhead_pct", "layout replay, ESCUDO vs SOP pages (figure4 only)", "none: the paper's +5.09% by layer", "figure4", "-"},
	{"script.escudo_overhead_pct", "obs script_vm stage per op, ESCUDO vs the interleaved SOP session (figure4 only)", "none: the paper's +5.09% by layer", "figure4", "-"},
}

func usPer(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / 1e3 / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pctOver is how much larger a is than b, in percent.
func pctOver(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a/b - 1) * 100
}

// histMeanUs estimates a stage histogram's mean by integrating its
// quantiles. A quantile reads as its bucket's reported bound: at and
// above 8 us the upper edge, so the estimate reads high by up to a
// bucket (12.5%); below 8 us the whole microsecond at the lower edge,
// so values are floored to 1 us and anything under 1 us reads 0.
func histMeanUs(h metrics.Histogram) float64 {
	if h.Total() == 0 {
		return 0
	}
	const steps = 200
	var sum float64
	for i := 0; i < steps; i++ {
		sum += float64(h.Quantile((float64(i)+0.5)*100/steps)) / 1e3
	}
	return sum / steps
}

// tracedRun is everything the layer metrics are computed from: the
// untraced pass u, the traced ESCUDO pass t with its spans and gateway
// stage histograms, the replay pass r (ESCUDO replay first, then on
// figure4 the SOP replay of the same pages), and on figure4 the traced
// SOP pass s.
type tracedRun struct {
	u, t, r, s *passResult
	st, ss     spanTotals
	gw         [obs.NumStages]metrics.Histogram
	gateway    bool
}

func (r *tracedRun) layerValues() map[string]float64 {
	t, st := r.t, r.st
	ops := int64(t.ops)
	rp := r.r.replay[0]
	rops := int64(rp.ops)
	v := map[string]float64{
		"html.tokenize_us":         usPer(rp.tokenize, rops),
		"html.parse_us":            usPer(rp.parse, rops),
		"html.allocs":              ratio(float64(rp.parseAllocs), float64(rops)),
		"dom.build_us":             usPer(rp.build-rp.parse, rops),
		"dom.region_auth_us":       usPer(rp.auth, rops),
		"css.resolve_us":           usPer(rp.css, rops),
		"layout.us":                usPer(rp.lay, rops),
		"layout.allocs":            ratio(float64(rp.layoutAllocs), float64(rops)),
		"script.run_us":            usPer(time.Duration(st.self[spanScript]), ops),
		"script.load_us":           usPer(time.Duration(t.stage[obs.StageScriptVM]-st.incl[spanScript]), ops),
		"script.compile_hit_ratio": ratio(float64(t.compileHits), float64(t.compileHits+t.compileMisses)),
		"core.batch_us":            usPer(time.Duration(st.incl[spanBatch]), ops),
		"core.authorize_us":        usPer(time.Duration(st.incl[spanAuthorize]), ops),
		"core.tap_us":              usPer(time.Duration(t.stage[obs.StageBatchAuth]-st.incl[spanBatch]-st.incl[spanAuthorize]), ops),
		"core.decisions_per_op":    ratio(float64(sum32(t.decisions)), float64(ops)),
		"core.batch_dedup_ratio":   t.batch.DedupRatio(),
		"core.cache_hit_ratio":     t.cache.HitRate(),
		"web.roundtrip_us":         usPer(time.Duration(st.incl[spanRoundTrip]), ops),
		"web.requests_per_op":      ratio(float64(st.count[spanRoundTrip]), float64(ops)),
		"engine.queue_wait_us":     usPer(time.Duration(st.incl[spanQueue]), ops),
		"browser.self_us":          usPer(time.Duration(st.self[spanOp]), ops),
		"runtime.gc_cpu_fraction":  r.u.gcFrac(),
		"trace.overhead_pct":       pctOver(rate(r.u), rate(t)),
	}
	var wire, queue, translate, reuse, handler float64
	if r.gateway {
		reqs := st.count[spanRoundTrip]
		wire = usPer(time.Duration(st.self[spanRoundTrip]), reqs)
		queue = histMeanUs(r.gw[obs.StageQueueWait])
		translate = histMeanUs(r.gw[obs.StageTranslate])
		reuse = t.client.ReuseRate()
		handler = usPer(time.Duration(st.incl[spanHandler]), st.count[spanHandler])
	}
	v["httpd.wire_us"], v["httpd.queue_wait_us"], v["httpd.translate_us"] = wire, queue, translate
	v["httpd.conn_reuse_ratio"], v["phpbb.handler_us"] = reuse, handler

	var browserPct, htmlPct, corePct, layoutPct, scriptPct float64
	if s := r.s; s != nil {
		sop := r.r.replay[1]
		browserPct = pctOver(float64(st.incl[spanOp])/float64(t.ops), float64(r.ss.incl[spanOp])/float64(s.ops))
		htmlPct = pctOver(float64(rp.parse), float64(sop.parse))
		corePct = pctOver(float64(rp.auth), float64(sop.auth))
		layoutPct = pctOver(float64(rp.lay), float64(sop.lay))
		scriptPct = pctOver(float64(t.stage[obs.StageScriptVM])/float64(t.ops), float64(s.stage[obs.StageScriptVM])/float64(s.ops))
	}
	v["browser.escudo_overhead_pct"], v["html.escudo_overhead_pct"] = browserPct, htmlPct
	v["core.escudo_overhead_pct"], v["layout.escudo_overhead_pct"] = corePct, layoutPct
	v["script.escudo_overhead_pct"] = scriptPct
	return v
}

func rate(p *passResult) float64 { return float64(p.ops) / p.wall.Seconds() }

// reconciliation prints how the attributed self times partition the
// traced op mean, and the obs stage totals beside the benchmark's own
// spans for the same layers.
func (r *tracedRun) reconciliation() []string {
	t, st := r.t, r.st
	ops := int64(t.ops)
	rp := r.r.replay[0]
	var lines []string
	var sum float64
	for k := spanKind(0); k < numSpanKinds; k++ {
		sum += usPer(time.Duration(st.self[k]), ops)
	}
	opMean := usPer(time.Duration(st.incl[spanOp]), ops)
	lines = append(lines, fmt.Sprintf("self-time partition of the traced op mean: %.3f us attributed vs %.3f us op mean (diff %.3g us)", sum, opMean, sum-opMean))
	for k := spanKind(0); k < numSpanKinds; k++ {
		lines = append(lines, fmt.Sprintf("  %-15s self %10.3f us/op   incl %10.3f us/op   spans %d", spanNames[k],
			usPer(time.Duration(st.self[k]), ops), usPer(time.Duration(st.incl[k]), ops), st.count[k]))
	}
	lines = append(lines, "obs stage totals beside the benchmark's spans (us/op):")
	row := func(stage string, stageUs float64, mine string, mineUs float64) {
		lines = append(lines, fmt.Sprintf("  %-10s %10.3f   %-40s %10.3f   diff %.3f", stage, stageUs, mine, mineUs, stageUs-mineUs))
	}
	row("batch_auth", usPer(time.Duration(t.stage[obs.StageBatchAuth]), ops),
		"core.batch + core.authorize spans", usPer(time.Duration(st.incl[spanBatch]+st.incl[spanAuthorize]), ops))
	row("script_vm", usPer(time.Duration(t.stage[obs.StageScriptVM]), ops),
		"script.run spans (incl)", usPer(time.Duration(st.incl[spanScript]), ops))
	row("render", usPer(time.Duration(t.stage[obs.StageRender]), ops),
		"css + region auth + layout replay", usPer(rp.css+rp.auth+rp.lay, int64(rp.ops)))
	if r.gateway {
		h := r.gw[obs.StageHandler]
		row("handler", histMeanUs(h)*float64(h.Total())/float64(ops),
			"phpbb.handler spans", usPer(time.Duration(st.incl[spanHandler]), ops))
	}
	passLine := func(name string, p *passResult) {
		if p != nil {
			lines = append(lines, fmt.Sprintf("  %-9s pass: %9.1f ops/s  gc cpu %.3f  %8.0f allocs/op", name, rate(p), p.gcFrac(), float64(p.mallocs)/float64(p.ops)))
		}
	}
	passLine("untraced", r.u)
	passLine("traced", r.t)
	passLine("replay", r.r)
	passLine("sop", r.s)
	lines = append(lines, fmt.Sprintf("untraced vs traced pass: %d decisions, batch %d nodes → %d distinct, %d denials, cache %d hits / %d misses: equal",
		sum32(t.decisions), t.batch.Nodes, t.batch.Distinct, t.denials, t.cache.Hits, t.cache.Misses))
	return lines
}

func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
