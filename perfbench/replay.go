package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/css"
	"repro/internal/dom"
	"repro/internal/html"
	"repro/internal/layout"
	"repro/internal/origin"
)

// The html, dom, css and layout layers have no seam inside a
// navigation, so the traced run times them by replaying the pages the
// session parsed through the layers' public functions, after the ops
// and outside their spans, in the order the browser runs them.

// replayStats accumulates one pass's replay timings.
type replayStats struct {
	// ops counts the ops whose pages were sampled and replayed.
	ops                                    int
	tokenize, parse, build, css, auth, lay time.Duration
	parseAllocs, layoutAllocs              uint64
}

// replayer replays pages under one protection model: ESCUDO labelling
// and the session's policy stack, or legacy labelling and the SOP
// stack. Region authorization runs over a replay-only decision cache
// so the session's cache counters stay the session's.
type replayer struct {
	escudo  bool
	monitor core.Monitor
	log     *core.AuditLog
	stats   replayStats
}

func newReplayer(escudo bool, stack func(*core.DecisionCache) core.Monitor) *replayer {
	log := &core.AuditLog{}
	return &replayer{escudo: escudo, log: log, monitor: core.Compose(stack(core.NewDecisionCache()), core.WithAudit(log))}
}

// options returns the labelling the browser derives from a response.
func (r *replayer) options(p page) html.Options {
	if !r.escudo {
		return html.LegacyOptions()
	}
	h := p.resp.Header
	cfg, _ := core.ParsePageConfig(h.Values(core.HeaderMaxRing), h.Values(core.HeaderCookie), h.Values(core.HeaderAPI))
	if cfg.Configured() {
		return html.Options{Escudo: true, MaxRing: cfg.MaxRing, BaseRing: cfg.MaxRing, BaseACL: core.ACL{}}
	}
	return html.Options{Escudo: true, BaseACL: core.UniformACL(0)}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// The sinks keep replayed results reachable, so no call is elided.
var (
	parseSink  *html.Node
	layoutSink *layout.Result
)

// run replays pages one at a time through every layer, as the browser
// runs them, so each page's tree is fresh in cache for the next layer
// and no page outlives its replay.
func (r *replayer) run(pages []page, ops int) error {
	st := &r.stats
	st.ops += ops
	for _, p := range pages {
		o, err := origin.Parse(p.url)
		if err != nil {
			return err
		}
		opts, body := r.options(p), p.resp.Body

		t := time.Now()
		z := html.NewTokenizer(body)
		for z.Next().Type != html.EOFToken {
		}
		st.tokenize += time.Since(t)

		m := mallocs()
		t = time.Now()
		parseSink = html.Parse(body, opts)
		st.parse += time.Since(t)
		st.parseAllocs += mallocs() - m

		t = time.Now()
		d := dom.NewDocument(o, body, opts)
		st.build += time.Since(t)

		t = time.Now()
		var sheets []*css.Stylesheet
		for _, s := range d.ByTag("style") {
			sheets = append(sheets, css.Parse(html.InnerText(s)))
		}
		hidden := css.NewResolver(sheets...).HiddenSet(d.Root)
		st.css += time.Since(t)

		t = time.Now()
		api := dom.NewAPI(d, core.Principal(d.Origin, core.RingKernel, "browser"), r.monitor)
		denied, err := api.AuthorizeRenderRegion(d.Root)
		switch {
		case err != nil:
			hidden = map[*html.Node]bool{d.Root: true}
		case hidden == nil:
			hidden = denied
		default:
			for n := range denied {
				hidden[n] = true
			}
		}
		st.auth += time.Since(t)
		r.log.Reset()

		m = mallocs()
		t = time.Now()
		layoutSink = layout.LayoutHidden(d.Root, layout.DefaultViewportWidth, hidden)
		st.lay += time.Since(t)
		st.layoutAllocs += mallocs() - m
	}
	return nil
}
