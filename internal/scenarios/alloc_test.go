package scenarios

import (
	"errors"
	"testing"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/html"
	"repro/internal/layout"
	"repro/internal/origin"
	"repro/internal/raceflag"
	"repro/internal/web"
)

// The page-load diet's allocation pins, on the Figure 4 pages. A parse
// cuts its nodes, child links and kept attributes from a few
// per-document blocks, and a layout sizes its display list once; a
// script runs in one scope over its browser's library, binding host
// globals only when it reads them; a node's security context carries
// its tag and id as the document holds them. A per-node, per-word or
// per-script rebuild creeping back in breaks these.
const (
	maxParseAllocs     = 16 // S8 measured 10 (ESCUDO) and 12 (legacy)
	maxLayoutAllocs    = 2  // the engine with its Result, and the display list
	maxRunScriptAllocs = 1  // `var v = 1;`: the run's record (interpreter, scope, bindings)
	// A host method call allocates its argument slice and its result;
	// the method itself comes from a static table.
	maxAllocsPerMethodCall = 2
	// A denied host-method write allocates the run's record, the
	// argument slice, the denial and the script exception wrapping it.
	maxDeniedMethodAllocs = 4
	// A render region's authorization allocates its contexts and its
	// decisions; a principal denied S8's inner-ring sections adds the
	// denied set, sized once to its entries (6 in all).
	maxRenderRegionAllocs       = 2
	maxDeniedRenderRegionAllocs = 6
)

func s8(t *testing.T) Scenario {
	t.Helper()
	for _, sc := range All() {
		if sc.Name == "S8" {
			return sc
		}
	}
	t.Fatal("no S8 scenario")
	return Scenario{}
}

func TestParseAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sc := s8(t)
	for name, opts := range map[string]html.Options{"escudo": escudoOpts(), "legacy": html.LegacyOptions()} {
		if n := testing.AllocsPerRun(20, func() { html.Parse(sc.Markup, opts) }); n > maxParseAllocs {
			t.Errorf("html.Parse of S8 (%s) allocates %.0f times, want <= %d", name, n, maxParseAllocs)
		}
	}
}

func TestLayoutAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	doc := html.Parse(s8(t).Markup, escudoOpts())
	if n := testing.AllocsPerRun(20, func() { layout.Layout(doc, layout.DefaultViewportWidth) }); n > maxLayoutAllocs {
		t.Errorf("layout.Layout of S8 allocates %.0f times, want <= %d", n, maxLayoutAllocs)
	}
}

// bench navigates a fresh ESCUDO browser to a Figure 4 page over the
// in-memory network.
func bench(t *testing.T, path string) *browser.Page {
	t.Helper()
	net := web.NewNetwork()
	o := origin.MustParse("http://bench.example")
	net.Register(o, Handler())
	p, err := browser.New(net, browser.Options{}).Navigate(o.URL(path))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunScriptAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := bench(t, "/s1")
	principal := core.Principal(p.Origin, 1, "script")
	var err error
	n := testing.AllocsPerRun(20, func() { err = p.RunScriptAs(principal, "var v = 1;") })
	if err != nil {
		t.Fatal(err)
	}
	if n > maxRunScriptAllocs {
		t.Errorf("RunScriptAs of `var v = 1;` allocates %.0f times, want <= %d", n, maxRunScriptAllocs)
	}
}

func TestHostMethodCallAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := bench(t, "/s1")
	principal := core.Principal(p.Origin, 0, "script")
	allocs := func(src string) float64 {
		var err error
		n := testing.AllocsPerRun(20, func() { err = p.RunScriptAs(principal, src) })
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	one := allocs(`var a = document.getElementById("p0");`)
	two := allocs(`var a = document.getElementById("p0"); var b = document.getElementById("p1");`)
	if two-one > maxAllocsPerMethodCall {
		t.Errorf("a second document.getElementById call adds %.0f allocations (%.0f → %.0f), want <= %d", two-one, one, two, maxAllocsPerMethodCall)
	}
}

var contextSink core.Context

func TestNodeContextAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	doc := dom.NewDocument(origin.MustParse("http://bench.example"), s8(t).Markup, escudoOpts())
	el := doc.ByID("p0")
	if el == nil {
		t.Fatal("S8 has no element p0")
	}
	if n := testing.AllocsPerRun(20, func() { contextSink = doc.NodeContext(el) }); n != 0 {
		t.Errorf("NodeContext of an element with an id allocates %.0f times, want 0", n)
	}
	if got := contextSink.Name(); got != "p#p0" {
		t.Errorf("rendered label = %q, want p#p0", got)
	}
}

func TestRenderRegionAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// Every ring may read the page's base region, so a ring-3
	// principal is denied only the inner-ring sections.
	o := origin.MustParse("http://bench.example")
	doc := dom.NewDocument(o, s8(t).Markup, html.Options{Escudo: true, MaxRing: 3, BaseRing: 3, BaseACL: core.PermissiveACL(3)})
	for _, c := range []struct {
		ring      core.Ring
		maxAllocs int
	}{{0, maxRenderRegionAllocs}, {3, maxDeniedRenderRegionAllocs}} {
		api := dom.NewAPI(doc, core.Principal(o, c.ring, "render"), &core.ERM{})
		var denied map[*html.Node]bool
		var err error
		n := testing.AllocsPerRun(20, func() { denied, err = api.AuthorizeRenderRegion(doc.Root) })
		if err != nil {
			t.Fatal(err)
		}
		if (len(denied) > 0) != (c.ring == 3) {
			t.Fatalf("ring %d: %d denied elements, want some only at ring 3", c.ring, len(denied))
		}
		if n > float64(c.maxAllocs) {
			t.Errorf("AuthorizeRenderRegion of S8 at ring %d allocates %.0f times, want <= %d", c.ring, n, c.maxAllocs)
		}
	}
}

func TestDeniedHostMethodAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// S3's body sits in the page's base region, which only ring 0 may
	// write.
	p := bench(t, "/s3")
	principal := core.Principal(p.Origin, 1, "script")
	var err error
	n := testing.AllocsPerRun(20, func() { err = p.RunScriptAs(principal, `document.write("x");`) })
	var denied *dom.DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("document.write at ring 1: err = %v, want a denial", err)
	}
	if n > maxDeniedMethodAllocs {
		t.Errorf("a denied document.write allocates %.0f times, want <= %d", n, maxDeniedMethodAllocs)
	}
}
