package scenarios

import (
	"testing"

	"repro/internal/html"
	"repro/internal/layout"
	"repro/internal/raceflag"
)

// The page-load diet's allocation pins, on the largest Figure 4 page.
// A parse cuts its nodes, child links and kept attributes from a few
// per-document blocks, and a layout sizes its display list once; a
// per-node or per-word allocation creeping back in breaks these.
const (
	maxParseAllocs  = 16 // S8 measured 10 (ESCUDO) and 12 (legacy)
	maxLayoutAllocs = 2  // the engine with its Result, and Boxes
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
