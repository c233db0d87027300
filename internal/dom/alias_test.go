package dom

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/html"
	"repro/internal/scenarios"
)

// TestParsedListsDoNotAlias writes through the DOM API to each parsed
// element in turn: SetAttribute appends to its Attrs and AppendChild
// to its Kids. The parser cuts both lists from shared per-document
// blocks, so a window with spare capacity would let one script's
// write to an element rewrite another element's attributes or
// children without any monitor check on that other element. Every
// other element's lists must stay unchanged.
func TestParsedListsDoNotAlias(t *testing.T) {
	escudo := html.Options{Escudo: true, MaxRing: 3, BaseRing: 3, BaseACL: core.ACL{}}
	var s8 string
	for _, sc := range scenarios.All() {
		if sc.Name == "S8" {
			s8 = sc.Markup
		}
	}
	docs := map[string]*Document{
		"S8 escudo": NewDocument(site, s8, escudo),
		"S8 legacy": NewDocument(site, s8, html.LegacyOptions()),
		"blog":      blogDoc(),
	}
	type lists struct {
		attrs []html.Attr
		kids  []*html.Node
	}
	for name, d := range docs {
		a := NewAPI(d, core.Principal(site, core.RingKernel, "browser"), &core.ERM{})
		var els []*html.Node
		want := map[*html.Node]lists{}
		snap := func(n *html.Node) {
			want[n] = lists{slices.Clone(n.Attrs), slices.Clone(n.Kids)}
		}
		html.Walk(d.Root, func(n *html.Node) bool {
			if n.Type == html.ElementNode {
				els = append(els, n)
				snap(n)
			}
			return true
		})
		for i, el := range els {
			if err := a.SetAttribute(el, "data-probe", strconv.Itoa(i)); err != nil {
				t.Fatalf("%s: SetAttribute: %v", name, err)
			}
			if err := a.AppendChild(el, a.CreateTextNode("probe")); err != nil {
				t.Fatalf("%s: AppendChild: %v", name, err)
			}
			snap(el)
			for _, other := range els {
				w := want[other]
				if !slices.Equal(other.Attrs, w.attrs) || !slices.Equal(other.Kids, w.kids) {
					t.Fatalf("%s: writing to element %d <%s> changed <%s>'s lists", name, i, el.Tag, other.Tag)
				}
			}
		}
	}
}
