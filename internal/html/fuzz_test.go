package html

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// Fuzz targets. `go test` runs the seed corpus; `go test -fuzz` digs
// deeper. The invariants under fuzz are the package's security
// obligations: no panics, guaranteed termination, configuration
// stripping, and the scoping bound on fragment parses.

func FuzzTokenizer(f *testing.F) {
	seeds := []string{
		`<div ring=2 r=1 w=0 x=2 nonce=3847>x</div nonce=3847>`,
		`<script>if (a < b) { }</script>`,
		`<!-- comment --><!DOCTYPE html><p class="a">&amp;&#65;</p>`,
		`</ div><a href='x`, "<", "text<b", `<img src=x.png/>`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		z := NewTokenizer(s)
		for i := 0; i <= len(s)+8; i++ {
			if z.Next().Type == EOFToken {
				return
			}
		}
		t.Fatalf("tokenizer did not terminate on %q", s)
	})
}

func FuzzParseEscudo(f *testing.F) {
	seeds := []string{
		`<div ring=1 nonce=7><div ring=0></div nonce=7>`,
		`<div ring=3 r=2 w=2 x=2 nonce=1></div><div ring=0>x</div nonce=1>`,
		`<p><div ring=9 r=-1>x`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		doc := Parse(s, Options{Escudo: true, MaxRing: 3, BaseRing: 3})
		Walk(doc, func(n *Node) bool {
			if n.Ring < 0 || n.Ring > 3 {
				t.Errorf("ring %d out of range", n.Ring)
			}
			for _, a := range n.Attrs {
				if core.IsConfigAttr(a.Name) {
					t.Errorf("config attr %q leaked into the tree", a.Name)
				}
			}
			for _, k := range n.Kids {
				if k.Parent != n {
					t.Errorf("a kid of <%s> links to another parent", n.Tag)
				}
			}
			return true
		})
		checkNoAliasing(t, doc)
	})
}

// checkNoAliasing appends an attribute and a child to each element in
// turn, the way the DOM API's SetAttribute and AppendChild do, and
// fails if any other element's Attrs or Kids change. The parser cuts
// both lists from shared per-document blocks; a window with spare
// capacity would let the append write into a neighbour's list.
func checkNoAliasing(t *testing.T, doc *Node) {
	t.Helper()
	type lists struct {
		attrs []Attr
		kids  []*Node
	}
	var els []*Node
	want := map[*Node]lists{}
	snap := func(n *Node) {
		want[n] = lists{append([]Attr(nil), n.Attrs...), append([]*Node(nil), n.Kids...)}
	}
	Walk(doc, func(n *Node) bool {
		if n.Type == ElementNode || n.Type == DocumentNode {
			els = append(els, n)
			snap(n)
		}
		return true
	})
	for _, el := range els {
		el.Attrs = append(el.Attrs, Attr{Name: "data-probe", Value: "x"})
		el.AppendChild(&Node{Type: TextNode, Data: "probe"})
		snap(el)
		for _, other := range els {
			w := want[other]
			if !slices.Equal(other.Attrs, w.attrs) || !slices.Equal(other.Kids, w.kids) {
				t.Fatalf("appending to <%s> changed <%s>'s lists", el.Tag, other.Tag)
			}
		}
	}
}

func FuzzFragmentScopingBound(f *testing.F) {
	seeds := []string{
		`<div ring=0 id=x>boom</div>`,
		`</div><div ring=0>esc</div>`,
		`<div ring=1><div ring=0>deep</div></div>`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		kids := ParseFragment(s, Options{Escudo: true, MaxRing: 3}, 2, core.UniformACL(2))
		for _, k := range kids {
			Walk(k, func(n *Node) bool {
				if n.Ring < 2 {
					t.Errorf("fragment node at ring %d beat the bound 2 (input %q)", n.Ring, s)
				}
				return true
			})
		}
	})
}

func FuzzUnescape(f *testing.F) {
	for _, s := range []string{"&amp;", "&#65;", "&#x41;", "&bogus;", "&#;", "a&b"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		_ = Unescape(s) // must not panic
		// Escaping then unescaping is the identity.
		if got := Unescape(EscapeText(s)); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	})
}
