package layout

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/html"
)

// refResult is what the reference engine lays out: one box per word,
// built as the word is placed.
type refResult struct {
	boxes                []Box
	words, lines, height int
}

// refEngine is the per-word layout engine that one slot per text node
// replaced, kept as the reference the display list must reproduce. It
// splits words with strings.Fields itself, so it shares no code with
// skip, wrap or count.
type refEngine struct {
	width  int
	x, y   int
	hidden map[*html.Node]bool
	out    refResult
}

// refLayout is LayoutHidden through the reference engine.
func refLayout(root *html.Node, width int, hidden map[*html.Node]bool) refResult {
	if width <= 0 {
		width = DefaultViewportWidth
	}
	width = min(width, math.MaxInt32)
	e := &refEngine{width: width, hidden: hidden}
	e.node(root)
	if e.x > 0 {
		e.newline()
	}
	e.out.height = e.y
	return e.out
}

func (e *refEngine) node(n *html.Node) {
	if e.hidden[n] {
		return
	}
	switch n.Type {
	case html.TextNode:
		e.text(n.Data)
		return
	case html.ElementNode:
		switch kind(n.Tag) {
		case skipped:
			return
		case lineBreak:
			e.newline()
			return
		case atomic:
			if n.Tag == "img" {
				e.placeBox("img", 10, 3)
			} else {
				e.placeBox(n.Tag, 12, 1)
			}
			return
		case block:
			if e.x > 0 {
				e.newline()
			}
			startY := e.y
			for _, k := range n.Kids {
				e.node(k)
			}
			if e.x > 0 {
				e.newline()
			}
			e.out.boxes = append(e.out.boxes, Box{Tag: n.Tag, Y: int32(startY), W: int32(e.width), H: int32(e.y - startY)})
			return
		}
	case html.DocumentNode:
	default:
		return
	}
	for _, k := range n.Kids {
		e.node(k)
	}
}

func (e *refEngine) text(s string) {
	for _, word := range strings.Fields(s) {
		e.out.words++
		w := len(word)
		if w > e.width {
			w = e.width
			word = word[:w]
		}
		if e.x+w > e.width {
			e.newline()
		}
		e.out.boxes = append(e.out.boxes, Box{X: int32(e.x), Y: int32(e.y), W: int32(w), H: 1, Text: word})
		e.x += w + 1
		if e.x >= e.width {
			e.newline()
		}
	}
}

func (e *refEngine) placeBox(tag string, w, h int) {
	w = min(w, e.width)
	if e.x+w > e.width && e.x > 0 {
		e.newline()
	}
	e.out.boxes = append(e.out.boxes, Box{Tag: tag, X: int32(e.x), Y: int32(e.y), W: int32(w), H: int32(h)})
	e.x += w + 1
	if h > 1 {
		e.y += h - 1
	}
}

func (e *refEngine) newline() {
	e.x = 0
	e.y++
	e.out.lines++
}

// checkAgainstReference lays root out both ways and reports every
// difference: the boxes Boxes yields, Len, the counters, a display list
// sized exactly by the counting walk, and a Boxes read stopped after
// its first stop boxes.
func checkAgainstReference(t *testing.T, name string, root *html.Node, width int, hidden map[*html.Node]bool, stop int) {
	t.Helper()
	r := LayoutHidden(root, width, hidden)
	want := refLayout(root, width, hidden)
	got := slices.Collect(r.Boxes())
	if !slices.Equal(got, want.boxes) {
		i := 0
		for i < min(len(got), len(want.boxes)) && got[i] == want.boxes[i] {
			i++
		}
		t.Fatalf("%s: %d boxes, reference %d; first difference at %d:\n got %v\nwant %v",
			name, len(got), len(want.boxes), i, got[i:min(i+3, len(got))], want.boxes[i:min(i+3, len(want.boxes))])
	}
	if r.Len() != len(want.boxes) || r.Words != want.words || r.Lines != want.lines || r.Height != want.height {
		t.Fatalf("%s: Len %d Words %d Lines %d Height %d, reference %d %d %d %d",
			name, r.Len(), r.Words, r.Lines, r.Height, len(want.boxes), want.words, want.lines, want.height)
	}
	if cap(r.slots) != len(r.slots) {
		t.Fatalf("%s: display list len %d cap %d: the counting walk disagrees with the layout", name, len(r.slots), cap(r.slots))
	}
	if stop = min(stop, len(want.boxes)); stop > 0 {
		// A range loop panics if the iterator yields after a break.
		var prefix []Box
		for b := range r.Boxes() {
			if prefix = append(prefix, b); len(prefix) == stop {
				break
			}
		}
		if !slices.Equal(prefix, want.boxes[:stop]) {
			t.Fatalf("%s: Boxes stopped after %d yields %v, want %v", name, stop, prefix, want.boxes[:stop])
		}
	}
}

// pagePieces are the fragments random pages are drawn from: block,
// inline, atomic, skipped and br elements, comments, whitespace-only
// runs, the Unicode spaces strings.Fields splits on (U+0085, NBSP,
// U+2028, U+3000) and one it does not (U+200B), invalid UTF-8, and
// words longer than any viewport drawn (130 bytes, and 35 two-byte
// runes).
var pagePieces = []string{
	`<div>`, `</div>`, `<p>`, `</p>`, `<pre>`, `</pre>`, `<li>`, `<blockquote>`,
	`<span>`, `</span>`, `<b>`, `</b>`, `<a href=x>`, `</a>`,
	`<img src=i.png>`, `<input value=v>`, `<button>press me</button>`,
	`<script>var s = "hidden";</script>`, `<style>p { color: red }</style>`, `<title>t</title>`,
	`<br>`, `<!-- a comment with words -->`,
	`word `, `a b c `, `xy`, ` `, "\t\n  ", `  lead`, `trail  `,
	"nb\u00a0sp ", "ide\u3000sp ", "nel\u0085x ", "ls\u2028y ", "zw\u200bsp ",
	"bad\xffutf ", "\xc3 torn ", "\xe2\x80 ",
	strings.Repeat("w", 130) + " ", strings.Repeat("\u00e9", 35) + " ",
}

// randomPage draws a page of up to 60 pieces.
func randomPage(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.IntN(60); n >= 0; n-- {
		b.WriteString(pagePieces[rng.IntN(len(pagePieces))])
	}
	return b.String()
}

// randomHidden hides each node with probability 1/8 (nil half the
// time, as for a page with no display:none rules).
func randomHidden(rng *rand.Rand, root *html.Node) map[*html.Node]bool {
	if rng.IntN(2) == 0 {
		return nil
	}
	hidden := map[*html.Node]bool{}
	html.Walk(root, func(n *html.Node) bool {
		if n != root && rng.IntN(8) == 0 {
			hidden[n] = true
		}
		return true
	})
	return hidden
}

// Property: on seeded random pages, one slot per text node lays out
// exactly what the per-word engine laid out.
func TestLayoutMatchesPerWordReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	for i := 0; i < 3000; i++ {
		page := randomPage(rng)
		root := parse(page)
		width := 1 + rng.IntN(30)
		if rng.IntN(8) == 0 {
			width = math.MaxInt32
		}
		checkAgainstReference(t, fmt.Sprintf("page %d %q width %d", i, page, width),
			root, width, randomHidden(rng, root), 1+rng.IntN(40))
	}
}

// unicodeEdgePage mixes the spaces strings.Fields splits on with ones
// it does not, invalid UTF-8, and a multi-byte word longer than the
// viewport.
const unicodeEdgePage = "<p>a\u0085b c\u00a0d\te\vf\rg\fh\u3000i\u200bj\u2028\xffk\xc3 l  " +
	"\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9" +
	"\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9" +
	" m\u3000</p><pre>  x  y  </pre><img><br><input> <!-- c --> tail"

// FuzzLayout compares LayoutHidden with the per-word reference on any
// markup and width. Elements carrying a hidden attribute form the
// hidden set, so the fuzzer reaches the skip path too.
func FuzzLayout(f *testing.F) {
	f.Add(unicodeEdgePage, 20)
	f.Add(unicodeEdgePage, 80)
	rng := rand.New(rand.NewPCG(30, 2))
	for _, width := range []int{1, 7, 13, 30, math.MaxInt32} {
		f.Add(randomPage(rng), width)
	}
	f.Add(`<div hidden>gone</div><p>kept <span hidden>gone</span> too</p>`, 10)
	f.Fuzz(func(t *testing.T, markup string, width int) {
		root := parse(markup)
		var hidden map[*html.Node]bool
		html.Walk(root, func(n *html.Node) bool {
			if _, ok := n.Attr("hidden"); ok {
				if hidden == nil {
					hidden = map[*html.Node]bool{}
				}
				hidden[n] = true
			}
			return true
		})
		checkAgainstReference(t, "fuzz", root, width, hidden, 1+len(markup)%16)
	})
}
