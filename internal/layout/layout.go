// Package layout implements a deterministic text-layout pass over the
// DOM. The paper's Figure 4 experiment measures "parsing and
// rendering time" in the Lobo browser; this renderer is the measurable
// stand-in for Lobo's rendering stage (see DESIGN.md substitutions).
// It walks the tree, splits text into words, wraps lines into a fixed
// viewport width, and produces a display list — enough real work that
// ESCUDO's labeling bookkeeping shows up as a relative overhead, as in
// the paper.
package layout

import (
	"iter"
	"math"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/html"
)

// DefaultViewportWidth is the layout width in character cells.
const DefaultViewportWidth = 80

// Box is one laid-out rectangle of the display list, as
// Result.Boxes renders it.
type Box struct {
	// Tag is the originating element ("" for anonymous text boxes).
	Tag string
	// X, Y are the box's top-left cell coordinates.
	X, Y int32
	// W, H are its width and height in cells.
	W, H int32
	// Text is the visible text for text boxes.
	Text string
}

// slot is one 24-byte entry of the display list. A word box is one
// slot {word, X, Y}: its width is len(word), since layout clips an
// overlong word to the viewport, and its height is 1. An element box
// is two slots, {"", X, Y} then {tag, W, H}. nextField never yields
// an empty word, so an empty string can only open an element box.
type slot struct {
	s    string
	a, b int32
}

// Result is the output of a layout pass.
type Result struct {
	// slots is the display list in paint order (see slot).
	slots []slot
	// Height is the total document height in lines.
	Height int
	// Words and Lines count layout work done (for sanity checks and
	// benchmarks).
	Words int
	Lines int
}

// Len returns the number of boxes in the display list.
func (r *Result) Len() int {
	n := len(r.slots)
	for _, s := range r.slots {
		if s.s == "" {
			n-- // an element box's opening slot
		}
	}
	return n
}

// Boxes returns the display list's boxes in paint order.
func (r *Result) Boxes() iter.Seq[Box] {
	return func(yield func(Box) bool) {
		for i := 0; i < len(r.slots); i++ {
			s := r.slots[i]
			b := Box{X: s.a, Y: s.b, W: int32(len(s.s)), H: 1, Text: s.s}
			if s.s == "" {
				i++
				t := r.slots[i]
				b = Box{Tag: t.s, X: s.a, Y: s.b, W: t.a, H: t.b}
			}
			if !yield(b) {
				return
			}
		}
	}
}

// Element kinds: how both layout walks treat an element.
const (
	inline    = iota // laid out through its children, with no box of its own
	block            // starts on a new line, stacks vertically, gets a box
	skipped          // places nothing, and its text is invisible
	atomic           // img, input, button: one placeholder box
	lineBreak        // br
)

// kind classifies an element by its tag.
func kind(tag string) int {
	switch tag {
	case "html", "body", "div", "p", "h1", "h2", "h3", "h4", "ul", "ol",
		"li", "table", "tr", "form", "hr", "blockquote", "pre", "section",
		"article", "header", "footer":
		return block
	case "script", "style", "head", "title", "meta", "link":
		return skipped
	case "img", "input", "button":
		return atomic
	case "br":
		return lineBreak
	}
	return inline
}

// engine holds layout state.
type engine struct {
	width  int
	x, y   int
	hidden map[*html.Node]bool
	result Result
}

// Layout lays out the document subtree at the given viewport width
// (0 means DefaultViewportWidth).
func Layout(root *html.Node, width int) *Result {
	return LayoutHidden(root, width, nil)
}

// LayoutHidden lays out the subtree, skipping the given nodes (and
// their descendants) — the browser passes the CSS display:none set.
// A width above math.MaxInt32 is clamped to it.
func LayoutHidden(root *html.Node, width int, hidden map[*html.Node]bool) *Result {
	if width <= 0 {
		width = DefaultViewportWidth
	}
	width = min(width, math.MaxInt32)
	e := &engine{width: width, hidden: hidden}
	e.result.slots = make([]slot, 0, e.count(root))
	e.node(root)
	if e.x > 0 {
		e.newline()
	}
	e.result.Height = e.y
	return &e.result
}

// count counts the slots node places, so the display list is sized
// once. It follows node's dispatch exactly.
func (e *engine) count(n *html.Node) int {
	if e.hidden != nil && e.hidden[n] {
		return 0
	}
	c := 0
	switch n.Type {
	case html.TextNode:
		return countFields(n.Data)
	case html.ElementNode:
		switch kind(n.Tag) {
		case skipped, lineBreak:
			return 0
		case atomic:
			return 2
		case block:
			c = 2
		}
	case html.DocumentNode:
		// Laid out through its children.
	default:
		return 0 // comments and doctypes place nothing
	}
	for _, k := range n.Kids {
		c += e.count(k)
	}
	return c
}

// node dispatches on node type.
func (e *engine) node(n *html.Node) {
	if e.hidden != nil && e.hidden[n] {
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
				// Images occupy a fixed-size placeholder box.
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
			e.result.slots = append(e.result.slots,
				slot{a: 0, b: int32(startY)},
				slot{s: n.Tag, a: int32(e.width), b: int32(e.y - startY)})
			return
		}
	case html.DocumentNode:
		// Laid out through its children.
	default:
		return
	}
	for _, k := range n.Kids {
		e.node(k)
	}
}

// text splits a run into words and wraps them.
func (e *engine) text(s string) {
	for word, rest := nextField(s); word != ""; word, rest = nextField(rest) {
		e.result.Words++
		w := len(word)
		if w > e.width {
			w = e.width
			word = word[:w]
		}
		if e.x+w > e.width {
			e.newline()
		}
		e.result.slots = append(e.result.slots, slot{s: word, a: int32(e.x), b: int32(e.y)})
		e.x += w + 1
		if e.x >= e.width {
			e.newline()
		}
	}
}

// nextField returns the first word of s and what follows it. Words
// are split exactly as strings.Fields splits them, at runs of
// unicode.IsSpace runes, but in place: word is a substring of s, and
// empty when s holds no more words.
func nextField(s string) (word, rest string) {
	start := skip(s, 0, true)
	end := skip(s, start, false)
	return s[start:end], s[end:]
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skip returns the index of the first rune at or after i whose
// spaceness differs from space, or len(s). Invalid UTF-8 decodes to one
// non-space U+FFFD per byte, as ranging over the string does.
func skip(s string, i int, space bool) int {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) != space {
			return i
		}
		i += size
	}
	return i
}

// countFields returns len(strings.Fields(s)): it walks the words
// nextField would yield, by index, without cutting them out of s.
func countFields(s string) int {
	n := 0
	for i := skip(s, 0, true); i < len(s); i = skip(s, skip(s, i, false), true) {
		n++
	}
	return n
}

// placeBox places an inline atomic box (img, input) of w×h cells,
// wrapping first if needed; a box wider than the viewport is clipped
// to it.
func (e *engine) placeBox(tag string, w, h int) {
	w = min(w, e.width)
	if e.x+w > e.width && e.x > 0 {
		e.newline()
	}
	e.result.slots = append(e.result.slots,
		slot{a: int32(e.x), b: int32(e.y)},
		slot{s: tag, a: int32(w), b: int32(h)})
	e.x += w + 1
	if h > 1 {
		e.y += h - 1
	}
}

// newline advances to the next line.
func (e *engine) newline() {
	e.x = 0
	e.y++
	e.result.Lines++
}

// RenderText paints the display list into a string, one rune per
// cell — the terminal-style output used by the inspect tool and
// examples to show "what the page looks like".
func RenderText(r *Result, width int) string {
	if width <= 0 {
		width = DefaultViewportWidth
	}
	height := r.Height
	if height == 0 {
		height = 1
	}
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", width))
	}
	for b := range r.Boxes() {
		if b.Text == "" {
			continue
		}
		if b.Y < 0 || int(b.Y) >= height {
			continue
		}
		for i, ch := range b.Text {
			x := int(b.X) + i
			if x < 0 || x >= width {
				break
			}
			grid[b.Y][x] = ch
		}
	}
	lines := make([]string, height)
	for i, row := range grid {
		lines[i] = strings.TrimRight(string(row), " ")
	}
	return strings.TrimRight(strings.Join(lines, "\n"), "\n")
}
