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

// slot is one 24-byte entry of the display list. A text node that
// holds a word is one slot {text, X, Y}: (X, Y) is the pen before its
// first word, and Boxes places the words from there through wrap, as
// layout did. An element box is two slots, {"", X, Y} then {tag, W, H}.
// A text slot's string holds a word, so an empty string can only open
// an element box.
type slot struct {
	s    string
	a, b int32
}

// Result is the output of a layout pass.
type Result struct {
	// slots is the display list in paint order (see slot).
	slots []slot
	// width is the viewport width the text slots wrap at.
	width int
	// Height is the total document height in lines.
	Height int
	// Words and Lines count layout work done (for sanity checks and
	// benchmarks).
	Words int
	Lines int
}

// Len returns the number of boxes in the display list.
func (r *Result) Len() int {
	n := 0
	for i := 0; i < len(r.slots); i++ {
		if s := r.slots[i].s; s != "" {
			n += countFields(s)
		} else {
			n++
			i++ // an element box's second slot
		}
	}
	return n
}

// Boxes returns the display list's boxes in paint order.
func (r *Result) Boxes() iter.Seq[Box] {
	return func(yield func(Box) bool) {
		stopped := false
		place := func(word string, x, y int) bool {
			stopped = !yield(Box{X: int32(x), Y: int32(y), W: int32(len(word)), H: 1, Text: word})
			return !stopped
		}
		for i := 0; i < len(r.slots); i++ {
			s := r.slots[i]
			if s.s != "" {
				wrap(s.s, int(s.a), int(s.b), r.width, place)
				if stopped {
					return
				}
				continue
			}
			i++
			t := r.slots[i]
			if !yield(Box{Tag: t.s, X: s.a, Y: s.b, W: t.a, H: t.b}) {
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
	e.result.width = width
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
		if skip(n.Data, 0, true) < len(n.Data) {
			return 1
		}
		return 0
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

// text places a text node's words: one slot holding the run and the
// pen before its first word, which Boxes replays through wrap.
func (e *engine) text(s string) {
	i := skip(s, 0, true)
	if i == len(s) {
		return // no word, no slot
	}
	// A placeBox can leave the pen past the viewport, where the first
	// word wraps whatever it is; clamping keeps the pen in int32.
	e.result.slots = append(e.result.slots, slot{s: s, a: int32(min(e.x, e.width)), b: int32(e.y)})
	x, y, words := wrap(s[i:], e.x, e.y, e.width, nil)
	e.result.Words += words
	e.result.Lines += y - e.y // inside a text run only newlines move y
	e.x, e.y = x, y
}

// wrap lays the words of s out from the pen (x, y) in a viewport width
// cells wide and returns the pen after the last word with the number
// of words. Words are split exactly as strings.Fields splits them, at
// runs of unicode.IsSpace runes, but in place. A word wider than the
// viewport is clipped to it; a word that does not fit starts a new
// line, and one that fills the line ends it. place, when not nil,
// receives each word as placed, and wrap stops early when it returns
// false.
func wrap(s string, x, y, width int, place func(word string, x, y int) bool) (int, int, int) {
	words := 0
	for i := skip(s, 0, true); i < len(s); i = skip(s, i, true) {
		end := skip(s, i, false)
		word := s[i:end]
		i = end
		words++
		w := len(word)
		if w > width {
			w = width
			word = word[:w]
		}
		if x+w > width {
			x, y = 0, y+1
		}
		if place != nil && !place(word, x, y) {
			return x, y, words
		}
		x += w + 1
		if x >= width {
			x, y = 0, y+1
		}
	}
	return x, y, words
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
// wrap would place, by index, without cutting them out of s.
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
