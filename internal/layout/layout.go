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
	"math"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/html"
)

// DefaultViewportWidth is the layout width in character cells.
const DefaultViewportWidth = 80

// Box is one laid-out rectangle in the display list. Its geometry is
// int32 (the viewport width is clamped to fit), which keeps a box, one
// per laid-out word, at 48 bytes.
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

// Result is the output of a layout pass.
type Result struct {
	// Boxes is the display list in paint order.
	Boxes []Box
	// Height is the total document height in lines.
	Height int
	// Words and Lines count layout work done (for sanity checks and
	// benchmarks).
	Words int
	Lines int
}

// blockElements start on a new line and stack vertically.
var blockElements = map[string]bool{
	"html": true, "body": true, "div": true, "p": true, "h1": true,
	"h2": true, "h3": true, "h4": true, "ul": true, "ol": true,
	"li": true, "table": true, "tr": true, "form": true, "hr": true,
	"blockquote": true, "pre": true, "section": true, "article": true,
	"header": true, "footer": true,
}

// skippedElements produce no boxes (and their text is invisible).
var skippedElements = map[string]bool{
	"script": true, "style": true, "head": true, "title": true, "meta": true, "link": true,
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
	e.result.Boxes = make([]Box, 0, e.boxes(root))
	e.node(root)
	if e.x > 0 {
		e.newline()
	}
	e.result.Height = e.y
	return &e.result
}

// boxes counts the boxes node places, so the display list is sized
// once. It follows node's dispatch exactly.
func (e *engine) boxes(n *html.Node) int {
	if e.hidden != nil && e.hidden[n] {
		return 0
	}
	count := 0
	switch n.Type {
	case html.TextNode:
		for word, rest := nextField(n.Data); word != ""; word, rest = nextField(rest) {
			count++
		}
	case html.ElementNode:
		switch {
		case skippedElements[n.Tag] || n.Tag == "br":
			return 0
		case n.Tag == "img" || n.Tag == "input" || n.Tag == "button":
			return 1
		case blockElements[n.Tag]:
			count++
		}
		for _, k := range n.Kids {
			count += e.boxes(k)
		}
	case html.DocumentNode:
		for _, k := range n.Kids {
			count += e.boxes(k)
		}
	}
	return count
}

// node dispatches on node type.
func (e *engine) node(n *html.Node) {
	if e.hidden != nil && e.hidden[n] {
		return
	}
	switch n.Type {
	case html.TextNode:
		e.text(n.Data)
	case html.ElementNode:
		if skippedElements[n.Tag] {
			return
		}
		block := blockElements[n.Tag]
		if block && e.x > 0 {
			e.newline()
		}
		startY := e.y
		if n.Tag == "br" {
			e.newline()
			return
		}
		if n.Tag == "img" {
			// Images occupy a fixed-size placeholder box.
			e.placeBox(Box{Tag: "img", W: 10, H: 3})
			return
		}
		if n.Tag == "input" || n.Tag == "button" {
			e.placeBox(Box{Tag: n.Tag, W: 12, H: 1})
			return
		}
		for _, k := range n.Kids {
			e.node(k)
		}
		if block {
			if e.x > 0 {
				e.newline()
			}
			e.result.Boxes = append(e.result.Boxes, Box{
				Tag: n.Tag, X: 0, Y: int32(startY), W: int32(e.width), H: int32(e.y - startY),
			})
		}
	case html.DocumentNode:
		for _, k := range n.Kids {
			e.node(k)
		}
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
		e.result.Boxes = append(e.result.Boxes, Box{X: int32(e.x), Y: int32(e.y), W: int32(w), H: 1, Text: word})
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

// placeBox places an inline atomic box (img, input), wrapping first if
// needed; boxes wider than the viewport are clipped to it.
func (e *engine) placeBox(b Box) {
	w := min(int(b.W), e.width)
	if e.x+w > e.width && e.x > 0 {
		e.newline()
	}
	b.X, b.Y, b.W = int32(e.x), int32(e.y), int32(w)
	e.result.Boxes = append(e.result.Boxes, b)
	e.x += w + 1
	if b.H > 1 {
		e.y += int(b.H) - 1
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
	for _, b := range r.Boxes {
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
