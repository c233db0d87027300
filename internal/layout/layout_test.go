package layout

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/html"
)

func parse(src string) *html.Node {
	return html.Parse(src, html.LegacyOptions())
}

func TestLayoutSimpleText(t *testing.T) {
	r := Layout(parse(`<p>hello world</p>`), 80)
	if r.Words != 2 {
		t.Errorf("Words = %d, want 2", r.Words)
	}
	if r.Height < 1 {
		t.Errorf("Height = %d", r.Height)
	}
	out := RenderText(r, 80)
	if !strings.Contains(out, "hello world") {
		t.Errorf("render = %q", out)
	}
}

func TestLayoutWrapping(t *testing.T) {
	// 5 words of 6 cells (plus 1-cell gaps) in a 20-cell viewport:
	// exactly 3 fit per line ("aaaaaa bbbbbb cccccc" is 20 cells),
	// so the layout is 2 lines.
	r := Layout(parse(`<p>aaaaaa bbbbbb cccccc dddddd eeeeee</p>`), 20)
	if r.Height != 2 {
		t.Errorf("Height = %d, want 2", r.Height)
	}
	out := RenderText(r, 20)
	lines := strings.Split(out, "\n")
	if len(lines) != 2 || lines[0] != "aaaaaa bbbbbb cccccc" || lines[1] != "dddddd eeeeee" {
		t.Errorf("out = %q", out)
	}
}

func TestLayoutBlocksStack(t *testing.T) {
	r := Layout(parse(`<div>one</div><div>two</div>`), 80)
	out := RenderText(r, 80)
	lines := strings.Split(out, "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "one") || !strings.Contains(lines[1], "two") {
		t.Errorf("out = %q", out)
	}
}

func TestLayoutScriptInvisible(t *testing.T) {
	r := Layout(parse(`<p>visible</p><script>var hidden = "secret";</script>`), 80)
	out := RenderText(r, 80)
	if strings.Contains(out, "secret") {
		t.Error("script text leaked into layout")
	}
	if !strings.Contains(out, "visible") {
		t.Error("visible text missing")
	}
}

func TestLayoutHeadInvisible(t *testing.T) {
	r := Layout(parse(`<html><head><title>T</title><style>.x{}</style></head><body>B</body></html>`), 80)
	out := RenderText(r, 80)
	if strings.Contains(out, "T") && !strings.Contains(out, "B") {
		t.Errorf("out = %q", out)
	}
	if strings.Contains(out, ".x{}") {
		t.Error("style leaked")
	}
}

func TestLayoutBr(t *testing.T) {
	r := Layout(parse(`a<br>b`), 80)
	out := RenderText(r, 80)
	if lines := strings.Split(out, "\n"); len(lines) != 2 {
		t.Errorf("out = %q", out)
	}
}

func TestLayoutImgPlaceholder(t *testing.T) {
	r := Layout(parse(`<img src=x.png>`), 80)
	found := false
	for b := range r.Boxes() {
		if b.Tag == "img" && b.W == 10 && b.H == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("boxes = %v", slices.Collect(r.Boxes()))
	}
}

func TestLayoutOverlongWordTruncated(t *testing.T) {
	r := Layout(parse(`<p>`+strings.Repeat("x", 200)+`</p>`), 40)
	for b := range r.Boxes() {
		if b.W > 40 {
			t.Errorf("box wider than viewport: %+v", b)
		}
	}
}

func TestLayoutEmptyDoc(t *testing.T) {
	r := Layout(parse(``), 80)
	if r.Words != 0 || r.Len() != 0 {
		t.Errorf("r = %+v", r)
	}
	if out := RenderText(r, 80); out != "" {
		t.Errorf("render = %q", out)
	}
}

func TestLayoutClampsHugeWidth(t *testing.T) {
	r := Layout(parse(`<p>x</p>`), math.MaxInt32+1)
	boxes := slices.Collect(r.Boxes())
	if len(boxes) != 2 || boxes[1].Tag != "p" || boxes[1].W != math.MaxInt32 {
		t.Errorf("boxes = %+v, want the word and a p box clamped to math.MaxInt32", boxes)
	}
}

func TestLayoutDefaultsWidth(t *testing.T) {
	r := Layout(parse(`<p>x</p>`), 0)
	if r.Height < 1 {
		t.Error("zero width must default, not collapse")
	}
}

// Property: layout never panics, boxes stay within the viewport
// horizontally, and heights are consistent.
func TestLayoutInvariants(t *testing.T) {
	pieces := []string{
		`<div>`, `</div>`, `<p>`, `</p>`, `word `, `longerword `,
		`<br>`, `<img>`, `<input>`, `<script>hidden</script>`, `x y z `,
	}
	f := func(seed []uint8, wseed uint8) bool {
		var b strings.Builder
		for _, s := range seed {
			b.WriteString(pieces[int(s)%len(pieces)])
		}
		width := 10 + int(wseed)%100
		r := Layout(parse(b.String()), width)
		if cap(r.slots) != len(r.slots) {
			return false // the counting walk disagrees with the layout
		}
		boxes := 0
		for box := range r.Boxes() {
			boxes++
			if box.X < 0 || box.W < 0 || int(box.X+box.W) > width {
				return false
			}
			if box.Y < 0 {
				return false
			}
		}
		return boxes == r.Len() && r.Height >= 0 && r.Lines >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// A display-list slot is 24 bytes: a text node's words are one slot,
// an element's box two.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 24 {
		t.Errorf("slot is %d bytes, want 24", got)
	}
}

// fields collects the words wrap places from s on one unbounded line.
func fields(s string) []string {
	var out []string
	wrap(s, 0, 0, math.MaxInt32, func(word string, _, _ int) bool {
		out = append(out, word)
		return true
	})
	return out
}

// Property: words are split exactly as strings.Fields splits them,
// Unicode spaces and invalid UTF-8 included.
func TestNextFieldMatchesStringsFields(t *testing.T) {
	for _, s := range []string{
		"", " ", "a", " a  b ", "a\u0085b\u00a0c\u3000d\u2028e\u200bf",
		"\t\n\v\f\r x", "\xff \xc3\xa9 \xc3", "\u1680\u2000\u200a\u202f\u205fz",
	} {
		if got, want := fields(s), strings.Fields(s); !slices.Equal(got, want) {
			t.Errorf("fields(%q) = %q, want %q", s, got, want)
		}
		if got, want := countFields(s), len(strings.Fields(s)); got != want {
			t.Errorf("countFields(%q) = %d, want %d", s, got, want)
		}
	}
	alphabet := []rune{'a', 'b', ' ', '\t', '\v', 0x85, 0xa0, 0x3000, 0x2028, 0x200b, 0xfffd, 'é'}
	f := func(seed []uint8, raw string) bool {
		var b strings.Builder
		for _, c := range seed {
			b.WriteRune(alphabet[int(c)%len(alphabet)])
		}
		s := b.String() + raw
		want := strings.Fields(s)
		return slices.Equal(fields(s), want) && countFields(s) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
