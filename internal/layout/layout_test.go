package layout

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

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
	for _, b := range r.Boxes {
		if b.Tag == "img" && b.W == 10 && b.H == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("boxes = %v", r.Boxes)
	}
}

func TestLayoutOverlongWordTruncated(t *testing.T) {
	r := Layout(parse(`<p>`+strings.Repeat("x", 200)+`</p>`), 40)
	for _, b := range r.Boxes {
		if b.W > 40 {
			t.Errorf("box wider than viewport: %+v", b)
		}
	}
}

func TestLayoutEmptyDoc(t *testing.T) {
	r := Layout(parse(``), 80)
	if r.Words != 0 || len(r.Boxes) != 0 {
		t.Errorf("r = %+v", r)
	}
	if out := RenderText(r, 80); out != "" {
		t.Errorf("render = %q", out)
	}
}

func TestLayoutClampsHugeWidth(t *testing.T) {
	r := Layout(parse(`<p>x</p>`), math.MaxInt32+1)
	if len(r.Boxes) != 2 || r.Boxes[1].Tag != "p" || r.Boxes[1].W != math.MaxInt32 {
		t.Errorf("boxes = %+v, want the word and a p box clamped to math.MaxInt32", r.Boxes)
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
		if cap(r.Boxes) != len(r.Boxes) {
			return false // the counting walk disagrees with the layout
		}
		for _, box := range r.Boxes {
			if box.X < 0 || box.W < 0 || int(box.X+box.W) > width {
				return false
			}
			if box.Y < 0 {
				return false
			}
		}
		return r.Height >= 0 && r.Lines >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// fields collects nextField's words of s.
func fields(s string) []string {
	var out []string
	for word, rest := nextField(s); word != ""; word, rest = nextField(rest) {
		out = append(out, word)
	}
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
	}
	alphabet := []rune{'a', 'b', ' ', '\t', '\v', 0x85, 0xa0, 0x3000, 0x2028, 0x200b, 0xfffd, 'é'}
	f := func(seed []uint8, raw string) bool {
		var b strings.Builder
		for _, c := range seed {
			b.WriteRune(alphabet[int(c)%len(alphabet)])
		}
		s := b.String() + raw
		return slices.Equal(fields(s), strings.Fields(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
