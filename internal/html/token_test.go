package html

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// collect tokenizes the whole input.
func collect(t *testing.T, input string) []Token {
	t.Helper()
	z := NewTokenizer(input)
	var toks []Token
	for i := 0; i < 10000; i++ {
		tok := z.Next()
		if tok.Type == EOFToken {
			return toks
		}
		toks = append(toks, tok)
	}
	t.Fatal("tokenizer did not terminate")
	return nil
}

func TestTokenizeSimple(t *testing.T) {
	toks := collect(t, `<p class="intro">Hello</p>`)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	if toks[0].Type != StartTagToken || toks[0].Tag != "p" {
		t.Errorf("tok0 = %+v", toks[0])
	}
	if v, ok := toks[0].Attr("class"); !ok || v != "intro" {
		t.Errorf("class = %q, %v", v, ok)
	}
	if toks[1].Type != TextToken || toks[1].Data != "Hello" {
		t.Errorf("tok1 = %+v", toks[1])
	}
	if toks[2].Type != EndTagToken || toks[2].Tag != "p" {
		t.Errorf("tok2 = %+v", toks[2])
	}
}

func TestTokenizeAttributeStyles(t *testing.T) {
	toks := collect(t, `<div ring=2 r="1" w='0' x=2 data-empty hidden>`)
	if len(toks) != 1 {
		t.Fatalf("got %d tokens", len(toks))
	}
	want := map[string]string{"ring": "2", "r": "1", "w": "0", "x": "2", "data-empty": "", "hidden": ""}
	for name, val := range want {
		got, ok := toks[0].Attr(name)
		if !ok || got != val {
			t.Errorf("attr %q = %q,%v; want %q", name, got, ok, val)
		}
	}
}

func TestTokenizeEndTagAttributes(t *testing.T) {
	// ESCUDO end tags carry nonces: </div nonce=3847>.
	toks := collect(t, `</div nonce=3847>`)
	if len(toks) != 1 || toks[0].Type != EndTagToken {
		t.Fatalf("toks = %v", toks)
	}
	if v, ok := toks[0].Attr("nonce"); !ok || v != "3847" {
		t.Errorf("nonce = %q,%v", v, ok)
	}
}

func TestTokenizeCaseNormalization(t *testing.T) {
	toks := collect(t, `<DIV RING=2 CLASS=Big>x</DIV>`)
	if toks[0].Tag != "div" {
		t.Errorf("tag = %q, want div", toks[0].Tag)
	}
	if v, _ := toks[0].Attr("ring"); v != "2" {
		t.Errorf("ring attr not found under lowercase name")
	}
	if v, _ := toks[0].Attr("class"); v != "Big" {
		t.Errorf("attr value case must be preserved, got %q", v)
	}
}

func TestTokenizeSelfClosingAndVoid(t *testing.T) {
	toks := collect(t, `<br/><img src="a.png"><input type=text />`)
	if toks[0].Type != SelfClosingTagToken || toks[0].Tag != "br" {
		t.Errorf("tok0 = %+v", toks[0])
	}
	if toks[1].Type != StartTagToken || toks[1].Tag != "img" {
		t.Errorf("tok1 = %+v", toks[1])
	}
	if toks[2].Type != SelfClosingTagToken || toks[2].Tag != "input" {
		t.Errorf("tok2 = %+v", toks[2])
	}
}

func TestTokenizeComments(t *testing.T) {
	toks := collect(t, `a<!-- secret <div> -->b`)
	if len(toks) != 3 {
		t.Fatalf("toks = %v", toks)
	}
	if toks[1].Type != CommentToken || toks[1].Data != " secret <div> " {
		t.Errorf("comment = %+v", toks[1])
	}
}

func TestTokenizeDoctype(t *testing.T) {
	toks := collect(t, `<!DOCTYPE html><p>x</p>`)
	if toks[0].Type != DoctypeToken || toks[0].Data != "!DOCTYPE html" {
		t.Errorf("doctype = %+v", toks[0])
	}
}

func TestTokenizeScriptRawText(t *testing.T) {
	// Script bodies are raw text: tags inside are not markup.
	toks := collect(t, `<script>if (a < b) { d = "<div>"; }</script>`)
	if len(toks) != 3 {
		t.Fatalf("toks = %v", toks)
	}
	if toks[1].Type != TextToken || !strings.Contains(toks[1].Data, `"<div>"`) {
		t.Errorf("script body = %+v", toks[1])
	}
	if toks[2].Type != EndTagToken || toks[2].Tag != "script" {
		t.Errorf("closer = %+v", toks[2])
	}
}

func TestTokenizeUnterminatedScript(t *testing.T) {
	toks := collect(t, `<script>var x = 1;`)
	if len(toks) != 2 || toks[1].Type != TextToken || toks[1].Data != "var x = 1;" {
		t.Errorf("toks = %v", toks)
	}
}

func TestTokenizeLiteralLessThan(t *testing.T) {
	toks := collect(t, `3 < 5 and <b>bold</b>`)
	if len(toks) != 4 {
		t.Fatalf("toks = %v", toks)
	}
	if toks[0].Type != TextToken || toks[0].Data != "3 < 5 and " {
		t.Errorf("tok0 = %+v", toks[0])
	}
}

func TestTokenizeEntities(t *testing.T) {
	toks := collect(t, `&lt;script&gt; &amp; &#65;&#x42; &bogus; &amp`)
	if len(toks) != 1 {
		t.Fatalf("toks = %v", toks)
	}
	want := `<script> & AB &bogus; &amp`
	if toks[0].Data != want {
		t.Errorf("text = %q, want %q", toks[0].Data, want)
	}
}

func TestTokenizeAttrEntity(t *testing.T) {
	toks := collect(t, `<a href="/q?a=1&amp;b=2">x</a>`)
	if v, _ := toks[0].Attr("href"); v != "/q?a=1&b=2" {
		t.Errorf("href = %q", v)
	}
}

func TestTokenizeGarbageRobustness(t *testing.T) {
	// Torn markup must not loop or panic.
	inputs := []string{
		"<", "<>", "< >", "</", "</>", "<!", "<!-", "<!--", "<a", `<a href="`,
		"<a href='x", "<div ring=", "<div =x>", "<<<>>>", "</ div>", "<a/b>",
		"<p", "text<", "<a b=c d>", strings.Repeat("<div>", 50),
	}
	for _, in := range inputs {
		collect(t, in) // must terminate without panic
	}
}

// Property: the tokenizer terminates and never panics on arbitrary
// input, and text token data never contains undecoded markup-start
// for well-formed escapes.
func TestTokenizerNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		z := NewTokenizer(s)
		for i := 0; i < len(s)+10; i++ {
			if z.Next().Type == EOFToken {
				return true
			}
		}
		return false // did not terminate fast enough
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestUnescape(t *testing.T) {
	tests := []struct{ in, want string }{
		{"plain", "plain"},
		{"&amp;", "&"},
		{"&lt;&gt;", "<>"},
		{"&quot;&apos;", `"'`},
		{"&#65;", "A"},
		{"&#x41;", "A"},
		{"&#X41;", "A"},
		{"&nbsp;", " "},
		{"&unknown;", "&unknown;"},
		{"&#;", "&#;"},
		{"&#x;", "&#x;"},
		{"&#0;", "&#0;"},
		{"&#1114112;", "&#1114112;"}, // beyond Unicode
		{"a&b", "a&b"},
		{"&amp", "&amp"}, // no semicolon
	}
	for _, tt := range tests {
		if got := Unescape(tt.in); got != tt.want {
			t.Errorf("Unescape(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		return Unescape(EscapeText(s)) == s && Unescape(EscapeAttr(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendEscapeTextMatchesEscapeText(t *testing.T) {
	alphabet := []string{"a", " ", "&", "<", ">", `"`, "'", "&amp;", "é", "\xff"}
	f := func(seed []uint8, prefix, raw string) bool {
		var b strings.Builder
		for _, c := range seed {
			b.WriteString(alphabet[int(c)%len(alphabet)])
		}
		s := b.String() + raw
		return string(AppendEscapeText([]byte(prefix), s)) == prefix+EscapeText(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEscapeTextNeutralizesMarkup(t *testing.T) {
	s := EscapeText(`<script>alert("xss")</script>`)
	if strings.ContainsAny(s, "<>") {
		t.Errorf("escaped text still contains markup: %q", s)
	}
}

// Property: any user-supplied string, written through AppendEscapeText
// (what the hardened apps' sanitizers write through) inside a host div,
// parses back to text equal to the input — no markup injection through
// the escaping path.
func TestEscapingPreventsInjection(t *testing.T) {
	f := func(s string) bool {
		// The parser normalizes CR and control chars; restrict to the
		// printable set for the equality check while still covering
		// every markup-significant character.
		clean := strings.Map(func(r rune) rune {
			if r < 32 || r == 127 {
				return -1
			}
			return r
		}, s)
		out := append(AppendEscapeText([]byte("<div id=host>"), clean), "</div>"...)
		doc := Parse(string(out), LegacyOptions())
		// Exactly one element (the host div) may exist.
		elems := 0
		Walk(doc, func(n *Node) bool {
			if n.Type == ElementNode {
				elems++
			}
			return true
		})
		return elems == 1 && InnerText(doc) == clean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIsVoid(t *testing.T) {
	for _, tag := range []string{"img", "br", "input", "meta", "link", "hr"} {
		if !IsVoid(tag) {
			t.Errorf("IsVoid(%q) = false", tag)
		}
	}
	for _, tag := range []string{"div", "p", "script", "a", "form"} {
		if IsVoid(tag) {
			t.Errorf("IsVoid(%q) = true", tag)
		}
	}
}

func TestNextTokensStayValid(t *testing.T) {
	// The parser reads each tag's attributes in place from a scratch
	// buffer the next tag overwrites; Next must hand out copies.
	src := `<div ring=1 r=1 w=1 x=1 nonce=7 id=a><p class=x title="t">y</p>` +
		`<img src=a.png alt=b/><script type=js>var s = "</p>";</script>` +
		`</div nonce=7><a href=/z rel=next>z</a><DIV ID=Up DATA-X=1>`
	z := NewTokenizer(src)
	var toks, copies []Token
	for {
		tok := z.Next()
		if tok.Type == EOFToken {
			break
		}
		toks = append(toks, tok)
		c := tok
		c.Attrs = append([]Attr(nil), tok.Attrs...)
		copies = append(copies, c)
	}
	if len(toks) < 10 {
		t.Fatalf("only %d tokens", len(toks))
	}
	for i := range toks {
		if !reflect.DeepEqual(toks[i], copies[i]) {
			t.Errorf("token %d changed after tokenizing to EOF: %+v, was %+v", i, toks[i], copies[i])
		}
	}
}
