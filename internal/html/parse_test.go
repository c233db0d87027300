package html

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/core"
	"repro/internal/raceflag"
)

// escudoOpts are standard ESCUDO parse options with the paper's N=3.
func escudoOpts() Options {
	return Options{Escudo: true, MaxRing: 3, BaseRing: 0, BaseACL: core.PermissiveACL(3)}
}

// findTag returns the first element with the given tag.
func findTag(n *Node, tag string) *Node {
	var found *Node
	Walk(n, func(m *Node) bool {
		if m.Type == ElementNode && m.Tag == tag {
			found = m
			return false
		}
		return true
	})
	return found
}

// findByID returns the first element whose id attribute matches.
func findByID(n *Node, id string) *Node {
	var found *Node
	Walk(n, func(m *Node) bool {
		if v, ok := m.Attr("id"); ok && v == id {
			found = m
			return false
		}
		return true
	})
	return found
}

// A node's type, labels and AC-tag flag share one word, which keeps
// a parsed node, the unit of the per-document node block, at 104
// bytes.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > 104 {
		t.Errorf("Node is %d bytes, want <= 104", got)
	}
}

func TestParseTree(t *testing.T) {
	doc := Parse(`<html><body><p id=a>one</p><p id=b>two</p></body></html>`, LegacyOptions())
	body := findTag(doc, "body")
	if body == nil || len(body.Kids) != 2 {
		t.Fatalf("body = %+v", body)
	}
	if got := InnerText(doc); got != "onetwo" {
		t.Errorf("InnerText = %q", got)
	}
	a := findByID(doc, "a")
	if a == nil || a.Parent != body {
		t.Error("parent links broken")
	}
}

func TestInnerTextSingleTextChildIsNotCopied(t *testing.T) {
	doc := Parse(`<p id=a>one<b>two</b></p><script>var v = 1;</script>`, LegacyOptions())
	script := findTag(doc, "script")
	if got := InnerText(script); got != "var v = 1;" {
		t.Errorf("script InnerText = %q", got)
	}
	if got := InnerText(findByID(doc, "a")); got != "onetwo" {
		t.Errorf("p InnerText = %q", got)
	}
	if raceflag.Enabled {
		return // allocation counts are not meaningful under the race detector
	}
	if n := testing.AllocsPerRun(10, func() { InnerText(script) }); n != 0 {
		t.Errorf("InnerText of a script body allocates %.0f times, want 0", n)
	}
}

func TestParseFigure2Labels(t *testing.T) {
	// Figure 2: nested AC tags with rings 2 and 3.
	src := `<div ring=2 r=1 w=0 x=2 id=outer>out<div ring=3 r=2 w=0 x=2 id=inner>in</div></div>`
	doc := Parse(src, escudoOpts())
	outer := findByID(doc, "outer")
	inner := findByID(doc, "inner")
	if outer == nil || inner == nil {
		t.Fatal("AC divs not found")
	}
	if !outer.IsACTag || outer.Ring != 2 || outer.ACL != (core.ACL{Read: 1, Write: 0, Use: 2}) {
		t.Errorf("outer = ring %d acl %v ac %v", outer.Ring, outer.ACL, outer.IsACTag)
	}
	if !inner.IsACTag || inner.Ring != 3 || inner.ACL != (core.ACL{Read: 2, Write: 0, Use: 2}) {
		t.Errorf("inner = ring %d acl %v", inner.Ring, inner.ACL)
	}
	// Text inherits its scope's label.
	if outer.Kids[0].Type != TextNode || outer.Kids[0].Ring != 2 {
		t.Errorf("outer text ring = %d, want 2", outer.Kids[0].Ring)
	}
	if inner.Kids[0].Ring != 3 {
		t.Errorf("inner text ring = %d, want 3", inner.Kids[0].Ring)
	}
}

func TestParseConfigAttrsStripped(t *testing.T) {
	// §5: configuration is not exposed through the DOM.
	doc := Parse(`<div ring=2 r=1 w=0 x=2 nonce=99 class=box>x</div>`, escudoOpts())
	div := findTag(doc, "div")
	for _, name := range []string{"ring", "r", "w", "x", "nonce"} {
		if _, ok := div.Attr(name); ok {
			t.Errorf("config attr %q visible in DOM", name)
		}
	}
	if v, ok := div.Attr("class"); !ok || v != "box" {
		t.Error("ordinary attributes must survive")
	}
	if strings.Contains(Render(doc), "ring=") {
		t.Error("render leaks configuration")
	}
}

func TestParseLegacyKeepsACAttrs(t *testing.T) {
	// §6.3: non-ESCUDO browsers "simply ignore these attributes" —
	// they remain ordinary markup.
	doc := Parse(`<div ring=2 r=1>x</div>`, LegacyOptions())
	div := findTag(doc, "div")
	if v, ok := div.Attr("ring"); !ok || v != "2" {
		t.Error("legacy parse must keep ring attribute as plain markup")
	}
	if div.IsACTag {
		t.Error("legacy parse must not mark AC tags")
	}
	if div.Ring != 0 {
		t.Errorf("legacy labels must be ring 0, got %d", div.Ring)
	}
}

func TestParseScopingRule(t *testing.T) {
	// §5: "when a div tag is labeled with ring="n", then the
	// privileges of the principals within the scope of this div tag,
	// including all sub scopes, are bounded by ring level n ...
	// strictly enforced even if the ring specification of the sub
	// scope violates this rule."
	src := `<div ring=2 id=outer><div ring=0 id=evil>x</div><div ring=3 id=ok>y</div></div>`
	doc := Parse(src, escudoOpts())
	if evil := findByID(doc, "evil"); evil.Ring != 2 {
		t.Errorf("inner ring=0 clamped to %d, want 2", evil.Ring)
	}
	if ok := findByID(doc, "ok"); ok.Ring != 3 {
		t.Errorf("inner ring=3 = %d, want 3", ok.Ring)
	}
}

// A ring label out of a 16-bit ring's range is malformed: the AC tag
// in a ring-3 page takes the fail-safe ring 3, not the ring the
// number would wrap to (65536 and -65536 to the kernel ring).
func TestParseWrappingRingFailsSafe(t *testing.T) {
	for _, ring := range []string{"65536", "-65536", "32768"} {
		doc := Parse(`<div ring=`+ring+` id=d>x</div>`, escudoOpts())
		if d := findByID(doc, "d"); d == nil || !d.IsACTag || d.Ring != 3 {
			t.Errorf("<div ring=%s> = %+v, want an AC tag at fail-safe ring 3", ring, d)
		}
	}
}

func TestParseNonceDefense(t *testing.T) {
	// A node-splitting attack: user content inside the ring-3 AC tag
	// tries to close it and open a ring-0 scope (§5 case 2).
	src := `<div ring=1 id=app>app</div>` +
		`<div ring=3 r=2 w=2 x=2 nonce=777 id=user>` +
		`comment</div><div ring=0 id=forged>evil</div nonce=777>` + // forged closer lacks nonce
		`</div nonce=777>`
	doc := Parse(src, escudoOpts())
	forged := findByID(doc, "forged")
	if forged == nil {
		t.Fatal("forged div missing entirely")
	}
	// The forged </div> (no nonce) was ignored, so the forged div is
	// still inside the user scope and clamped to ring 3.
	if forged.Ring != 3 {
		t.Errorf("forged div ring = %d, want clamped 3", forged.Ring)
	}
	user := findByID(doc, "user")
	if forged.Parent != user {
		t.Error("forged div must remain inside the AC scope")
	}
}

func TestParseNonceMatchCloses(t *testing.T) {
	src := `<div ring=3 nonce=42 id=a>inside</div nonce=42><div ring=1 id=after>after</div>`
	doc := Parse(src, escudoOpts())
	after := findByID(doc, "after")
	if after.Ring != 1 {
		t.Errorf("after ring = %d, want 1 (scope closed by matching nonce)", after.Ring)
	}
	if after.Parent != doc {
		t.Error("after must be a sibling, not a child, of the AC div")
	}
}

func TestParseNonceMismatchCounted(t *testing.T) {
	p := newParser(escudoOpts(), 0)
	z := NewTokenizer(`<div ring=3 nonce=7>x</div nonce=8></div>`)
	for {
		tok := z.Next()
		if tok.Type == EOFToken {
			break
		}
		p.feed(tok)
	}
	p.Finish()
	if got := p.IgnoredClosers(); got != 2 {
		t.Errorf("IgnoredClosers = %d, want 2", got)
	}
}

func TestParseNoncelessACTagAcceptsPlainCloser(t *testing.T) {
	// Applications may opt out of randomization; a nonce-free AC tag
	// closes normally.
	src := `<div ring=2 id=a>x</div><p id=sib>y</p>`
	doc := Parse(src, escudoOpts())
	if sib := findByID(doc, "sib"); sib.Parent != doc || sib.Ring != 0 {
		t.Errorf("sibling after nonce-free AC tag: parent=%v ring=%d", sib.Parent == doc, sib.Ring)
	}
}

func TestParsePlainDivInsideACScope(t *testing.T) {
	// A plain (non-AC) div inside a protected scope opens and closes
	// freely; only the AC boundary demands the nonce.
	src := `<div ring=2 nonce=5 id=ac><div id=plain>x</div><span id=s>y</span></div nonce=5>`
	doc := Parse(src, escudoOpts())
	plain := findByID(doc, "plain")
	s := findByID(doc, "s")
	ac := findByID(doc, "ac")
	if plain.Parent != ac || s.Parent != ac {
		t.Error("plain div must close without a nonce")
	}
	if plain.Ring != 2 || s.Ring != 2 {
		t.Errorf("children rings = %d,%d, want 2,2", plain.Ring, s.Ring)
	}
}

func TestParseVoidAndSelfClosing(t *testing.T) {
	doc := Parse(`<p><img src=x.png><br>text</p>`, LegacyOptions())
	p := findTag(doc, "p")
	if len(p.Kids) != 3 {
		t.Fatalf("p kids = %d, want 3", len(p.Kids))
	}
	img := p.Kids[0]
	if img.Tag != "img" || len(img.Kids) != 0 {
		t.Error("void img must have no children")
	}
}

func TestParseErrorRecovery(t *testing.T) {
	// Unclosed and mismatched tags must still produce a tree.
	doc := Parse(`<div><p>one<p>two</div></b><i>z`, LegacyOptions())
	if doc == nil || CountNodes(doc) < 4 {
		t.Errorf("recovered tree too small: %d nodes", CountNodes(doc))
	}
	// End tag closes intermediate elements.
	div := findTag(doc, "div")
	if div == nil {
		t.Fatal("div missing")
	}
}

func TestParseFragmentScoping(t *testing.T) {
	// Fragments (innerHTML) inherit the enclosing ring; declared
	// rings more privileged than the parent are clamped (§5).
	kids := ParseFragment(`<div ring=0 id=x>boom</div><b id=y>t</b>`,
		Options{Escudo: true, MaxRing: 3}, 3, core.UniformACL(3))
	if len(kids) != 2 {
		t.Fatalf("kids = %d", len(kids))
	}
	if kids[0].Ring != 3 {
		t.Errorf("fragment AC div ring = %d, want clamped 3", kids[0].Ring)
	}
	if kids[1].Ring != 3 {
		t.Errorf("fragment element ring = %d, want inherited 3", kids[1].Ring)
	}
}

func TestParseScriptBodyIntact(t *testing.T) {
	src := `<script>document.write("<div ring=0>");</script>`
	doc := Parse(src, escudoOpts())
	script := findTag(doc, "script")
	if script == nil || len(script.Kids) != 1 {
		t.Fatal("script body missing")
	}
	if !strings.Contains(script.Kids[0].Data, `<div ring=0>`) {
		t.Errorf("script body = %q", script.Kids[0].Data)
	}
	// The markup inside the script must NOT have become an element.
	count := 0
	Walk(doc, func(n *Node) bool {
		if n.Type == ElementNode && n.Tag == "div" {
			count++
		}
		return true
	})
	if count != 0 {
		t.Error("markup inside script body leaked into the tree")
	}
}

func TestRenderRoundTrip(t *testing.T) {
	src := `<html><body><p class="a">x &amp; y</p><img src="i.png"><!--c--></body></html>`
	doc := Parse(src, LegacyOptions())
	out := Render(doc)
	doc2 := Parse(out, LegacyOptions())
	if Render(doc2) != out {
		t.Errorf("render not stable:\n1: %s\n2: %s", out, Render(doc2))
	}
}

// Property: parsing never panics and always terminates on arbitrary
// input in both modes.
func TestParseNeverPanics(t *testing.T) {
	f := func(s string, escudo bool) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		opts := LegacyOptions()
		if escudo {
			opts = escudoOpts()
		}
		Parse(s, opts)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: under ESCUDO parsing, the scoping rule holds everywhere —
// no node is more privileged than its parent.
func TestParseScopingInvariant(t *testing.T) {
	pieces := []string{
		`<div ring=0>`, `<div ring=1 nonce=3>`, `<div ring=2 r=1 w=1 x=1>`,
		`<div ring=3>`, `</div>`, `</div nonce=3>`, `</div nonce=999>`,
		`<p>`, `</p>`, `text`, `<img>`, `<div>`, `<b>`,
	}
	f := func(seed []uint8) bool {
		var b strings.Builder
		for _, s := range seed {
			b.WriteString(pieces[int(s)%len(pieces)])
		}
		doc := Parse(b.String(), escudoOpts())
		okAll := true
		Walk(doc, func(n *Node) bool {
			if n.Parent != nil && n.Ring < n.Parent.Ring {
				okAll = false
				return false
			}
			return true
		})
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: content injected inside a nonce-protected AC scope can
// never escape it — whatever the injection, every node it creates
// stays at ring ≥ the scope's ring.
func TestNonceForgingNeverEscapes(t *testing.T) {
	fragments := []string{
		`</div>`, `</div nonce=1>`, `</div nonce=2>`, `</div nonce=99999>`,
		`<div ring=0>`, `<div ring=0 nonce=5>`, `</DIV>`, `</div x>`,
		`<script>x</script>`, `</div nonce="7">`,
	}
	src := nonceTrapPage
	f := func(seed []uint8) bool {
		var inj strings.Builder
		for _, s := range seed {
			inj.WriteString(fragments[int(s)%len(fragments)])
		}
		inj.WriteString(`<b id=mark>m</b>`)
		page := strings.Replace(src, "INJECT", inj.String(), 1)
		doc := Parse(page, escudoOpts())
		mark := findByID(doc, "mark")
		if mark == nil {
			return true // the injection swallowed the marker; fine
		}
		return mark.Ring == 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// nonceTrapPage hosts untrusted content in a ring-3 scope protected by
// a nonce the attacker (by construction) does not know: the paper's
// threat model, since nonces are freshly drawn per response.
const nonceTrapPage = `<div ring=1 id=app nonce=314159>app` +
	`<div ring=3 r=2 w=2 x=2 nonce=271828>INJECT</div nonce=271828>` +
	`</div nonce=314159>`

// allocBytes returns the fewest heap bytes f allocated over three
// runs; the minimum sheds what a background goroutine allocates.
func allocBytes(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestParseStorageTracksNodes pins the cap on the per-document blocks:
// a '<' that never becomes a node (inside raw text or a comment) buys
// no storage. Each input below is a tree of at most three nodes behind
// 131,072 '<'s; an uncapped block would cost 112 bytes per '<', about
// 15 MB each, where one capped block costs about 126 KB.
func TestParseStorageTracksNodes(t *testing.T) {
	const maxBytes = 256 << 10
	dense := strings.Repeat("<", 1<<17)
	pages := map[string]string{
		"script":   "<script>" + dense + "</script>",
		"textarea": "<textarea>" + dense + "</textarea>",
		"comment":  "<!--" + dense + "-->",
	}
	for name, page := range pages {
		for mode, opts := range map[string]Options{"escudo": escudoOpts(), "legacy": LegacyOptions()} {
			if n := CountNodes(Parse(page, opts)); n > 3 {
				t.Fatalf("%s (%s): %d nodes, want at most 3", name, mode, n)
			}
			if b := allocBytes(func() { Parse(page, opts) }); b > maxBytes {
				t.Errorf("Parse of the %s page (%s) allocates %d bytes, want <= %d", name, mode, b, maxBytes)
			}
			if b := allocBytes(func() { ParseFragment(page, opts, 2, core.UniformACL(2)) }); b > maxBytes {
				t.Errorf("ParseFragment of the %s page (%s) allocates %d bytes, want <= %d", name, mode, b, maxBytes)
			}
		}
	}
}

func TestCountNodes(t *testing.T) {
	doc := Parse(`<p>a<b>c</b></p>`, LegacyOptions())
	// document + p + text + b + text = 5
	if got := CountNodes(doc); got != 5 {
		t.Errorf("CountNodes = %d, want 5", got)
	}
}

func TestRenderAttributes(t *testing.T) {
	doc := Parse(`<a href="/x?a=1&amp;b=2" title="say &quot;hi&quot;">t</a>`, LegacyOptions())
	out := Render(doc)
	doc2 := Parse(out, LegacyOptions())
	a := findTag(doc2, "a")
	if v, _ := a.Attr("href"); v != "/x?a=1&b=2" {
		t.Errorf("href after round trip = %q", v)
	}
	if v, _ := a.Attr("title"); v != `say "hi"` {
		t.Errorf("title after round trip = %q", v)
	}
}

func TestDeepNesting(t *testing.T) {
	var b strings.Builder
	const depth = 200
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, `<div ring=%d>`, i%4)
	}
	b.WriteString("x")
	for i := 0; i < depth; i++ {
		b.WriteString(`</div>`)
	}
	doc := Parse(b.String(), escudoOpts())
	// The deepest text must be clamped to the max ring seen on its
	// ancestor path (monotone non-decreasing).
	var deepest *Node
	Walk(doc, func(n *Node) bool {
		if n.Type == TextNode {
			deepest = n
		}
		return true
	})
	if deepest == nil || deepest.Ring != 3 {
		t.Errorf("deepest ring = %v, want 3", deepest)
	}
}

// An attribute value survives parse → Render → parse byte for byte:
// the serializer writes the EscapeAttr escape between double quotes
// and nothing else, so no round trip rewrites a backslash, a control
// byte or invalid UTF-8. Where a value needs no Go quoting, the
// rendering is the one the %q serializer wrote.
func TestRenderKeepsAttributeValues(t *testing.T) {
	for _, v := range []string{
		`C:\dir`, "a\tb", "a\nb", "a\x01b", `say "hi"`, `&<>`, `it's`, "café", "\xff",
	} {
		doc := Parse(`<p title="`+EscapeAttr(v)+`">t</p>`, LegacyOptions())
		if got, _ := findTag(doc, "p").Attr("title"); got != v {
			t.Fatalf("parse of %q read %q", v, got)
		}
		out := Render(doc)
		if got, _ := findTag(Parse(out, LegacyOptions()), "p").Attr("title"); got != v {
			t.Errorf("title %q reads %q after a round trip through %s", v, got, out)
		}
		esc := EscapeAttr(v)
		if q := strconv.Quote(esc); q == `"`+esc+`"` {
			if want := fmt.Sprintf(`<p title=%s>t</p>`, q); out != want {
				t.Errorf("title %q renders %s, want %s", v, out, want)
			}
		}
	}
}
