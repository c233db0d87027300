package scenarios

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps/phpbb"
	"repro/internal/apps/phpcal"
	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/html"
	"repro/internal/layout"
	"repro/internal/nonce"
	"repro/internal/origin"
	"repro/internal/template"
	"repro/internal/web"
)

// The golden pins of the page-load path: every parse tree and layout
// the Figure 4 pages, the case-study apps and an edge-case page
// produce, and the rendering of every decision the Figure 4 pages and
// the §6.4 corpus audit, dumped to text and compared byte for byte with
// the gzipped dumps under testdata/ (read them with zcat). The tests
// only read the dumps: a change meant to alter this output regenerates
// them with the dump functions below and says so in CHANGES.md.

// escudoOpts is the labelling ParseRender uses for ESCUDO pages.
func escudoOpts() html.Options {
	return html.Options{Escudo: true, MaxRing: 3, BaseRing: 3, BaseACL: core.ACL{}}
}

// browserOpts derives the labelling an ESCUDO browser applies to a
// response, as browser.Navigate does.
func browserOpts(resp *web.Response) html.Options {
	cfg, _ := core.ParsePageConfig(resp.Header.Values(core.HeaderMaxRing), resp.Header.Values(core.HeaderCookie), resp.Header.Values(core.HeaderAPI))
	if cfg.Configured() {
		return html.Options{Escudo: true, MaxRing: cfg.MaxRing, BaseRing: cfg.MaxRing, BaseACL: core.ACL{}}
	}
	return html.Options{Escudo: true, BaseACL: core.UniformACL(0)}
}

// dumpTree writes one line per node in document order: its preorder
// number, its parent's number (from the Parent link, "-" for none),
// type, tag, labels, AC-tag flag, attributes and data.
func dumpTree(b *strings.Builder, roots ...*html.Node) {
	ids := map[*html.Node]int{}
	var walk func(n *html.Node, depth int)
	walk = func(n *html.Node, depth int) {
		id := len(ids)
		ids[n] = id
		parent := "-"
		if n.Parent != nil {
			parent = "?" // linked outside the dumped trees, or not yet visited
			if p, ok := ids[n.Parent]; ok {
				parent = fmt.Sprint(p)
			}
		}
		fmt.Fprintf(b, "%s#%d ^%s ", strings.Repeat("  ", depth), id, parent)
		switch n.Type {
		case html.DocumentNode:
			b.WriteString("document")
		case html.ElementNode:
			fmt.Fprintf(b, "<%s>", n.Tag)
		case html.TextNode:
			b.WriteString("text")
		case html.CommentNode:
			b.WriteString("comment")
		case html.DoctypeNode:
			b.WriteString("doctype")
		default:
			fmt.Fprintf(b, "type%d", n.Type)
		}
		fmt.Fprintf(b, " ring=%d acl=%d/%d/%d", n.Ring, n.ACL.Read, n.ACL.Write, n.ACL.Use)
		if n.IsACTag {
			b.WriteString(" ac")
		}
		for _, a := range n.Attrs {
			fmt.Fprintf(b, " %s=%q", a.Name, a.Value)
		}
		if n.Data != "" {
			fmt.Fprintf(b, " %q", n.Data)
		}
		b.WriteByte('\n')
		for _, k := range n.Kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// dumpLayout writes a layout's counters, display list and painted text.
func dumpLayout(b *strings.Builder, r *layout.Result, width int) {
	fmt.Fprintf(b, "words=%d lines=%d height=%d boxes=%d\n", r.Words, r.Lines, r.Height, r.Len())
	for x := range r.Boxes() {
		fmt.Fprintf(b, "%q %d,%d %dx%d %q\n", x.Tag, x.X, x.Y, x.W, x.H, x.Text)
	}
	b.WriteString("-- render --\n")
	b.WriteString(layout.RenderText(r, width))
	b.WriteByte('\n')
}

// edgePage exercises the tokenizer and parser corners the fast paths
// must keep: duplicate configuration attributes (the AC config takes
// the last occurrence, a closer's nonce the first), upper-case names,
// entities in values and text, '<' inside raw text, torn and
// unterminated markup, comments, doctypes and void elements.
const edgePage = `<!DOCTYPE html><?xml version="1.0"?><HTML><Head><TITLE>a < b &amp; c</TITLE>` +
	`<script>if (a < b && c </d) { x = "</scrip"; }</script><style>p{}</STYLE></HEAD><Body class=Top>` +
	`<DIV RING=2 R=2 W=1 X=2 Id=Upper NONCE=77>upper</DIV NONCE=77>` +
	`<div ring=1 ring=2 r=1 nonce=5 nonce=6 id=dup>last ring and nonce win` +
	`<p id=inner>in</p></div nonce=5 nonce=6><p id=still-inside>first closer nonce is 5</p>` +
	`</div nonce=6 nonce=5><p id=after-dup>closed</p>` +
	`<div ring=3 nonce=9 id=sealed>sealed<div ring=0 id=mint>no minting</div></div>forged</div nonce=9>` +
	`<a href="/x?a=1&amp;b=2&#x41;&#65;&bogus;" title='it&#39;s "q"' data-v=unq&lt;uoted>link</a>` +
	`<img src=x.png/><br/><input value="v" disabled><hr>` +
	`<textarea><p>not a tag</p></textarea><title>t</title>` +
	`<p>&copy; &mdash; &#x1F600; &#0; &#xZZ; a<b c</ div> <3 < x</p>` +
	`<!-- a comment <p>inside</p> --><!--unterminated? no-->` +
	`<DIV ring=bogus r=-1 w=9 x= id=failsafe>failsafe</div>` +
	`<p class="open`

// edgeFragment is written into a ring-2 host: the scoping rule must
// clamp every declared ring to the bound.
const edgeFragment = `<div ring=0 id=f0>boom</div><div ring=3 r=1 nonce=4 id=f3>ok<div ring=1>deep</div></div nonce=4>tail<p>`

// phpbbPages serves the unhardened forum (the §6.4 setting) with a
// topic, a reply carrying injected markup, and a logged-in session.
func phpbbPages(t *testing.T) map[string]*web.Response {
	o := origin.MustParse("http://forum.example")
	a := phpbb.New(phpbb.Config{Origin: o, Escudo: true, Nonces: nonce.NewSeqSource(1)})
	a.AddUser("alice", "pw")
	id := a.SeedTopic("alice", "hello <b>world</b>", "first post &amp; more")
	a.SeedReply(id, "mallory", `</div><div ring=1 id=evil>x<script>document.cookie</script>`)
	sid, _, err := a.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) *web.Response {
		req := web.NewRequest("GET", o.URL(path))
		req.Header.Set("Cookie", phpbb.CookieSID+"="+sid)
		return a.Serve(req)
	}
	return map[string]*web.Response{"phpbb-index": get("/"), "phpbb-viewtopic": get(fmt.Sprintf("/viewtopic?t=%d", id))}
}

// phpcalPage serves the unhardened calendar's month view to a
// logged-in user, with an event carrying injected markup.
func phpcalPage(t *testing.T) *web.Response {
	o := origin.MustParse("http://cal.example")
	a := phpcal.New(phpcal.Config{Origin: o, Escudo: true, Nonces: nonce.NewSeqSource(1)})
	a.AddUser("bob", "pw")
	a.SeedEvent("bob", 3, "standup")
	a.SeedEvent("eve", 3, `<img src=x onerror="steal()">party`)
	sid, err := a.Login("bob", "pw")
	if err != nil {
		t.Fatal(err)
	}
	req := web.NewRequest("GET", o.URL("/"))
	req.Header.Set("Cookie", phpcal.CookieSession+"="+sid)
	return a.Serve(req)
}

// portalPage is the §7 mashup portal host page of perfbench's mashup
// workload.
func portalPage() *web.Response {
	bld := template.NewACBuilder(nonce.NewSeqSource(1 << 20))
	var b strings.Builder
	b.WriteString("<html><head><title>portal</title></head><body>")
	b.WriteString(bld.Wrap(1, core.UniformACL(1), "id=chrome", "<h1 id=title>My Portal</h1>"))
	var slots strings.Builder
	for i := 0; i < 8; i++ {
		slots.WriteString(bld.Wrap(2, core.UniformACL(2), fmt.Sprintf("id=slot%d", i),
			fmt.Sprintf("<p>widget slot %d: forecasts markets mail feeds</p>", i)))
	}
	b.WriteString(bld.Wrap(1, core.UniformACL(2), "id=slots", slots.String()))
	b.WriteString(`<iframe src="http://widget.example/widget"></iframe>`)
	b.WriteString(bld.Wrap(1, core.UniformACL(1), "id=refresh",
		`<script id=reader>var snapshot = document.getElementById("slots").innerHTML;</script>`))
	b.WriteString("</body></html>")
	resp := web.HTML(b.String())
	resp.Header.Set(core.HeaderMaxRing, core.DefaultMaxRing.String())
	return resp
}

func TestGoldenTrees(t *testing.T) {
	var b strings.Builder
	section := func(name string, roots ...*html.Node) {
		fmt.Fprintf(&b, "== %s ==\n", name)
		dumpTree(&b, roots...)
	}
	for _, sc := range All() {
		section(sc.Name+" escudo", html.Parse(sc.Markup, escudoOpts()))
		section(sc.Name+" legacy", html.Parse(sc.Markup, html.LegacyOptions()))
	}
	pages := phpbbPages(t)
	pages["phpcal-month"] = phpcalPage(t)
	pages["portal"] = portalPage()
	for _, name := range []string{"phpbb-index", "phpbb-viewtopic", "phpcal-month", "portal"} {
		resp := pages[name]
		if resp.Status != 200 {
			t.Fatalf("%s: status %d", name, resp.Status)
		}
		section(name+" escudo", html.Parse(resp.Body, browserOpts(resp)))
		section(name+" legacy", html.Parse(resp.Body, html.LegacyOptions()))
	}
	section("edge escudo", html.Parse(edgePage, escudoOpts()))
	section("edge legacy", html.Parse(edgePage, html.LegacyOptions()))
	section("edge fragment ring-2", html.ParseFragment(edgeFragment, html.Options{Escudo: true, MaxRing: 3}, 2, core.UniformACL(2))...)
	section("edge fragment legacy", html.ParseFragment(edgeFragment, html.LegacyOptions(), 0, core.UniformACL(0))...)
	checkGolden(t, "trees.golden.gz", b.String())
}

// unicodeText mixes the spaces strings.Fields splits on (ASCII, U+0085,
// U+00A0, U+2028, U+3000) with ones it does not (U+200B, invalid
// UTF-8), and a multi-byte word longer than the viewport.
var unicodeText = "<p>a\u0085b c\u00a0d\te\vf\rg\fh\u3000i\u200bj\u2028\xffk\xc3 l  " +
	strings.Repeat("\u00e9", 30) + " m\u3000</p><pre>  x  y  </pre>"

func TestGoldenLayout(t *testing.T) {
	var b strings.Builder
	for _, sc := range All() {
		doc := html.Parse(sc.Markup, escudoOpts())
		fmt.Fprintf(&b, "== %s ==\n", sc.Name)
		dumpLayout(&b, layout.Layout(doc, layout.DefaultViewportWidth), layout.DefaultViewportWidth)
		// The browser hides CSS display:none and denied regions; hide
		// every ring-3 AC tag to pin the hidden path.
		hidden := map[*html.Node]bool{}
		html.Walk(doc, func(n *html.Node) bool {
			if n.IsACTag && n.Ring == 3 {
				hidden[n] = true
			}
			return true
		})
		fmt.Fprintf(&b, "== %s hidden ring 3 ==\n", sc.Name)
		dumpLayout(&b, layout.LayoutHidden(doc, 60, hidden), 60)
	}
	for _, w := range []int{80, 20} {
		fmt.Fprintf(&b, "== unicode width %d ==\n", w)
		dumpLayout(&b, layout.Layout(html.Parse(unicodeText, html.LegacyOptions()), w), w)
	}
	checkGolden(t, "layout.golden.gz", b.String())
}

// dumpDecisions writes the rendering of every decision in the log, in
// audit order, under a section header.
func dumpDecisions(b *strings.Builder, name string, log *core.AuditLog) {
	fmt.Fprintf(b, "== %s ==\n", name)
	for _, d := range log.All() {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
}

// decisionsDump navigates a browser through the index and the eight
// Figure 4 pages, then runs every §6.4 attack in a fresh environment,
// each in both modes, and dumps what the audit log renders.
func decisionsDump(t *testing.T) string {
	var b strings.Builder
	net := web.NewNetwork()
	bench := origin.MustParse("http://bench.example")
	net.Register(bench, Handler())
	modes := []browser.Mode{browser.ModeEscudo, browser.ModeSOP}
	for _, mode := range modes {
		br := browser.New(net, browser.Options{Mode: mode})
		for _, path := range append([]string{"/"}, Paths()...) {
			if _, err := br.Navigate(bench.URL(path)); err != nil {
				t.Fatalf("%s %s: %v", path, mode, err)
			}
			dumpDecisions(&b, path+" "+mode.String(), br.Audit)
			br.Audit.Reset()
		}
	}
	for _, mode := range modes {
		for _, atk := range attack.Corpus() {
			env, err := attack.NewEnv(mode)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := atk.Run(env); err != nil {
				t.Fatalf("%s %s: %v", atk.Name, mode, err)
			}
			dumpDecisions(&b, atk.Name+" "+mode.String(), env.Victim.Audit)
			env.Close()
		}
	}
	return b.String()
}

func TestGoldenDecisions(t *testing.T) {
	checkGolden(t, "decisions.golden.gz", decisionsDump(t))
}

// checkGolden compares got with the gzipped golden file. A mismatch
// reports the first differing line.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.HasPrefix(w, "== ") {
			section = w
		}
		if g != w {
			t.Fatalf("%s differs at line %d (section %s):\n got: %s\nwant: %s", name, i+1, section, g, w)
		}
	}
}
