package browser

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/html"
	"repro/internal/web"
)

// movePage nests a ring-3 ad slot (div#c) inside a ring-1 region
// (div#a) whose ACL alone would let ring 3 in, beside a ring-3 region
// (div#b) of the ad's own.
const movePage = `<html><body>` +
	`<div ring=1 r=3 w=3 x=3 id=a><p id=pa>secret</p><div ring=3 r=3 w=3 x=3 id=c>ad slot</div></div>` +
	`<div ring=3 r=3 w=3 x=3 id=b>mine</div>` +
	`</body></html>`

func loadMovePage(t *testing.T) *Page {
	t.Helper()
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(*web.Request) *web.Response {
		resp := web.HTML(movePage)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	p, err := New(net, Options{Mode: ModeEscudo}).Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkTree fails t unless the document is still a tree: every kid's
// Parent links back, no node is reachable twice, and the §5 scoping
// rule holds.
func checkTree(t *testing.T, d *dom.Document) {
	t.Helper()
	seen := map[*html.Node]bool{}
	ok := true
	var walk func(n *html.Node)
	walk = func(n *html.Node) {
		if seen[n] {
			t.Errorf("%s is reachable twice", d.NodeContext(n).Name())
			ok = false
			return
		}
		seen[n] = true
		for _, k := range n.Kids {
			if k.Parent != n {
				t.Errorf("a kid of %s links to another parent", d.NodeContext(n).Name())
				ok = false
			}
			walk(k)
		}
	}
	walk(d.Root)
	if ok {
		if bad := d.CheckScopingInvariant(); bad != nil {
			t.Errorf("scoping rule broken at %s", d.NodeContext(bad).Name())
		}
	}
}

// A ring-3 script cannot move a ring-1 region under its own node and
// relabel it: the handle to div#a takes a read decision the ring rule
// denies, and moving the ad slot out of div#a is a write on div#a.
func TestDOMMoveEscapeRefused(t *testing.T) {
	for _, src := range []string{
		`document.getElementById("b").appendChild(document.getElementById("c").parentNode);`,
		`document.getElementById("b").appendChild(document.getElementById("c"));`,
	} {
		p := loadMovePage(t)
		err := p.RunScriptAs(core.Principal(p.Origin, 3, "ad"), src)
		var denied *dom.DeniedError
		if !errors.As(err, &denied) {
			t.Errorf("%s\nerr = %v, want a DeniedError", src, err)
		}
		a, c := p.Doc.ByID("a"), p.Doc.ByID("c")
		if a.Ring != 1 || a.Parent == nil || a.Parent.Tag != "body" {
			t.Errorf("%s\ndiv#a moved or relabelled: ring %d", src, a.Ring)
		}
		if c.Parent != a {
			t.Errorf("%s\nthe denied move detached div#c", src)
		}
		checkTree(t, p.Doc)
	}
}

// Appending a node under itself or under one of its descendants is
// refused before it can make a cycle.
func TestAppendChildHierarchy(t *testing.T) {
	for _, src := range []string{
		`var e = document.getElementById("b"); e.appendChild(e);`,
		`document.getElementById("c").appendChild(document.getElementById("a"));`,
		`document.getElementById("b").appendChild(document.body);`,
	} {
		p := loadMovePage(t)
		if err := p.RunScriptRing(0, "s", src); !errors.Is(err, dom.ErrHierarchy) {
			t.Errorf("%s\nerr = %v, want ErrHierarchy", src, err)
		}
		checkTree(t, p.Doc)
	}
}

// A permitted move takes the node out of its old parent: it is in the
// tree once, under its new parent, clamped to the new parent's ring.
func TestDOMMoveDetaches(t *testing.T) {
	p := loadMovePage(t)
	if err := p.RunScriptRing(0, "s", `document.getElementById("b").appendChild(document.getElementById("pa"));`); err != nil {
		t.Fatal(err)
	}
	a, b, pa := p.Doc.ByID("a"), p.Doc.ByID("b"), p.Doc.ByID("pa")
	if pa.Parent != b || b.Kids[len(b.Kids)-1] != pa {
		t.Errorf("p#pa is not b's last kid")
	}
	for _, k := range a.Kids {
		if k == pa {
			t.Error("div#a still holds p#pa")
		}
	}
	if pa.Ring != 3 {
		t.Errorf("p#pa ring = %d, want 3", pa.Ring)
	}
	checkTree(t, p.Doc)
}
