package dom

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/html"
	"repro/internal/origin"
)

var site = origin.MustParse("http://blog.example")

// blogDoc builds the paper's blog page shape (Figure 3): ring-1 app
// content, a ring-2 post whose ACL admits rings 0-1, and ring-3 user
// comments whose ACL admits rings 0-2.
func blogDoc() *Document {
	markup := `<html><body>` +
		`<div ring=1 r=1 w=1 x=1 id=app><script id=appjs>app()</script></div>` +
		`<div ring=2 r=1 w=0 x=0 id=post><p>Original post</p></div>` +
		`<div ring=3 r=2 w=2 x=2 id=comment1>Nice post!</div>` +
		`<div ring=3 r=2 w=2 x=2 id=comment2><script id=evil>attack()</script></div>` +
		`</body></html>`
	return NewDocument(site, markup, html.Options{
		Escudo: true, MaxRing: 3, BaseRing: 0, BaseACL: core.PermissiveACL(3),
	})
}

func api(d *Document, ring core.Ring) *API {
	return NewAPI(d, core.Principal(site, ring, "test-principal"), &core.ERM{})
}

func TestGetElementByIDMediated(t *testing.T) {
	d := blogDoc()
	// A ring-1 principal reads the post (read ceiling 1).
	if n, err := api(d, 1).GetElementByID("post"); err != nil || n == nil {
		t.Errorf("ring 1 read post: n=%v err=%v", n, err)
	}
	// A ring-3 principal cannot read the post (ring rule fails).
	_, err := api(d, 3).GetElementByID("post")
	var denied *DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("ring 3 read post: err = %v, want DeniedError", err)
	}
	if denied.Decision.Rule != core.RuleRing {
		t.Errorf("rule = %v, want ring-rule", denied.Decision.Rule)
	}
	// Missing elements are not errors.
	if n, err := api(d, 0).GetElementByID("nope"); n != nil || err != nil {
		t.Errorf("missing id: %v, %v", n, err)
	}
}

func TestACLDeniesWithinRing(t *testing.T) {
	// Comments are ring 3 with write ceiling 2: one comment's script
	// (ring 3) cannot modify another comment — the isolation phpBB
	// wants between user messages (Table 3).
	d := blogDoc()
	err := api(d, 3).SetText(d.ByID("comment1"), "defaced")
	var denied *DeniedError
	if !errors.As(err, &denied) || denied.Decision.Rule != core.RuleACL {
		t.Fatalf("err = %v, want ACL denial", err)
	}
	// A ring-2 principal may.
	if err := api(d, 2).SetText(d.ByID("comment1"), "moderated"); err != nil {
		t.Errorf("ring 2 write comment: %v", err)
	}
	if got := html.InnerText(d.ByID("comment1")); got != "moderated" {
		t.Errorf("text = %q", got)
	}
}

func TestCrossOriginDenied(t *testing.T) {
	d := blogDoc()
	other := core.Principal(origin.MustParse("http://evil.example"), 0, "evil")
	a := NewAPI(d, other, &core.ERM{})
	_, err := a.GetElementByID("comment1")
	var denied *DeniedError
	if !errors.As(err, &denied) || denied.Decision.Rule != core.RuleOrigin {
		t.Fatalf("err = %v, want origin denial", err)
	}
}

func TestConfigAttributesInvisible(t *testing.T) {
	d := blogDoc()
	a := api(d, 0) // even ring 0 cannot see configuration
	post := d.ByID("post")
	for _, name := range []string{"ring", "r", "w", "x", "nonce"} {
		v, err := a.GetAttribute(post, name)
		if err != nil || v != "" {
			t.Errorf("GetAttribute(%q) = %q, %v; want invisible", name, v, err)
		}
	}
	if v, err := a.GetAttribute(post, "id"); err != nil || v != "post" {
		t.Errorf("ordinary attribute id = %q, %v", v, err)
	}
}

func TestSetAttributeConfigRejected(t *testing.T) {
	// §5(1): remapping an AC tag to a higher privileged ring via
	// setAttribute cannot succeed.
	d := blogDoc()
	comment := d.ByID("comment2")
	for _, ring := range []core.Ring{0, 3} {
		err := api(d, ring).SetAttribute(comment, "ring", "0")
		if !errors.Is(err, ErrConfigAttribute) {
			t.Errorf("ring %d SetAttribute(ring) err = %v, want ErrConfigAttribute", ring, err)
		}
	}
	if comment.Ring != 3 {
		t.Errorf("comment ring changed to %d", comment.Ring)
	}
}

func TestSetAttributeOrdinary(t *testing.T) {
	d := blogDoc()
	c := d.ByID("comment1")
	if err := api(d, 2).SetAttribute(c, "class", "flagged"); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Attr("class"); v != "flagged" {
		t.Errorf("class = %q", v)
	}
	// Update in place, not duplicate.
	if err := api(d, 2).SetAttribute(c, "class", "ok"); err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, at := range c.Attrs {
		if at.Name == "class" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("class attrs = %d, want 1", count)
	}
}

func TestSetInnerHTMLScoping(t *testing.T) {
	// §5(2): a principal writing markup cannot mint a more
	// privileged principal. The fragment claims ring=0; it must be
	// clamped to the host node's ring.
	d := blogDoc()
	c2 := d.ByID("comment2")
	err := api(d, 2).SetInnerHTML(c2, `<div ring=0 id=minted><script id=sneak>x()</script></div>`)
	if err != nil {
		t.Fatal(err)
	}
	minted := d.ByID("minted")
	if minted == nil {
		t.Fatal("minted div missing")
	}
	if minted.Ring != 3 {
		t.Errorf("minted ring = %d, want clamped 3", minted.Ring)
	}
	if sneak := d.ByID("sneak"); sneak.Ring != 3 {
		t.Errorf("sneak script ring = %d, want 3", sneak.Ring)
	}
	if bad := d.CheckScopingInvariant(); bad != nil {
		t.Errorf("scoping invariant violated at %v", bad)
	}
}

func TestSetInnerHTMLDeniedByACL(t *testing.T) {
	d := blogDoc()
	post := d.ByID("post")
	// Post write ceiling is 0; ring 1 may not rewrite it.
	if err := api(d, 1).SetInnerHTML(post, "<b>defaced</b>"); err == nil {
		t.Error("ring 1 must not rewrite the post (w=0)")
	}
	if err := api(d, 0).SetInnerHTML(post, "<b>edited</b>"); err != nil {
		t.Errorf("ring 0 rewrite: %v", err)
	}
	if got := html.InnerText(post); got != "edited" {
		t.Errorf("post text = %q", got)
	}
}

func TestAppendChildClamping(t *testing.T) {
	d := blogDoc()
	a := api(d, 1)
	el := a.CreateElement("span")
	if el.Ring != 1 {
		t.Errorf("created element ring = %d, want creator's 1", el.Ring)
	}
	// Appending under the ring-3 comment clamps the subtree to 3.
	c1 := d.ByID("comment1")
	mod := api(d, 2) // ring 2 may write comments
	child := mod.CreateElement("b")
	grand := mod.CreateTextNode("hi")
	child.AppendChild(grand)
	if err := mod.AppendChild(c1, child); err != nil {
		t.Fatal(err)
	}
	if child.Ring != 3 || child.Kids[0].Ring != 3 {
		t.Errorf("appended subtree rings = %d,%d; want 3,3", child.Ring, child.Kids[0].Ring)
	}
}

func TestRemoveChild(t *testing.T) {
	d := blogDoc()
	c1 := d.ByID("comment1")
	text := c1.Kids[0]
	if err := api(d, 3).RemoveChild(c1, text); err == nil {
		t.Error("ring 3 must not edit another comment (w=2)")
	}
	if err := api(d, 2).RemoveChild(c1, text); err != nil {
		t.Fatal(err)
	}
	if len(c1.Kids) != 0 {
		t.Error("child not removed")
	}
	if err := api(d, 2).RemoveChild(c1, text); !errors.Is(err, ErrDetached) {
		t.Errorf("double remove err = %v, want ErrDetached", err)
	}
}

func TestGetElementsByTagNameFiltersUnreadable(t *testing.T) {
	d := blogDoc()
	// Ring 3 sees only scripts it can read: appjs is ring 1 (r=1) —
	// unreadable; evil is ring 3 (r=2) — also unreadable by ring 3!
	got := api(d, 3).GetElementsByTagName("script")
	if len(got) != 0 {
		t.Errorf("ring 3 sees %d scripts, want 0", len(got))
	}
	got = api(d, 1).GetElementsByTagName("script")
	if len(got) != 2 {
		t.Errorf("ring 1 sees %d scripts, want 2", len(got))
	}
}

func TestInnerHTMLRead(t *testing.T) {
	d := blogDoc()
	s, err := api(d, 1).InnerHTML(d.ByID("post"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "Original post") {
		t.Errorf("InnerHTML = %q", s)
	}
	if strings.Contains(s, "ring") {
		t.Errorf("InnerHTML leaks configuration: %q", s)
	}
	if _, err := api(d, 3).InnerHTML(d.ByID("post")); err == nil {
		t.Error("ring 3 must not read the post")
	}
}

func TestLegacyDocumentSOPBehavior(t *testing.T) {
	// A legacy page (no ESCUDO config) under the SOP monitor: any
	// same-origin principal does anything (§2.3's failure mode).
	d := NewDocument(site, `<div id=x ring=2>keep</div>`, html.LegacyOptions())
	a := NewAPI(d, core.Principal(site, 0, "p"), &core.SOPMonitor{})
	if err := a.SetText(d.ByID("x"), "changed"); err != nil {
		t.Fatalf("SOP same-origin write: %v", err)
	}
	// The ring attribute is ordinary markup on a legacy page.
	if v, err := a.GetAttribute(d.ByID("x"), "ring"); err != nil || v != "2" {
		t.Errorf("legacy ring attr = %q, %v", v, err)
	}
}

func TestNodeContextLabels(t *testing.T) {
	d := blogDoc()
	ctx := d.NodeContext(d.ByID("post"))
	if ctx.Name() != "div#post" {
		t.Errorf("label = %q", ctx.Name())
	}
	if ctx.Ring != 2 || ctx.Origin != site {
		t.Errorf("ctx = %v", ctx)
	}
	if got := d.NodeContext(d.Root).Label; got != "#document" {
		t.Errorf("document label = %q", got)
	}
}

func TestByTag(t *testing.T) {
	d := blogDoc()
	divs := d.ByTag("div")
	if len(divs) != 4 {
		t.Errorf("divs = %d, want 4", len(divs))
	}
}

// Property: no sequence of mediated mutations violates the scoping
// invariant.
func TestScopingInvariantUnderRandomMutations(t *testing.T) {
	type step struct {
		Op       uint8
		Ring     uint8
		TargetID uint8
		Payload  uint8
	}
	ids := []string{"app", "post", "comment1", "comment2", "appjs", "evil"}
	payloads := []string{
		`<div ring=0>up</div>`,
		`<b>text</b>`,
		`<div ring=3><div ring=1>deep</div></div>`,
		`plain`,
	}
	f := func(steps []step) bool {
		d := blogDoc()
		for _, s := range steps {
			a := api(d, core.Ring(s.Ring%4))
			target := d.ByID(ids[int(s.TargetID)%len(ids)])
			if target == nil {
				continue
			}
			switch s.Op % 4 {
			case 0:
				_ = a.SetInnerHTML(target, payloads[int(s.Payload)%len(payloads)])
			case 1:
				el := a.CreateElement("span")
				_ = a.AppendChild(target, el)
			case 2:
				_ = a.SetText(target, "t")
			case 3:
				if len(target.Kids) > 0 {
					_ = a.RemoveChild(target, target.Kids[0])
				}
			}
		}
		return d.CheckScopingInvariant() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A region write that replaces a node's kids unlinks them, so a handle
// a script kept to a replaced kid names no parent, and appending it
// elsewhere is an insertion, not a move out of a region it left.
func TestReplacedKidsUnlinked(t *testing.T) {
	d := blogDoc()
	a := api(d, 0)
	for _, replace := range []func(*html.Node) error{
		func(n *html.Node) error { return a.SetInnerHTML(n, "<b>new</b>") },
		func(n *html.Node) error { return a.SetText(n, "new") },
	} {
		post := d.ByID("post")
		old := post.Kids
		if err := replace(post); err != nil {
			t.Fatal(err)
		}
		for _, k := range old {
			if k.Parent != nil {
				t.Errorf("replaced kid %q still names a parent", k.Tag)
			}
		}
		if err := a.AppendChild(d.ByID("comment1"), old[0]); err != nil {
			t.Fatal(err)
		}
		for _, k := range post.Kids {
			if k == old[0] || k.Parent != post {
				t.Error("the replaced kid came back under its old parent")
			}
		}
	}
}
