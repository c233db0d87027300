package dom

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/html"
)

// regionDoc has a readable container whose subtree mixes ACLs: the
// #secret child tightens its read/write ceiling to ring 1, so a ring-2
// principal may read the container but not that child.
func regionDoc() *Document {
	markup := `<html><body>` +
		`<div ring=2 r=2 w=2 x=2 id=box>visible ` +
		`<div ring=2 r=1 w=1 x=1 id=secret>classified</div>` +
		`<p id=tail>tail</p>` +
		`</div></body></html>`
	return NewDocument(site, markup, html.Options{
		Escudo: true, MaxRing: 3, BaseRing: 0, BaseACL: core.PermissiveACL(3),
	})
}

func TestInnerHTMLElidesDeniedSubtrees(t *testing.T) {
	d := regionDoc()
	box := d.ByID("box")

	// Ring 2 reads the container; the tighter-ACL child is elided.
	s, err := api(d, 2).InnerHTML(box)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "visible") || !strings.Contains(s, "tail") {
		t.Errorf("readable content missing: %q", s)
	}
	if strings.Contains(s, "classified") || strings.Contains(s, "secret") {
		t.Errorf("denied subtree leaked: %q", s)
	}

	// Ring 1 sees the whole region.
	s, err = api(d, 1).InnerHTML(box)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "classified") {
		t.Errorf("ring 1 should read the secret child: %q", s)
	}
}

func TestInnerTextElidesDeniedSubtrees(t *testing.T) {
	d := regionDoc()
	box := d.ByID("box")
	s, err := api(d, 2).InnerText(box)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "visible") || strings.Contains(s, "classified") {
		t.Errorf("InnerText = %q", s)
	}
}

func TestRegionWriteDeniedByDescendant(t *testing.T) {
	d := regionDoc()
	box := d.ByID("box")

	// Ring 2 may write the container itself but not the w=1 child the
	// replacement would destroy: the region write must fail whole.
	err := api(d, 2).SetText(box, "wiped")
	var denied *DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("err = %v, want DeniedError", err)
	}
	if denied.Decision.Rule != core.RuleACL {
		t.Errorf("rule = %v, want acl-rule", denied.Decision.Rule)
	}
	if html.InnerText(d.ByID("secret")) != "classified" {
		t.Error("denied region write mutated the tree")
	}

	// Ring 1 holds write on every node of the region.
	if err := api(d, 1).SetInnerHTML(box, "<p>replaced</p>"); err != nil {
		t.Fatalf("ring 1 region write: %v", err)
	}
	if got := html.InnerText(box); !strings.Contains(got, "replaced") {
		t.Errorf("box = %q", got)
	}
}

func TestRemoveChildDeniedByRemovedSubtree(t *testing.T) {
	// Removing a child destroys its whole subtree: a principal that
	// may write the parent but not a node inside the removed region
	// must be refused, consistent with SetInnerHTML/SetText.
	d := regionDoc()
	box := d.ByID("box")
	secret := d.ByID("secret")
	err := api(d, 2).RemoveChild(box, secret)
	var denied *DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("err = %v, want DeniedError", err)
	}
	if d.ByID("secret") == nil {
		t.Error("denied removal detached the subtree")
	}
	// Ring 1 holds write on the whole removed region.
	if err := api(d, 1).RemoveChild(box, secret); err != nil {
		t.Fatalf("ring 1 removal: %v", err)
	}
	if d.ByID("secret") != nil {
		t.Error("allowed removal left the subtree attached")
	}
}

func TestAuthorizeSubtreeAuditsEveryNode(t *testing.T) {
	d := regionDoc()
	log := &core.AuditLog{}
	a := NewAPI(d, core.Principal(site, 2, "script"), core.Compose(&core.ERM{}, core.WithAudit(log)))
	box := d.ByID("box")
	want := html.CountNodes(box)
	if _, err := a.AuthorizeSubtree(box, core.OpRead); err != nil {
		t.Fatal(err)
	}
	if log.Len() != want {
		t.Errorf("audit records = %d, want %d (one per node in the region)", log.Len(), want)
	}
}

func TestAuthorizeSubtreeRootDenied(t *testing.T) {
	d := regionDoc()
	_, err := api(d, 3).AuthorizeSubtree(d.ByID("box"), core.OpRead)
	var denied *DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("err = %v, want DeniedError on the root", err)
	}
	if denied.Decision.Object.Name() != "div#box" {
		t.Errorf("denial object = %q, want div#box", denied.Decision.Object.Name())
	}
}

func TestSubtreeBatchDeduplicates(t *testing.T) {
	// A region of many same-class nodes must cost far fewer distinct
	// decision computations than nodes.
	var b strings.Builder
	b.WriteString(`<html><body><div ring=2 r=2 w=2 x=2 id=feed>`)
	for i := 0; i < 50; i++ {
		b.WriteString(`<p>item</p>`)
	}
	b.WriteString(`</div></body></html>`)
	d := NewDocument(site, b.String(), html.Options{
		Escudo: true, MaxRing: 3, BaseRing: 0, BaseACL: core.PermissiveACL(3),
	})
	before := core.ReadBatchStats()
	if _, err := api(d, 1).InnerHTML(d.ByID("feed")); err != nil {
		t.Fatal(err)
	}
	delta := core.ReadBatchStats().Sub(before)
	if delta.Nodes < 100 {
		t.Fatalf("nodes = %d, want >= 100 (50 <p> + 50 text + root)", delta.Nodes)
	}
	if delta.Distinct >= delta.Nodes/10 {
		t.Errorf("distinct = %d of %d nodes: expected heavy dedup", delta.Distinct, delta.Nodes)
	}
}

func TestFilteredRegionSizedToKeptNodes(t *testing.T) {
	// A render region keeps only elements, about half of a page's
	// nodes, and authorizes only what it keeps.
	d := regionDoc()
	elements := func(x *html.Node) bool { return x.Type == html.ElementNode || x.Type == html.DocumentNode }
	decisions := api(d, 0).authorizeSubtreeFiltered(d.Root, core.OpRead, elements)
	want := 0
	html.Walk(d.Root, func(x *html.Node) bool {
		if elements(x) {
			want++
		}
		return true
	})
	if len(decisions) != want {
		t.Errorf("decisions %d, want %d of %d nodes", len(decisions), want, html.CountNodes(d.Root))
	}
}
