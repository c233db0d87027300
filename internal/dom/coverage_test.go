package dom

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/html"
)

// Edge-path coverage for the mediated DOM API.

func TestInnerTextDenied(t *testing.T) {
	d := blogDoc()
	if _, err := api(d, 3).InnerText(d.ByID("post")); err == nil {
		t.Error("ring 3 must not read the post text")
	}
}

func TestGetAttributeDenied(t *testing.T) {
	d := blogDoc()
	if _, err := api(d, 3).GetAttribute(d.ByID("post"), "id"); err == nil {
		t.Error("ring 3 must not read the post's attributes")
	}
}

func TestSetTextDenied(t *testing.T) {
	d := blogDoc()
	if err := api(d, 3).SetText(d.ByID("app"), "x"); err == nil {
		t.Error("ring 3 must not write app content")
	}
}

func TestAppendChildDeniedLeavesTreeIntact(t *testing.T) {
	d := blogDoc()
	a := api(d, 3)
	el := a.CreateElement("span")
	post := d.ByID("post")
	before := len(post.Kids)
	if err := a.AppendChild(post, el); err == nil {
		t.Error("ring 3 append to post must fail")
	}
	if len(post.Kids) != before {
		t.Error("denied append mutated the tree")
	}
}

func TestAppendHTMLDenied(t *testing.T) {
	d := blogDoc()
	if err := api(d, 3).AppendHTML(d.ByID("post"), "<b>x</b>"); err == nil {
		t.Error("ring 3 AppendHTML to post must fail")
	}
}

func TestAppendHTMLScoping(t *testing.T) {
	d := blogDoc()
	// Ring 0 writes into the ring-3 comment: content is still bound
	// by the host node's ring.
	if err := api(d, 0).AppendHTML(d.ByID("comment1"), `<div ring=0 id=appended>x</div>`); err != nil {
		t.Fatal(err)
	}
	if n := d.ByID("appended"); n == nil || n.Ring != 3 {
		t.Errorf("appended = %+v, want clamped ring 3", n)
	}
}

func TestDeniedErrorMessage(t *testing.T) {
	d := blogDoc()
	_, err := api(d, 3).InnerHTML(d.ByID("post"))
	var denied *DeniedError
	if !errors.As(err, &denied) {
		t.Fatal(err)
	}
	msg := denied.Error()
	for _, want := range []string{"access denied", "ring-rule", "post"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
}

func TestNodeLabelVariants(t *testing.T) {
	d := blogDoc()
	text := &html.Node{Type: html.TextNode}
	comment := &html.Node{Type: html.CommentNode}
	doctype := &html.Node{Type: html.DoctypeNode}
	noID := &html.Node{Type: html.ElementNode, Tag: "em"}
	emptyID := &html.Node{Type: html.ElementNode, Tag: "em", Attrs: []html.Attr{{Name: "id", Value: ""}}}
	for node, want := range map[*html.Node]string{
		text: "#text", comment: "#comment", doctype: "#doctype", noID: "em", emptyID: "em",
	} {
		if got := d.NodeContext(node).Name(); got != want {
			t.Errorf("label = %q, want %q", got, want)
		}
	}
}

func TestFindNothing(t *testing.T) {
	d := blogDoc()
	if n := d.Find(func(*html.Node) bool { return false }); n != nil {
		t.Error("Find with false predicate must return nil")
	}
	if got := d.ByTag("video"); len(got) != 0 {
		t.Errorf("ByTag(video) = %v", got)
	}
}

func TestAPIAccessors(t *testing.T) {
	d := blogDoc()
	a := api(d, 1)
	if a.Document() != d {
		t.Error("Document accessor")
	}
	if a.Principal().Ring != 1 {
		t.Error("Principal accessor")
	}
}

func TestCreateTextNodeRing(t *testing.T) {
	d := blogDoc()
	n := api(d, 2).CreateTextNode("hi")
	if n.Type != html.TextNode || n.Ring != 2 || n.Data != "hi" {
		t.Errorf("n = %+v", n)
	}
}

func TestGetElementsByTagNameEmptyACL(t *testing.T) {
	// Document with fail-safe zero ACLs: only ring 0 reads.
	d := NewDocument(site, `<div ring=2 id=a>x</div>`, html.Options{
		Escudo: true, MaxRing: 3, BaseRing: 3, BaseACL: core.ACL{},
	})
	if got := api(d, 2).GetElementsByTagName("div"); len(got) != 0 {
		t.Errorf("zero-ACL div visible to ring 2: %v", got)
	}
	if got := api(d, 0).GetElementsByTagName("div"); len(got) != 1 {
		t.Errorf("ring 0 must see it: %v", got)
	}
}
