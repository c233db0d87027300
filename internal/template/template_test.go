package template

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/html"
	"repro/internal/nonce"
)

func TestACBuilderWrap(t *testing.T) {
	b := NewACBuilder(nonce.NewSeqSource(100))
	out := b.Wrap(3, core.ACL{Read: 2, Write: 2, Use: 2}, "id=c1", "user text")
	want := `<div ring=3 r=2 w=2 x=2 nonce=100 id=c1>user text</div nonce=100>`
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestACBuilderPairSharesNonce(t *testing.T) {
	b := NewACBuilder(nonce.NewSeqSource(7))
	open, n := b.AppendOpen(nil, 1, core.UniformACL(1))
	closeTag := AppendClose(nil, n)
	if !strings.Contains(string(open), "nonce=7") || string(closeTag) != "</div nonce=7>" {
		t.Errorf("pair = %q %q", open, closeTag)
	}
	open2, _ := b.AppendOpen(nil, 1, core.UniformACL(1))
	if strings.Contains(string(open2), "nonce=7") {
		t.Error("nonces must be fresh per pair")
	}
	if got := string(AppendClose(nil, 0)); got != "</div>" {
		t.Errorf("nonceless closer = %q", got)
	}
}

func TestACBuilderDefaultCrypto(t *testing.T) {
	b := NewACBuilder(nil)
	if out := b.Wrap(2, core.UniformACL(2), "", ""); !strings.Contains(out, "nonce=") {
		t.Errorf("out = %q", out)
	}
}

func TestACBuilderOutputParses(t *testing.T) {
	// The builder's output, fed through the ESCUDO parser, labels
	// content exactly as requested and survives the nonce check.
	b := NewACBuilder(nonce.NewSeqSource(1))
	page := b.Wrap(1, core.UniformACL(1), "id=app", "app") +
		b.Wrap(3, core.ACL{Read: 2, Write: 2, Use: 2}, "id=user", "user")
	doc := html.Parse(page, html.Options{Escudo: true, MaxRing: 3})
	var app, user *html.Node
	html.Walk(doc, func(n *html.Node) bool {
		if id, _ := n.Attr("id"); id == "app" {
			app = n
		} else if id, _ := n.Attr("id"); id == "user" {
			user = n
		}
		return true
	})
	if app == nil || app.Ring != 1 {
		t.Errorf("app = %+v", app)
	}
	if user == nil || user.Ring != 3 || user.ACL != (core.ACL{Read: 2, Write: 2, Use: 2}) {
		t.Errorf("user = %+v", user)
	}
}
