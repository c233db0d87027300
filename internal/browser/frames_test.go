package browser

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/origin"
	"repro/internal/web"
)

// frameNetwork: the app origin serves a page embedding a same-origin
// frame and a cross-origin frame.
func frameNetwork() *web.Network {
	other := origin.MustParse("http://widget.example")
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		switch req.Path() {
		case "/":
			resp := web.HTML(`<div ring=1 r=1 w=1 x=1 id=app>` +
				`<iframe id=own src="/inner"></iframe>` +
				`<iframe id=foreign src="http://widget.example/"></iframe>` +
				`<iframe id=dead src="http://missing.example/"></iframe>` +
				`</div>`)
			resp.Header.Set(core.HeaderMaxRing, "3")
			return resp
		case "/inner":
			resp := web.HTML(`<div ring=2 r=2 w=2 x=2 id=inner-content>inner text</div>`)
			resp.Header.Set(core.HeaderMaxRing, "3")
			return resp
		case "/recurse":
			resp := web.HTML(`<iframe src="/recurse"></iframe>`)
			resp.Header.Set(core.HeaderMaxRing, "3")
			return resp
		default:
			return web.NotFound()
		}
	}))
	net.Register(other, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(`<div ring=1 r=1 w=1 x=1 id=widget-content>widget</div>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	return net
}

func TestFramesLoadAsPages(t *testing.T) {
	b := New(frameNetwork(), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Frames) != 3 {
		t.Fatalf("frames = %d, want 3", len(p.Frames))
	}
	own := p.Frames[0]
	if own.Page == nil || own.Page.Doc.ByID("inner-content") == nil {
		t.Error("same-origin frame did not load")
	}
	if own.Page.Origin != site {
		t.Errorf("frame origin = %v", own.Page.Origin)
	}
	foreign := p.Frames[1]
	if foreign.Page == nil || foreign.Page.Doc.ByID("widget-content") == nil {
		t.Error("cross-origin frame did not load")
	}
	if dead := p.Frames[2]; dead.Page != nil {
		t.Error("unreachable frame must have nil page")
	}
	// Frames do not pollute session history.
	if b.History().Len() != 1 {
		t.Errorf("history = %d, want 1", b.History().Len())
	}
}

func TestFrameRingCompatibilitySameOrigin(t *testing.T) {
	// §4: "The rings of web pages belonging to the same origin are
	// compatible with each other." A ring-1 principal of the parent
	// page may manipulate ring-2 content in a same-origin frame,
	// while a ring-3 parent principal may not.
	b := New(frameNetwork(), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	framePage := p.Frames[0].Page
	inner := framePage.Doc.ByID("inner-content")

	api1 := dom.NewAPI(framePage.Doc, core.Principal(site, 1, "parent-ring1"), framePage.Monitor)
	if err := api1.SetText(inner, "edited by parent"); err != nil {
		t.Errorf("same-origin ring-1 cross-frame write: %v", err)
	}
	api3 := dom.NewAPI(framePage.Doc, core.Principal(site, 3, "parent-ring3"), framePage.Monitor)
	if err := api3.SetText(inner, "x"); err == nil {
		t.Error("ring-3 parent principal must not write ring-2 frame content")
	}
}

func TestFrameCrossOriginIsolated(t *testing.T) {
	b := New(frameNetwork(), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	widgetPage := p.Frames[1].Page
	content := widgetPage.Doc.ByID("widget-content")
	// Even a ring-0 parent principal is cross-origin to the widget
	// frame: origin rule denies.
	api := dom.NewAPI(widgetPage.Doc, core.Principal(site, 0, "parent"), widgetPage.Monitor)
	if _, err := api.InnerText(content); err == nil {
		t.Error("cross-origin frame content must be unreachable")
	}
}

func TestFrameDepthBounded(t *testing.T) {
	b := New(frameNetwork(), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/recurse"))
	if err != nil {
		t.Fatal(err)
	}
	depth := 0
	for cur := p; len(cur.Frames) > 0 && cur.Frames[0].Page != nil; cur = cur.Frames[0].Page {
		depth++
		if depth > 5 {
			t.Fatal("frame recursion not bounded")
		}
	}
	if depth != maxFrameDepth {
		t.Errorf("nested depth = %d, want %d", depth, maxFrameDepth)
	}
}
