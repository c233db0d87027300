package browser

import (
	"errors"
	"fmt"
	"net/url"
	"strings"

	"repro/internal/cookie"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/html"
	"repro/internal/origin"
	"repro/internal/script"
)

// scriptGlobals is one script's host globals, built on its first
// lookup of each: document, window, the Image constructor and the
// XMLHttpRequest constructor, every binding funneling through the
// page's reference monitor with the principal's security context. The
// host objects hold no script-writable state, so a script that touches
// none of them builds none of them.
type scriptGlobals struct {
	page      *Page
	principal core.Context
	api       *dom.API
}

var _ script.Globals = (*scriptGlobals)(nil)

// dom returns the script's DOM API, shared by document and Image.
func (g *scriptGlobals) dom() *dom.API {
	if g.api == nil {
		g.api = dom.NewAPI(g.page.Doc, g.principal, g.page.Monitor)
	}
	return g.api
}

func (g *scriptGlobals) Global(name string) (script.Value, bool) {
	p, principal := g.page, g.principal
	switch name {
	case "document":
		return &documentHost{page: p, api: g.dom(), principal: principal}, true
	case "window":
		return &windowHost{page: p, principal: principal}, true
	case "Image":
		return script.Func("Image", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			// new Image() is a detached img element; setting .src fires
			// the request, the classic exfiltration vector.
			api := g.dom()
			return &elementHost{page: p, api: api, node: api.CreateElement("img"), principal: principal}, nil
		}), true
	case "XMLHttpRequest":
		// Use-mediated at open/send against the page's API ring.
		return script.Func("XMLHttpRequest", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			return newXHRHost(p, principal)
		}), true
	}
	return nil, false
}

// documentHost exposes the document object.
type documentHost struct {
	page      *Page
	api       *dom.API
	principal core.Context
}

var _ script.HostObject = (*documentHost)(nil)

func (d *documentHost) HostName() string { return "HTMLDocument" }

func (d *documentHost) HostGet(name string) (script.Value, error) {
	switch name {
	case "cookie":
		return d.page.readCookieString(d.principal), nil
	case "origin":
		return d.page.Origin.String(), nil
	case "URL", "location":
		return d.page.URL, nil
	case "body":
		if body := d.page.Doc.Find(func(n *html.Node) bool {
			return n.Type == html.ElementNode && n.Tag == "body"
		}); body != nil {
			return &elementHost{page: d.page, api: d.api, node: body, principal: d.principal}, nil
		}
		return nil, nil
	case "getElementById":
		return script.Func("document.getElementById", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			if len(args) == 0 {
				return nil, nil
			}
			n, err := d.api.GetElementByID(script.ToString(args[0]))
			if err != nil {
				return nil, err
			}
			if n == nil {
				return nil, nil
			}
			return &elementHost{page: d.page, api: d.api, node: n, principal: d.principal}, nil
		}), nil
	case "getElementsByTagName":
		return script.Func("document.getElementsByTagName", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			if len(args) == 0 {
				return &script.Array{}, nil
			}
			arr := &script.Array{}
			for _, n := range d.api.GetElementsByTagName(script.ToString(args[0])) {
				arr.Elems = append(arr.Elems, &elementHost{page: d.page, api: d.api, node: n, principal: d.principal})
			}
			return arr, nil
		}), nil
	case "createElement":
		return script.Func("document.createElement", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			if len(args) == 0 {
				return nil, errors.New("createElement needs a tag")
			}
			el := d.api.CreateElement(script.ToString(args[0]))
			return &elementHost{page: d.page, api: d.api, node: el, principal: d.principal}, nil
		}), nil
	case "write":
		// Post-parse document.write: appends parsed markup to the
		// body, mediated as a write on the body and bounded by the
		// scoping rule — a ring-3 script cannot write a ring-0
		// principal into existence (§5).
		return script.Func("document.write", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			if len(args) == 0 {
				return nil, nil
			}
			body := d.page.Doc.Find(func(n *html.Node) bool {
				return n.Type == html.ElementNode && n.Tag == "body"
			})
			if body == nil {
				body = d.page.Doc.Root
			}
			if err := d.api.AppendHTML(body, script.ToString(args[0])); err != nil {
				return nil, err
			}
			// Scripts introduced by document.write execute
			// immediately, each under its own (bounded) context.
			d.page.runScripts()
			return nil, nil
		}), nil
	case "createTextNode":
		return script.Func("document.createTextNode", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			text := ""
			if len(args) > 0 {
				text = script.ToString(args[0])
			}
			el := d.api.CreateTextNode(text)
			return &elementHost{page: d.page, api: d.api, node: el, principal: d.principal}, nil
		}), nil
	}
	return nil, nil
}

func (d *documentHost) HostSet(name string, v script.Value) error {
	switch name {
	case "cookie":
		return d.page.writeCookieString(d.principal, script.ToString(v))
	case "location":
		abs, err := origin.Resolve(d.page.URL, script.ToString(v))
		if err != nil {
			return err
		}
		_, err = d.page.browser.NavigateFrom(d.principal, abs, "document.location")
		return err
	}
	return fmt.Errorf("document.%s is not assignable", name)
}

// readCookieString renders document.cookie for the principal: only the
// cookies the monitor lets it read are included — inner-ring session
// cookies are simply invisible to outer-ring scripts.
func (p *Page) readCookieString(principal core.Context) string {
	var parts []string
	for _, c := range p.browser.jar.Matching(p.Origin, "/") {
		if c.HTTPOnly {
			continue
		}
		if p.Monitor.Authorize(principal, core.OpRead, c.Context()).Allowed {
			parts = append(parts, c.Name+"="+c.Value)
		}
	}
	return strings.Join(parts, "; ")
}

// writeCookieString implements document.cookie assignment: the write
// is mediated against the (existing or configured) cookie object.
func (p *Page) writeCookieString(principal core.Context, value string) error {
	c, err := cookie.ParseSetCookie(value, p.Origin)
	if err != nil {
		return err
	}
	c.Ring, c.ACL = p.Config.CookieRing(c.Name)
	if existing, ok := p.browser.jar.Get(p.Origin, c.Name); ok {
		c.Ring, c.ACL = existing.Ring, existing.ACL
	}
	if d := p.Monitor.Authorize(principal, core.OpWrite, c.Context()); !d.Allowed {
		return &dom.DeniedError{Decision: d}
	}
	p.browser.jar.Set(c)
	return nil
}

// xhrHost is the XMLHttpRequest object. Invoking the API is
// use-mediated against the API's configured ring (§4.1 Native Code
// API: defaults to ring 0, "conforming to the fail-safe defaults
// guideline").
type xhrHost struct {
	page      *Page
	principal core.Context
	method    string
	url       string
	status    float64
	response  string
	opened    bool
}

var _ script.HostObject = (*xhrHost)(nil)

// newXHRHost constructs the XHR object; construction itself is free,
// use is checked at open/send.
func newXHRHost(p *Page, principal core.Context) (script.Value, error) {
	return &xhrHost{page: p, principal: principal}, nil
}

// apiContext returns the native-code API object context for this
// page.
func (p *Page) apiContext(name string) core.Context {
	ring := p.Config.APIRing(name)
	return core.Object(p.Origin, ring, core.UniformACL(ring), "api "+name)
}

func (x *xhrHost) HostName() string { return "XMLHttpRequest" }

func (x *xhrHost) HostGet(name string) (script.Value, error) {
	switch name {
	case "status":
		return x.status, nil
	case "responseText":
		return x.response, nil
	case "open":
		return script.Func("XMLHttpRequest.open", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			if len(args) < 2 {
				return nil, errors.New("open(method, url)")
			}
			if d := x.page.Monitor.Authorize(x.principal, core.OpUse, x.page.apiContext(core.APIXMLHTTPRequest)); !d.Allowed {
				return nil, &dom.DeniedError{Decision: d}
			}
			x.method = strings.ToUpper(script.ToString(args[0]))
			abs, err := origin.Resolve(x.page.URL, script.ToString(args[1]))
			if err != nil {
				return nil, err
			}
			x.url = abs
			x.opened = true
			return nil, nil
		}), nil
	case "send":
		return script.Func("XMLHttpRequest.send", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			if !x.opened {
				return nil, errors.New("send before open")
			}
			if d := x.page.Monitor.Authorize(x.principal, core.OpUse, x.page.apiContext(core.APIXMLHTTPRequest)); !d.Allowed {
				return nil, &dom.DeniedError{Decision: d}
			}
			// The classic XHR same-origin restriction applies in
			// both modes (no CORS in this model).
			target, err := origin.Parse(x.url)
			if err != nil {
				return nil, err
			}
			if !target.SameOrigin(x.page.Origin) {
				return nil, fmt.Errorf("xhr: cross-origin request to %s blocked", target)
			}
			var form url.Values
			if x.method == "POST" && len(args) > 0 {
				form, err = url.ParseQuery(script.ToString(args[0]))
				if err != nil {
					form = url.Values{}
				}
			}
			resp, err := x.page.browser.fetch(x.method, x.url, form, x.principal, "xhr")
			if err != nil {
				return nil, err
			}
			x.status = float64(resp.Status)
			x.response = resp.Body
			return nil, nil
		}), nil
	}
	return nil, nil
}

func (x *xhrHost) HostSet(name string, v script.Value) error {
	return fmt.Errorf("XMLHttpRequest.%s is not assignable", name)
}

// windowHost exposes window: location, history, and page metadata.
type windowHost struct {
	page      *Page
	principal core.Context
}

var _ script.HostObject = (*windowHost)(nil)

func (w *windowHost) HostName() string { return "Window" }

func (w *windowHost) HostGet(name string) (script.Value, error) {
	switch name {
	case "location":
		return w.page.URL, nil
	case "origin":
		return w.page.Origin.String(), nil
	case "history":
		return &historyHost{page: w.page, principal: w.principal}, nil
	}
	return nil, nil
}

func (w *windowHost) HostSet(name string, v script.Value) error {
	if name == "location" {
		abs, err := origin.Resolve(w.page.URL, script.ToString(v))
		if err != nil {
			return err
		}
		_, err = w.page.browser.NavigateFrom(w.principal, abs, "window.location")
		return err
	}
	return fmt.Errorf("window.%s is not assignable", name)
}

// historyHost exposes window.history under the §4.1 browser-state
// rule: ring 0 only, not configurable.
type historyHost struct {
	page      *Page
	principal core.Context
}

var _ script.HostObject = (*historyHost)(nil)

func (h *historyHost) HostName() string { return "History" }

func (h *historyHost) authorize(op core.Op) error {
	if d := h.page.Monitor.Authorize(h.principal, op, historyContext(h.page.Origin)); !d.Allowed {
		return &dom.DeniedError{Decision: d}
	}
	return nil
}

func (h *historyHost) HostGet(name string) (script.Value, error) {
	switch name {
	case "length":
		if err := h.authorize(core.OpRead); err != nil {
			return nil, err
		}
		return float64(h.page.browser.history.Len()), nil
	case "back":
		// Instructing the browser to re-render a previous page is a
		// use of browser state (§4.1), ring-0-only like the reads.
		return script.Func("history.back", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			if err := h.authorize(core.OpUse); err != nil {
				return nil, err
			}
			if _, err := h.page.browser.Back(); err != nil {
				return nil, err
			}
			return nil, nil
		}), nil
	case "visited":
		// A deliberate sniffing API: real attacks infer this from
		// link colors; the model exposes it directly so the ring-0
		// protection is testable.
		return script.Func("history.visited", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			if err := h.authorize(core.OpRead); err != nil {
				return nil, err
			}
			if len(args) == 0 {
				return false, nil
			}
			return h.page.browser.history.Visited(script.ToString(args[0])), nil
		}), nil
	}
	return nil, nil
}

func (h *historyHost) HostSet(name string, v script.Value) error {
	return errors.New("history is not assignable")
}

// elementHost wraps a DOM node for scripts.
type elementHost struct {
	page      *Page
	api       *dom.API
	node      *html.Node
	principal core.Context
}

var _ script.HostObject = (*elementHost)(nil)

func (e *elementHost) HostName() string { return "Element<" + e.node.Tag + ">" }

func (e *elementHost) HostGet(name string) (script.Value, error) {
	switch name {
	case "tagName":
		return strings.ToUpper(e.node.Tag), nil
	case "id":
		v, _ := e.node.Attr("id")
		return v, nil
	case "innerHTML":
		return e.api.InnerHTML(e.node)
	case "innerText", "textContent":
		return e.api.InnerText(e.node)
	case "parentNode":
		if e.node.Parent == nil {
			return nil, nil
		}
		return &elementHost{page: e.page, api: e.api, node: e.node.Parent, principal: e.principal}, nil
	case "getAttribute":
		return script.Func("getAttribute", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			if len(args) == 0 {
				return nil, nil
			}
			v, err := e.api.GetAttribute(e.node, script.ToString(args[0]))
			if err != nil {
				return nil, err
			}
			return v, nil
		}), nil
	case "setAttribute":
		return script.Func("setAttribute", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			if len(args) < 2 {
				return nil, errors.New("setAttribute(name, value)")
			}
			name := script.ToString(args[0])
			value := script.ToString(args[1])
			if err := e.api.SetAttribute(e.node, name, value); err != nil {
				return nil, err
			}
			e.maybeFetchSrc(name, value)
			return nil, nil
		}), nil
	case "appendChild":
		return script.Func("appendChild", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			if len(args) == 0 {
				return nil, errors.New("appendChild(node)")
			}
			child, ok := args[0].(*elementHost)
			if !ok {
				return nil, errors.New("appendChild needs an element")
			}
			if err := e.api.AppendChild(e.node, child.node); err != nil {
				return nil, err
			}
			return args[0], nil
		}), nil
	case "removeChild":
		return script.Func("removeChild", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			if len(args) == 0 {
				return nil, errors.New("removeChild(node)")
			}
			child, ok := args[0].(*elementHost)
			if !ok {
				return nil, errors.New("removeChild needs an element")
			}
			if err := e.api.RemoveChild(e.node, child.node); err != nil {
				return nil, err
			}
			return args[0], nil
		}), nil
	case "click":
		return script.Func("click", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			// Script-initiated click: the script is the event
			// deliverer (a use), then anchors navigate.
			if err := e.page.DispatchEvent(e.node, "click", &e.principal); err != nil {
				return nil, err
			}
			if e.node.Tag == "a" {
				if _, err := e.page.ClickAnchor(e.node); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}), nil
	case "submit":
		return script.Func("submit", func(_ *script.Ctx, args []script.Value) (script.Value, error) {
			if e.node.Tag != "form" {
				return nil, errors.New("submit on non-form")
			}
			// Script-driven submission is a use of the form by the
			// script, then the form acts as the issuing principal.
			if d := e.page.Monitor.Authorize(e.principal, core.OpUse, e.page.Doc.NodeContext(e.node)); !d.Allowed {
				return nil, &dom.DeniedError{Decision: d}
			}
			resp, err := e.page.SubmitForm(e.node, nil)
			if err != nil {
				return nil, err
			}
			return float64(resp.Status), nil
		}), nil
	}
	return nil, nil
}

func (e *elementHost) HostSet(name string, v script.Value) error {
	switch name {
	case "innerHTML":
		return e.api.SetInnerHTML(e.node, script.ToString(v))
	case "innerText", "textContent":
		return e.api.SetText(e.node, script.ToString(v))
	case "src":
		if err := e.api.SetAttribute(e.node, "src", script.ToString(v)); err != nil {
			return err
		}
		e.maybeFetchSrc("src", script.ToString(v))
		return nil
	case "value":
		return e.api.SetAttribute(e.node, "value", script.ToString(v))
	case "id", "class", "href", "action", "name":
		return e.api.SetAttribute(e.node, name, script.ToString(v))
	}
	return fmt.Errorf("element.%s is not assignable", name)
}

// maybeFetchSrc fires the subresource request when a script points an
// img/iframe at a URL — the standard exfiltration channel in the XSS
// corpus. The *script* is the initiator: it set the source, so the
// request runs with its privileges.
func (e *elementHost) maybeFetchSrc(attr, value string) {
	if attr != "src" || value == "" {
		return
	}
	if e.node.Tag != "img" && e.node.Tag != "iframe" && e.node.Tag != "embed" {
		return
	}
	abs, err := origin.Resolve(e.page.URL, value)
	if err != nil {
		return
	}
	_, _ = e.page.browser.fetch("GET", abs, nil, e.principal, e.node.Tag+".src")
}
