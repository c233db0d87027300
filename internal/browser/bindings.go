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

// scriptRun is one script run in one record: the interpreter, the
// script's top scope, the page, the principal, its DOM API and its
// document host, so starting a script allocates once. It resolves the
// script's host globals on their first lookup: document, window, the
// Image constructor and the XMLHttpRequest constructor. Every host
// object of the run points back at the record instead of copying the
// principal, and every binding funnels through the page's reference
// monitor with the principal's security context.
type scriptRun struct {
	ip        script.Interp
	env       script.Env
	page      *Page
	principal core.Context
	api       dom.API
	doc       documentHost
}

var _ script.Globals = (*scriptRun)(nil)

func (r *scriptRun) Global(name string) (script.Value, bool) {
	switch name {
	case "document":
		return &r.doc, true
	case "window":
		return &windowHost{run: r}, true
	case "Image":
		return script.Func("Image", func(*script.Ctx, []script.Value) (script.Value, error) {
			// new Image() is a detached img element; setting .src fires
			// the request, the classic exfiltration vector.
			return r.element(r.api.CreateElement("img")), nil
		}), true
	case "XMLHttpRequest":
		// Use-mediated at open/send against the page's API ring;
		// construction itself is free.
		return script.Func("XMLHttpRequest", func(*script.Ctx, []script.Value) (script.Value, error) {
			return &xhrHost{run: r}, nil
		}), true
	}
	return nil, false
}

// element wraps a node for the run's script.
func (r *scriptRun) element(n *html.Node) *elementHost { return &elementHost{run: r, node: n} }

// documentHost exposes the document object.
type documentHost struct{ run *scriptRun }

var _ script.HostObject = (*documentHost)(nil)

// documentMethods are document's methods, called with the document as
// receiver.
var documentMethods = map[string]script.NativeMethod{
	"getElementById":       script.Method("document.getElementById", (*documentHost).getElementByID),
	"getElementsByTagName": script.Method("document.getElementsByTagName", (*documentHost).getElementsByTagName),
	"createElement":        script.Method("document.createElement", (*documentHost).createElement),
	"write":                script.Method("document.write", (*documentHost).write),
	"createTextNode":       script.Method("document.createTextNode", (*documentHost).createTextNode),
}

func (d *documentHost) HostName() string { return "HTMLDocument" }

func (d *documentHost) HostMethod(name string) script.NativeMethod { return documentMethods[name] }

func (d *documentHost) HostGet(name string) (script.Value, error) {
	r := d.run
	switch name {
	case "cookie":
		return r.page.readCookieString(r.principal), nil
	case "origin":
		return r.page.Origin.String(), nil
	case "URL", "location":
		return r.page.URL, nil
	case "body":
		if body := r.page.body(); body != nil {
			return r.element(body), nil
		}
		return nil, nil
	}
	return nil, nil
}

func (d *documentHost) getElementByID(_ *script.Ctx, args []script.Value) (script.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	n, err := d.run.api.GetElementByID(script.ToString(args[0]))
	if err != nil {
		return nil, err
	}
	if n == nil {
		return nil, nil
	}
	return d.run.element(n), nil
}

func (d *documentHost) getElementsByTagName(_ *script.Ctx, args []script.Value) (script.Value, error) {
	arr := &script.Array{}
	if len(args) == 0 {
		return arr, nil
	}
	for _, n := range d.run.api.GetElementsByTagName(script.ToString(args[0])) {
		arr.Elems = append(arr.Elems, d.run.element(n))
	}
	return arr, nil
}

func (d *documentHost) createElement(_ *script.Ctx, args []script.Value) (script.Value, error) {
	if len(args) == 0 {
		return nil, errors.New("createElement needs a tag")
	}
	return d.run.element(d.run.api.CreateElement(script.ToString(args[0]))), nil
}

// write is post-parse document.write: it appends parsed markup to the
// body, mediated as a write on the body and bounded by the scoping
// rule — a ring-3 script cannot write a ring-0 principal into
// existence (§5).
func (d *documentHost) write(_ *script.Ctx, args []script.Value) (script.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	p := d.run.page
	body := p.body()
	if body == nil {
		body = p.Doc.Root
	}
	if err := d.run.api.AppendHTML(body, script.ToString(args[0])); err != nil {
		return nil, err
	}
	// Scripts introduced by document.write execute immediately, each
	// under its own (bounded) context.
	p.runScripts()
	return nil, nil
}

func (d *documentHost) createTextNode(_ *script.Ctx, args []script.Value) (script.Value, error) {
	text := ""
	if len(args) > 0 {
		text = script.ToString(args[0])
	}
	return d.run.element(d.run.api.CreateTextNode(text)), nil
}

func (d *documentHost) HostSet(name string, v script.Value) error {
	r := d.run
	switch name {
	case "cookie":
		return r.page.writeCookieString(r.principal, script.ToString(v))
	case "location":
		abs, err := origin.Resolve(r.page.URL, script.ToString(v))
		if err != nil {
			return err
		}
		_, err = r.page.browser.NavigateFrom(r.principal, abs, "document.location")
		return err
	}
	return fmt.Errorf("document.%s is not assignable", name)
}

// body returns the page's body element, or nil.
func (p *Page) body() *html.Node {
	return p.Doc.Find(func(n *html.Node) bool {
		return n.Type == html.ElementNode && n.Tag == "body"
	})
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
	run      *scriptRun
	method   string
	url      string
	status   float64
	response string
	opened   bool
}

var _ script.HostObject = (*xhrHost)(nil)

var xhrMethods = map[string]script.NativeMethod{
	"open": script.Method("XMLHttpRequest.open", (*xhrHost).open),
	"send": script.Method("XMLHttpRequest.send", (*xhrHost).send),
}

// apiContext returns the native-code API object context for this
// page.
func (p *Page) apiContext(name string) core.Context {
	ring := p.Config.APIRing(name)
	return core.Object(p.Origin, ring, core.UniformACL(ring), "api "+name)
}

func (x *xhrHost) HostName() string { return "XMLHttpRequest" }

func (x *xhrHost) HostMethod(name string) script.NativeMethod { return xhrMethods[name] }

func (x *xhrHost) HostGet(name string) (script.Value, error) {
	switch name {
	case "status":
		return x.status, nil
	case "responseText":
		return x.response, nil
	}
	return nil, nil
}

// authorizeUse mediates one use of the XMLHttpRequest API.
func (x *xhrHost) authorizeUse() error {
	p := x.run.page
	if d := p.Monitor.Authorize(x.run.principal, core.OpUse, p.apiContext(core.APIXMLHTTPRequest)); !d.Allowed {
		return &dom.DeniedError{Decision: d}
	}
	return nil
}

func (x *xhrHost) open(_ *script.Ctx, args []script.Value) (script.Value, error) {
	if len(args) < 2 {
		return nil, errors.New("open(method, url)")
	}
	if err := x.authorizeUse(); err != nil {
		return nil, err
	}
	x.method = strings.ToUpper(script.ToString(args[0]))
	abs, err := origin.Resolve(x.run.page.URL, script.ToString(args[1]))
	if err != nil {
		return nil, err
	}
	x.url = abs
	x.opened = true
	return nil, nil
}

func (x *xhrHost) send(_ *script.Ctx, args []script.Value) (script.Value, error) {
	if !x.opened {
		return nil, errors.New("send before open")
	}
	if err := x.authorizeUse(); err != nil {
		return nil, err
	}
	p := x.run.page
	// The classic XHR same-origin restriction applies in both modes
	// (no CORS in this model).
	target, err := origin.Parse(x.url)
	if err != nil {
		return nil, err
	}
	if !target.SameOrigin(p.Origin) {
		return nil, fmt.Errorf("xhr: cross-origin request to %s blocked", target)
	}
	var form url.Values
	if x.method == "POST" && len(args) > 0 {
		form, err = url.ParseQuery(script.ToString(args[0]))
		if err != nil {
			form = url.Values{}
		}
	}
	resp, err := p.browser.fetch(x.method, x.url, form, x.run.principal, "xhr")
	if err != nil {
		return nil, err
	}
	x.status = float64(resp.Status)
	x.response = resp.Body
	return nil, nil
}

func (x *xhrHost) HostSet(name string, v script.Value) error {
	return fmt.Errorf("XMLHttpRequest.%s is not assignable", name)
}

// windowHost exposes window: location, history, and page metadata.
type windowHost struct{ run *scriptRun }

var _ script.HostObject = (*windowHost)(nil)

func (w *windowHost) HostName() string { return "Window" }

func (w *windowHost) HostGet(name string) (script.Value, error) {
	switch name {
	case "location":
		return w.run.page.URL, nil
	case "origin":
		return w.run.page.Origin.String(), nil
	case "history":
		return &historyHost{run: w.run}, nil
	}
	return nil, nil
}

func (w *windowHost) HostMethod(string) script.NativeMethod { return nil }

func (w *windowHost) HostSet(name string, v script.Value) error {
	if name == "location" {
		p := w.run.page
		abs, err := origin.Resolve(p.URL, script.ToString(v))
		if err != nil {
			return err
		}
		_, err = p.browser.NavigateFrom(w.run.principal, abs, "window.location")
		return err
	}
	return fmt.Errorf("window.%s is not assignable", name)
}

// historyHost exposes window.history under the §4.1 browser-state
// rule: ring 0 only, not configurable.
type historyHost struct{ run *scriptRun }

var _ script.HostObject = (*historyHost)(nil)

var historyMethods = map[string]script.NativeMethod{
	"back":    script.Method("history.back", (*historyHost).back),
	"visited": script.Method("history.visited", (*historyHost).visited),
}

func (h *historyHost) HostName() string { return "History" }

func (h *historyHost) HostMethod(name string) script.NativeMethod { return historyMethods[name] }

func (h *historyHost) authorize(op core.Op) error {
	p := h.run.page
	if d := p.Monitor.Authorize(h.run.principal, op, historyContext(p.Origin)); !d.Allowed {
		return &dom.DeniedError{Decision: d}
	}
	return nil
}

func (h *historyHost) HostGet(name string) (script.Value, error) {
	if name == "length" {
		if err := h.authorize(core.OpRead); err != nil {
			return nil, err
		}
		return float64(h.run.page.browser.history.Len()), nil
	}
	return nil, nil
}

// back instructs the browser to re-render a previous page: a use of
// browser state (§4.1), ring-0-only like the reads.
func (h *historyHost) back(*script.Ctx, []script.Value) (script.Value, error) {
	if err := h.authorize(core.OpUse); err != nil {
		return nil, err
	}
	if _, err := h.run.page.browser.Back(); err != nil {
		return nil, err
	}
	return nil, nil
}

// visited is a deliberate sniffing API: real attacks infer this from
// link colors; the model exposes it directly so the ring-0 protection
// is testable.
func (h *historyHost) visited(_ *script.Ctx, args []script.Value) (script.Value, error) {
	if err := h.authorize(core.OpRead); err != nil {
		return nil, err
	}
	if len(args) == 0 {
		return false, nil
	}
	return h.run.page.browser.history.Visited(script.ToString(args[0])), nil
}

func (h *historyHost) HostSet(name string, v script.Value) error {
	return errors.New("history is not assignable")
}

// elementHost wraps a DOM node for scripts.
type elementHost struct {
	run  *scriptRun
	node *html.Node
}

var _ script.HostObject = (*elementHost)(nil)

// elementMethods are an element's methods, called with the element as
// receiver.
var elementMethods = map[string]script.NativeMethod{
	"getAttribute": script.Method("getAttribute", (*elementHost).getAttribute),
	"setAttribute": script.Method("setAttribute", (*elementHost).setAttribute),
	"appendChild":  script.Method("appendChild", (*elementHost).appendChild),
	"removeChild":  script.Method("removeChild", (*elementHost).removeChild),
	"click":        script.Method("click", (*elementHost).click),
	"submit":       script.Method("submit", (*elementHost).submit),
}

func (e *elementHost) HostName() string { return "Element<" + e.node.Tag + ">" }

func (e *elementHost) HostMethod(name string) script.NativeMethod { return elementMethods[name] }

func (e *elementHost) HostGet(name string) (script.Value, error) {
	switch name {
	case "tagName":
		return strings.ToUpper(e.node.Tag), nil
	case "id":
		v, _ := e.node.Attr("id")
		return v, nil
	case "innerHTML":
		return e.run.api.InnerHTML(e.node)
	case "innerText", "textContent":
		return e.run.api.InnerText(e.node)
	case "parentNode":
		if e.node.Parent == nil {
			return nil, nil
		}
		return e.run.element(e.node.Parent), nil
	}
	return nil, nil
}

func (e *elementHost) getAttribute(_ *script.Ctx, args []script.Value) (script.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	v, err := e.run.api.GetAttribute(e.node, script.ToString(args[0]))
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (e *elementHost) setAttribute(_ *script.Ctx, args []script.Value) (script.Value, error) {
	if len(args) < 2 {
		return nil, errors.New("setAttribute(name, value)")
	}
	name := script.ToString(args[0])
	value := script.ToString(args[1])
	if err := e.run.api.SetAttribute(e.node, name, value); err != nil {
		return nil, err
	}
	e.maybeFetchSrc(name, value)
	return nil, nil
}

func (e *elementHost) appendChild(_ *script.Ctx, args []script.Value) (script.Value, error) {
	if len(args) == 0 {
		return nil, errors.New("appendChild(node)")
	}
	child, ok := args[0].(*elementHost)
	if !ok {
		return nil, errors.New("appendChild needs an element")
	}
	if err := e.run.api.AppendChild(e.node, child.node); err != nil {
		return nil, err
	}
	return args[0], nil
}

func (e *elementHost) removeChild(_ *script.Ctx, args []script.Value) (script.Value, error) {
	if len(args) == 0 {
		return nil, errors.New("removeChild(node)")
	}
	child, ok := args[0].(*elementHost)
	if !ok {
		return nil, errors.New("removeChild needs an element")
	}
	if err := e.run.api.RemoveChild(e.node, child.node); err != nil {
		return nil, err
	}
	return args[0], nil
}

// click is a script-initiated click: the script is the event deliverer
// (a use), then anchors navigate.
func (e *elementHost) click(*script.Ctx, []script.Value) (script.Value, error) {
	p := e.run.page
	if err := p.DispatchEvent(e.node, "click", &e.run.principal); err != nil {
		return nil, err
	}
	if e.node.Tag == "a" {
		if _, err := p.ClickAnchor(e.node); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// submit is script-driven submission: a use of the form by the script,
// then the form acts as the issuing principal.
func (e *elementHost) submit(*script.Ctx, []script.Value) (script.Value, error) {
	if e.node.Tag != "form" {
		return nil, errors.New("submit on non-form")
	}
	p := e.run.page
	if d := p.Monitor.Authorize(e.run.principal, core.OpUse, p.Doc.NodeContext(e.node)); !d.Allowed {
		return nil, &dom.DeniedError{Decision: d}
	}
	resp, err := p.SubmitForm(e.node, nil)
	if err != nil {
		return nil, err
	}
	return float64(resp.Status), nil
}

func (e *elementHost) HostSet(name string, v script.Value) error {
	api := &e.run.api
	switch name {
	case "innerHTML":
		return api.SetInnerHTML(e.node, script.ToString(v))
	case "innerText", "textContent":
		return api.SetText(e.node, script.ToString(v))
	case "src":
		if err := api.SetAttribute(e.node, "src", script.ToString(v)); err != nil {
			return err
		}
		e.maybeFetchSrc("src", script.ToString(v))
		return nil
	case "value":
		return api.SetAttribute(e.node, "value", script.ToString(v))
	case "id", "class", "href", "action", "name":
		return api.SetAttribute(e.node, name, script.ToString(v))
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
	p := e.run.page
	abs, err := origin.Resolve(p.URL, value)
	if err != nil {
		return
	}
	_, _ = p.browser.fetch("GET", abs, nil, e.run.principal, e.node.Tag+".src")
}
