// Package dom wraps the parse tree in a document abstraction and
// provides the mediated DOM API: every read, write, and implicit use
// of a DOM element flows through a core.Monitor, which is where the
// ESCUDO Reference Monitor interposes (paper §6.1: "the places to
// embed the checks is specific to the object type").
//
// DOM elements act as both principals and objects (Table 1); the API
// object carries the calling principal's security context, so the same
// document can be manipulated concurrently by principals of different
// rings with different outcomes.
package dom

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/html"
	"repro/internal/origin"
)

// Document is one loaded web page's DOM plus its security metadata.
type Document struct {
	// Origin is the page's web origin.
	Origin origin.Origin
	// Root is the document node of the parse tree.
	Root *html.Node
	// MaxRing is the page's least privileged ring.
	MaxRing core.Ring
	// Escudo records whether the page was parsed with ESCUDO
	// labeling (false for legacy mode).
	Escudo bool
}

// NewDocument parses markup into a labeled document. opts selects
// ESCUDO or legacy labeling; the document remembers both the origin
// and the ring bound for later fragment parses.
func NewDocument(o origin.Origin, markup string, opts html.Options) *Document {
	return &Document{
		Origin:  o,
		Root:    html.Parse(markup, opts),
		MaxRing: opts.MaxRing,
		Escudo:  opts.Escudo,
	}
}

// NodeContext builds the object security context of a node within the
// document. An element's context carries its tag as the label and its
// id attribute (a substring the parsed document already holds) as the
// ID, so building it allocates nothing.
func (d *Document) NodeContext(n *html.Node) core.Context {
	c := core.Object(d.Origin, n.Ring, n.ACL, n.Tag)
	switch n.Type {
	case html.DocumentNode:
		c.Label = "#document"
	case html.TextNode:
		c.Label = "#text"
	case html.CommentNode:
		c.Label = "#comment"
	case html.DoctypeNode:
		c.Label = "#doctype"
	default:
		c.ID, _ = n.Attr("id")
	}
	return c
}

// Find returns the first node satisfying pred in document order,
// without any access check. It is the browser-internal (ring 0)
// lookup primitive.
func (d *Document) Find(pred func(*html.Node) bool) *html.Node {
	var found *html.Node
	html.Walk(d.Root, func(n *html.Node) bool {
		if pred(n) {
			found = n
			return false
		}
		return true
	})
	return found
}

// ByID returns the element with the given id, unchecked.
func (d *Document) ByID(id string) *html.Node {
	return d.Find(func(n *html.Node) bool {
		v, ok := n.Attr("id")
		return ok && v == id
	})
}

// ByTag returns all elements with the given tag, unchecked.
func (d *Document) ByTag(tag string) []*html.Node {
	var out []*html.Node
	html.Walk(d.Root, func(n *html.Node) bool {
		if n.Type == html.ElementNode && n.Tag == tag {
			out = append(out, n)
		}
		return true
	})
	return out
}

// DeniedError is returned by mediated API calls whose access the
// monitor refused; it carries the full decision for auditability.
type DeniedError struct {
	Decision core.Decision
}

// Error implements error.
func (e *DeniedError) Error() string {
	return fmt.Sprintf("dom: access denied: %s", e.Decision)
}

// ErrConfigAttribute is returned when a script touches an ESCUDO
// configuration attribute; §5: configuration "is not exposed to
// JavaScript programs for modification. ... such attempts to modify
// the attributes cannot succeed."
var ErrConfigAttribute = errors.New("dom: escudo configuration attributes are not exposed")

// ErrDetached is returned when an operation needs an attached node but
// got a detached one.
var ErrDetached = errors.New("dom: node is not attached to the document")

// API is the DOM API as seen by one principal: the paper's "Native
// Code API" object binding. All methods authorize against the
// document's monitor before touching the tree.
type API struct {
	doc       *Document
	principal core.Context
	monitor   core.Monitor
}

// NewAPI binds the DOM API to a principal. The monitor decides every
// access; principal is the security context of the JavaScript program
// (or other principal) driving the API.
func NewAPI(doc *Document, principal core.Context, monitor core.Monitor) *API {
	return new(API).Bind(doc, principal, monitor)
}

// Bind is NewAPI in storage the caller owns (a script run's record): it
// binds a to the principal and returns a.
func (a *API) Bind(doc *Document, principal core.Context, monitor core.Monitor) *API {
	*a = API{doc: doc, principal: principal, monitor: monitor}
	return a
}

// Principal returns the bound principal context.
func (a *API) Principal() core.Context { return a.principal }

// Document returns the underlying document.
func (a *API) Document() *Document { return a.doc }

// authorize runs one access decision and converts a denial to an
// error.
func (a *API) authorize(op core.Op, obj core.Context) error {
	d := a.monitor.Authorize(a.principal, op, obj)
	if !d.Allowed {
		return &DeniedError{Decision: d}
	}
	return nil
}

// authorizeSubtree batch-authorizes op on every node of the region
// rooted at n, returning the decisions in document order. The nodes
// collapse into (origin, ring, ACL) equivalence classes so a region of
// m nodes costs k ≤ m distinct decision computations, but every node
// is still individually audited — §4.2 complete mediation is
// unchanged, only the decision computation is deduplicated.
func (a *API) authorizeSubtree(n *html.Node, op core.Op) []core.Decision {
	return a.authorizeSubtreeFiltered(n, op, nil)
}

// authorizeSubtreeFiltered is authorizeSubtree restricted to nodes
// passing keep (nil keeps every node). Skipped nodes are not
// authorized, not audited, and have no decision.
func (a *API) authorizeSubtreeFiltered(n *html.Node, op core.Op, keep func(*html.Node) bool) []core.Decision {
	count := 0
	html.Walk(n, func(x *html.Node) bool {
		if keep == nil || keep(x) {
			count++
		}
		return true
	})
	ctxs := make([]core.Context, 0, count)
	html.Walk(n, func(x *html.Node) bool {
		if keep == nil || keep(x) {
			ctxs = append(ctxs, a.doc.NodeContext(x))
		}
		return true
	})
	return core.AuthorizeBatch(a.monitor, a.principal, op, ctxs)
}

// AuthorizeRenderRegion mediates a render/layout traversal of the
// region rooted at n: every element (and the document root) is
// batch-authorized for reading. Text and comment nodes render under
// their element's authority — they share its (origin, ring, ACL)
// equivalence class by construction, so element-level mediation is
// exactly as strong while the audit stream stays proportional to the
// box tree. The returned set holds the denied elements (each denial
// hides the element's whole subtree); a denied region root returns
// the root's DeniedError.
func (a *API) AuthorizeRenderRegion(n *html.Node) (denied map[*html.Node]bool, err error) {
	keep := func(x *html.Node) bool {
		return x.Type == html.ElementNode || x.Type == html.DocumentNode
	}
	return deniedSet(n, keep, a.authorizeSubtreeFiltered(n, core.OpRead, keep))
}

// deniedSet converts the decisions of the region rooted at root,
// filtered by keep, into the denied descendants, or the root's
// DeniedError if the root itself was denied. The decisions are in
// document order, so a kept root is decision 0, and only when a
// descendant is denied does it walk the region again to pair decision
// i with kept node i.
func deniedSet(root *html.Node, keep func(*html.Node) bool, decisions []core.Decision) (map[*html.Node]bool, error) {
	n, last := 0, -1
	for i := range decisions {
		if !decisions[i].Allowed {
			n, last = n+1, i
		}
	}
	if n == 0 {
		return nil, nil
	}
	if !decisions[0].Allowed && (keep == nil || keep(root)) {
		return nil, &DeniedError{Decision: decisions[0]}
	}
	denied := make(map[*html.Node]bool, n)
	i := 0
	html.Walk(root, func(x *html.Node) bool {
		if keep != nil && !keep(x) {
			return true
		}
		if !decisions[i].Allowed {
			denied[x] = true
		}
		i++
		return i <= last
	})
	return denied, nil
}

// AuthorizeSubtree batch-authorizes op over the region rooted at n
// (see authorizeSubtree: one decision computation per equivalence
// class, every node audited).
//
// If the region's root is denied, the root's DeniedError is returned.
// Otherwise denied holds the denied descendants (nil when the whole
// region is accessible); readers elide those subtrees, the way a real
// ESCUDO browser would hide inner-ring content.
func (a *API) AuthorizeSubtree(n *html.Node, op core.Op) (denied map[*html.Node]bool, err error) {
	return deniedSet(n, nil, a.authorizeSubtree(n, op))
}

// authorizeRegionWrite authorizes a write over the whole region rooted
// at n — the root and every descendant the write destroys or replaces.
// Unlike reads, a region write cannot elide: any denial fails the
// whole operation with that node's decision.
func (a *API) authorizeRegionWrite(n *html.Node) error {
	for _, d := range a.authorizeSubtree(n, core.OpWrite) {
		if !d.Allowed {
			return &DeniedError{Decision: d}
		}
	}
	return nil
}

// includeFunc converts a denied set into the include predicate the
// filtered serializers take (nil when nothing is denied, which selects
// the unfiltered fast path).
func includeFunc(denied map[*html.Node]bool) func(*html.Node) bool {
	if len(denied) == 0 {
		return nil
	}
	return func(n *html.Node) bool { return !denied[n] }
}

// GetElementByID returns the element with the given id if the
// principal may read it.
func (a *API) GetElementByID(id string) (*html.Node, error) {
	n := a.doc.ByID(id)
	if n == nil {
		return nil, nil
	}
	if err := a.authorize(core.OpRead, a.doc.NodeContext(n)); err != nil {
		return nil, err
	}
	return n, nil
}

// GetElementsByTagName returns the elements with the given tag that
// the principal may read. Unreadable elements are silently omitted,
// the way a real ESCUDO browser would hide inner-ring content. The
// candidates are authorized as one batch: elements sharing a (ring,
// ACL) class cost a single decision computation, each still audited.
func (a *API) GetElementsByTagName(tag string) []*html.Node {
	nodes := a.doc.ByTag(tag)
	if len(nodes) == 0 {
		return nil
	}
	ctxs := make([]core.Context, len(nodes))
	for i, n := range nodes {
		ctxs[i] = a.doc.NodeContext(n)
	}
	var out []*html.Node
	for i, d := range core.AuthorizeBatch(a.monitor, a.principal, core.OpRead, ctxs) {
		if d.Allowed {
			out = append(out, nodes[i])
		}
	}
	return out
}

// InnerText returns the region's text if the principal may read the
// node. The whole region is batch-authorized; text under denied
// descendants is elided.
func (a *API) InnerText(n *html.Node) (string, error) {
	denied, err := a.AuthorizeSubtree(n, core.OpRead)
	if err != nil {
		return "", err
	}
	return html.InnerTextFiltered(n, includeFunc(denied)), nil
}

// InnerHTML serializes the node's children if the principal may read
// the node. Reading a region is reading every node in it: the subtree
// is batch-authorized (one decision computation per equivalence
// class, every node audited), and subtrees the principal may not read
// are elided from the serialization.
func (a *API) InnerHTML(n *html.Node) (string, error) {
	denied, err := a.AuthorizeSubtree(n, core.OpRead)
	if err != nil {
		return "", err
	}
	include := includeFunc(denied)
	// The kids append into one buffer, converted once; a typical
	// region's markup fits the stack array and costs only the string.
	var stack [1024]byte
	buf := stack[:0]
	for _, k := range n.Kids {
		buf = html.AppendRendered(buf, k, include)
	}
	return string(buf), nil
}

// SetInnerHTML replaces the node's children with freshly parsed
// markup. The write is authorized over the whole region it replaces —
// the node and every descendant destroyed by the replacement, batched
// by equivalence class — and the fragment parse applies the scoping
// rule with the node's ring as the bound, so "a malicious principal
// cannot create a new principal that has higher privileges than
// itself" (§5).
func (a *API) SetInnerHTML(n *html.Node, markup string) error {
	if err := a.authorizeRegionWrite(n); err != nil {
		return err
	}
	base := n.Ring.Outermost(a.principal.Ring)
	kids := html.ParseFragment(markup, html.Options{Escudo: a.doc.Escudo, MaxRing: a.doc.MaxRing}, base, n.ACL)
	n.Kids = nil
	for _, k := range kids {
		n.AppendChild(k)
	}
	return nil
}

// AppendHTML parses markup and appends the resulting nodes as
// children of n (document.write's post-parse semantics). The write is
// authorized against n and the fragment is bounded by both n's ring
// and the principal's ring under the scoping rule.
func (a *API) AppendHTML(n *html.Node, markup string) error {
	if err := a.authorize(core.OpWrite, a.doc.NodeContext(n)); err != nil {
		return err
	}
	base := n.Ring.Outermost(a.principal.Ring)
	kids := html.ParseFragment(markup, html.Options{Escudo: a.doc.Escudo, MaxRing: a.doc.MaxRing}, base, n.ACL)
	for _, k := range kids {
		n.AppendChild(k)
	}
	return nil
}

// CreateElement returns a detached element labeled at the principal's
// own ring — a principal creates content at its own privilege, never
// above it.
func (a *API) CreateElement(tag string) *html.Node {
	return &html.Node{
		Type: html.ElementNode,
		Tag:  strings.ToLower(tag),
		Ring: a.principal.Ring,
		ACL:  core.PermissiveACL(a.doc.MaxRing),
	}
}

// CreateTextNode returns a detached text node at the principal's ring.
func (a *API) CreateTextNode(text string) *html.Node {
	return &html.Node{
		Type: html.TextNode,
		Data: text,
		Ring: a.principal.Ring,
		ACL:  core.PermissiveACL(a.doc.MaxRing),
	}
}

// AppendChild attaches child under parent. The principal needs write
// on the parent; the scoping rule then clamps the whole inserted
// subtree to rings no more privileged than the parent's.
func (a *API) AppendChild(parent, child *html.Node) error {
	if err := a.authorize(core.OpWrite, a.doc.NodeContext(parent)); err != nil {
		return err
	}
	clampSubtree(child, parent.Ring.Outermost(a.principal.Ring))
	parent.AppendChild(child)
	return nil
}

// RemoveChild detaches child from parent. The principal needs write
// on the parent (whose child list changes) and, like the other
// region-destroying writes, on every node of the removed subtree —
// a principal cannot destroy a region it could not rewrite.
func (a *API) RemoveChild(parent, child *html.Node) error {
	if err := a.authorize(core.OpWrite, a.doc.NodeContext(parent)); err != nil {
		return err
	}
	if err := a.authorizeRegionWrite(child); err != nil {
		return err
	}
	for i, k := range parent.Kids {
		if k == child {
			parent.Kids = append(parent.Kids[:i], parent.Kids[i+1:]...)
			child.Parent = nil
			return nil
		}
	}
	return ErrDetached
}

// GetAttribute reads an attribute. ESCUDO configuration attributes
// are invisible: they were stripped at parse time and remain
// unobservable here regardless of privileges (§5).
func (a *API) GetAttribute(n *html.Node, name string) (string, error) {
	name = strings.ToLower(name)
	if a.doc.Escudo && core.IsConfigAttr(name) {
		return "", nil
	}
	if err := a.authorize(core.OpRead, a.doc.NodeContext(n)); err != nil {
		return "", err
	}
	v, _ := n.Attr(name)
	return v, nil
}

// SetAttribute writes an attribute; configuration attributes are
// rejected outright, the §5(1) defense against privilege remapping via
// setAttribute.
func (a *API) SetAttribute(n *html.Node, name, value string) error {
	name = strings.ToLower(name)
	if a.doc.Escudo && core.IsConfigAttr(name) {
		return ErrConfigAttribute
	}
	if err := a.authorize(core.OpWrite, a.doc.NodeContext(n)); err != nil {
		return err
	}
	for i, attr := range n.Attrs {
		if attr.Name == name {
			n.Attrs[i].Value = value
			return nil
		}
	}
	n.Attrs = append(n.Attrs, html.Attr{Name: name, Value: value})
	return nil
}

// SetText replaces the node's children with a single text node. Like
// SetInnerHTML, the write covers the whole region it destroys.
func (a *API) SetText(n *html.Node, text string) error {
	if err := a.authorizeRegionWrite(n); err != nil {
		return err
	}
	n.Kids = nil
	n.AppendChild(&html.Node{Type: html.TextNode, Data: text, Ring: n.Ring, ACL: n.ACL})
	return nil
}

// clampSubtree applies the scoping rule to an inserted subtree: every
// node's ring becomes at least bound, propagating the bound downward.
func clampSubtree(n *html.Node, bound core.Ring) {
	n.Ring = n.Ring.Outermost(bound)
	for _, k := range n.Kids {
		clampSubtree(k, n.Ring)
	}
}

// CheckScopingInvariant verifies the §5 scoping rule over the whole
// document: no node inside an AC scope is more privileged than the
// scope. (Unlabeled top-level regions carry the fail-safe
// least-privileged *label* without bounding server-authored AC tags,
// so the check follows AC-scope nesting, not raw parent links.) It
// returns the first violating node, or nil.
func (d *Document) CheckScopingInvariant() *html.Node {
	var bad *html.Node
	var walk func(n *html.Node, bound core.Ring)
	walk = func(n *html.Node, bound core.Ring) {
		if bad != nil {
			return
		}
		if n.Ring < bound {
			bad = n
			return
		}
		next := bound
		if n.IsACTag {
			next = n.Ring
		}
		for _, k := range n.Kids {
			walk(k, next)
		}
	}
	walk(d.Root, core.RingKernel)
	return bad
}
