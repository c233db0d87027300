package html

import (
	"strings"

	"repro/internal/core"
)

// NodeType identifies the kind of a parse-tree node.
type NodeType uint8

// Node types.
const (
	DocumentNode NodeType = iota + 1
	ElementNode
	TextNode
	CommentNode
	DoctypeNode
)

// Node is one node of the parse tree. The parser resolves ESCUDO
// labels during construction: Ring and ACL carry the security context
// of the scope the node appeared in, and configuration attributes
// (ring, r, w, x, nonce) are stripped from Attrs so they are never
// observable through the DOM API (paper §5: the configuration "is not
// exposed to JavaScript programs for modification").
//
// The narrow fields lead, so the type, the labels and the AC-tag flag
// share one word.
type Node struct {
	Type NodeType
	// Ring and ACL are the resolved ESCUDO labels. For legacy parses
	// (Options.Escudo false) they are the zero ring with a uniform
	// ring-0 ACL, which makes the ERM coincide with the SOP.
	Ring core.Ring
	ACL  core.ACL
	// IsACTag marks elements that carried a ring attribute.
	IsACTag bool

	// Tag is the lowercase element name for ElementNode.
	Tag string
	// Attrs are the element's attributes minus ESCUDO configuration.
	Attrs []Attr
	// Data is the text for TextNode, the body for CommentNode and
	// DoctypeNode.
	Data string

	Parent *Node
	Kids   []*Node
}

// AppendChild links child as the last child of n.
func (n *Node) AppendChild(child *Node) {
	child.Parent = n
	n.Kids = append(n.Kids, child)
}

// Attr returns the value of the named (lowercase) attribute.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Options configures a parse.
type Options struct {
	// Escudo enables ESCUDO labeling: AC-tag recognition, the
	// scoping rule, configuration stripping, and the nonce defense.
	// When false the parser behaves like a legacy browser: AC
	// attributes are ordinary attributes (§6.3 backward
	// compatibility), and all labels are ring 0.
	Escudo bool
	// MaxRing is the page's least privileged ring (from
	// X-Escudo-Maxring). Ignored unless Escudo is set.
	MaxRing core.Ring
	// BaseRing is the *label* of the document scope: content outside
	// any AC tag gets this ring. Configured pages use the fail-safe
	// least privileged ring (§4.3); legacy pages use 0.
	BaseRing core.Ring
	// BaseACL is the ACL label of the document scope.
	BaseACL core.ACL
	// BaseBound is the scoping-rule floor for AC tags declared in the
	// top-level scope. A full document parse uses 0: the server
	// speaks with ring-0 authority when it authors top-level AC tags.
	// Fragment parses (innerHTML) use the host node's ring so written
	// markup can never mint a more privileged principal (§5).
	BaseBound core.Ring

	// AblateNonceDefense disables the §5 markup-randomization check:
	// any </div> closes a nonce-sealed AC scope. FOR ABLATION
	// EXPERIMENTS ONLY — it re-enables node-splitting.
	AblateNonceDefense bool
	// AblateScopingRule disables the §5 scoping rule: declared rings
	// are taken at face value regardless of the enclosing scope. FOR
	// ABLATION EXPERIMENTS ONLY — injected content can then mint
	// higher-privileged principals.
	AblateScopingRule bool
}

// LegacyOptions returns options for a non-ESCUDO parse: everything in
// ring 0 with a ring-0 ACL (SOP-equivalent labels).
func LegacyOptions() Options {
	return Options{Escudo: false, MaxRing: 0, BaseRing: 0, BaseACL: core.UniformACL(0)}
}

// scope is one level of the AC-tag scope stack. label ring/acl apply
// to content in the scope; bound is the scoping-rule floor for nested
// AC tags (only AC tags — and fragment hosts — impose bounds).
type scope struct {
	node  *Node
	ring  core.Ring
	acl   core.ACL
	bound core.Ring
	nonce string // empty when the scope is not nonce-protected
	ac    bool   // whether node is an AC tag
}

// openElement is one entry of the open-element stack: the element and
// where its children start in Parser.kids.
type openElement struct {
	node *Node
	kids int
}

// store is the per-document storage a parse cuts nodes, child links
// and kept attributes from, so a page costs a handful of allocations
// instead of a few per node. Each Kids and Attrs window is cut with
// cap == len: an append to one node's list (the DOM API's
// SetAttribute and AppendChild) reallocates it rather than writing
// into a neighbour's.
type store struct {
	nodes []Node
	kids  []*Node
	attrs []Attr
	// size is the node and child-link block size, attrSize the
	// attribute block size.
	size, attrSize int
}

// take cuts a window of n zeroed entries from the front of *block,
// refilling the block with max(n, size) fresh entries when it runs
// short. The window's capacity is its length.
func take[T any](block *[]T, n, size int) []T {
	if n == 0 {
		return nil
	}
	if len(*block) < n {
		*block = make([]T, max(n, size))
	}
	w := (*block)[:n:n]
	*block = (*block)[n:]
	return w
}

// Parser builds a labeled tree from tokens.
type Parser struct {
	opts  Options
	doc   *Node
	store store
	// open is the stack of open elements; open[0] is the document.
	open []openElement
	// kids holds the children of every open element in document
	// order; each element's run is cut into its Kids when it closes.
	kids []*Node
	// scopes parallels AC-tag nesting, independent of the element
	// stack; scopes[0] is the document scope.
	scopes []scope
	// ignoredClosers counts </div> tokens dropped by the nonce
	// defense, exposed for the security-analysis tests and audit.
	ignoredClosers int
}

// maxBlock caps the node and child-link block size. A '<' inside raw
// text, a comment or plain text never becomes a node, so a block sized
// from an uncapped count would cost 112 bytes per such '<' for as long
// as any node of the document lives. Every Figure 4 page fits in one
// block (S8, the largest, has 508 '<'s); a larger or denser input
// wastes at most one block's unused tail.
const maxBlock = 1024

// newParser returns a parser whose storage is sized for an input with
// lt '<' bytes, up to maxBlock. Every node but a text node and the
// document begins at a '<', and on the pages served here text nodes
// rarely outnumber the remaining '<'s, so one block usually holds the
// whole tree. Elements begin at about half the '<'s and keep about one
// attribute each. The stacks start at capacities that hold the nesting
// and sibling counts of typical pages, so they rarely grow.
func newParser(opts Options, lt int) *Parser {
	lt = min(lt, maxBlock)
	p := &Parser{opts: opts, store: store{size: lt + 1, attrSize: lt/2 + 1}}
	p.doc = p.node(DocumentNode, "", "", opts.BaseRing, opts.BaseACL)
	p.open = append(make([]openElement, 0, 16), openElement{node: p.doc})
	p.kids = make([]*Node, 0, 64)
	p.scopes = append(make([]scope, 0, 8), scope{node: p.doc, ring: opts.BaseRing, acl: opts.BaseACL, bound: opts.BaseBound})
	return p
}

// Parse parses a complete document. It tokenizes in one pass, each
// token read in place by a parser whose storage is sized from the
// input's '<' count.
func Parse(input string, opts Options) *Node {
	p := newParser(opts, strings.Count(input, "<"))
	z := Tokenizer{input: input, attrs: make([]Attr, 0, 8)}
	for {
		tok := z.next()
		if tok.Type == EOFToken {
			return p.Finish()
		}
		p.feed(tok)
	}
}

// ParseFragment parses markup produced at run time (innerHTML,
// document.write) under an enclosing scope: the scoping rule bounds
// every declared ring by parentRing, so a script can never manufacture
// a child more privileged than the subtree it writes into (§5).
func ParseFragment(input string, opts Options, parentRing core.Ring, parentACL core.ACL) []*Node {
	opts.BaseRing = parentRing
	opts.BaseACL = parentACL
	opts.BaseBound = parentRing
	doc := Parse(input, opts)
	kids := doc.Kids
	for _, k := range kids {
		k.Parent = nil
	}
	doc.Kids = nil
	return kids
}

// IgnoredClosers reports how many end tags the nonce defense dropped.
func (p *Parser) IgnoredClosers() int { return p.ignoredClosers }

// Finish closes any remaining open elements and returns the document.
func (p *Parser) Finish() *Node {
	for len(p.open) > 0 {
		p.pop()
	}
	return p.doc
}

// top returns the innermost open element.
func (p *Parser) top() *Node { return p.open[len(p.open)-1].node }

// curScope returns the innermost AC scope.
func (p *Parser) curScope() scope { return p.scopes[len(p.scopes)-1] }

// node cuts a fresh node from the document's storage.
func (p *Parser) node(typ NodeType, tag, data string, ring core.Ring, acl core.ACL) *Node {
	n := &take(&p.store.nodes, 1, p.store.size)[0]
	n.Type, n.Tag, n.Data, n.Ring, n.ACL = typ, tag, data, ring, acl
	return n
}

// add links n as the last child of the innermost open element.
func (p *Parser) add(n *Node) {
	n.Parent = p.top()
	p.kids = append(p.kids, n)
}

// pop closes the innermost open element: its children are final, so
// they are cut into its Kids, and the AC scope it owned ends.
func (p *Parser) pop() {
	i := len(p.open) - 1
	el, start := p.open[i].node, p.open[i].kids
	el.Kids = take(&p.store.kids, len(p.kids)-start, p.store.size)
	copy(el.Kids, p.kids[start:])
	p.kids = p.kids[:start]
	p.open = p.open[:i]
	if n := len(p.scopes); n > 1 && p.scopes[n-1].node == el {
		p.scopes = p.scopes[:n-1]
	}
}

// feed processes one token.
func (p *Parser) feed(tok Token) {
	switch tok.Type {
	case TextToken:
		if tok.Data == "" {
			return
		}
		sc := p.curScope()
		p.add(p.node(TextNode, "", tok.Data, sc.ring, sc.acl))
	case CommentToken:
		sc := p.curScope()
		p.add(p.node(CommentNode, "", tok.Data, sc.ring, sc.acl))
	case DoctypeToken:
		sc := p.curScope()
		p.add(p.node(DoctypeNode, "", tok.Data, sc.ring, sc.acl))
	case StartTagToken, SelfClosingTagToken:
		p.startTag(tok)
	case EndTagToken:
		p.endTag(tok)
	}
}

// startTag creates an element, resolving its ESCUDO label.
func (p *Parser) startTag(tok Token) {
	sc := p.curScope()
	el := p.node(ElementNode, tok.Tag, "", sc.ring, sc.acl)

	var ac core.ACAttrs
	if p.opts.Escudo && tok.Tag == "div" {
		bound := sc.bound
		if p.opts.AblateScopingRule {
			bound = core.RingKernel
		}
		ac = core.ParseACAttrs(tok.lastAttr, p.opts.MaxRing, bound)
	}

	// Configuration is never exposed (§5): only the other attributes
	// are kept, in a window of their exact size.
	kept := 0
	for _, a := range tok.Attrs {
		if p.keep(a) {
			kept++
		}
	}
	el.Attrs = take(&p.store.attrs, kept, p.store.attrSize)
	kept = 0
	for _, a := range tok.Attrs {
		if p.keep(a) {
			el.Attrs[kept] = a
			kept++
		}
	}

	if ac.HasRing {
		el.IsACTag = true
		el.Ring = ac.Ring
		el.ACL = ac.ACL.Clamp(p.opts.MaxRing)
	}

	p.add(el)
	if tok.Type == SelfClosingTagToken || IsVoid(tok.Tag) {
		return
	}
	p.open = append(p.open, openElement{node: el, kids: len(p.kids)})
	if ac.HasRing {
		p.scopes = append(p.scopes, scope{node: el, ring: el.Ring, acl: el.ACL, bound: el.Ring, nonce: ac.Nonce, ac: true})
	}
}

// keep reports whether attribute a stays on its element: under ESCUDO
// labelling, configuration attributes are stripped.
func (p *Parser) keep(a Attr) bool {
	return !p.opts.Escudo || !core.IsConfigAttr(a.Name)
}

// endTag closes the nearest matching open element, subject to the
// nonce defense: an end tag that would close a nonce-protected AC tag
// without presenting the matching nonce is ignored outright, which is
// exactly how ESCUDO defeats node-splitting (§5).
func (p *Parser) endTag(tok Token) {
	// Find the nearest open element with this tag.
	idx := -1
	for i := len(p.open) - 1; i >= 1; i-- {
		if p.open[i].node.Tag == tok.Tag {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // no matching open element: ignore
	}
	if p.opts.Escudo && !p.opts.AblateNonceDefense {
		// The closer must authenticate against every nonce-protected
		// AC scope it would close (the matched element and anything
		// implicitly closed above it).
		closerNonce, _ := tok.Attr(core.AttrNonce)
		for i := len(p.scopes) - 1; i >= 1; i-- {
			s := p.scopes[i]
			if !p.elementAtOrAbove(s.node, idx) {
				break
			}
			if s.nonce != "" && s.nonce != closerNonce {
				p.ignoredClosers++
				return
			}
		}
	}
	// Pop elements and any AC scopes they owned.
	for len(p.open) > idx {
		p.pop()
	}
}

// elementAtOrAbove reports whether el sits at stack position >= idx.
func (p *Parser) elementAtOrAbove(el *Node, idx int) bool {
	for i := len(p.open) - 1; i >= idx; i-- {
		if p.open[i].node == el {
			return true
		}
	}
	return false
}

// Render serializes the tree back to HTML. ESCUDO configuration was
// stripped at parse time, so rendered output never leaks it.
func Render(n *Node) string { return RenderFiltered(n, nil) }

// RenderFiltered serializes the subtree, skipping (with their whole
// subtrees) any nodes for which include returns false. The mediated
// DOM API uses it to serialize a region while eliding nodes the
// reading principal may not see. A nil include renders everything.
func RenderFiltered(n *Node, include func(*Node) bool) string {
	return string(AppendRendered(nil, n, include))
}

// AppendRendered appends the serialization of the subtree to dst, as
// RenderFiltered renders it, and returns the extended buffer. Render
// and RenderFiltered wrap it, so the plain and mediated renderings
// share one path and can never diverge. An attribute value is written
// as its EscapeAttr escape between double quotes, so parsing the
// output gives back every value byte for byte.
func AppendRendered(dst []byte, n *Node, include func(*Node) bool) []byte {
	if include != nil && !include(n) {
		return dst
	}
	switch n.Type {
	case DocumentNode:
		for _, k := range n.Kids {
			dst = AppendRendered(dst, k, include)
		}
	case TextNode:
		if n.Parent != nil && rawTextElements[n.Parent.Tag] {
			dst = append(dst, n.Data...)
		} else {
			dst = AppendEscapeText(dst, n.Data)
		}
	case CommentNode:
		dst = append(dst, "<!--"...)
		dst = append(dst, n.Data...)
		dst = append(dst, "-->"...)
	case DoctypeNode:
		dst = append(dst, '<')
		dst = append(dst, n.Data...)
		dst = append(dst, '>')
	case ElementNode:
		dst = append(dst, '<')
		dst = append(dst, n.Tag...)
		for _, a := range n.Attrs {
			dst = append(dst, ' ')
			dst = append(dst, a.Name...)
			if a.Value != "" {
				dst = append(dst, `="`...)
				dst = appendEscapeAttr(dst, a.Value)
				dst = append(dst, '"')
			}
		}
		dst = append(dst, '>')
		if IsVoid(n.Tag) {
			return dst
		}
		for _, k := range n.Kids {
			dst = AppendRendered(dst, k, include)
		}
		dst = append(dst, "</"...)
		dst = append(dst, n.Tag...)
		dst = append(dst, '>')
	}
	return dst
}

// InnerText concatenates the text content of the subtree, the way a
// renderer would extract it. A text node, or an element whose only
// child is one (a <script> or <style> body), returns that node's Data
// without a copy.
func InnerText(n *Node) string {
	switch {
	case n.Type == TextNode:
		return n.Data
	case len(n.Kids) == 1 && n.Kids[0].Type == TextNode:
		return n.Kids[0].Data
	}
	var b strings.Builder
	innerText(&b, n)
	return b.String()
}

func innerText(b *strings.Builder, n *Node) {
	if n.Type == TextNode {
		b.WriteString(n.Data)
		return
	}
	for _, k := range n.Kids {
		innerText(b, k)
	}
}

// InnerTextFiltered concatenates the subtree's text, skipping (with
// their whole subtrees) nodes for which include returns false. A nil
// include is plain InnerText.
func InnerTextFiltered(n *Node, include func(*Node) bool) string {
	if include == nil {
		return InnerText(n)
	}
	var b strings.Builder
	var walk func(*Node)
	walk = func(x *Node) {
		if !include(x) {
			return
		}
		if x.Type == TextNode {
			b.WriteString(x.Data)
			return
		}
		for _, k := range x.Kids {
			walk(k)
		}
	}
	walk(n)
	return b.String()
}

// Walk visits every node of the subtree in document order, stopping
// early if fn returns false.
func Walk(n *Node, fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, k := range n.Kids {
		if !Walk(k, fn) {
			return false
		}
	}
	return true
}

// CountNodes returns the number of nodes in the subtree, counting n.
func CountNodes(n *Node) int {
	count := 0
	Walk(n, func(*Node) bool { count++; return true })
	return count
}
