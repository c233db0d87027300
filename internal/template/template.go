// Package template implements a small HTML template engine in the
// spirit of the Smarty/StringTemplate engines the paper's case-study
// applications use (§6.2): placeholders with automatic HTML escaping,
// raw insertions for trusted markup, loops, conditionals — and,
// crucially, AC-tag emission with fresh markup-randomization nonces,
// so the ESCUDO configuration lives in the template, "isolating the
// configuration from dynamic data".
package template

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/html"
	"repro/internal/nonce"
)

// node kinds of the compiled template.
type nodeKind int

const (
	textNode nodeKind = iota + 1
	varNode           // {{name}} escaped
	rawNode           // {{{name}}} unescaped
	eachNode          // {{#each name}}...{{/each}}
	ifNode            // {{#if name}}...{{/if}}
)

// tplNode is one compiled template node.
type tplNode struct {
	kind nodeKind
	text string
	name string
	body []*tplNode
}

// Template is a compiled template.
type Template struct {
	nodes []*tplNode
}

// ErrBadTemplate reports a malformed template source.
var ErrBadTemplate = errors.New("template: malformed template")

// Parse compiles template source.
func Parse(src string) (*Template, error) {
	p := &tplParser{src: src}
	nodes, err := p.parseUntil("")
	if err != nil {
		return nil, err
	}
	return &Template{nodes: nodes}, nil
}

// MustParse is Parse for statically known templates; it panics on
// error.
func MustParse(src string) *Template {
	t, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return t
}

type tplParser struct {
	src string
	pos int
}

// parseUntil parses nodes until the named closer ({{/name}}) or EOF
// when closer is empty.
func (p *tplParser) parseUntil(closer string) ([]*tplNode, error) {
	var nodes []*tplNode
	for p.pos < len(p.src) {
		i := strings.Index(p.src[p.pos:], "{{")
		if i < 0 {
			nodes = append(nodes, &tplNode{kind: textNode, text: p.src[p.pos:]})
			p.pos = len(p.src)
			break
		}
		if i > 0 {
			nodes = append(nodes, &tplNode{kind: textNode, text: p.src[p.pos : p.pos+i]})
			p.pos += i
		}
		tag, raw, err := p.readTag()
		if err != nil {
			return nil, err
		}
		switch {
		case strings.HasPrefix(tag, "#each "):
			name := strings.TrimSpace(strings.TrimPrefix(tag, "#each "))
			body, err := p.parseUntil("each")
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, &tplNode{kind: eachNode, name: name, body: body})
		case strings.HasPrefix(tag, "#if "):
			name := strings.TrimSpace(strings.TrimPrefix(tag, "#if "))
			body, err := p.parseUntil("if")
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, &tplNode{kind: ifNode, name: name, body: body})
		case strings.HasPrefix(tag, "/"):
			got := strings.TrimSpace(strings.TrimPrefix(tag, "/"))
			if closer == "" || got != closer {
				return nil, fmt.Errorf("%w: unexpected {{/%s}}", ErrBadTemplate, got)
			}
			return nodes, nil
		default:
			kind := varNode
			if raw {
				kind = rawNode
			}
			nodes = append(nodes, &tplNode{kind: kind, name: strings.TrimSpace(tag)})
		}
	}
	if closer != "" {
		return nil, fmt.Errorf("%w: missing {{/%s}}", ErrBadTemplate, closer)
	}
	return nodes, nil
}

// readTag reads "{{...}}" or "{{{...}}}" at the current position.
func (p *tplParser) readTag() (tag string, raw bool, err error) {
	if strings.HasPrefix(p.src[p.pos:], "{{{") {
		end := strings.Index(p.src[p.pos:], "}}}")
		if end < 0 {
			return "", false, fmt.Errorf("%w: unterminated {{{", ErrBadTemplate)
		}
		tag = p.src[p.pos+3 : p.pos+end]
		p.pos += end + 3
		return tag, true, nil
	}
	end := strings.Index(p.src[p.pos:], "}}")
	if end < 0 {
		return "", false, fmt.Errorf("%w: unterminated {{", ErrBadTemplate)
	}
	tag = p.src[p.pos+2 : p.pos+end]
	p.pos += end + 2
	return tag, false, nil
}

// Data is the render context: string/bool values, nested Data, and
// []Data lists.
type Data map[string]any

// Render executes the template against data.
func (t *Template) Render(data Data) string {
	var b strings.Builder
	renderNodes(&b, t.nodes, data)
	return b.String()
}

func renderNodes(b *strings.Builder, nodes []*tplNode, data Data) {
	for _, n := range nodes {
		switch n.kind {
		case textNode:
			b.WriteString(n.text)
		case varNode:
			b.WriteString(html.EscapeText(toString(lookup(data, n.name))))
		case rawNode:
			b.WriteString(toString(lookup(data, n.name)))
		case ifNode:
			if truthy(lookup(data, n.name)) {
				renderNodes(b, n.body, data)
			}
		case eachNode:
			switch items := lookup(data, n.name).(type) {
			case []Data:
				for _, item := range items {
					scoped := make(Data, len(data)+len(item))
					for k, v := range data {
						scoped[k] = v
					}
					for k, v := range item {
						scoped[k] = v
					}
					renderNodes(b, n.body, scoped)
				}
			case []string:
				for _, item := range items {
					scoped := make(Data, len(data)+1)
					for k, v := range data {
						scoped[k] = v
					}
					scoped["."] = item
					renderNodes(b, n.body, scoped)
				}
			}
		}
	}
}

// lookup resolves a possibly dotted name.
func lookup(data Data, name string) any {
	if v, ok := data[name]; ok {
		return v
	}
	parts := strings.Split(name, ".")
	var cur any = data
	for _, p := range parts {
		m, ok := cur.(Data)
		if !ok {
			return nil
		}
		cur, ok = m[p]
		if !ok {
			return nil
		}
	}
	return cur
}

func toString(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case bool:
		if x {
			return "true"
		}
		return "false"
	case int:
		return fmt.Sprintf("%d", x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

func truthy(v any) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case string:
		return x != ""
	case int:
		return x != 0
	case []Data:
		return len(x) > 0
	case []string:
		return len(x) > 0
	default:
		return true
	}
}

// ACBuilder emits AC tags with fresh nonces — the server half of the
// §5 markup-randomization defense. One builder per response keeps the
// nonces unpredictable across responses (use a fresh CryptoSource
// stream) while tests can inject a SeqSource for determinism.
type ACBuilder struct {
	// Nonces supplies the randomization nonces.
	Nonces nonce.Source
}

// NewACBuilder returns a builder drawing from src (CryptoSource when
// nil).
func NewACBuilder(src nonce.Source) *ACBuilder {
	if src == nil {
		src = nonce.CryptoSource{}
	}
	return &ACBuilder{Nonces: src}
}

// AppendOpen appends the start of an AC open tag: "<div" and the
// label's configuration attributes with a fresh nonce. The caller
// appends any further attributes and the closing '>', then the scope's
// content, then AppendClose with the returned nonce. Writing a page
// this way costs no allocation per scope.
func (b *ACBuilder) AppendOpen(dst []byte, ring core.Ring, acl core.ACL) ([]byte, uint64) {
	n := b.Nonces.Next()
	dst = append(dst, "<div "...)
	return core.AppendACAttrs(dst, ring, acl, n), n
}

// AppendClose appends the closer sealed with nonce. A zero nonce, the
// mark of a tag without one, gets a plain </div>.
func AppendClose(dst []byte, nonce uint64) []byte {
	if nonce == 0 {
		return append(dst, "</div>"...)
	}
	dst = append(dst, "</div nonce="...)
	dst = strconv.AppendUint(dst, nonce, 10)
	return append(dst, '>')
}

// Wrap encloses inner markup in an AC tag with the given label and a
// fresh nonce, plus any extra attributes (e.g. `id=post-3`).
func (b *ACBuilder) Wrap(ring core.Ring, acl core.ACL, extraAttrs, inner string) string {
	// 96 bytes hold both tags with 20-digit nonces.
	buf, n := b.AppendOpen(make([]byte, 0, 96+len(extraAttrs)+len(inner)), ring, acl)
	buf = append(endOpen(buf, extraAttrs), inner...)
	return string(AppendClose(buf, n))
}

// Pair returns matching open and close AC tags sharing one fresh
// nonce, for templates that need to interleave them with other
// content.
func (b *ACBuilder) Pair(ring core.Ring, acl core.ACL, extraAttrs string) (open, closeTag string) {
	buf, n := b.AppendOpen(nil, ring, acl)
	return string(endOpen(buf, extraAttrs)), string(AppendClose(nil, n))
}

// endOpen finishes an open tag with the extra attributes, if any.
func endOpen(dst []byte, extraAttrs string) []byte {
	if extraAttrs != "" {
		dst = append(append(dst, ' '), extraAttrs...)
	}
	return append(dst, '>')
}
