// Package html implements an HTML tokenizer and tree parser sufficient
// for the ESCUDO reproduction: tags with attributes (including
// attributes on end tags, which carry the markup-randomization nonces
// of paper §5), text with entity decoding, comments, doctypes, raw-text
// elements (script, style), void elements, and tolerant error
// recovery. The parser also performs ESCUDO labeling: it recognizes AC
// tags, applies the scoping rule, strips configuration attributes so
// they are never visible to scripts, and enforces the nonce defense
// against node-splitting.
package html

import (
	"strings"
)

// TokenType identifies the kind of a token.
type TokenType int

// Token types produced by the tokenizer.
const (
	TextToken TokenType = iota + 1
	StartTagToken
	EndTagToken
	SelfClosingTagToken
	CommentToken
	DoctypeToken
	EOFToken
)

// String names the token type for debugging.
func (t TokenType) String() string {
	switch t {
	case TextToken:
		return "text"
	case StartTagToken:
		return "start-tag"
	case EndTagToken:
		return "end-tag"
	case SelfClosingTagToken:
		return "self-closing-tag"
	case CommentToken:
		return "comment"
	case DoctypeToken:
		return "doctype"
	case EOFToken:
		return "eof"
	default:
		return "unknown"
	}
}

// Attr is one name/value attribute pair. Names are lowercased by the
// tokenizer; values are entity-decoded.
type Attr struct {
	Name  string
	Value string
}

// Token is one lexical unit of the input.
type Token struct {
	Type TokenType
	// Tag is the lowercase tag name for tag tokens.
	Tag string
	// Attrs are the tag's attributes, in source order. End tags may
	// carry attributes too: ESCUDO's </div nonce=N> relies on this.
	Attrs []Attr
	// Data is the decoded text for text tokens, the comment body for
	// comment tokens, and the raw content for doctype tokens.
	Data string
}

// Attr returns the value of the named attribute and whether it is
// present. Lookup is by lowercase name; the first occurrence wins.
func (t Token) Attr(name string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// lastAttr is Attr with the last occurrence winning, the way AC-tag
// configuration reads a tag's attributes.
func (t Token) lastAttr(name string) (string, bool) {
	for i := len(t.Attrs) - 1; i >= 0; i-- {
		if t.Attrs[i].Name == name {
			return t.Attrs[i].Value, true
		}
	}
	return "", false
}

// voidElements never have closing tags or children.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// IsVoid reports whether tag is a void element.
func IsVoid(tag string) bool { return voidElements[tag] }

// rawTextElements have content that is not tokenized as markup.
var rawTextElements = map[string]bool{"script": true, "style": true, "textarea": true, "title": true}

// Tokenizer splits HTML input into tokens. Create one with
// NewTokenizer and call Next until it returns an EOFToken.
type Tokenizer struct {
	input string
	pos   int
	// rawTag, when non-empty, means the tokenizer is inside a
	// raw-text element and accumulates text until its end tag.
	rawTag string
	// attrs is the scratch buffer every tag's attributes are
	// collected into; next's tokens alias it until the following call.
	attrs []Attr
}

// NewTokenizer returns a tokenizer over the given input.
func NewTokenizer(input string) *Tokenizer {
	return &Tokenizer{input: input}
}

// Next returns the next token. After the input is exhausted it returns
// EOFToken forever. The token owns its attributes: it stays valid
// after later calls.
func (z *Tokenizer) Next() Token {
	tok := z.next()
	tok.Attrs = append([]Attr(nil), tok.Attrs...)
	return tok
}

// next is Next without the copy: the token's Attrs alias the scratch
// buffer and are overwritten by the following call. The parser, which
// is done with each token before it asks for the next, reads them in
// place.
func (z *Tokenizer) next() Token {
	if z.pos >= len(z.input) {
		return Token{Type: EOFToken}
	}
	if z.rawTag != "" {
		return z.nextRawText()
	}
	if z.input[z.pos] == '<' {
		if tok, ok := z.nextMarkup(); ok {
			return tok
		}
		// A lone '<' that opens nothing parseable is literal text.
	}
	return z.nextText()
}

// nextText consumes text up to the next '<' that can begin markup.
// When called with the position already on a '<', that '<' failed to
// parse as markup (Next tried first), so it is consumed as literal
// text — this guarantees progress on torn markup like "</ div>".
func (z *Tokenizer) nextText() Token {
	start := z.pos
	for z.pos < len(z.input) {
		i := strings.IndexByte(z.input[z.pos:], '<')
		if i < 0 {
			z.pos = len(z.input)
			break
		}
		z.pos += i
		if z.pos > start && z.looksLikeMarkup(z.pos) {
			break
		}
		z.pos++ // literal '<'
	}
	return Token{Type: TextToken, Data: Unescape(z.input[start:z.pos])}
}

// looksLikeMarkup reports whether the '<' at pos begins a tag,
// comment, or doctype (as opposed to a literal less-than sign).
func (z *Tokenizer) looksLikeMarkup(pos int) bool {
	if pos+1 >= len(z.input) {
		return false
	}
	c := z.input[pos+1]
	return c == '/' || c == '!' || c == '?' || isAlpha(c)
}

// lowerASCII returns s lowercased, without allocating when s already
// is — the overwhelmingly common case for tag and attribute names.
func lowerASCII(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			return strings.ToLower(s)
		}
	}
	return s
}

// indexFold returns the index of the first ASCII case-insensitive
// occurrence of sep (itself lowercase) in s, or -1. It scans in place:
// no lowercased copy of s is ever built.
func indexFold(s, sep string) int {
	if len(sep) == 0 {
		return 0
	}
	for i := 0; i+len(sep) <= len(s); i++ {
		j := 0
		for j < len(sep) {
			c := s[i+j]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != sep[j] {
				break
			}
			j++
		}
		if j == len(sep) {
			return i
		}
	}
	return -1
}

// nextRawText consumes raw content until the matching end tag of the
// current raw-text element. The closer search is case-folded in place;
// lowercasing the remaining input per token would be quadratic on
// script-heavy pages.
func (z *Tokenizer) nextRawText() Token {
	closer := "</" + z.rawTag
	rest := z.input[z.pos:]
	i := indexFold(rest, closer)
	if i < 0 {
		// Unterminated raw text: everything remaining is content.
		z.pos = len(z.input)
		z.rawTag = ""
		return Token{Type: TextToken, Data: rest}
	}
	if i == 0 {
		// At the closing tag: emit it.
		z.rawTag = ""
		tok, _ := z.nextMarkup()
		return tok
	}
	z.pos += i
	return Token{Type: TextToken, Data: rest[:i]}
}

// nextMarkup parses a tag, comment, or doctype starting at the current
// '<'. It reports ok=false when the input is not actually markup, in
// which case the position is unchanged.
func (z *Tokenizer) nextMarkup() (Token, bool) {
	start := z.pos
	if !z.looksLikeMarkup(z.pos) {
		return Token{}, false
	}
	z.pos++ // consume '<'
	switch {
	case strings.HasPrefix(z.input[z.pos:], "!--"):
		return z.nextComment(), true
	case z.input[z.pos] == '!' || z.input[z.pos] == '?':
		return z.nextDoctype(), true
	case z.input[z.pos] == '/':
		z.pos++
		tok, ok := z.nextTag(EndTagToken)
		if !ok {
			z.pos = start
			return Token{}, false
		}
		return tok, true
	default:
		tok, ok := z.nextTag(StartTagToken)
		if !ok {
			z.pos = start
			return Token{}, false
		}
		if tok.Type == StartTagToken && rawTextElements[tok.Tag] {
			z.rawTag = tok.Tag
		}
		return tok, true
	}
}

// nextComment consumes "<!--" ... "-->".
func (z *Tokenizer) nextComment() Token {
	z.pos += 3 // consume "!--"
	end := strings.Index(z.input[z.pos:], "-->")
	var body string
	if end < 0 {
		body = z.input[z.pos:]
		z.pos = len(z.input)
	} else {
		body = z.input[z.pos : z.pos+end]
		z.pos += end + 3
	}
	return Token{Type: CommentToken, Data: body}
}

// nextDoctype consumes "<!DOCTYPE ...>" and "<?...>" alike.
func (z *Tokenizer) nextDoctype() Token {
	end := strings.IndexByte(z.input[z.pos:], '>')
	var body string
	if end < 0 {
		body = z.input[z.pos:]
		z.pos = len(z.input)
	} else {
		body = z.input[z.pos : z.pos+end]
		z.pos += end + 1
	}
	return Token{Type: DoctypeToken, Data: body}
}

// nextTag parses a tag name plus attributes up to '>' or '/>'.
func (z *Tokenizer) nextTag(typ TokenType) (Token, bool) {
	nameStart := z.pos
	for z.pos < len(z.input) && isTagNameChar(z.input[z.pos]) {
		z.pos++
	}
	if z.pos == nameStart {
		return Token{}, false
	}
	tok := Token{Type: typ, Tag: lowerASCII(z.input[nameStart:z.pos])}
	z.attrs = z.attrs[:0]
attrs:
	for {
		z.skipSpace()
		if z.pos >= len(z.input) {
			break // unterminated tag: accept what we have
		}
		switch z.input[z.pos] {
		case '>':
			z.pos++
			break attrs
		case '/':
			z.pos++
			if z.pos < len(z.input) && z.input[z.pos] == '>' {
				z.pos++
				if tok.Type == StartTagToken {
					tok.Type = SelfClosingTagToken
				}
				break attrs
			}
			// stray '/': ignore
		default:
			name, value, ok := z.nextAttr()
			if !ok {
				// Skip one byte to guarantee progress on garbage.
				z.pos++
				continue
			}
			z.attrs = append(z.attrs, Attr{Name: name, Value: value})
		}
	}
	tok.Attrs = z.attrs
	return tok, true
}

// nextAttr parses one attribute: name, name=value, name="value",
// name='value'.
func (z *Tokenizer) nextAttr() (name, value string, ok bool) {
	start := z.pos
	for z.pos < len(z.input) && isAttrNameChar(z.input[z.pos]) {
		z.pos++
	}
	if z.pos == start {
		return "", "", false
	}
	name = lowerASCII(z.input[start:z.pos])
	z.skipSpace()
	if z.pos >= len(z.input) || z.input[z.pos] != '=' {
		return name, "", true // boolean attribute
	}
	z.pos++ // consume '='
	z.skipSpace()
	if z.pos >= len(z.input) {
		return name, "", true
	}
	switch q := z.input[z.pos]; q {
	case '"', '\'':
		z.pos++
		end := strings.IndexByte(z.input[z.pos:], q)
		if end < 0 {
			value = z.input[z.pos:]
			z.pos = len(z.input)
		} else {
			value = z.input[z.pos : z.pos+end]
			z.pos += end + 1
		}
	default:
		vs := z.pos
		for z.pos < len(z.input) && !isSpace(z.input[z.pos]) && z.input[z.pos] != '>' && z.input[z.pos] != '/' {
			z.pos++
		}
		value = z.input[vs:z.pos]
	}
	return name, Unescape(value), true
}

func (z *Tokenizer) skipSpace() {
	for z.pos < len(z.input) && isSpace(z.input[z.pos]) {
		z.pos++
	}
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

func isAlpha(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isTagNameChar(c byte) bool {
	return isAlpha(c) || (c >= '0' && c <= '9') || c == '-' || c == ':'
}

func isAttrNameChar(c byte) bool {
	return !isSpace(c) && c != '=' && c != '>' && c != '/' && c != '"' && c != '\'' && c != '<'
}
