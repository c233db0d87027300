// Package script implements a small JavaScript-like language: lexer,
// parser, and tree-walking interpreter with host bindings. Scripts are
// the paper's script-invoking principals (Table 1); the browser binds
// each script's execution environment (document, window,
// XMLHttpRequest) to the principal's security context so that every
// effectful operation the script performs is mediated by the ESCUDO
// Reference Monitor.
//
// The language covers what the evaluation needs: var declarations,
// functions and closures, if/while/for, the usual operators, object
// and array literals, member and index access, and new-style
// constructor calls. It is deliberately not a full ECMAScript.
package script

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota + 1
	tokIdent
	tokNumber
	tokString
	tokPunct
	tokKeyword
)

// keywords of the language.
var keywords = map[string]bool{
	"var": true, "function": true, "return": true, "if": true,
	"else": true, "while": true, "for": true, "true": true,
	"false": true, "null": true, "new": true, "break": true,
	"continue": true, "typeof": true,
}

// token is one lexical unit.
type token struct {
	kind tokenKind
	text string
	pos  int // byte offset, for error messages
	line int
}

// SyntaxError reports a lexical or parse failure with its location.
type SyntaxError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("script: line %d: %s", e.Line, e.Msg)
}

// lexer splits source into tokens.
type lexer struct {
	src      string
	pos      int
	line     int
	interned map[string]string
}

// intern returns a canonical copy of s. Identifier text flows into the
// AST (and from there into the parse cache), so it must not remain a
// substring of the source — a cached program pinning a whole page body
// would defeat the parse cache. Interning also collapses repeated
// identifiers to one allocation.
func (l *lexer) intern(s string) string {
	if v, ok := l.interned[s]; ok {
		return v
	}
	c := strings.Clone(s)
	if l.interned == nil {
		l.interned = make(map[string]string, 16)
	}
	l.interned[c] = c
	return c
}

// lex tokenizes the whole source.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	var toks []token
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.kind == tokEOF {
			return toks, nil
		}
	}
}

// punctuators, longest first so the lexer is greedy.
var puncts = []string{
	"===", "!==", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "++", "--",
	"(", ")", "{", "}", "[", "]", ";", ",", ".", "+", "-", "*", "/", "%", "<", ">", "=", "!", ":", "?",
}

// next scans one token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos, line: l.line}, nil
	}
	start, line := l.pos, l.line
	c := l.src[l.pos]

	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		text := l.intern(l.src[start:l.pos])
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		return token{kind: kind, text: text, pos: start, line: line}, nil

	case c >= '0' && c <= '9':
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start, line: line}, nil

	case c == '"' || c == '\'':
		return l.scanString(c)
	}

	for _, p := range puncts {
		if strings.HasPrefix(l.src[l.pos:], p) {
			l.pos += len(p)
			return token{kind: tokPunct, text: p, pos: start, line: line}, nil
		}
	}
	return token{}, &SyntaxError{Line: line, Msg: fmt.Sprintf("unexpected character %q", c)}
}

// scanString scans a quoted string with the usual escapes.
func (l *lexer) scanString(quote byte) (token, error) {
	start, line := l.pos, l.line
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			return token{kind: tokString, text: b.String(), pos: start, line: line}, nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				return token{}, &SyntaxError{Line: line, Msg: "unterminated escape"}
			}
			switch e := l.src[l.pos]; e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '\\', '"', '\'', '/':
				b.WriteByte(e)
			case '0':
				b.WriteByte(0)
			default:
				b.WriteByte(e)
			}
			l.pos++
		case '\n':
			return token{}, &SyntaxError{Line: line, Msg: "newline in string literal"}
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return token{}, &SyntaxError{Line: line, Msg: "unterminated string literal"}
}

// skipSpaceAndComments consumes whitespace, // and /* */ comments.
func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case strings.HasPrefix(l.src[l.pos:], "//"):
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case strings.HasPrefix(l.src[l.pos:], "/*"):
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.line += strings.Count(l.src[l.pos:l.pos+2+end+2], "\n")
			l.pos += 2 + end + 2
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || isDigit(c)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
