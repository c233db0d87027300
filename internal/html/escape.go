package html

import (
	"strconv"
	"strings"
)

// namedEntities is the subset of HTML named character references the
// reproduction needs; real-world pages in the evaluation corpus only
// use the core five plus a few typographic conveniences.
var namedEntities = map[string]rune{
	"amp":    '&',
	"lt":     '<',
	"gt":     '>',
	"quot":   '"',
	"apos":   '\'',
	"nbsp":   '\u00A0',
	"copy":   '©',
	"mdash":  '—',
	"ndash":  '–',
	"hellip": '…',
	"laquo":  '«',
	"raquo":  '»',
}

// Unescape decodes HTML character references (&amp;, &#65;, &#x41;) in
// s. Malformed references are left verbatim, as browsers do.
func Unescape(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 12 {
			b.WriteByte(c)
			i++
			continue
		}
		ref := s[i+1 : i+semi]
		if r, ok := decodeEntity(ref); ok {
			b.WriteRune(r)
			i += semi + 1
			continue
		}
		b.WriteByte(c)
		i++
	}
	return b.String()
}

// decodeEntity decodes one reference body (without '&' and ';').
func decodeEntity(ref string) (rune, bool) {
	if ref == "" {
		return 0, false
	}
	if ref[0] == '#' {
		num := ref[1:]
		base := 10
		if len(num) > 0 && (num[0] == 'x' || num[0] == 'X') {
			base = 16
			num = num[1:]
		}
		n, err := strconv.ParseInt(num, base, 32)
		if err != nil || n <= 0 || n > 0x10FFFF {
			return 0, false
		}
		return rune(n), true
	}
	if r, ok := namedEntities[ref]; ok {
		return r, true
	}
	return 0, false
}

// escapeTextReplacer escapes the characters that are markup-significant
// in text content.
var escapeTextReplacer = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
)

// escapeAttrReplacer additionally escapes quotes for attribute values.
var escapeAttrReplacer = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
	`"`, "&quot;",
	"'", "&#39;",
)

// EscapeText encodes s for inclusion as HTML text content. This is the
// sanitization primitive the template engine's auto-escaping uses —
// the "first line of defense" of §1 that ESCUDO does not rely on but
// applications still deploy.
func EscapeText(s string) string { return escapeTextReplacer.Replace(s) }

// AppendEscapeText appends s encoded as EscapeText encodes it, for
// pages written into one buffer.
func AppendEscapeText(dst []byte, s string) []byte { return appendEscaped(dst, s, "&<>") }

// appendEscapeAttr appends s encoded as EscapeAttr encodes it.
func appendEscapeAttr(dst []byte, s string) []byte { return appendEscaped(dst, s, `&<>"'`) }

// appendEscaped appends s with each byte of special replaced by its
// entity.
func appendEscaped(dst []byte, s, special string) []byte {
	for {
		i := strings.IndexAny(s, special)
		if i < 0 {
			return append(dst, s...)
		}
		dst = append(dst, s[:i]...)
		switch s[i] {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '"':
			dst = append(dst, "&quot;"...)
		default:
			dst = append(dst, "&#39;"...)
		}
		s = s[i+1:]
	}
}

// EscapeAttr encodes s for inclusion inside a double-quoted attribute
// value.
func EscapeAttr(s string) string { return escapeAttrReplacer.Replace(s) }
