// Package template emits ESCUDO's AC tags for the server side of the
// case-study applications (§6.2): each scope is opened with its ring
// and ACL and sealed with a fresh markup-randomization nonce, so the
// configuration lives in the page writer, "isolating the configuration
// from dynamic data". The applications write the content between the
// tags themselves, escaping user text on the way.
package template

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/nonce"
)

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
	if extraAttrs != "" {
		buf = append(append(buf, ' '), extraAttrs...)
	}
	buf = append(append(buf, '>'), inner...)
	return string(AppendClose(buf, n))
}
