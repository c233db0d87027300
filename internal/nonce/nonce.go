// Package nonce implements the markup-randomization nonces that defend
// AC tags against node-splitting attacks (paper §5). A server
// generating a page stamps every AC tag with a fresh random nonce; the
// ESCUDO parser ignores any closing </div> whose nonce does not match
// the opening tag's, so injected content can never prematurely close
// an AC scope and open a higher-privileged one.
//
// "The random nonces are dynamically generated when constructing a web
// page, so adversaries cannot predict those numbers before they insert
// their malicious contents into a web page."
package nonce

import (
	"crypto/rand"
	"encoding/binary"
	"sync"
)

// Source produces unpredictable nonces for AC tags.
type Source interface {
	// Next returns a fresh nonce, never zero: an AC tag carries it as
	// a decimal digit string (the paper's figures use small integers;
	// ours are 64-bit), and zero stands for a tag without one.
	Next() uint64
}

// CryptoSource draws nonces from crypto/rand. The zero value is ready
// to use; it is safe for concurrent use.
type CryptoSource struct{}

var _ Source = (*CryptoSource)(nil)

// Next returns a cryptographically random nonzero 64-bit nonce.
func (CryptoSource) Next() uint64 {
	var buf [8]byte
	for {
		if _, err := rand.Read(buf[:]); err != nil {
			// crypto/rand never fails on supported platforms; if it
			// does, refusing to continue is safer than a guessable
			// nonce.
			panic("nonce: crypto/rand failed: " + err.Error())
		}
		if n := binary.BigEndian.Uint64(buf[:]); n != 0 {
			return n
		}
	}
}

// SeqSource produces deterministic nonces 1, 2, 3, ... for tests and
// reproducible examples. It is safe for concurrent use. The zero
// value starts at 1.
type SeqSource struct {
	mu sync.Mutex
	n  uint64
}

var _ Source = (*SeqSource)(nil)

// NewSeqSource returns a sequential source starting at start.
func NewSeqSource(start uint64) *SeqSource {
	if start == 0 {
		start = 1
	}
	return &SeqSource{n: start - 1}
}

// Next returns the next nonce in sequence.
func (s *SeqSource) Next() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.n
}

// Match reports whether a closing tag's nonce authenticates against
// the opening tag's nonce. An AC tag without a nonce (open == "")
// accepts any closer — the application opted out of randomization;
// an AC tag with a nonce requires an exact match (§5: "Escudo ignores
// any </div> tag whose random nonce does not match").
func Match(open, close string) bool {
	if open == "" {
		return true
	}
	return open == close
}
