// Package core implements the ESCUDO access-control model (paper §4):
// per-page hierarchical protection rings, per-object access-control
// lists, security contexts for principals and objects, and the ESCUDO
// Reference Monitor (ERM) enforcing the Origin, Ring, and ACL rules.
//
// The package also provides the baseline same-origin-policy monitor
// used for comparison and for legacy (non-ESCUDO) pages, and the
// parsing/serialization of ESCUDO configuration carried in AC-tag
// attributes and X-Escudo-* HTTP headers.
package core

import (
	"errors"
	"fmt"
	"strconv"
)

// Ring is a hierarchical protection ring label. Ring 0 is the most
// privileged ring; higher numbers have strictly fewer privileges
// (paper §3, Figure 1). Rings are per-page: every web page chooses its
// own maximum ring N, and labels are only comparable within one page
// (or across pages of the same origin, §4 "Rings").
//
// A Ring is 16 bits wide: every label a page can declare fits
// (MaxSupportedRing), and a negative ring stays representable, so
// range checks can reject it. Code converting an int to a Ring checks
// the int's range first, or the conversion would wrap (65536 to the
// kernel ring).
type Ring int16

// RingKernel is the most privileged ring of every page. The paper
// mandatorily assigns browser state (history, visited links, cache) to
// this ring (§4.1 "Browser State").
const RingKernel Ring = 0

// DefaultMaxRing is the illustrative ring count used throughout the
// paper (N = 3, §4.1): "This is a large enough number to demonstrate
// interaction between rings without being cumbersome."
const DefaultMaxRing Ring = 3

// MaxSupportedRing bounds how many rings a page may declare; it exists
// only to reject absurd configurations, not to constrain applications
// (the paper leaves N application-dependent).
const MaxSupportedRing Ring = 255

// ErrBadRing reports an unparsable or out-of-range ring label.
var ErrBadRing = errors.New("core: invalid ring label")

// ParseRing parses a decimal ring label as it appears in an AC-tag
// attribute or an X-Escudo header, validating it against maxRing.
func ParseRing(s string, maxRing Ring) (Ring, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %q", ErrBadRing, s)
	}
	if n < int(RingKernel) || n > int(maxRing) {
		return 0, fmt.Errorf("%w: %d outside [0,%d]", ErrBadRing, n, maxRing)
	}
	return Ring(n), nil
}

// Clamp returns r forced into [0, maxRing]. The scoping rule (§5) and
// fail-safe defaults both rely on clamping rather than rejecting.
func (r Ring) Clamp(maxRing Ring) Ring {
	if r < RingKernel {
		return RingKernel
	}
	if r > maxRing {
		return maxRing
	}
	return r
}

// AtLeastAsPrivileged reports whether a principal in ring r holds at
// least the privileges of ring s, i.e. r ≤ s in the HPR ordering.
func (r Ring) AtLeastAsPrivileged(s Ring) bool { return r <= s }

// Outermost returns the less privileged (numerically larger) of r and
// s. The scoping rule clamps children with it.
func (r Ring) Outermost(s Ring) Ring {
	if r > s {
		return r
	}
	return s
}

// String renders the ring label as its decimal number.
func (r Ring) String() string { return strconv.Itoa(int(r)) }

// Op is an operation a principal performs on an object. ESCUDO
// distinguishes read, write, and use; "use" is the implicit access a
// browser performs on behalf of a principal, such as attaching cookies
// to an HTTP request or delivering a UI event (§4.1 "ACL").
type Op int8

// Operations, numbered from one so the zero Op is invalid.
const (
	OpRead Op = iota + 1
	OpWrite
	OpUse
)

// String returns the lowercase operation name.
func (op Op) String() string {
	switch op {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpUse:
		return "use"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Valid reports whether op is one of the three defined operations.
func (op Op) Valid() bool { return op >= OpRead && op <= OpUse }
