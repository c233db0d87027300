package web

import (
	"net/textproto"
	"strings"
	"testing"

	"repro/internal/raceflag"
)

// TestCanonicalKeyInterning pins two properties of the hot-key intern
// table: every interned spelling canonicalizes without allocating, and
// the interned value is exactly what the generic rebuild would have
// produced (cross-checked against net/textproto, which implements the
// same dash-segment title-casing) — interning must be a cache, never a
// semantic change.
func TestCanonicalKeyInterning(t *testing.T) {
	for lower, want := range internedKeys {
		if got := CanonicalKey(lower); got != want {
			t.Errorf("CanonicalKey(%q) = %q, want interned %q", lower, got, want)
		}
		if ref := textproto.CanonicalMIMEHeaderKey(lower); want != ref {
			t.Errorf("interned form of %q is %q, diverges from canonical %q", lower, want, ref)
		}
		if lower != strings.ToLower(lower) {
			t.Errorf("intern table key %q is not lower-case", lower)
		}
	}

	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	keys := []string{"content-type", "set-cookie", "location", "referer", "cookie"}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, k := range keys {
			CanonicalKey(k)
		}
	})
	if allocs != 0 {
		t.Fatalf("interned CanonicalKey allocates %.1f times per batch, want 0", allocs)
	}
}
