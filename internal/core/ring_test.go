package core

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestParseRing(t *testing.T) {
	tests := []struct {
		in      string
		maxRing Ring
		want    Ring
		wantErr bool
	}{
		{"0", 3, 0, false},
		{"1", 3, 1, false},
		{"3", 3, 3, false},
		{"4", 3, 0, true},
		{"-1", 3, 0, true},
		{"", 3, 0, true},
		{"abc", 3, 0, true},
		{"2x", 3, 0, true},
		{"7", 7, 7, false},
		{"256", MaxSupportedRing, 0, true},
		// Numbers that a 16-bit conversion would wrap into range.
		{"65536", MaxSupportedRing, 0, true},
		{"32768", MaxSupportedRing, 0, true},
		{"-65536", MaxSupportedRing, 0, true},
	}
	for _, tt := range tests {
		got, err := ParseRing(tt.in, tt.maxRing)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseRing(%q, %d) = %d, want error", tt.in, tt.maxRing, got)
			} else if !errors.Is(err, ErrBadRing) {
				t.Errorf("ParseRing(%q) error %v, want ErrBadRing", tt.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRing(%q, %d) error: %v", tt.in, tt.maxRing, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseRing(%q, %d) = %d, want %d", tt.in, tt.maxRing, got, tt.want)
		}
	}
}

func TestRingClamp(t *testing.T) {
	tests := []struct {
		r, max, want Ring
	}{
		{0, 3, 0},
		{3, 3, 3},
		{5, 3, 3},
		{-2, 3, 0},
		{2, 0, 0},
	}
	for _, tt := range tests {
		if got := tt.r.Clamp(tt.max); got != tt.want {
			t.Errorf("Ring(%d).Clamp(%d) = %d, want %d", tt.r, tt.max, got, tt.want)
		}
	}
}

func TestRingOrdering(t *testing.T) {
	// Ring 0 is the most privileged (paper §3): privileges shrink as
	// numbers grow.
	if !RingKernel.AtLeastAsPrivileged(3) {
		t.Error("ring 0 must dominate ring 3")
	}
	if Ring(3).AtLeastAsPrivileged(1) {
		t.Error("ring 3 must not dominate ring 1")
	}
	if !Ring(2).AtLeastAsPrivileged(2) {
		t.Error("a ring must dominate itself")
	}
}

func TestRingOutermost(t *testing.T) {
	if got := Ring(1).Outermost(3); got != 3 {
		t.Errorf("Outermost(1,3) = %d, want 3", got)
	}
	if got := Ring(3).Outermost(1); got != 3 {
		t.Errorf("Outermost(3,1) = %d, want 3", got)
	}
	if got := Ring(2).Outermost(2); got != 2 {
		t.Errorf("Outermost(2,2) = %d, want 2", got)
	}
}

func TestRingLatticeProperties(t *testing.T) {
	// AtLeastAsPrivileged is a total order on rings: reflexive,
	// antisymmetric, transitive; Outermost is its join.
	type r3 struct{ A, B, C uint8 }
	f := func(x r3) bool {
		a, b, c := Ring(x.A%8), Ring(x.B%8), Ring(x.C%8)
		if !a.AtLeastAsPrivileged(a) {
			return false
		}
		if a.AtLeastAsPrivileged(b) && b.AtLeastAsPrivileged(a) && a != b {
			return false
		}
		if a.AtLeastAsPrivileged(b) && b.AtLeastAsPrivileged(c) && !a.AtLeastAsPrivileged(c) {
			return false
		}
		j := a.Outermost(b)
		// The join is an upper bound reachable by both.
		return a.AtLeastAsPrivileged(j) && b.AtLeastAsPrivileged(j) && (j == a || j == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	tests := []struct {
		op   Op
		want string
	}{
		{OpRead, "read"},
		{OpWrite, "write"},
		{OpUse, "use"},
		{Op(0), "op(0)"},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("Op(%d).String() = %q, want %q", tt.op, got, tt.want)
		}
	}
}

func TestOpValid(t *testing.T) {
	for _, op := range []Op{OpRead, OpWrite, OpUse} {
		if !op.Valid() {
			t.Errorf("%v must be valid", op)
		}
	}
	for _, op := range []Op{0, 4, -1} {
		if op.Valid() {
			t.Errorf("Op(%d) must be invalid", op)
		}
	}
}
