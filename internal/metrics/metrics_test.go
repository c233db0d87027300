package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestSampleEmpty(t *testing.T) {
	s := &Sample{}
	if s.Percentile(50) != 0 {
		t.Error("empty sample must have a zero percentile")
	}
}

func TestPercentile(t *testing.T) {
	s := &Sample{}
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if got := s.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := s.Percentile(99); got != 99*time.Millisecond {
		t.Errorf("p99 = %v", got)
	}
	if got := s.Percentile(0); got != 1*time.Millisecond {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("p100 = %v", got)
	}
}

func TestOverheadPercent(t *testing.T) {
	tests := []struct {
		without, with time.Duration
		want          float64
	}{
		{100 * time.Millisecond, 105 * time.Millisecond, 5},
		{100 * time.Millisecond, 100 * time.Millisecond, 0},
		{100 * time.Millisecond, 95 * time.Millisecond, -5},
		{0, 50 * time.Millisecond, 0}, // guard against division by zero
	}
	for _, tt := range tests {
		got := OverheadPercent(tt.without, tt.with)
		if got < tt.want-0.01 || got > tt.want+0.01 {
			t.Errorf("OverheadPercent(%v, %v) = %v, want %v", tt.without, tt.with, got, tt.want)
		}
	}
}

func TestTable(t *testing.T) {
	tbl := NewTable("Scenario", "Baseline (ms)", "Escudo (ms)")
	tbl.AddRow("S1", "10.0", "10.5")
	tbl.AddRow("S2-long-name", "20.0")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.Contains(lines[0], "Scenario") || !strings.Contains(lines[1], "---") {
		t.Errorf("header/rule malformed: %q", out)
	}
	if !strings.Contains(lines[2], "S1") || !strings.Contains(lines[3], "S2-long-name") {
		t.Errorf("rows malformed: %q", out)
	}
	// Columns align: every line at least as long as the header's
	// first two columns.
	if len(lines[3]) < len("S2-long-name") {
		t.Errorf("row truncated: %q", lines[3])
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := FormatMs(12345678 * time.Nanosecond); got != "12.346" {
		t.Errorf("FormatMs = %q", got)
	}
	if got := FormatPercent(5.091); got != "+5.09%" {
		t.Errorf("FormatPercent = %q", got)
	}
	if got := FormatPercent(-1.5); got != "-1.50%" {
		t.Errorf("FormatPercent = %q", got)
	}
}
