// Package metrics provides the measurement utilities the benchmark
// harnesses use to regenerate the paper's Figure 4: duration samples
// and their percentiles, a mergeable latency histogram,
// relative-overhead computation, and fixed-width result tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample is a series of duration measurements.
type Sample struct {
	durations []time.Duration
}

// Add appends one measurement.
func (s *Sample) Add(d time.Duration) { s.durations = append(s.durations, d) }

// Percentile returns the p-th percentile (0..100) by
// nearest-rank on a sorted copy.
func (s *Sample) Percentile(p float64) time.Duration {
	if len(s.durations) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), s.durations...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// OverheadPercent returns how much slower with is than without, in
// percent: 100 * (with - without) / without.
func OverheadPercent(without, with time.Duration) float64 {
	if without <= 0 {
		return 0
	}
	return 100 * float64(with-without) / float64(without)
}

// Table renders rows as a fixed-width text table with a header, the
// output format of the cmd harnesses.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends one row; short rows are padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatMs renders a duration as fractional milliseconds ("12.34").
func FormatMs(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6)
}

// FormatPercent renders a percentage with sign ("+5.09%").
func FormatPercent(p float64) string {
	return fmt.Sprintf("%+.2f%%", p)
}
