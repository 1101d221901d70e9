// Package bench implements the experiment harness: every figure of the
// paper and every measurable design claim has a generator here that
// produces the corresponding table — the tables `mpjbench -exp <name>`
// prints and the committed BENCH_*.json files some of them rewrite.
// cmd/mpjbench and the root bench_test.go are thin callers.
//
// See ARCHITECTURE.md at the repository root for where this package sits in
// the layer stack.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Row is one line of an experiment table.
type Row []string

// Table is a titled experiment result.
type Table struct {
	Title   string
	Headers []string
	Rows    []Row
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// fmtDur renders a per-operation duration with appropriate units.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// fmtBW renders a bandwidth in MiB/s given bytes moved and elapsed time.
func fmtBW(bytes int64, d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	mib := float64(bytes) / (1 << 20)
	return fmt.Sprintf("%.1f", mib/d.Seconds())
}

// fmtSize renders a byte size compactly.
func fmtSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// DefaultSizes is the message-size sweep shared by the ping-pong
// experiments: 8 B to 1 MiB in powers of four.
var DefaultSizes = []int{8, 32, 128, 512, 2048, 8192, 32 << 10, 128 << 10, 512 << 10, 1 << 20}

// itersFor scales iteration counts down as messages grow so sweeps stay
// fast while small-message points remain statistically meaningful.
func itersFor(size int) int {
	switch {
	case size <= 1<<10:
		return 2000
	case size <= 32<<10:
		return 500
	case size <= 256<<10:
		return 100
	default:
		return 30
	}
}
