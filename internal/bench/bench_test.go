package bench

import (
	"strings"
	"testing"
	"time"

	"mpj/internal/device"
	"mpj/internal/transport"
)

// The harness tests run the machinery with tiny parameters (not the
// numbers) so cmd/mpjbench cannot rot.

func TestDevicePingPongModes(t *testing.T) {
	for _, mode := range []device.Mode{device.ModeStandard, device.ModeSync, device.ModeReady} {
		eps := transport.NewChanMesh(2)
		d, err := DevicePingPongOver(eps[0], eps[1], 128, 30, mode)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if d <= 0 {
			t.Errorf("mode %d: duration %v", mode, d)
		}
	}
}

func TestTablePrint(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Headers: []string{"a", "long-header"},
		Rows:    []Row{{"x", "y"}, {"longer-cell", "z"}},
	}
	var sb strings.Builder
	tbl.Print(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "long-header", "longer-cell"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatters(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Nanosecond:   "500ns",
		1500 * time.Nanosecond:  "1.50µs",
		2500 * time.Microsecond: "2.50ms",
		3 * time.Second:         "3.000s",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
	if got := fmtSize(2 << 20); got != "2MiB" {
		t.Errorf("fmtSize = %q", got)
	}
	if got := fmtSize(4096); got != "4KiB" {
		t.Errorf("fmtSize = %q", got)
	}
	if got := fmtSize(100); got != "100B" {
		t.Errorf("fmtSize = %q", got)
	}
}
