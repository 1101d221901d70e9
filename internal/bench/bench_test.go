package bench

import (
	"strings"
	"testing"
	"time"

	"mpj/internal/core"
	"mpj/internal/device"
)

// The harness tests run every experiment generator with tiny parameters:
// they verify the machinery (not the numbers) so cmd/mpjbench cannot rot.

func TestTransportPingPong(t *testing.T) {
	d, err := TransportPingPong(64, 50)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("non-positive duration %v", d)
	}
}

func TestDevicePingPongModes(t *testing.T) {
	for _, mode := range []device.Mode{device.ModeStandard, device.ModeSync, device.ModeReady} {
		d, err := DevicePingPong(128, 30, -1, mode)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if d <= 0 {
			t.Errorf("mode %d: duration %v", mode, d)
		}
	}
}

func TestCorePingPongDatatypes(t *testing.T) {
	for _, dt := range []core.Datatype{core.Byte, core.Double, core.Int} {
		d, err := CorePingPong(dt, 32, 20, -1)
		if err != nil {
			t.Fatalf("%s: %v", dt.Name(), err)
		}
		if d <= 0 {
			t.Errorf("%s: duration %v", dt.Name(), d)
		}
	}
}

func TestF1Table(t *testing.T) {
	tbl, err := F1LayerDecomposition([]int{64})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 || len(tbl.Rows[0]) != len(tbl.Headers) {
		t.Errorf("table shape %dx%d", len(tbl.Rows), len(tbl.Rows[0]))
	}
}

func TestE1Table(t *testing.T) {
	tbl, err := E1ProtocolCrossover([]int{64, 2048})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Errorf("rows %d", len(tbl.Rows))
	}
}

func TestE2Table(t *testing.T) {
	tbl, err := E2ModeLatency([]int{64})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Errorf("rows %d", len(tbl.Rows))
	}
}

func TestE3ThreadEconomyFormula(t *testing.T) {
	tbl, err := E3ThreadEconomy([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// The census must match the paper's one-reader-per-connection claim:
	// delta == predicted for each np.
	for _, row := range tbl.Rows {
		if row[3] != row[4] {
			t.Errorf("np=%s: goroutine delta %s != predicted %s", row[0], row[3], row[4])
		}
	}
}

func TestE4Table(t *testing.T) {
	tbl, err := E4CollectiveScaling([]int{2, 3}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 || len(tbl.Rows[0]) != 7 {
		t.Errorf("table shape %v", tbl.Rows)
	}
}

func TestE7Table(t *testing.T) {
	tbl, err := E7SerializationOverhead([]int{64})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Errorf("rows %d", len(tbl.Rows))
	}
}

func TestA2Table(t *testing.T) {
	tbl, err := A2EagerThresholdSweep(1024, []int{256, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows[0][1] != "rendezvous" || tbl.Rows[1][1] != "eager" {
		t.Errorf("protocol classification wrong: %v", tbl.Rows)
	}
}

func TestBandwidthTable(t *testing.T) {
	tbl, err := BandwidthTable([]int{1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Errorf("rows %d", len(tbl.Rows))
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
	if got := fmtBW(1<<20, time.Second); got != "1.0" {
		t.Errorf("fmtBW = %q", got)
	}
	if got := fmtBW(1, 0); got != "-" {
		t.Errorf("fmtBW zero duration = %q", got)
	}
}
