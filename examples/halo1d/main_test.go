package main

import (
	"math"
	"testing"
	"time"

	"mpj"
)

// TestHaloChecksum runs the example at np=4, 16 cells a rank, 20 sweeps,
// within a minute: the two exchanges agree on every cell (haloChecksum
// checks it), and the checksum is the initial rod's sum, which the sweeps
// keep.
func TestHaloChecksum(t *testing.T) {
	const np = 4
	*cells, *iters = 16, 20
	var want float64
	for g := 0; g < np**cells; g++ {
		want += math.Sin(float64(g) * 0.1)
	}
	defer time.AfterFunc(time.Minute, func() { panic("the ranks did not finish within a minute") }).Stop()
	if err := mpj.RunLocal(np, func(w *mpj.Comm) error {
		got, err := haloChecksum(w)
		if err == nil && math.Abs(got-want) > 1e-9 {
			t.Errorf("rank %d: checksum %v, want the initial rod's %v", w.Rank(), got, want)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}
