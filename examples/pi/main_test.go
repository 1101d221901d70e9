package main

import (
	"math"
	"testing"
	"time"

	"mpj"
)

// TestEstimatePi runs the example at np=4 on 400 000 samples, within a
// minute. The estimate's standard error there is about 2.6e-3, so it lies
// within 0.02 of pi (about 8 standard errors; the seeds are fixed).
func TestEstimatePi(t *testing.T) {
	*samplesFlag = 400_000
	defer time.AfterFunc(time.Minute, func() { panic("the ranks did not finish within a minute") }).Stop()
	if err := mpj.RunLocal(4, func(w *mpj.Comm) error {
		pi, total, err := estimatePi(w)
		if err != nil || w.Rank() != 0 {
			return err
		}
		if total != *samplesFlag || math.Abs(pi-math.Pi) > 0.02 {
			t.Errorf("pi ≈ %v from %d samples, want within 0.02 of %v from %d", pi, total, math.Pi, *samplesFlag)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
