package main

import (
	"math"
	"testing"
	"time"

	"mpj"
)

// TestSolveHeat runs the example at np=4 on a 32×32 plate, blocking and
// overlapped, within a minute. Both converge: the residual the solve
// computes, the largest update of its last sweep, is below the tolerance.
// The overlapped solve harvests each check one sweep late, so it runs
// exactly one sweep more, and since a Jacobi sweep never grows the largest
// update, no band's mean differs from the blocking solve's by as much as
// the tolerance. Heat enters at the top edge only, so the band means fall
// from top to bottom.
func TestSolveHeat(t *testing.T) {
	*gridN, *iters, *tol = 32, 5000, 1e-4
	var sweeps [2]int
	var means [2][]float64
	defer time.AfterFunc(time.Minute, func() { panic("the ranks did not finish within a minute") }).Stop()
	for i, ov := range []bool{false, true} {
		*overlap = ov
		if err := mpj.RunLocal(4, func(w *mpj.Comm) error {
			s, maxUpdate, m, err := solveHeat(w)
			if err != nil || w.Rank() != 0 {
				return err
			}
			if maxUpdate >= *tol {
				t.Errorf("overlap=%v: max update %v after %d sweeps, want below %v", ov, maxUpdate, s, *tol)
			}
			sweeps[i], means[i] = s, m
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		m := means[i]
		if len(m) != 4 {
			t.Fatalf("overlap=%v: %d band means, want 4", ov, len(m))
		}
		for b := 1; b < len(m); b++ {
			if !(m[b] < m[b-1]) || m[b] <= 0 || m[0] >= 100 {
				t.Fatalf("overlap=%v: band means %v do not fall from the hot edge within (0, 100)", ov, m)
			}
		}
	}
	if sweeps[1] != sweeps[0]+1 {
		t.Errorf("overlapped solve ran %d sweeps, blocking %d; want one more", sweeps[1], sweeps[0])
	}
	for b := range means[0] {
		if d := math.Abs(means[1][b] - means[0][b]); d >= *tol {
			t.Errorf("band %d: overlapped mean %v, blocking %v, %v apart; want under %v", b, means[1][b], means[0][b], d, *tol)
		}
	}
}
