package main

import (
	"errors"
	"fmt"
	"testing"

	"mpj"
)

// TestExitStatus: mpjrun exits with the code of the abort the job's error
// carries, found through errors.As, when it is 1 to 255, and 1 for every
// other failure.
func TestExitStatus(t *testing.T) {
	abort := func(code int) error {
		return fmt.Errorf("job: %w", &mpj.RankFailedError{Rank: 2, Aborted: true, Code: code})
	}
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"abort 42", abort(42), 42},
		{"abort 1", abort(1), 1},
		{"abort 255", abort(255), 255},
		{"abort 0", abort(0), 1},
		{"abort 256", abort(256), 1},
		{"abort -3", abort(-3), 1},
		{"a rank's own error", fmt.Errorf("job: %w", &mpj.RankFailedError{Rank: 1, Cause: errors.New("boom")}), 1},
		{"no rank", errors.New("job: no MPJ daemons found"), 1},
	} {
		if got := exitStatus(tc.err); got != tc.want {
			t.Errorf("%s: exit status %d, want %d", tc.name, got, tc.want)
		}
	}
}
