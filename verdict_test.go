package mpj

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mpj/internal/daemon"
)

// registerVerdictApps registers the applications of TestJobVerdict; called
// from registerTestApps so slave processes resolve them too. Each runs on
// three ranks, and the named rank ends the job its way while the others
// receive from it: "abort-swallow" and "abort-fail" (rank 0 calls
// Abort(42), and its peers swallow their receive's ErrRankFailed or fail
// of it) and "die-fail" (rank 1 dies through Device.Die, and its peers
// fail of it). own-error, rank 1's own error, is registered with the
// runtime tests.
func registerVerdictApps() {
	recvFrom := func(w *Comm, src int) error {
		_, err := w.Recv(make([]int32, 1), 0, 1, INT, src, 0)
		return err
	}
	Register("abort-swallow", func(w *Comm) error {
		if w.Rank() == 0 {
			w.Abort(42)
			return nil
		}
		_ = recvFrom(w, 0)
		return nil
	})
	Register("abort-fail", func(w *Comm) error {
		if w.Rank() == 0 {
			w.Abort(42)
			return nil
		}
		return recvFrom(w, 0)
	})
	Register("die-fail", func(w *Comm) error {
		if w.Rank() == 1 {
			w.Device().Die(errors.New("died on purpose"))
			return nil
		}
		return recvFrom(w, 1)
	})
}

// TestJobVerdict: one rule names a failed job, so every launcher —
// RunLocal, in-process daemon slaves and process slaves, classic and
// elastic — fails each case within the deadline with a job error that
// carries, under errors.As, the same rank and, for an abort, its code. An
// abort fails the job even where its peers swallow the error, elastic or
// not. Process rows spawn OS processes and skip under -short.
func TestJobVerdict(t *testing.T) {
	const np, limit = 3, time.Minute
	cases := []struct {
		app     string
		rank    int
		aborted bool
	}{
		{"abort-swallow", 0, true},
		{"abort-fail", 0, true},
		{"own-error", 1, false},
		{"die-fail", 1, false},
	}
	launchers := []struct {
		name    string
		spawner daemon.Spawner // nil: RunLocal
		elastic bool
	}{
		{"local", nil, false},
		{"func", NewFuncSpawner(), false},
		{"func-elastic", NewFuncSpawner(), true},
		{"proc", daemon.ProcSpawner{}, false},
		{"proc-elastic", daemon.ProcSpawner{}, true},
	}
	for _, l := range launchers {
		t.Run(l.name, func(t *testing.T) {
			if _, proc := l.spawner.(daemon.ProcSpawner); proc && testing.Short() {
				t.Skip("spawns OS processes")
			}
			for _, tc := range cases {
				t.Run(tc.app, func(t *testing.T) {
					var err error
					if l.spawner == nil {
						app, lerr := lookupApp(tc.app)
						if lerr != nil {
							t.Fatal(lerr)
						}
						done := make(chan error, 1)
						go func() { done <- RunLocal(np, app) }()
						select {
						case err = <-done:
						case <-time.After(limit):
							t.Fatalf("RunLocal still runs after %v", limit)
						}
					} else {
						reg, _ := testEnv(t, 2, l.spawner)
						err = runJobWithin(JobConfig{NP: np, App: tc.app, Locators: []string{reg.Addr()}, LeaseDur: 2 * time.Second, Elastic: l.elastic}, limit)
					}
					var rf *RankFailedError
					if !errors.As(err, &rf) {
						t.Fatalf("job error %v carries no RankFailedError", err)
					}
					got := fmt.Sprintf("rank %d aborted %v", rf.Rank, rf.Aborted)
					want := fmt.Sprintf("rank %d aborted %v", tc.rank, tc.aborted)
					if tc.aborted {
						got += fmt.Sprintf(" code %d", rf.Code)
						want += " code 42"
					}
					if got != want {
						t.Errorf("job error %v names %s, want %s", err, got, want)
					}
				})
			}
		})
	}
}
