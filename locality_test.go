package mpj

import (
	"fmt"
	"testing"
	"time"
)

// registerLocalityApps registers the locality-layout applications; called
// from registerTestApps so slave processes can resolve them too.
//
// "locality-distinct" checks that every member has a key of its own,
// "locality-one" that all members share one key.
func registerLocalityApps() {
	Register("locality-distinct", func(w *Comm) error {
		keys, err := localityKeys(w)
		if err != nil {
			return err
		}
		seen := map[string]int{}
		for r, k := range keys {
			if q, ok := seen[k]; ok {
				return fmt.Errorf("ranks %d and %d share locality key %q", q, r, k)
			}
			seen[k] = r
		}
		return nil
	})
	Register("locality-one", func(w *Comm) error {
		keys, err := localityKeys(w)
		if err != nil {
			return err
		}
		for r, k := range keys {
			if k != keys[0] {
				return fmt.Errorf("rank %d has locality key %q, rank 0 %q", r, k, keys[0])
			}
		}
		return nil
	})
}

// localityKeys returns the world's locality table, one non-empty key per
// member.
func localityKeys(w *Comm) ([]string, error) {
	keys := w.LocalityTable()
	if len(keys) != w.Size() {
		return nil, fmt.Errorf("rank %d: locality table %q for %d ranks", w.Rank(), keys, w.Size())
	}
	for r, k := range keys {
		if k == "" {
			return nil, fmt.Errorf("rank %d: rank %d has no locality key", w.Rank(), r)
		}
	}
	return keys, nil
}

// TestLaunchersLayOutNoLocalityGroups pins why collective selection reads
// no locality: no launcher puts some ranks of a job together in one
// process while others live elsewhere. Process slaves get a key each, and
// the slaves of in-process daemons, two of them here, all share one.
func TestLaunchersLayOutNoLocalityGroups(t *testing.T) {
	t.Run("process-slaves", func(t *testing.T) {
		if testing.Short() {
			t.Skip("spawns OS processes")
		}
		runProcJob(t, 2, "locality-distinct")
	})
	t.Run("in-process-daemons", func(t *testing.T) {
		reg, _ := testEnv(t, 2, NewFuncSpawner())
		err := Run(JobConfig{NP: 4, App: "locality-one", Locators: []string{reg.Addr()}, LeaseDur: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
	})
}
