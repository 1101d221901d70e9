package mpj

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mpj/internal/core"
	"mpj/internal/daemon"
	"mpj/internal/prof"
)

// jobTuning is the tuning TestJobTuningReachesEverySlave gives its jobs:
// every value off its default, so a rank that fell back to a default or
// to its own environment shows it.
var jobTuning = core.Tuning{
	EagerLimit:   3000,
	Prof:         prof.Spec{Counters: true},
	EpochTimeout: 7 * time.Second,
}

func registerTuningApps() {
	// tuning-check: every rank checks each value of jobTuning where it
	// takes effect, and that it runs over the transport its layout calls
	// for.
	Register("tuning-check", checkJobTuning)
	// tuning-spawn: rank 1 dies, the survivors spawn its replacement, and
	// every member of the rebuilt world checks its tuning.
	Register("tuning-spawn", func(w *Comm) error {
		if w.Spawned() {
			return checkJobTuning(w)
		}
		if w.Rank() == 1 {
			w.Device().Die(errors.New("tuning test kill"))
			return nil
		}
		if err := w.Barrier(); !errors.Is(err, ErrRankFailed) {
			return fmt.Errorf("want a rank failure, got %v", err)
		}
		sw, err := w.Shrink()
		if err != nil {
			return err
		}
		ic, err := sw.Spawn(w.Size() - sw.Size())
		if err != nil {
			return err
		}
		w2, err := ic.Merge(false)
		if err != nil {
			return err
		}
		return checkJobTuning(w2)
	})
}

// checkJobTuning is one rank's view of jobTuning on a world of four: the
// device's eager limit, the counters being on, and the whole tuning as
// the rank's /debug/vars status reports it (the epoch deadline has no other
// window from outside core), with the co-host rendezvous counts beside it.
func checkJobTuning(w *Comm) error {
	if err := builtByTheRule(w); err != nil {
		return err
	}
	if got := w.Device().EagerLimit(); got != jobTuning.EagerLimit {
		return fmt.Errorf("rank %d: eager limit %d, want %d", w.Rank(), got, jobTuning.EagerLimit)
	}
	if !w.ProfEnabled() {
		return fmt.Errorf("rank %d: counters off, want %s", w.Rank(), jobTuning.Prof)
	}
	status, _ := w.Device().Profiler().Status().(map[string]any)
	want := map[string]any{
		"eagerLimit": jobTuning.EagerLimit,
		"prof":       jobTuning.Prof.String(),
		"rmaTimeout": jobTuning.EpochTimeout.String(),
	}
	if got := status["config"]; !reflect.DeepEqual(got, want) {
		return fmt.Errorf("rank %d: status config %v, want %v", w.Rank(), got, want)
	}
	if got, want := status["rendezvous"], rendezvousCounts(w.Device().Stats()); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("rank %d: status rendezvous %v, want the device's counts %v", w.Rank(), got, want)
	}
	return w.Barrier()
}

// specRecorder wraps a spawner and keeps the spec of every slave it starts.
type specRecorder struct {
	inner daemon.Spawner
	mu    sync.Mutex
	specs []daemon.SlaveSpec
}

func (s *specRecorder) Spawn(spec daemon.SlaveSpec, daemonAddr string) (daemon.Slave, error) {
	s.mu.Lock()
	s.specs = append(s.specs, spec)
	s.mu.Unlock()
	return s.inner.Spawn(spec, daemonAddr)
}

// TestJobTuningReachesEverySlave: a job's tuning is resolved once, in the
// client — the counters from JobConfig, the eager limit and the epoch
// deadline from the client's MPJ_* variables — and every rank runs with
// it: in-process slaves, process slaves, and a replacement rank Comm.Spawn
// starts under RunLocal (which takes all three from the variables). Every
// spec a daemon receives carries it whole.
func TestJobTuningReachesEverySlave(t *testing.T) {
	t.Setenv("MPJ_EAGER_LIMIT", fmt.Sprint(jobTuning.EagerLimit))
	t.Setenv("MPJ_RMA_TIMEOUT", jobTuning.EpochTimeout.String())
	run := func(spawner daemon.Spawner) func(t *testing.T) {
		return func(t *testing.T) {
			rec := &specRecorder{inner: spawner}
			reg, _ := testEnv(t, 2, rec)
			err := Run(JobConfig{
				NP:       4,
				App:      "tuning-check",
				Prof:     jobTuning.Prof.String(),
				Locators: []string{reg.Addr()},
				LeaseDur: 5 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			rec.mu.Lock()
			defer rec.mu.Unlock()
			if len(rec.specs) != 4 {
				t.Fatalf("the daemons started %d slaves, want 4", len(rec.specs))
			}
			for _, s := range rec.specs {
				if s.Tuning != jobTuning {
					t.Errorf("rank %d's spec carries %+v, want %+v", s.Rank, s.Tuning, jobTuning)
				}
			}
		}
	}
	t.Run("in-process", run(NewFuncSpawner()))
	t.Run("process", func(t *testing.T) {
		if testing.Short() {
			t.Skip("spawns OS processes")
		}
		run(daemon.ProcSpawner{})(t)
	})
	t.Run("spawned", func(t *testing.T) {
		t.Setenv("MPJ_PROF", jobTuning.Prof.String())
		app, err := lookupApp("tuning-spawn")
		if err != nil {
			t.Fatal(err)
		}
		if err := RunLocal(4, app); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunRejectsMalformedTuning: a malformed tuning value, in JobConfig
// or in the client's environment, fails Run before any slave is created,
// and the error names where the value came from.
func TestRunRejectsMalformedTuning(t *testing.T) {
	for _, tc := range []struct {
		name string // the field or variable the error must name
		cfg  JobConfig
		env  string
	}{
		{name: "JobConfig.Prof", cfg: JobConfig{Prof: "trace"}},
		{name: "MPJ_EAGER_LIMIT", env: "lots"},
		{name: "MPJ_PROF", env: "trace:"},
		{name: "MPJ_RMA_TIMEOUT", env: "5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.env != "" {
				t.Setenv(tc.name, tc.env)
			}
			rec := &specRecorder{inner: NewFuncSpawner()}
			reg, _ := testEnv(t, 1, rec)
			cfg := tc.cfg
			cfg.NP, cfg.App, cfg.Locators, cfg.LeaseDur = 2, "sum", []string{reg.Addr()}, 2*time.Second
			err := Run(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.name) {
				t.Errorf("Run returned %v, want an error naming %s", err, tc.name)
			}
			if len(rec.specs) != 0 {
				t.Errorf("%d slaves were created before the error", len(rec.specs))
			}
		})
	}
}
