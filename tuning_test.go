package mpj

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mpj/internal/daemon"
	"mpj/internal/prof"
)

// jobProf is the instrumentation TestJobTuningReachesEverySlave gives its
// jobs: off its default, so a rank that fell back to the default or to its
// own environment shows it.
var jobProf = prof.Spec{Counters: true}

// staleEnv holds variables that earlier versions read as job settings,
// with values off the defaults: a rank that read them would show it.
var staleEnv = map[string]string{"MPJ_EAGER_LIMIT": "2048", "MPJ_RMA_TIMEOUT": "9s"}

func registerTuningApps() {
	// tuning-check: every rank checks the job's instrumentation where it
	// takes effect, and that it runs over the transport its layout calls
	// for.
	Register("tuning-check", checkJobTuning)
	// tuning-spawn: rank 1 dies, the survivors spawn its replacement, and
	// every member of the rebuilt world checks its instrumentation.
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
	// stale-check: a rank whose environment holds staleEnv runs with the
	// runtime's constants all the same.
	Register("stale-check", func(w *Comm) error {
		for k, v := range staleEnv {
			if got := os.Getenv(k); got != v {
				return fmt.Errorf("rank %d: %s=%q in its environment, want %q", w.Rank(), k, got, v)
			}
		}
		if got := w.Device().EagerLimit(); got != DefaultEagerLimit {
			return fmt.Errorf("rank %d: eager limit %d, want %d", w.Rank(), got, DefaultEagerLimit)
		}
		return checkJobTuning(w)
	})
}

// checkJobTuning is one rank's view of jobProf on a world of four: the
// counters being on, and the instrumentation as the rank's /debug/vars
// status reports it — the config block holds nothing else — with the
// co-host rendezvous counts beside it.
func checkJobTuning(w *Comm) error {
	if err := builtByTheRule(w); err != nil {
		return err
	}
	if !w.ProfEnabled() {
		return fmt.Errorf("rank %d: counters off, want %s", w.Rank(), jobProf)
	}
	status, _ := w.Device().Profiler().Status().(map[string]any)
	want := map[string]any{"prof": jobProf.String()}
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

// runRecorded runs app on four ranks over two daemons that start their
// slaves with spawner, and checks that every spec they received carries
// jobProf.
func runRecorded(t *testing.T, spawner daemon.Spawner, app string) {
	t.Helper()
	rec := &specRecorder{inner: spawner}
	reg, _ := testEnv(t, 2, rec)
	err := Run(JobConfig{
		NP:       4,
		App:      app,
		Prof:     jobProf.String(),
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
		if s.Prof != jobProf {
			t.Errorf("rank %d's spec carries %+v, want %+v", s.Rank, s.Prof, jobProf)
		}
	}
}

// TestJobTuningReachesEverySlave: a job's instrumentation is resolved
// once, in the client, from JobConfig, and every rank runs with it:
// in-process slaves, process slaves, and a replacement rank Comm.Spawn
// starts under RunLocal (which takes it from MPJ_PROF). Every spec a
// daemon receives carries it.
func TestJobTuningReachesEverySlave(t *testing.T) {
	t.Run("in-process", func(t *testing.T) { runRecorded(t, NewFuncSpawner(), "tuning-check") })
	t.Run("process", func(t *testing.T) {
		if testing.Short() {
			t.Skip("spawns OS processes")
		}
		runRecorded(t, daemon.ProcSpawner{}, "tuning-check")
	})
	t.Run("spawned", func(t *testing.T) {
		t.Setenv("MPJ_PROF", jobProf.String())
		app, err := lookupApp("tuning-spawn")
		if err != nil {
			t.Fatal(err)
		}
		if err := RunLocal(4, app); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStaleVariablesIgnored: MPJ_EAGER_LIMIT and MPJ_RMA_TIMEOUT, once job
// settings, are in the environment of the client and of every process
// slave, and change nothing: each rank's device opens with
// DefaultEagerLimit and its status reports the instrumentation alone.
// (A window's deadline has no reader outside core; TestEpochTimeoutDefault
// checks it under the same variable, and TestEnvReads that nothing reads
// either one.)
func TestStaleVariablesIgnored(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	for k, v := range staleEnv {
		t.Setenv(k, v)
	}
	runRecorded(t, daemon.ProcSpawner{}, "stale-check")
}

// TestEagerLimitRunLocal: under RunLocal every device opens with
// DefaultEagerLimit, whatever MPJ_EAGER_LIMIT says — a number or not.
func TestEagerLimitRunLocal(t *testing.T) {
	for _, v := range []string{"1234", "not-a-size"} {
		t.Setenv("MPJ_EAGER_LIMIT", v)
		if err := RunLocal(2, func(w *Comm) error {
			if got := w.Device().EagerLimit(); got != DefaultEagerLimit {
				return fmt.Errorf("device eager limit %d, want %d", got, DefaultEagerLimit)
			}
			return nil
		}); err != nil {
			t.Errorf("MPJ_EAGER_LIMIT=%s: %v", v, err)
		}
	}
}

// TestRunRejectsMalformedTuning: a malformed instrumentation value, in
// JobConfig or in the client's environment, fails Run before any slave is
// created, and the error names where the value came from.
func TestRunRejectsMalformedTuning(t *testing.T) {
	for _, tc := range []struct {
		name string // the field or variable the error must name
		cfg  JobConfig
		env  string
	}{
		{name: "JobConfig.Prof", cfg: JobConfig{Prof: "trace"}},
		{name: "MPJ_PROF", env: "trace:"},
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

// TestProfEndpointServesLiveJob: a RunLocal job under MPJ_PROF_ADDR serves
// /debug/vars while it runs, and the served "mpj" block holds its ranks'
// traffic: serveProf starts the endpoint, openDevice tracks each rank.
func TestProfEndpointServesLiveJob(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	t.Setenv("MPJ_PROF", "counters")
	t.Setenv("MPJ_PROF_ADDR", addr)

	const size = 4 << 10
	err = RunLocal(2, func(w *Comm) error {
		buf := make([]byte, size)
		if w.Rank() == 1 {
			if _, err := w.Recv(buf, 0, size, BYTE, 0, 0); err != nil {
				return err
			}
			return w.Send(buf, 0, 1, BYTE, 0, 1)
		}
		if err := w.Send(buf, 0, size, BYTE, 1, 0); err != nil {
			return err
		}
		if _, err := w.Recv(buf, 0, 1, BYTE, 1, 1); err != nil {
			return err
		}
		resp, err := http.Get("http://" + addr + "/debug/vars")
		if err != nil {
			return fmt.Errorf("GET /debug/vars: %w", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		var vars struct {
			MPJ *struct {
				Ranks map[string]struct {
					Counters prof.Snapshot `json:"counters"`
				} `json:"ranks"`
			} `json:"mpj"`
		}
		if err := json.Unmarshal(body, &vars); err != nil {
			return fmt.Errorf("/debug/vars is not JSON: %w\n%s", err, body)
		}
		if vars.MPJ == nil {
			return fmt.Errorf("/debug/vars has no mpj block:\n%s", body)
		}
		for _, r := range vars.MPJ.Ranks {
			if r.Counters.EagerSentBytes > 0 {
				return nil
			}
		}
		return fmt.Errorf("no live rank served eagerSentBytes > 0:\n%s", body)
	})
	if err != nil {
		t.Fatal(err)
	}
}
