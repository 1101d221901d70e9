package mpj

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"testing"
	"time"

	"mpj/internal/daemon"
)

// registerElasticApps registers the elastic-recovery applications; called
// from registerTestApps so slave processes (which re-enter TestMain) can
// resolve them too.
func registerElasticApps() {
	// elastic-recover is the hermetic elastic cycle: rank 1 "dies" (its
	// device condemns it and aborts, as a destroyed slave's does), the
	// survivors' transports report it, and they detect, shrink, respawn
	// and verify the rebuilt world. Replacement ranks enter here afresh
	// with Spawned() true and join the verification.
	Register("elastic-recover", func(w *Comm) error {
		if w.Spawned() {
			return elasticGroundTruth(w)
		}
		if w.Rank() == 1 {
			w.Device().Die(errors.New("hermetic kill"))
			return nil
		}
		return elasticRecover(w, w.Size())
	})
	// silent-death-recover kills rank 1 without ending its device: the
	// victim condemns itself only in its own registry and unwinds, so the
	// survivors learn of it only once its slave ends (the dead report, the
	// slave's teardown aborting its device) and the daemon's exit verdict
	// excuses its report at the client.
	Register("silent-death-recover", func(w *Comm) error {
		if w.Spawned() {
			return elasticGroundTruth(w)
		}
		if w.Rank() == 1 {
			w.Device().NotifyRankFailed(w.Rank(), errors.New("silent death"))
			return nil
		}
		return elasticRecover(w, w.Size())
	})
	// chaos-recover is the real thing: rank 1 SIGKILLs its own process
	// mid-job; the survivors' sockets to it break, and the daemon's
	// process-exit verdict excuses its report at the client.
	Register("chaos-recover", func(w *Comm) error {
		if w.Spawned() {
			return elasticGroundTruth(w)
		}
		if w.Rank() == 1 {
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable
		}
		return elasticRecover(w, w.Size())
	})
	// hung-recover: rank 1 stops its own process with SIGSTOP — hung, not
	// dead: its sockets stay open, so only its liveness lease can condemn
	// it. Arguments: "now" stops at once, "beat" after one heartbeat; then
	// a file for the stopped process's pid.
	Register("hung-recover", func(w *Comm) error {
		if w.Spawned() {
			return elasticGroundTruth(w)
		}
		if w.Rank() == 1 {
			when, pidFile := os.Args[1], os.Args[2]
			if err := os.WriteFile(pidFile, []byte(strconv.Itoa(os.Getpid())), 0o644); err != nil {
				return err
			}
			if when == "beat" {
				time.Sleep(hungLiveness / 4)
			}
			_ = syscall.Kill(os.Getpid(), syscall.SIGSTOP)
			select {} // the daemon kills it
		}
		return elasticRecover(w, w.Size())
	})
}

// hungLiveness is the liveness lease of the hung-rank rows.
const hungLiveness = 2 * time.Second

// elasticGroundTruth verifies a (rebuilt) world end-to-end: a full-size
// Allreduce with a closed-form answer, then a barrier so every member —
// survivors and replacements — synchronizes before teardown.
func elasticGroundTruth(w *Comm) error {
	n, r := w.Size(), w.Rank()
	in := []int64{int64(r + 1)}
	out := []int64{0}
	if err := w.Allreduce(in, 0, out, 0, 1, LONG, SUM); err != nil {
		return fmt.Errorf("rebuilt-world allreduce: %w", err)
	}
	want := int64(n) * int64(n+1) / 2
	if out[0] != want {
		return fmt.Errorf("rebuilt-world allreduce = %d, want %d", out[0], want)
	}
	return w.Barrier()
}

// elasticRecover is the survivor side of the elastic cycle: observe the
// typed failure, shrink to the survivor set, spawn replacements back to
// wantSize, merge into the rebuilt world and verify it.
func elasticRecover(w *Comm, wantSize int) error {
	in := []int64{1}
	out := []int64{0}
	err := w.Allreduce(in, 0, out, 0, 1, LONG, SUM)
	if err == nil {
		return errors.New("allreduce over a dead member succeeded")
	}
	if !errors.Is(err, ErrRankFailed) {
		return fmt.Errorf("want ErrRankFailed, got: %w", err)
	}
	sw, err := w.Shrink()
	if err != nil {
		return fmt.Errorf("shrink: %w", err)
	}
	ic, err := sw.Spawn(wantSize - sw.Size())
	if err != nil {
		return fmt.Errorf("spawn: %w", err)
	}
	w2, err := ic.Merge(false)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	if w2.Size() != wantSize {
		return fmt.Errorf("rebuilt world size = %d, want %d", w2.Size(), wantSize)
	}
	return elasticGroundTruth(w2)
}

// TestRunLocalElasticSpawnCycle drives the full elastic cycle inside one
// process: detect → Shrink → Spawn → Merge → verify, with replacements
// running as fresh goroutines re-entering the application.
func TestRunLocalElasticSpawnCycle(t *testing.T) {
	app, err := lookupApp("elastic-recover")
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{3, 4} {
		if err := RunLocal(np, app); err != nil {
			t.Errorf("np=%d: %v", np, err)
		}
	}
}

// TestElasticJobHermeticKill runs the elastic cycle through the full
// distributed control plane — daemons, bootstrap master, scoped spawn
// master, replacement placement via CreateSlave — with in-process slaves,
// so it is fast enough for every test run.
func TestElasticJobHermeticKill(t *testing.T) {
	reg, daemons := testEnv(t, 2, NewFuncSpawner())
	err := Run(JobConfig{
		NP:       4,
		App:      "elastic-recover",
		Locators: []string{reg.Addr()},
		LeaseDur: 2 * time.Second,
		Elastic:  true,
	})
	if err != nil {
		t.Fatalf("elastic job failed: %v", err)
	}
	waitCondition(t, func() bool {
		return daemons[0].SlaveCount() == 0 && daemons[1].SlaveCount() == 0
	})
}

// TestElasticSilentDeathRecoversViaVerdict: a victim that condemns itself
// only in its own registry and unwinds still reaches the survivors — its
// slave's teardown aborts its device, and their transports report it — and
// its self-declared dead report is excused once the daemon's exit verdict
// reaches the client through RenewJob.
func TestElasticSilentDeathRecoversViaVerdict(t *testing.T) {
	reg, daemons := testEnv(t, 2, NewFuncSpawner())
	err := Run(JobConfig{
		NP:       4,
		App:      "silent-death-recover",
		Locators: []string{reg.Addr()},
		LeaseDur: 2 * time.Second,
		Elastic:  true,
	})
	if err != nil {
		t.Fatalf("silent-death job failed: %v", err)
	}
	waitCondition(t, func() bool {
		return daemons[0].SlaveCount() == 0 && daemons[1].SlaveCount() == 0
	})
}

// TestChaosKillRecoverProcesses is the acceptance chaos test: real slave
// processes, one killed with SIGKILL mid-job. The daemon observes the
// exit and records a per-rank verdict; survivors observe the typed
// ErrRankFailed within the liveness deadline (no hang), Shrink, Spawn a
// replacement process, Merge, and pass a ground-truth collective on the
// rebuilt full-size world.
func TestChaosKillRecoverProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	reg, daemons := testEnv(t, 2, daemon.ProcSpawner{})
	err := Run(JobConfig{
		NP:             4,
		App:            "chaos-recover",
		Locators:       []string{reg.Addr()},
		LeaseDur:       2 * time.Second,
		Elastic:        true,
		LivenessDur:    2 * time.Second,
		ConnectTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("chaos job failed: %v", err)
	}
	waitCondition(t, func() bool {
		return daemons[0].SlaveCount() == 0 && daemons[1].SlaveCount() == 0
	})
}

// TestChaosHungRankRecoverProcesses: a rank that hangs (SIGSTOP) keeps its
// sockets open, so its peers' transports see nothing until its daemon
// condemns it. The daemon holds its liveness lease from the slave's
// creation and every rank beats four times per lease, so whether the rank
// stops at once or after a heartbeat, the daemon declares it dead and
// destroys it within about one lease, the survivors' transports report
// the break, and they recover; no healthy rank is condemned.
func TestChaosHungRankRecoverProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	const deadline = 30 * time.Second
	verdict := regexp.MustCompile(`rank (\d+) declared dead|\(rank (\d+)\) died`)
	for _, when := range []string{"now", "beat"} {
		t.Run(when, func(t *testing.T) {
			reg, daemons, logs := testEnvLogged(t, 2, daemon.ProcSpawner{})
			pidFile := filepath.Join(t.TempDir(), "pid")
			t.Cleanup(func() {
				// A failed row must not leave the stopped process behind.
				if b, err := os.ReadFile(pidFile); err == nil && t.Failed() {
					if pid, err := strconv.Atoi(string(b)); err == nil {
						_ = syscall.Kill(pid, syscall.SIGKILL)
					}
				}
			})
			done := make(chan error, 1)
			go func() {
				done <- Run(JobConfig{
					NP:             4,
					App:            "hung-recover",
					Args:           []string{when, pidFile},
					Locators:       []string{reg.Addr()},
					LeaseDur:       2 * time.Second,
					Elastic:        true,
					LivenessDur:    hungLiveness,
					ConnectTimeout: 5 * time.Second,
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("hung-rank job failed: %v", err)
				}
			case <-time.After(deadline):
				t.Fatalf("hung-rank job did not recover within %s", deadline)
			}
			condemned := 0
			for _, line := range logs.kept() {
				m := verdict.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				if m[1] != "1" && m[2] != "1" {
					t.Errorf("a healthy rank was condemned: %s", line)
				}
				condemned++
			}
			if condemned == 0 {
				t.Error("no daemon condemned the stopped rank")
			}
			waitCondition(t, func() bool {
				return daemons[0].SlaveCount() == 0 && daemons[1].SlaveCount() == 0
			})
		})
	}
}

// TestNonElasticCrashStillAborts pins the default failure model: without
// Elastic, a hard slave death must keep taking the whole job down (the
// paper's §3.3 semantics) — elasticity is strictly opt-in.
func TestNonElasticCrashStillAborts(t *testing.T) {
	reg, _ := testEnv(t, 2, NewFuncSpawner())
	err := Run(JobConfig{
		NP:       3,
		App:      "crasher",
		Locators: []string{reg.Addr()},
		LeaseDur: 2 * time.Second,
	})
	if err == nil {
		t.Fatal("non-elastic job with crashing slave reported success")
	}
}

// TestSpawnWithoutRespawnerFailsTyped: Spawn on a world with no runtime
// respawner must fail fast with ErrSpawn, never hang.
func TestSpawnWithoutRespawnerFailsTyped(t *testing.T) {
	err := RunLocal(2, func(w *Comm) error {
		w.SetRespawner(nil)
		_, err := w.Spawn(1)
		if !errors.Is(err, ErrSpawn) {
			return fmt.Errorf("want ErrSpawn, got %v", err)
		}
		if _, err := w.Spawn(0); !errors.Is(err, ErrSpawn) {
			return fmt.Errorf("Spawn(0): want ErrSpawn, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
