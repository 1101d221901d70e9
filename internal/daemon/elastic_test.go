package daemon

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// blockingSpawner runs every slave as a goroutine that simply waits for
// Destroy — the minimal stand-in when a test exercises the daemon's
// control plane (heartbeats, verdicts) and no mesh is needed.
func blockingSpawner() FuncSpawner {
	return FuncSpawner{Run: func(spec SlaveSpec, daemonAddr string, stop <-chan struct{}) error {
		<-stop
		return nil
	}}
}

// crashingSpawner fails the given rank immediately and blocks the rest.
func crashingSpawner(rank int) FuncSpawner {
	return FuncSpawner{Run: func(spec SlaveSpec, daemonAddr string, stop <-chan struct{}) error {
		if spec.Rank == rank {
			return errors.New("synthetic crash")
		}
		<-stop
		return nil
	}}
}

// TestFailureRegistryKill: an immediate verdict cancels the lease, is
// served by DeadSet, refuses resurrection, and stays idempotent.
func TestFailureRegistryKill(t *testing.T) {
	now := time.Now()
	fr := NewFailureRegistryWithClock(func() time.Time { return now })
	defer fr.Close()

	var verdicts []int
	fr.Subscribe(func(rank int, err error) { verdicts = append(verdicts, rank) })

	fr.Track(3, time.Minute)
	fr.Kill(3, errors.New("process exited"))
	fr.Kill(3, errors.New("again")) // no-op: first verdict stands

	if err, dead := fr.Dead(3); !dead || !strings.Contains(err.Error(), "process exited") {
		t.Fatalf("Dead(3) = %v, %v", err, dead)
	}
	if ds := fr.DeadSet(); len(ds) != 1 || ds[3] == nil {
		t.Fatalf("DeadSet = %v", ds)
	}
	if len(verdicts) != 1 || verdicts[0] != 3 {
		t.Fatalf("verdicts = %v, want one for rank 3", verdicts)
	}
	if fr.Tracked(3) {
		t.Fatal("killed rank still holds a lease")
	}
	// Death is final: re-tracking and heartbeating must not resurrect.
	fr.Track(3, time.Minute)
	if fr.Tracked(3) {
		t.Fatal("dead rank re-tracked")
	}
	if err := fr.Heartbeat(3, time.Minute); err == nil {
		t.Fatal("heartbeat from dead rank accepted")
	}
}

// TestHeartbeatTracksAndServesVerdicts: the daemon holds a liveness lease
// on every elastic slave from its creation, the Heartbeat RPC renews it, a
// membership that never renews is declared dead within its lease, the
// verdict travels in lease-renewal replies, and the false survivor's
// local slave is destroyed.
func TestHeartbeatTracksAndServesVerdicts(t *testing.T) {
	d, err := New(WithSpawner(blockingSpawner()))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	client, err := DialDaemon(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const jobID = 4242
	only0 := []Membership{{Epoch: jobID, Rank: 0}}
	for rank := 0; rank < 2; rank++ {
		if _, err := client.CreateSlave(SlaveSpec{
			JobID: jobID, Rank: rank, Size: 2, App: "x",
			MasterAddr: "127.0.0.1:1", LeaseMs: 60_000,
			Elastic: true, LivenessMs: 500,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Heartbeat(jobID, only0); err != nil {
			t.Fatal(err)
		}
	}

	// Rank 1 never beats; rank 0 keeps renewing. Rank 1's lease, held
	// since its creation, lapses, and the daemon destroys the false
	// survivor's slave.
	waitFor(t, func() bool {
		if _, err := client.Heartbeat(jobID, only0); err != nil {
			t.Fatal(err)
		}
		return d.SlaveCount() == 1
	})

	// The lease-renewal reply carries the verdict (what excuses the dead
	// rank's missing report at the client), and only that one.
	verdicts := func() []DeadRank {
		t.Helper()
		dead, err := client.RenewJob(jobID, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return dead
	}
	dead := verdicts()
	if len(dead) != 1 || dead[0].Epoch != jobID || dead[0].Rank != 1 || !strings.Contains(dead[0].Cause, "lease expired") {
		t.Fatalf("RenewJob reply %v, want rank 1's lease verdict alone", dead)
	}

	// A dead rank must not resurrect: its heartbeat does not re-track it,
	// and the verdict stands.
	both := []Membership{{Epoch: jobID, Rank: 0}, {Epoch: jobID, Rank: 1}}
	if _, err := client.Heartbeat(jobID, both); err != nil {
		t.Fatal(err)
	}
	if dead := verdicts(); len(dead) != 1 || dead[0].Rank != 1 {
		t.Fatalf("verdicts after the dead rank's heartbeat: %v", dead)
	}
	if d.SlaveCount() != 1 {
		t.Fatalf("%d slaves, want rank 0's alone", d.SlaveCount())
	}

	if err := client.DestroyJob(jobID, "test teardown"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return d.SlaveCount() == 0 })
}

// TestElasticCrashRecordsVerdictWithoutAbort: in an elastic job a slave
// exiting with an error yields a per-rank death verdict instead of the
// non-elastic sibling destruction + MPJAbort cascade.
func TestElasticCrashRecordsVerdictWithoutAbort(t *testing.T) {
	d, err := New(WithSpawner(crashingSpawner(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	client, err := DialDaemon(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const jobID = 4243
	for rank := 0; rank < 2; rank++ {
		if _, err := client.CreateSlave(SlaveSpec{
			JobID: jobID, Rank: rank, Size: 2, App: "x",
			MasterAddr: "127.0.0.1:1", LeaseMs: 60_000,
			Elastic: true,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// The crash is recorded as a verdict and served via RenewJob.
	waitFor(t, func() bool {
		dead, err := client.RenewJob(jobID, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		for _, dr := range dead {
			if dr.Epoch == jobID && dr.Rank == 1 && strings.Contains(dr.Cause, "exited") {
				return true
			}
		}
		return false
	})
	// The sibling survives: no abort cascade destroyed it.
	if n := d.SlaveCount(); n != 1 {
		t.Fatalf("SlaveCount = %d after elastic crash, want 1 surviving sibling", n)
	}
	if err := client.DestroyJob(jobID, "test teardown"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return d.SlaveCount() == 0 })
}

// TestDialDaemonRetry: a bounded retry dial gives up with a deadline
// error on an unreachable daemon and succeeds against a live one.
func TestDialDaemonRetry(t *testing.T) {
	start := time.Now()
	_, err := dialRetry("127.0.0.1:1", 400*time.Millisecond)
	if err == nil {
		t.Fatal("dial to unreachable daemon succeeded")
	}
	if !strings.Contains(err.Error(), "gave up") {
		t.Fatalf("err = %v, want deadline error", err)
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Fatalf("gave up after %v, before the %v deadline", elapsed, 400*time.Millisecond)
	}

	d, err := New(WithSpawner(blockingSpawner()))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	client, err := DialDaemonRetry(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Ping(); err != nil {
		t.Fatal(err)
	}
}
