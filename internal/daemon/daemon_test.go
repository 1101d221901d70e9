package daemon

import (
	"errors"
	"io"
	"log"
	"reflect"
	"strings"
	"testing"
	"time"

	"mpj/internal/core"

	"mpj/internal/lookup"
	"mpj/internal/prof"
)

// stubSlave is a controllable Slave for daemon unit tests.
type stubSlave struct {
	id        string
	exit      chan error
	destroyed chan struct{}
	done      chan struct{}
	err       error
}

func newStubSlave(id string) *stubSlave {
	return &stubSlave{
		id:        id,
		exit:      make(chan error, 1),
		destroyed: make(chan struct{}),
		done:      make(chan struct{}),
	}
}

func (s *stubSlave) ID() string      { return s.id }
func (s *stubSlave) Forwarded() bool { return false }

func (s *stubSlave) Wait() error {
	<-s.done
	return s.err
}

func (s *stubSlave) Destroy() {
	select {
	case <-s.destroyed:
	default:
		close(s.destroyed)
		s.finish(errors.New("destroyed"))
	}
}

func (s *stubSlave) finish(err error) {
	select {
	case <-s.done:
	default:
		s.err = err
		close(s.done)
	}
}

// stubSpawner hands out pre-made stub slaves in order.
type stubSpawner struct {
	slaves chan *stubSlave
}

func (s *stubSpawner) Spawn(spec SlaveSpec, daemonAddr string) (Slave, error) {
	select {
	case sl := <-s.slaves:
		return sl, nil
	default:
		return nil, errors.New("stubSpawner exhausted")
	}
}

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

func newTestDaemon(t *testing.T, spawner Spawner) *Daemon {
	t.Helper()
	d, err := New(WithSpawner(spawner), WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSlaveCrashRaisesAbortAndDestroysSiblings(t *testing.T) {
	s1 := newStubSlave("s1")
	s2 := newStubSlave("s2")
	spawner := &stubSpawner{slaves: make(chan *stubSlave, 2)}
	spawner.slaves <- s1
	spawner.slaves <- s2
	d := newTestDaemon(t, spawner)

	aborts := make(chan Event, 2)
	recv, err := NewReceiver(func(ev Event) { aborts <- ev })
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	client, err := DialDaemon(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for rank := 0; rank < 2; rank++ {
		if _, err := client.CreateSlave(SlaveSpec{
			JobID: 5, Rank: rank, Size: 2, App: "x",
			EventAddr: recv.Addr(), LeaseMs: 60_000,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if d.SlaveCount() != 2 {
		t.Fatalf("slave count = %d", d.SlaveCount())
	}

	// Crash slave 1: the daemon must destroy slave 2 and raise MPJAbort.
	s1.finish(errors.New("segfault"))
	select {
	case ev := <-aborts:
		if ev.Type != TypeAbort || ev.JobID != 5 {
			t.Errorf("event %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no abort event")
	}
	select {
	case <-s2.destroyed:
	case <-time.After(10 * time.Second):
		t.Fatal("sibling slave not destroyed")
	}
	waitFor(t, func() bool { return d.SlaveCount() == 0 && d.JobCount() == 0 })
}

func TestCleanExitNoAbort(t *testing.T) {
	s1 := newStubSlave("s1")
	spawner := &stubSpawner{slaves: make(chan *stubSlave, 1)}
	spawner.slaves <- s1
	d := newTestDaemon(t, spawner)

	aborts := make(chan Event, 1)
	recv, err := NewReceiver(func(ev Event) { aborts <- ev })
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	client, err := DialDaemon(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.CreateSlave(SlaveSpec{
		JobID: 6, Rank: 0, Size: 1, App: "x", EventAddr: recv.Addr(), LeaseMs: 60_000,
	}); err != nil {
		t.Fatal(err)
	}
	s1.finish(nil) // clean exit
	waitFor(t, func() bool { return d.SlaveCount() == 0 })
	select {
	case ev := <-aborts:
		t.Errorf("clean exit raised %+v", ev)
	case <-time.After(200 * time.Millisecond):
	}
}

func TestCreateSlaveOnAbortedJobRejected(t *testing.T) {
	s1 := newStubSlave("s1")
	spawner := &stubSpawner{slaves: make(chan *stubSlave, 1)}
	spawner.slaves <- s1
	d := newTestDaemon(t, spawner)
	client, err := DialDaemon(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.CreateSlave(SlaveSpec{JobID: 9, Rank: 0, Size: 2, App: "x", LeaseMs: 60_000}); err != nil {
		t.Fatal(err)
	}
	s1.finish(errors.New("crash"))
	waitFor(t, func() bool { return d.SlaveCount() == 0 })
	// The job is gone once all slaves are reaped; a late CreateSlave for
	// the same id starts a fresh job record — verify a *tracked* aborted
	// job rejects instead by crashing one of two local slaves.
	s2 := newStubSlave("s2")
	s3 := newStubSlave("s3")
	spawner.slaves <- s2
	if _, err := client.CreateSlave(SlaveSpec{JobID: 10, Rank: 0, Size: 2, App: "x", LeaseMs: 60_000}); err != nil {
		t.Fatal(err)
	}
	spawner.slaves <- s3
	if _, err := client.CreateSlave(SlaveSpec{JobID: 10, Rank: 1, Size: 2, App: "x", LeaseMs: 60_000}); err != nil {
		t.Fatal(err)
	}
	_ = s3
	waitFor(t, func() bool { return d.SlaveCount() == 2 })
}

// TestCreateSlaveRejectsNonElasticSpawnEpoch: a spawn epoch outside an
// elastic job, which no client makes, is refused before anything spawns.
func TestCreateSlaveRejectsNonElasticSpawnEpoch(t *testing.T) {
	spawner := &stubSpawner{slaves: make(chan *stubSlave, 1)}
	spawner.slaves <- newStubSlave("s1")
	d := newTestDaemon(t, spawner)
	client, err := DialDaemon(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.CreateSlave(SlaveSpec{JobID: 13, Rank: 0, Size: 1, App: "x", LeaseMs: 60_000, Epoch: 14}); err == nil {
		t.Fatal("CreateSlave accepted a spawn epoch of a non-elastic job")
	}
	if n := d.SlaveCount(); n != 0 {
		t.Errorf("%d slaves tracked, want 0", n)
	}
}

// gatedSpawner hands out one stub slave, but only once release is closed;
// entered is closed when Spawn starts waiting.
type gatedSpawner struct {
	slave   *stubSlave
	entered chan struct{}
	release chan struct{}
}

func (s *gatedSpawner) Spawn(spec SlaveSpec, daemonAddr string) (Slave, error) {
	close(s.entered)
	<-s.release
	return s.slave, nil
}

// TestDestroyJobDuringSpawn: a job destroyed while one of its slaves is
// being spawned rejects that slave and destroys it, and the daemon, whose
// job record (and elastic registries) are gone by then, keeps serving.
func TestDestroyJobDuringSpawn(t *testing.T) {
	for _, elastic := range []bool{false, true} {
		s1 := newStubSlave("s1")
		spawner := &gatedSpawner{slave: s1, entered: make(chan struct{}), release: make(chan struct{})}
		d := newTestDaemon(t, spawner)
		client, err := DialDaemon(d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		created := make(chan error, 1)
		go func() {
			_, err := client.CreateSlave(SlaveSpec{JobID: 12, Rank: 0, Size: 2, App: "x",
				LeaseMs: 60_000, Elastic: elastic, LivenessMs: 60_000})
			created <- err
		}()
		<-spawner.entered
		if err := client.DestroyJob(12, "test"); err != nil {
			t.Fatal(err)
		}
		close(spawner.release)
		if err := <-created; err == nil {
			t.Errorf("elastic=%v: CreateSlave succeeded for a destroyed job", elastic)
		}
		select {
		case <-s1.destroyed:
		case <-time.After(10 * time.Second):
			t.Fatalf("elastic=%v: the late slave was not destroyed", elastic)
		}
		if _, err := client.Ping(); err != nil {
			t.Fatalf("elastic=%v: daemon stopped serving: %v", elastic, err)
		}
		if n := d.SlaveCount(); n != 0 {
			t.Errorf("elastic=%v: %d slaves tracked, want 0", elastic, n)
		}
	}
}

func TestLeaseExpiryDestroysJob(t *testing.T) {
	s1 := newStubSlave("s1")
	spawner := &stubSpawner{slaves: make(chan *stubSlave, 1)}
	spawner.slaves <- s1
	d := newTestDaemon(t, spawner)
	client, err := DialDaemon(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.CreateSlave(SlaveSpec{JobID: 11, Rank: 0, Size: 1, App: "x", LeaseMs: 100}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s1.destroyed:
	case <-time.After(10 * time.Second):
		t.Fatal("lease expiry did not destroy slave")
	}
}

func TestRenewJobKeepsSlavesAlive(t *testing.T) {
	s1 := newStubSlave("s1")
	spawner := &stubSpawner{slaves: make(chan *stubSlave, 1)}
	spawner.slaves <- s1
	d := newTestDaemon(t, spawner)
	client, err := DialDaemon(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.CreateSlave(SlaveSpec{JobID: 12, Rank: 0, Size: 1, App: "x", LeaseMs: 150}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		time.Sleep(60 * time.Millisecond)
		if _, err := client.RenewJob(12, 150*time.Millisecond); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	select {
	case <-s1.destroyed:
		t.Fatal("renewed job's slave was destroyed")
	default:
	}
	if _, err := client.RenewJob(999, time.Second); err == nil {
		t.Error("renewing unknown job succeeded")
	}
}

func TestDaemonAnnounceAndExpire(t *testing.T) {
	reg, err := lookup.NewRegistrar(0)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	d := newTestDaemon(t, &stubSpawner{slaves: make(chan *stubSlave)})
	if err := d.Announce([]string{reg.Addr()}, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	c, err := lookup.Dial(reg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	items, err := c.Lookup(lookup.Template{Type: ServiceType})
	if err != nil || len(items) != 1 || items[0].Addr != d.Addr() {
		t.Fatalf("lookup after announce: %v err=%v", items, err)
	}
	// Renewal keeps the registration alive well past the lease.
	time.Sleep(600 * time.Millisecond)
	items, err = c.Lookup(lookup.Template{Type: ServiceType})
	if err != nil || len(items) != 1 {
		t.Fatalf("registration lapsed despite renewal: %v err=%v", items, err)
	}
	// After Close the registration is cancelled.
	d.Close()
	waitFor(t, func() bool { return reg.Count() == 0 })
}

func TestPing(t *testing.T) {
	d := newTestDaemon(t, &stubSpawner{slaves: make(chan *stubSlave)})
	client, err := DialDaemon(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	reply, err := client.Ping()
	if err != nil || reply.Addr != d.Addr() || reply.Jobs != 0 {
		t.Errorf("ping = %+v err=%v", reply, err)
	}
}

// TestSlaveEnvRoundTrip: a process slave's whole spec — the job's tuning
// included — travels as the one MPJ_SLAVE entry, and a value that is not
// an encoded spec fails the decode.
func TestSlaveEnvRoundTrip(t *testing.T) {
	spec := SlaveSpec{
		JobID: 42, Rank: 3, Size: 8, App: "heat",
		Args:       []string{"--n", "100", "with space", "a\x1fb"},
		MasterAddr: "1.2.3.4:5",
		Binary:     "/usr/local/bin/heat",
		Tuning: core.Tuning{
			EagerLimit:   4096,
			CollAlg:      core.CollAlgRing,
			Prof:         prof.Spec{Counters: true, TracePrefix: "/tmp/run"},
			EpochTimeout: 1500 * time.Millisecond,
		},
		Elastic: true, LivenessMs: 700, Epoch: 9, SpawnBase: 2,
	}
	for _, tc := range []struct {
		name  string
		entry func(t *testing.T) string
		err   bool
	}{
		{"round-trip", func(t *testing.T) string {
			env, err := spec.Env("9.9.9.9:1")
			if err != nil {
				t.Fatal(err)
			}
			return env
		}, false},
		{"malformed", func(*testing.T) string { return "MPJ_SLAVE=1" }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key, raw, ok := strings.Cut(tc.entry(t), "=")
			if !ok || key != "MPJ_SLAVE" {
				t.Fatalf("entry key %q, want MPJ_SLAVE", key)
			}
			got, daemonAddr, err := DecodeSlaveEnv(raw)
			if tc.err {
				if err == nil || !strings.Contains(err.Error(), "MPJ_SLAVE") {
					t.Fatalf("decoding %q: %v, want an error naming MPJ_SLAVE", raw, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, spec) || daemonAddr != "9.9.9.9:1" {
				t.Errorf("decoded %+v daemon=%s, want %+v", got, daemonAddr, spec)
			}
		})
	}
}
