package mpj

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mpj/internal/daemon"
	"mpj/internal/job"
	"mpj/internal/lookup"
)

// TestMain doubles as the slave entry point: jobs spawned with the test
// binary re-enter here with MPJ_SLAVE set and dispatch into SlaveMain —
// the standard one-binary launcher/slave pattern.
func TestMain(m *testing.M) {
	registerTestApps()
	if Main() {
		return // ran as a slave process
	}
	os.Exit(m.Run())
}

func registerTestApps() {
	registerElasticApps()
	registerSchedApps()
	registerPullApps()
	registerRingApps()
	registerTuningApps()
	registerHostApps()
	Register("sum", func(w *Comm) error {
		in := []int64{int64(w.Rank() + 1)}
		out := make([]int64, 1)
		if err := w.Allreduce(in, 0, out, 0, 1, LONG, SUM); err != nil {
			return err
		}
		want := int64(w.Size()) * int64(w.Size()+1) / 2
		if out[0] != want {
			return fmt.Errorf("allreduce sum = %d, want %d", out[0], want)
		}
		return nil
	})
	Register("hello-print", func(w *Comm) error {
		fmt.Printf("hello from rank %d of %d\n", w.Rank(), w.Size())
		return nil
	})
	Register("last-lines", func(w *Comm) error {
		for i := 0; i < lastLines; i++ {
			fmt.Printf("rank %d line %d\n", w.Rank(), i)
		}
		fmt.Printf("rank %d last\n", w.Rank())
		return nil
	})
	Register("crasher", func(w *Comm) error {
		if w.Rank() == 1 {
			return errors.New("injected failure on rank 1")
		}
		// The other ranks block on a message that never comes; the
		// abort cascade must unblock them.
		buf := make([]int32, 1)
		_, err := w.Recv(buf, 0, 1, INT, 1, 0)
		return err
	})
	Register("hard-crasher", func(w *Comm) error {
		if w.Rank() == 1 {
			os.Exit(7) // simulate a real process crash
		}
		buf := make([]int32, 1)
		_, err := w.Recv(buf, 0, 1, INT, 1, 0)
		return err
	})
	Register("block-forever", func(w *Comm) error {
		buf := make([]int32, 1)
		_, err := w.Recv(buf, 0, 1, INT, AnySource, 12345)
		return err
	})
	Register("ring", func(w *Comm) error {
		right := (w.Rank() + 1) % w.Size()
		left := (w.Rank() - 1 + w.Size()) % w.Size()
		out := []int32{int32(w.Rank())}
		in := make([]int32, 1)
		if _, err := w.Sendrecv(out, 0, 1, INT, right, 0, in, 0, 1, INT, left, 0); err != nil {
			return err
		}
		if in[0] != int32(left) {
			return fmt.Errorf("ring got %d, want %d", in[0], left)
		}
		return nil
	})
}

func TestRunLocalQuickstart(t *testing.T) {
	app, err := lookupApp("sum")
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{1, 2, 4, 7} {
		if err := RunLocal(np, app); err != nil {
			t.Errorf("np=%d: %v", np, err)
		}
	}
}

func TestRunLocalReportsRankErrors(t *testing.T) {
	err := RunLocal(2, func(w *Comm) error {
		if w.Rank() == 1 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
	if err := RunLocal(0, func(w *Comm) error { return nil }); err == nil {
		t.Error("np=0 accepted")
	}
}

// testEnv stands up a registrar plus n daemons with the given spawner.
func testEnv(t *testing.T, nDaemons int, spawner daemon.Spawner) (*lookup.Registrar, []*daemon.Daemon) {
	t.Helper()
	reg, daemons, _ := testEnvLogged(t, nDaemons, spawner)
	return reg, daemons
}

// testEnvLogged is testEnv that also hands back the daemons' shared log.
func testEnvLogged(t *testing.T, nDaemons int, spawner daemon.Spawner) (*lookup.Registrar, []*daemon.Daemon, *logAdapter) {
	t.Helper()
	reg, err := lookup.NewRegistrar(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	logs := &logAdapter{t: t}
	daemons := make([]*daemon.Daemon, nDaemons)
	for i := range daemons {
		d, err := daemon.New(daemon.WithSpawner(spawner), daemon.WithLogger(log.New(logs, "mpjd ", 0)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		if err := d.Announce([]string{reg.Addr()}, time.Minute); err != nil {
			t.Fatal(err)
		}
		daemons[i] = d
	}
	return reg, daemons, logs
}

// logAdapter routes daemon logs into the test log and keeps their lines.
type logAdapter struct {
	t     *testing.T
	mu    sync.Mutex
	lines []string
}

func (l *logAdapter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	line := strings.TrimRight(string(p), "\n")
	l.lines = append(l.lines, line)
	l.t.Log(line)
	return len(p), nil
}

// kept returns the lines logged so far.
func (l *logAdapter) kept() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// fakeMaster completes the bootstrap handshake (so slaves form their mesh
// and enter the application) but never collects Done reports — it plays a
// client that has wedged or died mid-job.
type fakeMaster struct {
	ln net.Listener
}

func newFakeMaster(jobID uint64, np int) (*fakeMaster, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fakeMaster{ln: ln}
	go func() {
		conns := make([]net.Conn, 0, np)
		encs := make([]*gob.Encoder, 0, np)
		addrs := make([]string, np)
		for i := 0; i < np; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var h job.Hello
			if err := gob.NewDecoder(conn).Decode(&h); err != nil || h.Rank < 0 || h.Rank >= np {
				conn.Close()
				i--
				continue
			}
			addrs[h.Rank] = h.Addr
			conns = append(conns, conn)
			encs = append(encs, gob.NewEncoder(conn))
		}
		for _, e := range encs {
			_ = e.Encode(job.Table{Addrs: addrs})
		}
		// Hold the connections open but never read Done.
	}()
	return f, nil
}

func (f *fakeMaster) addr() string { return f.ln.Addr().String() }
func (f *fakeMaster) close()       { f.ln.Close() }

func TestDistributedJobInProcessSlaves(t *testing.T) {
	reg, daemons := testEnv(t, 2, NewFuncSpawner())
	err := Run(JobConfig{
		NP:       4,
		App:      "sum",
		Locators: []string{reg.Addr()},
		LeaseDur: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	// No orphans: daemons wind down their slave bookkeeping.
	waitCondition(t, func() bool {
		return daemons[0].SlaveCount() == 0 && daemons[1].SlaveCount() == 0
	})
}

func waitCondition(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 15s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestDistributedJobProcessSlaves(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	reg, _ := testEnv(t, 2, daemon.ProcSpawner{})
	var out bytes.Buffer
	var mu sync.Mutex
	err := Run(JobConfig{
		NP:       3,
		App:      "hello-print",
		Locators: []string{reg.Addr()},
		LeaseDur: 5 * time.Second,
		Output:   &syncWriter{w: &out, mu: &mu},
	})
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	mu.Lock()
	text := out.String()
	mu.Unlock()
	for r := 0; r < 3; r++ {
		want := fmt.Sprintf("hello from rank %d of 3", r)
		if !strings.Contains(text, want) {
			t.Errorf("merged output missing %q; got:\n%s", want, text)
		}
	}
}

// lastLines is how many lines the last-lines application prints before
// its last.
const lastLines = 40

// TestJobOutputArrivesWhole: Run returns only once the forwarded output of
// every process slave has ended, so the line a slave prints just before it
// exits is in the merged output. Twenty jobs of three slaves, run as
// parallel subtests so that slaves exit under load.
func TestJobOutputArrivesWhole(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	const np = 3
	for job := 0; job < 20; job++ {
		t.Run(fmt.Sprint(job), func(t *testing.T) {
			t.Parallel()
			reg, _ := testEnv(t, 2, daemon.ProcSpawner{})
			var out bytes.Buffer
			var mu sync.Mutex
			err := Run(JobConfig{NP: np, App: "last-lines", Locators: []string{reg.Addr()}, LeaseDur: 5 * time.Second, Output: &syncWriter{w: &out, mu: &mu}})
			if err != nil {
				t.Fatalf("job failed: %v", err)
			}
			mu.Lock()
			text := out.String()
			mu.Unlock()
			for r := 0; r < np; r++ {
				for i := 0; i < lastLines; i++ {
					if want := fmt.Sprintf("[rank %d stdout] rank %d line %d\n", r, r, i); !strings.Contains(text, want) {
						t.Errorf("merged output misses %q", want)
					}
				}
				if want := fmt.Sprintf("[rank %d stdout] rank %d last\n", r, r); !strings.Contains(text, want) {
					t.Errorf("merged output misses %q", want)
				}
			}
		})
	}
}

// syncWriter guards a shared buffer across collector goroutines.
type syncWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestJobRingAcrossDaemons(t *testing.T) {
	reg, _ := testEnv(t, 3, NewFuncSpawner())
	err := Run(JobConfig{
		NP:       6,
		App:      "ring",
		Locators: []string{reg.Addr()},
		LeaseDur: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("ring job failed: %v", err)
	}
}

func TestAbortOnSlaveFailure(t *testing.T) {
	// E5: one slave fails → the whole job dies, no orphans remain.
	reg, daemons := testEnv(t, 2, NewFuncSpawner())
	err := Run(JobConfig{
		NP:       4,
		App:      "crasher",
		Locators: []string{reg.Addr()},
		LeaseDur: 2 * time.Second,
	})
	if err == nil {
		t.Fatal("job with crashing slave reported success")
	}
	waitCondition(t, func() bool {
		return daemons[0].SlaveCount() == 0 && daemons[1].SlaveCount() == 0
	})
}

func TestAbortOnProcessCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	// E5 with a hard os.Exit crash in a real slave process: the daemon
	// must observe the non-zero exit, raise MPJAbort, and the job layer
	// must destroy the remaining slaves everywhere.
	reg, daemons := testEnv(t, 2, daemon.ProcSpawner{})
	err := Run(JobConfig{
		NP:       4,
		App:      "hard-crasher",
		Locators: []string{reg.Addr()},
		LeaseDur: 5 * time.Second,
	})
	if err == nil {
		t.Fatal("job with crashing process reported success")
	}
	waitCondition(t, func() bool {
		return daemons[0].SlaveCount() == 0 && daemons[1].SlaveCount() == 0
	})
}

func TestLeaseExpiryReclaimsOrphanedSlaves(t *testing.T) {
	// E6: the client dies (stops renewing) → daemons destroy its slaves.
	_, daemons := testEnv(t, 1, NewFuncSpawner())
	d := daemons[0]

	client, err := daemon.DialDaemon(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// A fake master that accepts bootstrap connections but never
	// completes the job (the "client hangs then dies" scenario needs
	// slaves actually running; block-forever slaves never bootstrap
	// fully without a master, so give them one).
	fake, err := newFakeMaster(77, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer fake.close()

	for rank := 0; rank < 2; rank++ {
		_, err := client.CreateSlave(daemon.SlaveSpec{
			JobID:      77,
			Rank:       rank,
			Size:       2,
			App:        "block-forever",
			MasterAddr: fake.addr(),
			LeaseMs:    300, // short lease, never renewed
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	waitCondition(t, func() bool { return d.SlaveCount() == 2 })
	// No renewals arrive: the lease lapses and the slaves are destroyed.
	waitCondition(t, func() bool { return d.SlaveCount() == 0 })
}

func TestDestroyJobViaRPC(t *testing.T) {
	_, daemons := testEnv(t, 1, NewFuncSpawner())
	d := daemons[0]
	client, err := daemon.DialDaemon(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	fake, err := newFakeMaster(88, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fake.close()
	if _, err := client.CreateSlave(daemon.SlaveSpec{
		JobID: 88, Rank: 0, Size: 1, App: "block-forever",
		MasterAddr: fake.addr(), LeaseMs: 60_000,
	}); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, func() bool { return d.SlaveCount() == 1 })
	if err := client.DestroyJob(88, "test"); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, func() bool { return d.SlaveCount() == 0 })
	// Pings still answered afterwards.
	reply, err := client.Ping()
	if err != nil || reply.Slaves != 0 {
		t.Errorf("ping after destroy: %+v err=%v", reply, err)
	}
}

func TestGroupDiscoveryEndToEnd(t *testing.T) {
	const port = 41612
	reg, err := lookup.NewRegistrar(port)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	d, err := daemon.New(daemon.WithSpawner(NewFuncSpawner()), daemon.WithLogger(log.New(&logAdapter{t: t}, "mpjd ", 0)))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Announce([]string{reg.Addr()}, time.Minute); err != nil {
		t.Fatal(err)
	}
	// No locators: the job must find the registrar via UDP probing.
	err = Run(JobConfig{NP: 2, App: "sum", UDPPort: port, LeaseDur: 2 * time.Second})
	if err != nil {
		t.Fatalf("group-discovered job failed: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := Run(JobConfig{NP: 0, App: "x"}); err == nil {
		t.Error("NP=0 accepted")
	}
	if err := Run(JobConfig{NP: 2}); err == nil {
		t.Error("empty app accepted")
	}
	if err := Run(JobConfig{NP: 2, App: "sum", Locators: []string{"127.0.0.1:1"}}); err == nil {
		t.Error("job with unreachable registrar succeeded")
	}
}

func TestAppsRegistry(t *testing.T) {
	names := Apps()
	want := map[string]bool{"sum": true, "ring": true, "crasher": true}
	found := 0
	for _, n := range names {
		if want[n] {
			found++
		}
	}
	if found != len(want) {
		t.Errorf("registry %v missing expected apps", names)
	}
	if _, err := lookupApp("no-such-app"); err == nil {
		t.Error("unknown app resolved")
	}
}
