package mpj

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mpj/internal/daemon"
	"mpj/internal/device"
)

// registerSchedApps registers the scheduler-sizing applications; called
// from registerTestApps so slave processes (which re-enter TestMain) can
// resolve them too.
func registerSchedApps() {
	// host-share runs one process per rank on one host and fails unless
	// the process was given exactly its share of the CPUs.
	Register("host-share", func(w *Comm) error {
		cpus := runtime.NumCPU()
		want := device.SchedStatus{
			GOMAXPROCS: max(1, cpus/w.Size()),
			BaseProcs:  cpus,
			ProcRanks:  1,
			HostRanks:  w.Size(),
		}
		if got := device.Scheduler(); got != want {
			return fmt.Errorf("rank %d: scheduler %+v, want %+v", w.Rank(), got, want)
		}
		return nil
	})
	Register("poll-test", pollApp(200, false, true))
	Register("poll-iprobe", pollApp(200, true, true))
	// Unguarded polling at one P costs ~50 ms a message (the reader runs
	// at the preemption tick), so the hands-off job sends only a few.
	Register("poll-handsoff", pollApp(5, false, false))
}

// pollApp is the polling regression: rank 1 receives msgs 4 KiB messages
// by spinning on Request.Test (or on Iprobe before a Recv) instead of
// blocking, rank 0 sends and waits for a one-byte ack each time. Both
// start on one P. When that P is the runtime's sizing (sized), the first
// fruitless poll must have raised rank 1 — and only rank 1 — to two, and
// a message must cost well under the 10 ms tick; when it is the
// environment's GOMAXPROCS=1, nothing may have been touched. Ranks above
// 1 only fill the host.
func pollApp(msgs int, iprobe, sized bool) App {
	const dataTag, ackTag = 7, 8
	return func(w *Comm) error {
		if w.Rank() > 1 {
			return nil
		}
		if got := runtime.GOMAXPROCS(0); got != 1 {
			return fmt.Errorf("rank %d starts on %d Ps, want 1", w.Rank(), got)
		}
		wantProcs := 1
		ack := make([]byte, 1)
		if w.Rank() == 0 {
			msg := make([]byte, 4096)
			start := time.Now()
			for i := 0; i < msgs; i++ {
				msg[0] = byte(i)
				if err := Send(w, msg, 1, dataTag); err != nil {
					return err
				}
				if _, err := Recv(w, ack, 1, ackTag); err != nil {
					return err
				}
			}
			if per := time.Since(start) / time.Duration(msgs); sized && per > 2*time.Millisecond {
				return fmt.Errorf("polling receiver: %v per message, want < 2ms", per)
			}
		} else {
			buf := make([]byte, 4096)
			for i := 0; i < msgs; i++ {
				if err := pollRecv(w, buf, dataTag, iprobe); err != nil {
					return err
				}
				if buf[0] != byte(i) {
					return fmt.Errorf("message %d carries %d", i, buf[0])
				}
				if err := Send(w, ack, 0, ackTag); err != nil {
					return err
				}
			}
			if sized {
				wantProcs = 2
			}
		}
		if st := device.Scheduler(); st.GOMAXPROCS != wantProcs || st.PollFloor != (wantProcs == 2) {
			return fmt.Errorf("rank %d ends on %d Ps (poll floor %v), want %d", w.Rank(), st.GOMAXPROCS, st.PollFloor, wantProcs)
		}
		return nil
	}
}

// pollRecv receives one message from rank 0 without ever blocking on an
// incomplete operation.
func pollRecv(w *Comm, buf []byte, tag int, iprobe bool) error {
	if iprobe {
		for {
			_, ok, err := w.Iprobe(0, tag)
			if err != nil {
				return err
			}
			if ok {
				_, err = Recv(w, buf, 0, tag)
				return err
			}
		}
	}
	req, err := Irecv(w, buf, 0, tag)
	if err != nil {
		return err
	}
	for {
		_, ok, err := req.Test()
		if ok || err != nil {
			return err
		}
	}
}

func runProcJob(t *testing.T, np int, app string) {
	t.Helper()
	reg, _ := testEnv(t, 2, daemon.ProcSpawner{})
	err := Run(JobConfig{NP: np, App: app, Locators: []string{reg.Addr()}, LeaseDur: 5 * time.Second})
	if err != nil {
		t.Fatalf("%s np=%d: %v", app, np, err)
	}
}

func TestProcessSlavesTakeHostShare(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	// Slaves inherit the launcher's environment, where a GOMAXPROCS value
	// (the one-P CI step sets one) would mean hands off.
	t.Setenv("GOMAXPROCS", "")
	for _, np := range []int{1, 2, 3} {
		runProcJob(t, np, "host-share")
	}
}

func TestPollingRankAtOneP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	// One process per CPU gives every rank a share of one.
	np := max(2, runtime.NumCPU())
	if np > 4 {
		t.Skipf("filling %d CPUs with one process each is too heavy a test", np)
	}
	t.Setenv("GOMAXPROCS", "")
	t.Run("Test", func(t *testing.T) { runProcJob(t, np, "poll-test") })
	t.Run("Iprobe", func(t *testing.T) { runProcJob(t, np, "poll-iprobe") })
	t.Run("EnvHandsOff", func(t *testing.T) {
		t.Setenv("GOMAXPROCS", "1")
		runProcJob(t, 2, "poll-handsoff")
	})
}

// Goroutine ranks live in somebody else's process — a launcher, a test, a
// daemon — whose scheduler is not the runtime's to size: neither a
// FuncSpawner job nor RunLocal, polling or not, may change GOMAXPROCS.
func TestGoroutineRanksLeaveSchedulerAlone(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	reg, _ := testEnv(t, 2, NewFuncSpawner())
	if err := Run(JobConfig{NP: 4, App: "sum", Locators: []string{reg.Addr()}, LeaseDur: 2 * time.Second}); err != nil {
		t.Fatalf("FuncSpawner job: %v", err)
	}
	err := RunLocal(2, func(w *Comm) error {
		buf := make([]byte, 8)
		if w.Rank() == 0 {
			return Send(w, buf, 1, 0)
		}
		req, err := Irecv(w, buf, 0, 0)
		for ok := false; !ok && err == nil; runtime.Gosched() {
			_, ok, err = req.Test()
		}
		return err
	})
	if err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	if got, st := runtime.GOMAXPROCS(0), device.Scheduler(); got != before || st.BaseProcs != 0 || st.PollFloor {
		t.Errorf("GOMAXPROCS %d → %d, scheduler %+v: goroutine ranks must leave the host process alone", before, got, st)
	}
}
