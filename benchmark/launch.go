package main

// The launcher side: an in-process lookup registrar and MPJ daemon (the
// paper's Figure 2), and the measurement of one rep — a fresh job started
// with mpj.Run, timed from the outside.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"syscall"
	"time"

	"mpj"
	"mpj/internal/daemon"
	"mpj/internal/lookup"
)

// errDeadline reports a job that did not finish in time. Its slaves are
// destroyed and all its operations count as failed.
var errDeadline = errors.New("job exceeded its deadline")

const (
	// jobDeadline bounds one job. A rep takes about a second; a job still
	// running after this long is hung.
	jobDeadline = 60 * time.Second
	// reapWait bounds the wait for a finished job's slaves to be reaped,
	// and for a child benchmark to stop when asked.
	reapWait = 10 * time.Second
)

// stack is the control plane of one placement: a registrar and one daemon
// announcing to it, as `mpjlookup` and `mpjd` would run on a host.
type stack struct {
	reg  *lookup.Registrar
	d    *daemon.Daemon
	proc bool
}

// stacks tracks every live stack so that an interrupt can tear them all
// down; see closeAllStacks.
var stacks struct {
	sync.Mutex
	live map[*stack]bool
}

func newStack(proc bool) (*stack, error) {
	reg, err := lookup.NewRegistrar(0)
	if err != nil {
		return nil, fmt.Errorf("starting registrar: %w", err)
	}
	var spawner daemon.Spawner = daemon.ProcSpawner{}
	if !proc {
		// Goroutine slaves get JobConfig.Args from the SlaveSpec, the way
		// a process slave gets them from its argv.
		inner := mpj.NewFuncSpawner()
		spawner = daemon.FuncSpawner{Run: func(spec daemon.SlaveSpec, addr string, stop <-chan struct{}) error {
			funcArgs.Lock()
			funcArgs.args = spec.Args
			funcArgs.Unlock()
			return inner.Run(spec, addr, stop)
		}}
	}
	d, err := daemon.New(daemon.WithSpawner(spawner), daemon.WithLogger(log.New(io.Discard, "", 0)))
	if err != nil {
		reg.Close()
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	if err := d.Announce([]string{reg.Addr()}, time.Minute); err != nil {
		d.Close()
		reg.Close()
		return nil, fmt.Errorf("announcing daemon: %w", err)
	}
	s := &stack{reg: reg, d: d, proc: proc}
	stacks.Lock()
	if stacks.live == nil {
		stacks.live = make(map[*stack]bool)
	}
	stacks.live[s] = true
	stacks.Unlock()
	return s, nil
}

// close destroys any slave still alive and stops the daemon and registrar.
func (s *stack) close() {
	stacks.Lock()
	delete(stacks.live, s)
	stacks.Unlock()
	s.d.Close()
	s.reg.Close()
}

func closeAllStacks() {
	stacks.Lock()
	live := make([]*stack, 0, len(stacks.live))
	for s := range stacks.live {
		live = append(live, s)
	}
	stacks.Unlock()
	for _, s := range live {
		s.close()
	}
}

// waitReaped waits until the daemon tracks no slave any more.
func (s *stack) waitReaped() error {
	deadline := time.Now().Add(reapWait)
	for s.d.SlaveCount() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d slave(s) still alive %v after the job ended", s.d.SlaveCount(), reapWait)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// tailBuffer is the JobConfig.Output of a benchmark job: it keeps the end
// of the merged slave output, which says why a job failed. (It does not
// carry the result: `daemon.ProcSpawner` calls cmd.Wait while its scanners
// still read the slave's pipes, so a slave's last lines are sometimes lost;
// rank 0 reports through a file instead.)
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailKeep = 2 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailKeep {
		t.buf = t.buf[len(t.buf)-tailKeep:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// waitExited waits until none of pids exists any more. A finished slave
// stays a zombie until the daemon's spawner has waited for it, and only
// then do its CPU seconds appear in RUSAGE_CHILDREN: read earlier, the
// counter lags one launch. (Daemon.SlaveCount() drops to 0 as soon as the
// job is destroyed, before the wait.)
func waitExited(pids []int64) error {
	deadline := time.Now().Add(reapWait)
	for _, pid := range pids {
		for syscall.Kill(int(pid), 0) == nil {
			if time.Now().After(deadline) {
				return fmt.Errorf("slave process %d still exists %v after its job ended", pid, reapWait)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

func cpuSeconds(who int) (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// jobCPU is the CPU time of launcher and reaped children so far.
func jobCPU() (float64, error) {
	self, err := cpuSeconds(syscall.RUSAGE_SELF)
	if err != nil {
		return 0, err
	}
	kids, err := cpuSeconds(syscall.RUSAGE_CHILDREN)
	return self + kids, err
}

// rep is one fresh job as the launcher measured it, together with rank
// 0's own report.
type rep struct {
	Err      string    `json:"err,omitempty"`
	SetupS   float64   `json:"setup_s"`    // Run called → every rank past its first Barrier
	LaunchS  float64   `json:"launch_s"`   // Run called → first rank in the application
	Teardown float64   `json:"teardown_s"` // last rank done → Run returned
	TotalS   float64   `json:"total_s"`    // Run called → Run returned
	CPUS     float64   `json:"cpu_s"`      // launcher + slaves, user + system
	Result   repResult `json:"rank0"`      // what rank 0 reported
	Spans    []opSpan  `json:"-"`          // traced run: rank 0's operation spans
	samples  []float64 // traced run, plain reps: rank 0's samples, ns per operation
	RunStart int64     `json:"run_start_ns"` // Unix ns
	RunEnd   int64     `json:"run_end_ns"`
}

// runRep launches one job of w with parameters p and measures it. prof is
// JobConfig.Prof. A job that errs or overruns still yields a rep: its Err
// is set and the caller counts its operations as failed.
func (s *stack) runRep(w workload, p appParams, prof string) (rep, error) {
	var r rep
	if err := s.waitReaped(); err != nil {
		return r, err
	}
	args, err := json.Marshal(p)
	if err != nil {
		return r, err
	}
	if err := os.Remove(p.Result); err != nil && !errors.Is(err, os.ErrNotExist) {
		return r, err
	}
	output := &tailBuffer{}
	cpu0, err := jobCPU()
	if err != nil {
		return r, err
	}
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		done <- mpj.Run(mpj.JobConfig{
			NP:       w.NP,
			App:      appName,
			Args:     []string{string(args)},
			Prof:     prof,
			Locators: []string{s.reg.Addr()},
			LeaseDur: 5 * time.Second,
			Output:   output,
		})
	}()
	timer := time.NewTimer(jobDeadline)
	defer timer.Stop()
	var runErr error
	select {
	case runErr = <-done:
	case <-timer.C:
		// Closing the daemon destroys the job's slaves; Run then fails.
		s.d.Close()
		select {
		case <-done:
		case <-time.After(reapWait):
		}
		return r, errDeadline
	}
	end := time.Now()
	r.RunStart, r.RunEnd = start.UnixNano(), end.UnixNano()
	r.TotalS = end.Sub(start).Seconds()
	if runErr != nil {
		r.Err = fmt.Sprintf("%v; slave output: %s", runErr, output)
		return r, s.waitReaped()
	}
	raw, err := os.ReadFile(p.Result)
	if err != nil {
		return r, fmt.Errorf("job succeeded but rank 0 left no result: %w", err)
	}
	if err := json.Unmarshal(raw, &r.Result); err != nil {
		return r, fmt.Errorf("rank 0's result %s: %w", p.Result, err)
	}
	if s.proc {
		if err := waitExited(r.Result.Pids); err != nil {
			return r, err
		}
	}
	if err := s.waitReaped(); err != nil {
		return r, err
	}
	cpu1, err := jobCPU()
	if err != nil {
		return r, err
	}
	r.CPUS = cpu1 - cpu0
	r.SetupS = float64(r.Result.BarrierNs-r.RunStart) / 1e9
	r.LaunchS = float64(r.Result.EnterNs-r.RunStart) / 1e9
	r.Teardown = float64(r.RunEnd-r.Result.ExitNs) / 1e9
	return r, nil
}
