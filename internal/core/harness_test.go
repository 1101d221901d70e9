package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpj/internal/device"
	"mpj/internal/transport"
)

// runRanks executes fn concurrently on np ranks connected by an in-process
// mesh, mirroring how the distributed runtime drives user code. It fails
// the test if any rank errors or if the job wedges (watchdog).
func runRanks(t *testing.T, np int, fn func(w *Comm) error) {
	t.Helper()
	runRanksOpt(t, np, nil, fn)
}

// runRanksOpt is runRanks with device options (e.g. a custom eager limit).
func runRanksOpt(t *testing.T, np int, opts []device.Option, fn func(w *Comm) error) {
	t.Helper()
	eps := transport.NewChanMesh(np)
	if err := runJob(np, func(i int) (*device.Device, error) { return device.Open(eps[i], opts...) }, fn); err != nil {
		t.Fatal(err)
	}
}

// runJob is the body of the harnesses: it runs fn on np ranks, rank i on
// the device open(i) returns, each finishing with a Barrier so all traffic
// is complete before its device closes. A rank that fails records its error,
// then aborts its device, which the mesh reports to every peer, so the peers
// fail at once instead of waiting out the deadline. runJob returns the first
// error recorded — the failing rank's own, not the failures its abort
// caused — or a wedge error after 60 s.
func runJob(np int, open func(i int) (*device.Device, error), fn func(w *Comm) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if first == nil {
			first = fmt.Errorf("rank %d: %w", i, err)
		}
	}
	for i := 0; i < np; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := open(i)
			if err != nil {
				fail(i, fmt.Errorf("open device: %w", err))
				return
			}
			defer d.Close()
			w, err := NewWorld(d)
			if err != nil {
				err = fmt.Errorf("new world: %w", err)
			} else if err = fn(w); err == nil {
				err = w.Barrier()
			}
			if err != nil {
				fail(i, err)
				d.Abort()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return errors.New("job wedged: ranks did not finish within 60s")
	}
	return first
}

// laidOut is a transport whose description carries a synthetic locality
// table, as a hyb endpoint's carries the bootstrap's: keys[i] is rank i's
// key, and ranks with equal keys are one locality group.
type laidOut struct {
	transport.Transport
	keys []string
}

func (l laidOut) Peers() transport.Peers {
	p := l.Transport.Peers()
	p.Locs = l.keys
	return p
}

// runRanksLaidOut is runRanks over a channel mesh laid out by keys, one
// rank per key.
func runRanksLaidOut(t *testing.T, keys []string, fn func(w *Comm) error) {
	t.Helper()
	eps := transport.NewChanMesh(len(keys))
	runRanksOn(t, len(keys), func(i int) (transport.Transport, error) {
		return laidOut{eps[i], keys}, nil
	}, fn)
}

// expect fails with a formatted error unless cond holds; it is the rank-
// side assertion helper (t.Fatal must not be called off the test
// goroutine).
func expect(cond bool, format string, args ...any) error {
	if !cond {
		return fmt.Errorf(format, args...)
	}
	return nil
}

// TestRunJobFailsFast: a rank whose program fails ends the job at once —
// its abort fails the peers waiting for it in a collective — and the job
// reports that rank's own error, not the failures it caused.
func TestRunJobFailsFast(t *testing.T) {
	const np = 4
	boom := errors.New("boom")
	for _, bad := range []int{0, np - 1} {
		t.Run(fmt.Sprintf("rank%d", bad), func(t *testing.T) {
			eps := transport.NewChanMesh(np)
			start := time.Now()
			err := runJob(np, func(i int) (*device.Device, error) { return device.Open(eps[i]) }, func(w *Comm) error {
				if w.Rank() == bad {
					return boom
				}
				x := []int32{1}
				return w.Allreduce(x, 0, x, 0, 1, Int, SumOp)
			})
			if took := time.Since(start); took > 5*time.Second {
				t.Errorf("the job took %v to end, want under 5s", took)
			}
			if want := fmt.Sprintf("rank %d: boom", bad); !errors.Is(err, boom) || err.Error() != want {
				t.Errorf("job reported %v, want %q", err, want)
			}
		})
	}
}
