package core

import (
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
	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := device.Open(eps[i], opts...)
			if err != nil {
				errs[i] = fmt.Errorf("open device: %w", err)
				return
			}
			defer d.Close()
			w, err := NewWorld(d)
			if err != nil {
				errs[i] = fmt.Errorf("new world: %w", err)
				return
			}
			if err := fn(w); err != nil {
				errs[i] = err
				return
			}
			// Finalize: ensure all traffic is complete before close.
			errs[i] = w.Barrier()
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("job wedged: ranks did not finish within 60s")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
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
