package bench

import (
	"fmt"
	"sync"
	"time"

	"mpj/internal/core"
	"mpj/internal/device"
	"mpj/internal/transport"
)

// runJob runs an np-rank in-process job over the channel mesh, handing
// each rank to fn.
func runJob(np int, fn func(w *core.Comm) error) error {
	eps := transport.NewChanMesh(np)
	return runJobOn(len(eps), func(i int) (transport.Transport, error) { return eps[i], nil }, fn)
}

// runJobOn runs an np-rank in-process job over endpoints built by mkEp.
// The first rank to fail aborts every device, so peers blocked in a
// collective (or the final barrier) error out instead of hanging the
// harness.
func runJobOn(np int, mkEp func(rank int) (transport.Transport, error), fn func(w *core.Comm) error) error {
	devs := make([]*device.Device, np)
	worlds := make([]*core.Comm, np)
	abortAll := func() {
		for _, d := range devs {
			if d != nil {
				d.Abort()
			}
		}
	}
	for i := 0; i < np; i++ {
		ep, err := mkEp(i)
		if err != nil {
			abortAll()
			return err
		}
		if devs[i], err = device.Open(ep); err != nil {
			abortAll()
			return err
		}
		if worlds[i], err = core.NewWorld(devs[i]); err != nil {
			abortAll()
			return err
		}
	}
	var abortOnce sync.Once
	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(worlds[i]); err != nil {
				errs[i] = err
				abortOnce.Do(abortAll)
				return
			}
			errs[i] = worlds[i].Barrier()
		}()
	}
	wg.Wait()
	for _, d := range devs {
		d.Close()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// timeCollective measures the mean per-operation time of a collective on
// rank 0. mkOp builds a rank-local operation closure (each rank owns its
// buffers, as real ranks would).
func timeCollective(np, iters int, mkOp func(w *core.Comm) func() error) (time.Duration, error) {
	var per time.Duration
	err := runJob(np, func(w *core.Comm) error {
		op := mkOp(w)
		// Warm up and synchronize before timing.
		if err := op(); err != nil {
			return err
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		if w.Rank() == 0 {
			per = time.Since(start) / time.Duration(iters)
		}
		return nil
	})
	return per, err
}

// E4CollectiveScaling measures barrier/bcast/allreduce per-op time as the
// process count grows (the high-level layer of Figure 1). Tree algorithms
// should grow roughly logarithmically in p.
func E4CollectiveScaling(nps []int, payload int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("E4: collective scaling with process count (%s payload)", fmtSize(payload*8)),
		Headers: []string{"np", "barrier", "bcast", "reduce", "allreduce", "allgather", "alltoall"},
	}
	for _, np := range nps {
		iters := 200
		if np > 8 {
			iters = 50
		}
		row := Row{fmt.Sprintf("%d", np)}

		d, err := timeCollective(np, iters, func(w *core.Comm) func() error {
			return w.Barrier
		})
		if err != nil {
			return nil, fmt.Errorf("barrier np=%d: %w", np, err)
		}
		row = append(row, fmtDur(d))

		d, err = timeCollective(np, iters, func(w *core.Comm) func() error {
			buf := make([]float64, payload)
			return func() error { return w.Bcast(buf, 0, payload, core.Double, 0) }
		})
		if err != nil {
			return nil, fmt.Errorf("bcast np=%d: %w", np, err)
		}
		row = append(row, fmtDur(d))

		d, err = timeCollective(np, iters, func(w *core.Comm) func() error {
			buf := make([]float64, payload)
			out := make([]float64, payload)
			return func() error { return w.Reduce(buf, 0, out, 0, payload, core.Double, core.SumOp, 0) }
		})
		if err != nil {
			return nil, fmt.Errorf("reduce np=%d: %w", np, err)
		}
		row = append(row, fmtDur(d))

		d, err = timeCollective(np, iters, func(w *core.Comm) func() error {
			buf := make([]float64, payload)
			out := make([]float64, payload)
			return func() error { return w.Allreduce(buf, 0, out, 0, payload, core.Double, core.SumOp) }
		})
		if err != nil {
			return nil, fmt.Errorf("allreduce np=%d: %w", np, err)
		}
		row = append(row, fmtDur(d))

		d, err = timeCollective(np, iters, func(w *core.Comm) func() error {
			buf := make([]float64, payload)
			all := make([]float64, payload*w.Size())
			return func() error { return w.Allgather(buf, 0, payload, core.Double, all, 0, payload, core.Double) }
		})
		if err != nil {
			return nil, fmt.Errorf("allgather np=%d: %w", np, err)
		}
		row = append(row, fmtDur(d))

		d, err = timeCollective(np, iters, func(w *core.Comm) func() error {
			sb := make([]float64, payload*w.Size())
			rb := make([]float64, payload*w.Size())
			return func() error { return w.Alltoall(sb, 0, payload, core.Double, rb, 0, payload, core.Double) }
		})
		if err != nil {
			return nil, fmt.Errorf("alltoall np=%d: %w", np, err)
		}
		row = append(row, fmtDur(d))

		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// BandwidthTable reports sustained one-way bandwidth through the full API
// (stream of size-byte standard sends), complementing the latency sweeps.
func BandwidthTable(sizes []int) (*Table, error) {
	t := &Table{
		Title:   "Bandwidth: one-way stream through the MPJ API",
		Headers: []string{"size", "per message", "MiB/s"},
	}
	for _, size := range sizes {
		iters := itersFor(size)
		var per time.Duration
		err := runPair(-1, func(w *core.Comm) error {
			buf := make([]byte, size)
			const window = 16 // keep the pipe full
			if w.Rank() == 0 {
				start := time.Now()
				for i := 0; i < iters; i += window {
					reqs := make([]*core.Request, 0, window)
					for k := 0; k < window && i+k < iters; k++ {
						r, err := w.Isend(buf, 0, size, core.Byte, 1, 0)
						if err != nil {
							return err
						}
						reqs = append(reqs, r)
					}
					if _, err := core.WaitAll(reqs); err != nil {
						return err
					}
				}
				// Final handshake so timing covers delivery.
				if _, err := w.Recv(make([]byte, 1), 0, 1, core.Byte, 1, 1); err != nil {
					return err
				}
				per = time.Since(start) / time.Duration(iters)
				return nil
			}
			for i := 0; i < iters; i++ {
				if _, err := w.Recv(buf, 0, size, core.Byte, 0, 0); err != nil {
					return err
				}
			}
			return w.Send([]byte{1}, 0, 1, core.Byte, 0, 1)
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{fmtSize(size), fmtDur(per), fmtBW(int64(size), per)})
	}
	return t, nil
}
