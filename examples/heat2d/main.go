// 2-D Jacobi heat diffusion on a Cartesian process topology: the halo-
// exchange workload that motivates most of the MPJ API — Cartesian
// communicators (CreateCart/Shift), neighbour exchange, and convergence
// detection with Allreduce(MAX).
//
// The N×N plate is decomposed by rows; boundary rows are fixed at hot
// (top) and cold (bottom). Each iteration exchanges halo rows with the
// up/down neighbours and relaxes the interior.
//
// The halo exchange is written against the typed API: offsets are plain
// subslices (cur[:n] is the upper halo row, cur[n:2*n] the first interior
// row), so a receive is mpj.Irecv(cart.Comm, cur[:n], up, tag). The
// -overlap=false branch keeps the classic Sendrecv surface to show the two
// facades interoperating on one communicator.
//
// With -overlap (the default) the exchange is non-blocking and overlapped:
// halo Isend/Irecv are posted, the halo-independent interior rows relax
// while the messages fly, then the edge rows finish after WaitAll — and
// the convergence check is a deferred Iallreduce, started after one
// iteration and harvested during the next, so the reduction tree runs
// behind the stencil. -overlap=false keeps the classic Sendrecv+Allreduce
// structure for comparison.
//
//	go run ./examples/heat2d -np 4 -n 256 -iters 500
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"mpj"
)

var (
	gridN   = flag.Int("n", 128, "grid size (N x N)")
	iters   = flag.Int("iters", 200, "maximum iterations")
	tol     = flag.Float64("tol", 1e-4, "convergence tolerance on max update")
	overlap = flag.Bool("overlap", true, "overlap halo exchange and convergence reduction with compute")
)

const haloTag = 7

// relaxRows applies one Jacobi update to rows lo..hi (inclusive) and
// returns the largest update it made.
func relaxRows(cur, next []float64, n, lo, hi int) float64 {
	var localMax float64
	for i := lo; i <= hi; i++ {
		for j := 1; j < n-1; j++ {
			idx := i*n + j
			v := 0.25 * (cur[idx-n] + cur[idx+n] + cur[idx-1] + cur[idx+1])
			if d := math.Abs(v - cur[idx]); d > localMax {
				localMax = d
			}
			next[idx] = v
		}
		next[i*n] = cur[i*n]
		next[i*n+n-1] = cur[i*n+n-1]
	}
	return localMax
}

func heatApp(w *mpj.Comm) error {
	sweeps, maxUpdate, means, err := solveHeat(w)
	if err != nil || w.Rank() != 0 {
		return err
	}
	if maxUpdate < *tol {
		fmt.Printf("converged after %d iterations (max update %.2e)\n", sweeps, maxUpdate)
	} else {
		fmt.Printf("stopped after %d iterations\n", sweeps)
	}
	fmt.Print("mean temperature by row band:")
	for _, v := range means {
		fmt.Printf(" %6.2f", v)
	}
	fmt.Println()
	return nil
}

// solveHeat relaxes the plate until the largest update falls below -tol or
// -iters sweeps have run. It returns the sweeps run, the largest update the
// last convergence check saw and, on rank 0, each rank's row band's mean
// temperature, top first.
func solveHeat(w *mpj.Comm) (sweeps int, maxUpdate float64, means []float64, err error) {
	// A 1-D non-periodic process grid over the rows.
	cart, err := w.CreateCart([]int{w.Size()}, []bool{false}, false)
	if err != nil {
		return 0, 0, nil, err
	}
	if cart == nil {
		return 0, 0, nil, nil // excluded from the grid (never happens for 1-D full size)
	}
	rank, size := cart.Rank(), cart.Size()
	n := *gridN
	rows := n / size
	if rank < n%size {
		rows++
	}
	if rows == 0 {
		return 0, 0, nil, fmt.Errorf("grid too small: %d rows over %d ranks", n, size)
	}

	up, down, err := cart.Shift(0, 1) // up = rank-1, down = rank+1
	if err != nil {
		return 0, 0, nil, err
	}

	// Local slab with two halo rows: (rows+2) x n, row-major.
	cur := make([]float64, (rows+2)*n)
	next := make([]float64, (rows+2)*n)
	// Global boundary conditions: top edge hot, bottom edge cold.
	if up == mpj.Undefined {
		for j := 0; j < n; j++ {
			cur[j] = 100.0 // halo row doubles as the fixed boundary
			next[j] = 100.0
		}
	}

	// Deferred convergence state (overlap mode): the Iallreduce started in
	// iteration k is harvested in iteration k+1, so the reduction overlaps
	// a full stencil sweep.
	var convReq *mpj.CollRequest
	convOut := make([]float64, 1)
	last := math.Inf(1) // the largest update of the last convergence check

	finish := func(sweeps int) (int, float64, []float64, error) {
		means, err := report(cart, cur, rows, n)
		return sweeps, last, means, err
	}

	for it := 0; it < *iters; it++ {
		var localMax float64

		if *overlap {
			// Post the halo exchange, relax the halo-independent interior
			// while it flies, then finish the edge rows.
			var reqs []*mpj.Request
			post := func(r *mpj.Request, err error) error {
				if err != nil {
					return fmt.Errorf("halo: %w", err)
				}
				reqs = append(reqs, r)
				return nil
			}
			if up != mpj.Undefined {
				rr, err := mpj.Irecv(cart.Comm, cur[:n], up, haloTag)
				if err := post(rr, err); err != nil {
					return 0, 0, nil, err
				}
				sr, err := mpj.Isend(cart.Comm, cur[n:2*n], up, haloTag)
				if err := post(sr, err); err != nil {
					return 0, 0, nil, err
				}
			}
			if down != mpj.Undefined {
				rr, err := mpj.Irecv(cart.Comm, cur[(rows+1)*n:], down, haloTag)
				if err := post(rr, err); err != nil {
					return 0, 0, nil, err
				}
				sr, err := mpj.Isend(cart.Comm, cur[rows*n:(rows+1)*n], down, haloTag)
				if err := post(sr, err); err != nil {
					return 0, 0, nil, err
				}
			}
			if rows > 2 {
				localMax = relaxRows(cur, next, n, 2, rows-1)
			}
			if _, err := mpj.WaitAll(reqs); err != nil {
				return 0, 0, nil, fmt.Errorf("halo wait: %w", err)
			}
			if m := relaxRows(cur, next, n, 1, 1); m > localMax {
				localMax = m
			}
			if rows > 1 {
				if m := relaxRows(cur, next, n, rows, rows); m > localMax {
					localMax = m
				}
			}
		} else {
			// Classic structure: blocking Sendrecv pairs, then the sweep.
			if up != mpj.Undefined {
				if _, err := cart.Sendrecv(
					cur, n, n, mpj.DOUBLE, up, haloTag,
					cur, 0, n, mpj.DOUBLE, up, haloTag); err != nil {
					return 0, 0, nil, fmt.Errorf("halo up: %w", err)
				}
			}
			if down != mpj.Undefined {
				if _, err := cart.Sendrecv(
					cur, rows*n, n, mpj.DOUBLE, down, haloTag,
					cur, (rows+1)*n, n, mpj.DOUBLE, down, haloTag); err != nil {
					return 0, 0, nil, fmt.Errorf("halo down: %w", err)
				}
			}
			localMax = relaxRows(cur, next, n, 1, rows)
		}
		cur, next = next, cur

		// Global convergence check.
		if *overlap {
			// Harvest last iteration's reduction, then launch this one.
			if convReq != nil {
				if _, err := convReq.Wait(); err != nil {
					return 0, 0, nil, fmt.Errorf("convergence iallreduce: %w", err)
				}
				convReq = nil
				if last = convOut[0]; last < *tol {
					return finish(it + 1)
				}
			}
			convOut[0] = 0
			if convReq, err = mpj.Iallreduce(
				cart.Comm, []float64{localMax}, convOut, mpj.Max[float64]()); err != nil {
				return 0, 0, nil, fmt.Errorf("convergence iallreduce: %w", err)
			}
		} else {
			gmax := make([]float64, 1)
			if err := mpj.Allreduce(cart.Comm, []float64{localMax}, gmax, mpj.Max[float64]()); err != nil {
				return 0, 0, nil, fmt.Errorf("convergence allreduce: %w", err)
			}
			if last = gmax[0]; last < *tol {
				return finish(it + 1)
			}
		}
	}
	// Harvest the final sweep's reduction so overlap mode detects
	// convergence on the last iteration exactly like blocking mode.
	if convReq != nil {
		if _, err := convReq.Wait(); err != nil {
			return 0, 0, nil, fmt.Errorf("convergence iallreduce: %w", err)
		}
		last = convOut[0]
	}
	return finish(*iters)
}

// report gathers per-rank mean temperatures to rank 0.
func report(cart *mpj.CartComm, cur []float64, rows, n int) ([]float64, error) {
	var sum float64
	for i := 1; i <= rows; i++ {
		for j := 0; j < n; j++ {
			sum += cur[i*n+j]
		}
	}
	mine := []float64{sum / float64(rows*n)}
	var all []float64
	if cart.Rank() == 0 {
		all = make([]float64, cart.Size())
	}
	if err := mpj.Gather(cart.Comm, mine, all, 0); err != nil {
		return nil, err
	}
	return all, nil
}

func main() {
	np := flag.Int("np", 4, "number of processes")
	flag.Parse()

	mpj.Register("heat2d", heatApp)
	if mpj.Main() {
		return
	}
	if err := mpj.RunLocal(*np, heatApp); err != nil {
		log.Fatal(err)
	}
}
