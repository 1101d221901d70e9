// 1-D halo exchange with one-sided communication: the RMA counterpart of
// the heat2d example's neighbour exchange. Each rank relaxes a segment of
// a periodic 1-D rod; the boundary cells of the neighbours are mirrored
// into halo slots before every sweep.
//
// The exchange is written twice over the same decomposition:
//
//   - two-sided: the classic Sendrecv pairing, each rank sending its edge
//     cells to its neighbours and receiving their edges into its halos;
//   - one-sided: a window over the local segment (halos included) and a
//     fence epoch in which each rank Puts its edge cells straight into
//     the neighbours' halo slots — no receives anywhere.
//
// Both runs start from the same initial rod, and after every sweep each
// rank asserts its RMA segment is bit-identical to the two-sided one, so
// the example doubles as an end-to-end check that Put+Fence delivers
// exactly the halo values Sendrecv does.
//
//	go run ./examples/halo1d -np 4 -n 64 -iters 50
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"mpj"
)

const haloTag = 11

// relax applies one Jacobi sweep to the interior cells [1..n] of a
// segment with halo slots at 0 and n+1.
func relax(cur, next []float64, n int) {
	for i := 1; i <= n; i++ {
		next[i] = 0.5 * (cur[i-1] + cur[i+1])
	}
}

// initSegment fills the interior of a rank's segment with a deterministic
// bump so every rank starts from the same global rod in both runs.
func initSegment(seg []float64, rank, n int) {
	for i := 1; i <= n; i++ {
		g := rank*n + i - 1 // global cell index
		seg[i] = math.Sin(float64(g) * 0.1)
	}
}

func haloApp(w *mpj.Comm) error {
	sum, err := haloChecksum(w)
	if err != nil {
		return err
	}
	if w.Rank() == 0 {
		fmt.Printf("halo1d: %d ranks x %d cells, %d iters: one-sided == two-sided, checksum %.6f\n",
			w.Size(), *cells, *iters, sum)
	}
	return nil
}

// haloChecksum relaxes the rod twice, with two-sided and with one-sided
// halo exchanges, checks that both runs agree on every cell, and returns
// the sum of the rod's cells on every rank. Averaging the two neighbours of
// every cell of a periodic rod keeps that sum, so it is the initial rod's.
func haloChecksum(w *mpj.Comm) (float64, error) {
	n := *cells
	rank, size := w.Rank(), w.Size()
	left := (rank - 1 + size) % size
	right := (rank + 1) % size

	// Two-sided reference: halos filled by Sendrecv pairs.
	cur := make([]float64, n+2)
	next := make([]float64, n+2)
	initSegment(cur, rank, n)
	for it := 0; it < *iters; it++ {
		// Send my left edge to the left neighbour's right halo; receive my
		// left halo from the left neighbour's right edge — and vice versa.
		if _, err := w.Sendrecv(
			cur, 1, 1, mpj.DOUBLE, left, haloTag,
			cur, n+1, 1, mpj.DOUBLE, right, haloTag); err != nil {
			return 0, fmt.Errorf("sendrecv left: %w", err)
		}
		if _, err := w.Sendrecv(
			cur, n, 1, mpj.DOUBLE, right, haloTag,
			cur, 0, 1, mpj.DOUBLE, left, haloTag); err != nil {
			return 0, fmt.Errorf("sendrecv right: %w", err)
		}
		relax(cur, next, n)
		cur, next = next, cur
	}

	// One-sided run: same rod, halos filled by Put under a fence epoch.
	rcur := make([]float64, n+2)
	rnext := make([]float64, n+2)
	initSegment(rcur, rank, n)
	win, err := w.WinCreate(rcur, 1)
	if err != nil {
		return 0, fmt.Errorf("win create: %w", err)
	}
	for it := 0; it < *iters; it++ {
		// Open the epoch, push my edge cells into the neighbours' halo
		// slots, close the epoch. After Fence returns, every rank's halos
		// hold its neighbours' current edges.
		if err := win.Fence(); err != nil {
			return 0, fmt.Errorf("fence: %w", err)
		}
		if err := mpj.PutT(win, rcur[1:2], left, n+1); err != nil { // my left edge -> left's right halo
			return 0, fmt.Errorf("put left: %w", err)
		}
		if err := mpj.PutT(win, rcur[n:n+1], right, 0); err != nil { // my right edge -> right's left halo
			return 0, fmt.Errorf("put right: %w", err)
		}
		if err := win.Fence(); err != nil {
			return 0, fmt.Errorf("fence: %w", err)
		}
		relax(rcur, rnext, n)
		// The window is registered over rcur's memory: copy the sweep
		// result back instead of swapping the slices.
		copy(rcur, rnext)
	}

	// The two runs must agree bit-for-bit on every rank.
	for i := 1; i <= n; i++ {
		if cur[i] != rcur[i] {
			return 0, fmt.Errorf("rank %d cell %d: two-sided %v, one-sided %v", rank, i, cur[i], rcur[i])
		}
	}
	if err := win.Free(); err != nil {
		return 0, fmt.Errorf("win free: %w", err)
	}

	// Report a global checksum so the output is deterministic.
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += cur[i]
	}
	total := make([]float64, 1)
	if err := mpj.Allreduce(w, []float64{sum}, total, mpj.Sum[float64]()); err != nil {
		return 0, fmt.Errorf("checksum allreduce: %w", err)
	}
	return total[0], nil
}

var (
	cells = flag.Int("n", 64, "cells per rank")
	iters = flag.Int("iters", 50, "sweep iterations")
)

func main() {
	np := flag.Int("np", 4, "number of processes")
	flag.Parse()

	mpj.Register("halo1d", haloApp)
	if mpj.Main() {
		return
	}
	if err := mpj.RunLocal(*np, haloApp); err != nil {
		log.Fatal(err)
	}
}
