package core

import (
	"fmt"
	"testing"
)

// TestWinFetchAndOpLockEpoch: every rank atomically increments one shared
// counter on rank 0's window from inside shared lock epochs. Atomicity is
// checked two ways: the final counter equals the number of increments, and
// the fetched prior values across all ranks form a permutation of
// 0..total-1 (two increments observing the same prior value would mean a
// lost update).
func TestWinFetchAndOpLockEpoch(t *testing.T) {
	const np, iters = 4, 8
	for _, mesh := range winMeshes {
		mesh := mesh
		t.Run(mesh, func(t *testing.T) {
			runRanksWin(t, mesh, np, func(w *Comm) (err error) {
				buf := make([]int64, 1)
				win, err := w.WinCreate(buf, 1)
				if err != nil {
					return err
				}
				defer freeOnSuccess(win, &err)

				one := []int64{1}
				fetched := make([]int64, iters)
				for k := 0; k < iters; k++ {
					if err := win.Lock(LockShared, 0); err != nil {
						return err
					}
					if err := win.FetchAndOp(one, 0, fetched, k, Long, 0, 0, SumOp); err != nil {
						return fmt.Errorf("fetch-and-op %d: %w", k, err)
					}
					if err := win.Unlock(0); err != nil {
						return err
					}
				}
				if err := w.Barrier(); err != nil {
					return err
				}
				if w.Rank() == 0 {
					if buf[0] != np*iters {
						return fmt.Errorf("counter = %d, want %d", buf[0], np*iters)
					}
				}
				// Every increment must have observed a distinct prior value.
				all := make([]int64, np*iters)
				if err := w.Allgather(fetched, 0, iters, Long, all, 0, iters, Long); err != nil {
					return err
				}
				seen := make(map[int64]bool, len(all))
				for _, v := range all {
					if v < 0 || v >= np*iters {
						return fmt.Errorf("fetched prior value %d out of range [0,%d)", v, np*iters)
					}
					if seen[v] {
						return fmt.Errorf("prior value %d observed twice: lost update", v)
					}
					seen[v] = true
				}
				return nil
			})
		})
	}
}

// TestWinCompareAndSwapLockEpoch: every rank races a compare-and-swap
// against the same zero-initialized slot inside shared lock epochs.
// Exactly one CAS may observe the initial value and win; every other rank
// must observe the winner's value, and the slot must hold it at the end.
func TestWinCompareAndSwapLockEpoch(t *testing.T) {
	const np = 4
	for _, mesh := range winMeshes {
		mesh := mesh
		t.Run(mesh, func(t *testing.T) {
			runRanksWin(t, mesh, np, func(w *Comm) (err error) {
				rank := w.Rank()
				buf := make([]int64, 1)
				win, err := w.WinCreate(buf, 1)
				if err != nil {
					return err
				}
				defer freeOnSuccess(win, &err)

				claim := []int64{int64(rank) + 1}
				zero := []int64{0}
				prev := []int64{-1}
				if err := win.Lock(LockShared, 0); err != nil {
					return err
				}
				if err := win.CompareAndSwap(claim, 0, zero, 0, prev, 0, Long, 0, 0); err != nil {
					return fmt.Errorf("compare-and-swap: %w", err)
				}
				if err := win.Unlock(0); err != nil {
					return err
				}
				if err := w.Barrier(); err != nil {
					return err
				}

				all := make([]int64, np)
				if err := w.Allgather(prev, 0, 1, Long, all, 0, 1, Long); err != nil {
					return err
				}
				winner := int64(-1)
				for r, v := range all {
					if v == 0 {
						if winner != -1 {
							return fmt.Errorf("two winning CAS: ranks %d and %d", winner-1, r)
						}
						winner = int64(r) + 1
					}
				}
				if winner == -1 {
					return fmt.Errorf("no CAS observed the initial value: %v", all)
				}
				for r, v := range all {
					if v != 0 && v != winner {
						return fmt.Errorf("rank %d observed %d, want 0 or winner %d", r, v, winner)
					}
				}
				if rank == 0 && buf[0] != winner {
					return fmt.Errorf("slot = %d, want winner %d", buf[0], winner)
				}
				return nil
			})
		})
	}
}
