package core

// Rows over meshes that hand a frame over in the sender's goroutine (chan,
// and hyb, the process hub's channel mesh): a lock request runs the
// target's window handler inside the origin's send, and the grant the
// origin's inside that; an agreement's fan-out nests the deepest. runJob's
// deadline turns a deadlock into a failure.

import (
	"fmt"
	"testing"
)

// TestChanInlineWinLock: three ranks contend for exclusive locks on one
// co-located target and increment its counter inside them, then every
// rank runs a fence loop.
func TestChanInlineWinLock(t *testing.T) {
	const np, iters, fences = 4, 200, 200
	for _, mesh := range winMeshes {
		t.Run(mesh, func(t *testing.T) {
			runRanksWin(t, mesh, np, func(w *Comm) (err error) {
				buf := make([]int64, 3)
				win, err := w.WinCreate(buf, 1)
				if err != nil {
					return err
				}
				defer freeOnSuccess(win, &err)
				if w.Rank() != 0 {
					v := make([]int64, 1)
					for k := 0; k < iters; k++ {
						if err := win.Lock(LockExclusive, 0); err != nil {
							return fmt.Errorf("lock %d: %w", k, err)
						}
						if err := win.Get(v, 0, 1, Long, 0, 0); err != nil {
							return err
						}
						v[0]++
						if err := win.Put(v, 0, 1, Long, 0, 0); err != nil {
							return err
						}
						if err := win.Unlock(0); err != nil {
							return fmt.Errorf("unlock %d: %w", k, err)
						}
					}
				}
				if err := win.Fence(); err != nil {
					return err
				}
				if w.Rank() == 0 && buf[0] != (np-1)*iters {
					return fmt.Errorf("counter reads %d after %d exclusive increments", buf[0], (np-1)*iters)
				}
				// Epochs alternate between two slots: the neighbour's Put of
				// the next epoch may land before this rank reads.
				next, prev := (w.Rank()+1)%np, (w.Rank()+np-1)%np
				for f := 1; f <= fences; f++ {
					slot := 1 + f%2
					if err := win.Put([]int64{int64(f*np + w.Rank())}, 0, 1, Long, next, slot); err != nil {
						return err
					}
					if err := win.Fence(); err != nil {
						return fmt.Errorf("fence %d: %w", f, err)
					}
					if want := int64(f*np + prev); buf[slot] != want {
						return fmt.Errorf("fence %d: slot reads %d, want %d", f, buf[slot], want)
					}
				}
				return nil
			})
		})
	}
}

// TestChanInlineAgree: agreements at np=16, whose coordinator's pulls and
// decision fan-out run the members' handlers inside its sends.
func TestChanInlineAgree(t *testing.T) {
	const np, rounds = 16, 20
	for _, mesh := range winMeshes {
		t.Run(mesh, func(t *testing.T) {
			runRanksWin(t, mesh, np, func(w *Comm) error {
				for k := 0; k < rounds; k++ {
					got, err := w.Agree(^uint64(1 << ((w.Rank() + k) % np)))
					if err != nil {
						return fmt.Errorf("agreement %d: %w", k, err)
					}
					if want := ^uint64(1<<np - 1); got != want {
						return fmt.Errorf("agreement %d: got %#x, want %#x", k, got, want)
					}
				}
				return nil
			})
		})
	}
}
