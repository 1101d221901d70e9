package core

import (
	"errors"
	"fmt"
	"testing"
)

func TestWorldBasics(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		if err := expect(w.Size() == 4, "size %d", w.Size()); err != nil {
			return err
		}
		if err := expect(w.Rank() >= 0 && w.Rank() < 4, "rank %d", w.Rank()); err != nil {
			return err
		}
		return expect(w.Group().Size() == 4, "group size %d", w.Group().Size())
	})
}

func TestDupIsolatesTraffic(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		dup, err := w.Dup()
		if err != nil {
			return err
		}
		if err := expect(w.Compare(dup) == Congruent, "compare %d", w.Compare(dup)); err != nil {
			return err
		}
		// Same envelope (src 0, tag 5) on both comms: each receive must
		// get its own comm's message.
		if w.Rank() == 0 {
			if err := w.Send([]int32{1}, 0, 1, Int, 1, 5); err != nil {
				return err
			}
			return dup.Send([]int32{2}, 0, 1, Int, 1, 5)
		}
		// Receive from dup first even though world's message was sent
		// first: contexts keep them apart.
		buf := make([]int32, 1)
		if _, err := dup.Recv(buf, 0, 1, Int, 0, 5); err != nil {
			return err
		}
		if err := expect(buf[0] == 2, "dup got %d", buf[0]); err != nil {
			return err
		}
		if _, err := w.Recv(buf, 0, 1, Int, 0, 5); err != nil {
			return err
		}
		return expect(buf[0] == 1, "world got %d", buf[0])
	})
}

func TestSplitPartitions(t *testing.T) {
	runRanks(t, 6, func(w *Comm) error {
		// Even/odd split, keyed by descending world rank.
		color := w.Rank() % 2
		sub, err := w.Split(color, -w.Rank())
		if err != nil {
			return err
		}
		if err := expect(sub != nil, "nil subcomm"); err != nil {
			return err
		}
		if err := expect(sub.Size() == 3, "sub size %d", sub.Size()); err != nil {
			return err
		}
		// Key was -rank: highest world rank gets sub rank 0.
		wantRank := map[int]int{4: 0, 2: 1, 0: 2, 5: 0, 3: 1, 1: 2}
		if err := expect(sub.Rank() == wantRank[w.Rank()], "world %d sub rank %d", w.Rank(), sub.Rank()); err != nil {
			return err
		}
		// The subcomm must work for collectives.
		buf := []int32{int32(w.Rank())}
		out := make([]int32, 1)
		if err := sub.Allreduce(buf, 0, out, 0, 1, Int, SumOp); err != nil {
			return err
		}
		want := int32(0 + 2 + 4)
		if color == 1 {
			want = 1 + 3 + 5
		}
		return expect(out[0] == want, "sum %d, want %d", out[0], want)
	})
}

func TestSplitUndefinedColor(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		color := 0
		if w.Rank() == 3 {
			color = Undefined
		}
		sub, err := w.Split(color, 0)
		if err != nil {
			return err
		}
		if w.Rank() == 3 {
			return expect(sub == nil, "excluded rank got a comm")
		}
		if err := expect(sub != nil && sub.Size() == 3, "sub %v", sub); err != nil {
			return err
		}
		return sub.Barrier()
	})
}

func TestCommCreateSubgroup(t *testing.T) {
	runRanks(t, 5, func(w *Comm) error {
		g, err := w.Group().Incl([]int{0, 2, 4})
		if err != nil {
			return err
		}
		sub, err := w.Create(g)
		if err != nil {
			return err
		}
		if w.Rank()%2 == 1 {
			return expect(sub == nil, "odd rank got a comm")
		}
		if err := expect(sub.Size() == 3 && sub.Rank() == w.Rank()/2, "sub rank %d", sub.Rank()); err != nil {
			return err
		}
		// Gather on the subcomm.
		var rbuf []int32
		if sub.Rank() == 0 {
			rbuf = make([]int32, 3)
		}
		if err := sub.Gather([]int32{int32(w.Rank())}, 0, 1, Int, rbuf, 0, 1, Int, 0); err != nil {
			return err
		}
		if sub.Rank() == 0 {
			return expect(rbuf[0] == 0 && rbuf[1] == 2 && rbuf[2] == 4, "gathered %v", rbuf)
		}
		return nil
	})
}

func TestNestedSplits(t *testing.T) {
	runRanks(t, 8, func(w *Comm) error {
		half, err := w.Split(w.Rank()/4, w.Rank())
		if err != nil {
			return err
		}
		quarter, err := half.Split(half.Rank()/2, half.Rank())
		if err != nil {
			return err
		}
		if err := expect(quarter.Size() == 2, "quarter size %d", quarter.Size()); err != nil {
			return err
		}
		sum := make([]int32, 1)
		if err := quarter.Allreduce([]int32{int32(w.Rank())}, 0, sum, 0, 1, Int, SumOp); err != nil {
			return err
		}
		// Partner differs by 1 in world rank within each pair.
		base := int32(w.Rank()/2*2)*2 + 1
		return expect(sum[0] == base, "pair sum %d, want %d", sum[0], base)
	})
}

func TestCompareUnequal(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		sub, err := w.Split(w.Rank()%2, 0)
		if err != nil {
			return err
		}
		if err := expect(w.Compare(sub) == Unequal, "world vs sub %d", w.Compare(sub)); err != nil {
			return err
		}
		return expect(sub.Compare(sub) == Ident, "self compare")
	})
}

func TestManyCommunicatorsContextsDistinct(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		seen := map[int]bool{w.pt2pt: true, w.coll: true}
		for i := 0; i < 10; i++ {
			d, err := w.Dup()
			if err != nil {
				return err
			}
			if seen[d.pt2pt] || seen[d.coll] {
				return fmt.Errorf("dup %d reused contexts (%d,%d)", i, d.pt2pt, d.coll)
			}
			seen[d.pt2pt] = true
			seen[d.coll] = true
		}
		return nil
	})
}

func TestCreateNilGroup(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		_, err := w.Create(nil)
		return expect(errors.Is(err, ErrGroup), "err %v", err)
	})
}
