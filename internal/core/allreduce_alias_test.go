package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// aliasLayouts place the send and the receive buffer of one Allreduce in one
// backing slice, in elements: the same memory, the receive buffer one element
// above and one below the send buffer, and two windows side by side.
var aliasLayouts = []struct {
	name   string
	so, ro func(count int) int
}{
	{"same", func(int) int { return 1 }, func(int) int { return 1 }},
	{"rbuf+1", func(int) int { return 1 }, func(int) int { return 2 }},
	{"rbuf-1", func(int) int { return 1 }, func(int) int { return 0 }},
	{"disjoint", func(int) int { return 0 }, func(count int) int { return count }},
}

// checkAllreduceAliased runs Allreduce over every layout and count — under
// automatic selection, or on the large family when ring is set — and
// compares against reduce+bcast over fresh buffers. slots is the number of
// base slots of T one dt element spans.
func checkAllreduceAliased[T comparable](w *Comm, dt Datatype, slots int, ring bool, val func(rank, i int) T) error {
	np, me := w.Size(), w.Rank()
	for _, count := range []int{0, 1, np - 1, 3*np + 1, 2048} {
		contrib := make([]T, count*slots)
		for i := range contrib {
			contrib[i] = val(me, i)
		}
		want := make([]T, count*slots)
		if err := allreduceWith(w, allreduceTreeBcast, contrib, 0, want, 0, count, dt, SumOp); err != nil {
			return err
		}
		alg := w.autoAllreduceAlg(count, dt)
		if ring {
			alg = allreduceRing
		}
		for _, lay := range aliasLayouts {
			so, ro := lay.so(count)*slots, lay.ro(count)*slots
			back := make([]T, (2*count+2)*slots)
			copy(back[so:], contrib)
			if err := allreduceWith(w, alg, back, so, back, ro, count, dt, SumOp); err != nil {
				return fmt.Errorf("%s %s count=%d: %w", dt.Name(), lay.name, count, err)
			}
			where := fmt.Sprintf("np=%d %s alg=%d %s count=%d", np, dt.Name(), alg, lay.name, count)
			if got := back[ro : ro+count*slots]; !reflect.DeepEqual(got, want) {
				return fmt.Errorf("%s: result differs from reduce+bcast", where)
			}
			// The library lends the send buffer; it must never write it.
			if lay.name == "disjoint" && !reflect.DeepEqual(back[so:so+count*slots], contrib) {
				return fmt.Errorf("%s: send buffer changed", where)
			}
		}
	}
	return nil
}

// checkReduceScatterAliased runs ReduceScatter over every layout, InPlace
// too, and every count, uniform and varying (vLayout), under automatic
// selection and the forced large family, and compares each rank's block
// with the same block of reduce+bcast over fresh buffers. The large
// schedule folds out of the send buffer and writes rbuf only at finish, so
// no layout needs a copy first.
func checkReduceScatterAliased[T comparable](w *Comm, dt Datatype, slots int, val func(rank, i int) T) error {
	np, me := w.Size(), w.Rank()
	defer ForceCollAlg(w, CollAlgAuto)
	for _, fam := range []CollAlg{CollAlgAuto, CollAlgRing} {
		ForceCollAlg(w, fam)
		for _, n := range []int{0, 1, 700} {
			for _, uniform := range []bool{true, false} {
				counts, displs, total := vLayout(np, n)
				if uniform {
					counts, displs = uniformLayout(np, n)
					total = np * n
				}
				contrib := make([]T, total*slots)
				for i := range contrib {
					contrib[i] = val(me, i)
				}
				all := make([]T, total*slots)
				if err := allreduceWith(w, allreduceTreeBcast, contrib, 0, all, 0, total, dt, SumOp); err != nil {
					return err
				}
				want := all[displs[me]*slots : (displs[me]+counts[me])*slots]
				mine := counts[me] * slots
				where := func(lay string) string {
					return fmt.Sprintf("reduce_scatter np=%d %s %v %s n=%d uniform=%v", np, dt.Name(), fam, lay, n, uniform)
				}
				buf := append([]T(nil), contrib...)
				if err := w.ReduceScatter(InPlace, 0, buf, 0, counts, dt, SumOp); err != nil {
					return fmt.Errorf("%s: %w", where("InPlace"), err)
				}
				if !slices.Equal(buf[:mine], want) {
					return fmt.Errorf("%s: result differs from reduce+bcast", where("InPlace"))
				}
				for _, lay := range aliasLayouts {
					so, ro := lay.so(total)*slots, lay.ro(total)*slots
					back := make([]T, (2*total+2)*slots)
					copy(back[so:], contrib)
					if err := w.ReduceScatter(back, so, back, ro, counts, dt, SumOp); err != nil {
						return fmt.Errorf("%s: %w", where(lay.name), err)
					}
					if !slices.Equal(back[ro:ro+mine], want) {
						return fmt.Errorf("%s: result differs from reduce+bcast", where(lay.name))
					}
					if lay.name == "disjoint" && !slices.Equal(back[so:so+total*slots], contrib) {
						return fmt.Errorf("%s: send buffer changed", where(lay.name))
					}
				}
			}
		}
	}
	return nil
}

// TestAllreduceAliasedBuffers pins what the large allreduce does when the
// send and the receive buffer share memory: the fold-from-send-buffer path
// would combine half-reduced data, so any overlap must take the copying
// path — and a disjoint send buffer must come back bit-identical. Raw
// layouts (Int, Double) and a packed one, automatic selection with the
// large-message threshold lowered into the sweep and the forced large
// family, on both in-process devices. The large ReduceScatter, which lends
// its send buffer too, runs the same matrix (checkReduceScatterAliased).
func TestAllreduceAliasedBuffers(t *testing.T) {
	pair, err := Contiguous(2, Int)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range []struct {
		name string
		run  func(*testing.T, int, func(*Comm) error)
	}{{"chan", runRanks}, {"hyb", runRanksHyb}} {
		t.Run(dev.name, func(t *testing.T) {
			for _, np := range []int{1, 2, 3, 4, 5, 8} {
				dev.run(t, np, func(w *Comm) error {
					w.proc.largeMin = 1 << 10
					ival := func(rank, i int) int32 { return int32(rank*977 + i) }
					for _, ring := range []bool{false, true} {
						if err := checkAllreduceAliased(w, Int, 1, ring, ival); err != nil {
							return err
						}
						// Whole numbers: the sum is exact in every order.
						if err := checkAllreduceAliased(w, Double, 1, ring, func(rank, i int) float64 { return float64(rank*977 + i) }); err != nil {
							return err
						}
						if err := checkAllreduceAliased(w, pair, 2, ring, ival); err != nil {
							return err
						}
					}
					if err := checkReduceScatterAliased(w, Int, 1, ival); err != nil {
						return err
					}
					return checkReduceScatterAliased(w, pair, 2, ival)
				})
			}
		})
	}
}
