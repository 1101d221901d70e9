package core

import (
	"errors"
	"fmt"
	"testing"
)

// sizes exercised by every collective test: odd, even, power-of-two, one.
var collSizes = []int{1, 2, 3, 4, 5, 8}

func forSizes(t *testing.T, fn func(t *testing.T, np int)) {
	t.Helper()
	for _, np := range collSizes {
		np := np
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) { fn(t, np) })
	}
}

func TestBarrierCompletes(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		runRanks(t, np, func(w *Comm) error {
			for i := 0; i < 5; i++ {
				if err := w.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

func TestBarrierOrdering(t *testing.T) {
	// After rank 0 sets a flag and everyone barriers, all ranks must see
	// the flag via a subsequent broadcast (sanity of barrier+bcast mix).
	runRanks(t, 4, func(w *Comm) error {
		flag := []int32{0}
		if w.Rank() == 0 {
			flag[0] = 7
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		if err := w.Bcast(flag, 0, 1, Int, 0); err != nil {
			return err
		}
		return expect(flag[0] == 7, "flag %d", flag[0])
	})
}

func TestBcastAllRoots(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		runRanks(t, np, func(w *Comm) error {
			const n = 17
			for root := 0; root < w.Size(); root++ {
				buf := make([]float64, n)
				if w.Rank() == root {
					for i := range buf {
						buf[i] = float64(root*1000 + i)
					}
				}
				if err := w.Bcast(buf, 0, n, Double, root); err != nil {
					return err
				}
				for i, v := range buf {
					if v != float64(root*1000+i) {
						return fmt.Errorf("root %d: buf[%d] = %v", root, i, v)
					}
				}
			}
			return nil
		})
	})
}

func TestBcastLargePayload(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		n := 64 << 10 // 512 KiB of float64: forces rendezvous hops
		buf := make([]float64, n)
		if w.Rank() == 2 {
			for i := range buf {
				buf[i] = float64(i % 1009)
			}
		}
		if err := w.Bcast(buf, 0, n, Double, 2); err != nil {
			return err
		}
		for i := 0; i < n; i += 997 {
			if buf[i] != float64(i%1009) {
				return fmt.Errorf("buf[%d] = %v", i, buf[i])
			}
		}
		return nil
	})
}

func TestBcastObjects(t *testing.T) {
	runRanks(t, 3, func(w *Comm) error {
		buf := make([]any, 2)
		if w.Rank() == 0 {
			buf[0] = "config"
			buf[1] = 12345
		}
		if err := w.Bcast(buf, 0, 2, Object, 0); err != nil {
			return err
		}
		return expect(buf[0] == "config" && buf[1] == 12345, "buf %v", buf)
	})
}

func TestGatherAllRoots(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		runRanks(t, np, func(w *Comm) error {
			const n = 3
			for root := 0; root < w.Size(); root++ {
				sbuf := make([]int32, n)
				for i := range sbuf {
					sbuf[i] = int32(w.Rank()*100 + i)
				}
				var rbuf []int32
				if w.Rank() == root {
					rbuf = make([]int32, n*w.Size())
				}
				if err := w.Gather(sbuf, 0, n, Int, rbuf, 0, n, Int, root); err != nil {
					return err
				}
				if w.Rank() == root {
					for r := 0; r < w.Size(); r++ {
						for i := 0; i < n; i++ {
							if rbuf[r*n+i] != int32(r*100+i) {
								return fmt.Errorf("root %d: rbuf[%d][%d] = %d", root, r, i, rbuf[r*n+i])
							}
						}
					}
				}
			}
			return nil
		})
	})
}

func TestGatherObjects(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		sbuf := []any{fmt.Sprintf("from-%d", w.Rank())}
		var rbuf []any
		if w.Rank() == 1 {
			rbuf = make([]any, w.Size())
		}
		if err := w.Gather(sbuf, 0, 1, Object, rbuf, 0, 1, Object, 1); err != nil {
			return err
		}
		if w.Rank() == 1 {
			for r := 0; r < w.Size(); r++ {
				if rbuf[r] != fmt.Sprintf("from-%d", r) {
					return fmt.Errorf("rbuf[%d] = %v", r, rbuf[r])
				}
			}
		}
		return nil
	})
}

func TestGathervVaryingCounts(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		runRanks(t, np, func(w *Comm) error {
			// Rank r contributes r+1 elements.
			mine := make([]int32, w.Rank()+1)
			for i := range mine {
				mine[i] = int32(w.Rank()*10 + i)
			}
			size := w.Size()
			rcounts := make([]int, size)
			displs := make([]int, size)
			total := 0
			for r := 0; r < size; r++ {
				rcounts[r] = r + 1
				displs[r] = total
				total += r + 1
			}
			var rbuf []int32
			if w.Rank() == 0 {
				rbuf = make([]int32, total)
			}
			if err := w.Gatherv(mine, 0, len(mine), Int, rbuf, 0, rcounts, displs, Int, 0); err != nil {
				return err
			}
			if w.Rank() == 0 {
				for r := 0; r < size; r++ {
					for i := 0; i <= r; i++ {
						if rbuf[displs[r]+i] != int32(r*10+i) {
							return fmt.Errorf("rank %d elem %d = %d", r, i, rbuf[displs[r]+i])
						}
					}
				}
			}
			return nil
		})
	})
}

func TestScatterAllRoots(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		runRanks(t, np, func(w *Comm) error {
			const n = 4
			for root := 0; root < w.Size(); root++ {
				var sbuf []int64
				if w.Rank() == root {
					sbuf = make([]int64, n*w.Size())
					for i := range sbuf {
						sbuf[i] = int64(i)
					}
				}
				rbuf := make([]int64, n)
				if err := w.Scatter(sbuf, 0, n, Long, rbuf, 0, n, Long, root); err != nil {
					return err
				}
				for i, v := range rbuf {
					if v != int64(w.Rank()*n+i) {
						return fmt.Errorf("root %d: rbuf[%d] = %d", root, i, v)
					}
				}
			}
			return nil
		})
	})
}

func TestScattervVaryingCounts(t *testing.T) {
	runRanks(t, 5, func(w *Comm) error {
		size := w.Size()
		scounts := make([]int, size)
		displs := make([]int, size)
		total := 0
		for r := 0; r < size; r++ {
			scounts[r] = r + 1
			displs[r] = total
			total += r + 1
		}
		var sbuf []int32
		if w.Rank() == 0 {
			sbuf = make([]int32, total)
			for i := range sbuf {
				sbuf[i] = int32(i)
			}
		}
		rbuf := make([]int32, w.Rank()+1)
		if err := w.Scatterv(sbuf, 0, scounts, displs, Int, rbuf, 0, len(rbuf), Int, 0); err != nil {
			return err
		}
		for i, v := range rbuf {
			if v != int32(displs[w.Rank()]+i) {
				return fmt.Errorf("rbuf[%d] = %d", i, v)
			}
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		runRanks(t, np, func(w *Comm) error {
			const n = 2
			sbuf := []int32{int32(w.Rank() * 2), int32(w.Rank()*2 + 1)}
			rbuf := make([]int32, n*w.Size())
			if err := w.Allgather(sbuf, 0, n, Int, rbuf, 0, n, Int); err != nil {
				return err
			}
			for i, v := range rbuf {
				if v != int32(i) {
					return fmt.Errorf("rbuf[%d] = %d", i, v)
				}
			}
			return nil
		})
	})
}

func TestAllgatherv(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		size := w.Size()
		rcounts := make([]int, size)
		displs := make([]int, size)
		total := 0
		for r := 0; r < size; r++ {
			rcounts[r] = r + 1
			displs[r] = total
			total += r + 1
		}
		mine := make([]float64, w.Rank()+1)
		for i := range mine {
			mine[i] = float64(w.Rank()) + float64(i)/10
		}
		rbuf := make([]float64, total)
		if err := w.Allgatherv(mine, 0, len(mine), Double, rbuf, 0, rcounts, displs, Double); err != nil {
			return err
		}
		for r := 0; r < size; r++ {
			for i := 0; i <= r; i++ {
				want := float64(r) + float64(i)/10
				if rbuf[displs[r]+i] != want {
					return fmt.Errorf("rank %d elem %d = %v, want %v", r, i, rbuf[displs[r]+i], want)
				}
			}
		}
		return nil
	})
	// Each member passes its own displs: rank 0 lays the blocks out in
	// reverse rank order with gaps, the others end to end.
	runRanks(t, 4, func(w *Comm) error {
		rcounts, displs := []int{1, 2, 3, 4}, []int{0, 1, 3, 6}
		if w.Rank() == 0 {
			displs = []int{15, 11, 7, 2}
		}
		mine := make([]int32, rcounts[w.Rank()])
		for i := range mine {
			mine[i] = int32(w.Rank()*10 + i)
		}
		rbuf := make([]int32, 16)
		if err := w.Allgatherv(mine, 0, len(mine), Int, rbuf, 0, rcounts, displs, Int); err != nil {
			return err
		}
		for r, n := range rcounts {
			for i := 0; i < n; i++ {
				if got, want := rbuf[displs[r]+i], int32(r*10+i); got != want {
					return fmt.Errorf("block %d elem %d = %d, want %d", r, i, got, want)
				}
			}
		}
		return nil
	})
}

func TestAlltoall(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		runRanks(t, np, func(w *Comm) error {
			const n = 2
			size := w.Size()
			sbuf := make([]int32, n*size)
			for r := 0; r < size; r++ {
				for i := 0; i < n; i++ {
					sbuf[r*n+i] = int32(w.Rank()*1000 + r*10 + i)
				}
			}
			rbuf := make([]int32, n*size)
			if err := w.Alltoall(sbuf, 0, n, Int, rbuf, 0, n, Int); err != nil {
				return err
			}
			for r := 0; r < size; r++ {
				for i := 0; i < n; i++ {
					want := int32(r*1000 + w.Rank()*10 + i)
					if rbuf[r*n+i] != want {
						return fmt.Errorf("from %d elem %d = %d, want %d", r, i, rbuf[r*n+i], want)
					}
				}
			}
			return nil
		})
	})
}

func TestAlltoallv(t *testing.T) {
	runRanks(t, 3, func(w *Comm) error {
		// Rank s sends s+r+1 elements to rank r.
		size := w.Size()
		scounts := make([]int, size)
		sdispls := make([]int, size)
		stotal := 0
		for r := 0; r < size; r++ {
			scounts[r] = w.Rank() + r + 1
			sdispls[r] = stotal
			stotal += scounts[r]
		}
		sbuf := make([]int32, stotal)
		for r := 0; r < size; r++ {
			for i := 0; i < scounts[r]; i++ {
				sbuf[sdispls[r]+i] = int32(w.Rank()*100 + r*10 + i)
			}
		}
		rcounts := make([]int, size)
		rdispls := make([]int, size)
		rtotal := 0
		for s := 0; s < size; s++ {
			rcounts[s] = s + w.Rank() + 1
			rdispls[s] = rtotal
			rtotal += rcounts[s]
		}
		rbuf := make([]int32, rtotal)
		if err := w.Alltoallv(sbuf, 0, scounts, sdispls, Int, rbuf, 0, rcounts, rdispls, Int); err != nil {
			return err
		}
		for s := 0; s < size; s++ {
			for i := 0; i < rcounts[s]; i++ {
				want := int32(s*100 + w.Rank()*10 + i)
				if rbuf[rdispls[s]+i] != want {
					return fmt.Errorf("from %d elem %d = %d, want %d", s, i, rbuf[rdispls[s]+i], want)
				}
			}
		}
		return nil
	})
}

func TestReduceAllRootsAllOps(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		runRanks(t, np, func(w *Comm) error {
			const n = 4
			size := w.Size()
			sbuf := make([]int64, n)
			for i := range sbuf {
				sbuf[i] = int64(w.Rank() + i)
			}
			for root := 0; root < size; root++ {
				rbuf := make([]int64, n)
				if err := w.Reduce(sbuf, 0, rbuf, 0, n, Long, SumOp, root); err != nil {
					return err
				}
				if w.Rank() == root {
					for i := range rbuf {
						// sum over r of (r+i) = size*i + size*(size-1)/2
						want := int64(size*i + size*(size-1)/2)
						if rbuf[i] != want {
							return fmt.Errorf("root %d sum[%d] = %d, want %d", root, i, rbuf[i], want)
						}
					}
				}
				if err := w.Reduce(sbuf, 0, rbuf, 0, n, Long, MaxOp, root); err != nil {
					return err
				}
				if w.Rank() == root {
					for i := range rbuf {
						if rbuf[i] != int64(size-1+i) {
							return fmt.Errorf("root %d max[%d] = %d", root, i, rbuf[i])
						}
					}
				}
			}
			return nil
		})
	})
}

// allreduceWith runs a blocking Allreduce on the schedule alg names, through
// the builder every entry form compiles with, never through a host area.
func allreduceWith(c *Comm, alg allreduceAlg, sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op) error {
	return runColl(c.iallreduce("allreduce", c.nextCollTag(), alg, formPersistent, sbuf, soff, rbuf, roff, count, dt, op))
}

func TestAllreduceBothAlgorithms(t *testing.T) {
	algs := []allreduceAlg{allreduceTreeBcast, allreduceRecursiveDoubling}
	names := []string{"tree+bcast", "recursive-doubling"}
	for ai, alg := range algs {
		alg := alg
		t.Run(names[ai], func(t *testing.T) {
			forSizes(t, func(t *testing.T, np int) {
				if alg == allreduceRecursiveDoubling && np&(np-1) != 0 {
					t.Skip("recursive doubling needs power-of-two size")
				}
				runRanks(t, np, func(w *Comm) error {
					const n = 8
					sbuf := make([]float64, n)
					for i := range sbuf {
						sbuf[i] = float64(w.Rank() + 1)
					}
					rbuf := make([]float64, n)
					if err := allreduceWith(w, alg, sbuf, 0, rbuf, 0, n, Double, SumOp); err != nil {
						return err
					}
					want := float64(w.Size()*(w.Size()+1)) / 2
					for i, v := range rbuf {
						if v != want {
							return fmt.Errorf("rbuf[%d] = %v, want %v", i, v, want)
						}
					}
					return nil
				})
			})
		})
	}
}

func TestAllreduceMaxLoc(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		sbuf := []DoubleInt{{Value: float64((w.Rank() * 7) % 5), Index: int32(w.Rank())}}
		rbuf := make([]DoubleInt, 1)
		if err := w.Allreduce(sbuf, 0, rbuf, 0, 1, DoubleInt2, MaxLocOp); err != nil {
			return err
		}
		// Values by rank: 0→0, 1→2, 2→4, 3→1. Max 4 at rank 2.
		return expect(rbuf[0].Value == 4 && rbuf[0].Index == 2, "maxloc %+v", rbuf[0])
	})
}

func TestAllreduceRejectsRDOnOddSizes(t *testing.T) {
	runRanks(t, 3, func(w *Comm) error {
		err := allreduceWith(w, allreduceRecursiveDoubling,
			[]int32{1}, 0, []int32{0}, 0, 1, Int, SumOp)
		return expect(errors.Is(err, ErrComm), "err %v", err)
	})
}

func TestReduceScatter(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		runRanks(t, np, func(w *Comm) error {
			size := w.Size()
			rcounts := make([]int, size)
			total := 0
			for r := range rcounts {
				rcounts[r] = r + 1
				total += r + 1
			}
			sbuf := make([]int32, total)
			for i := range sbuf {
				sbuf[i] = int32(i)
			}
			rbuf := make([]int32, rcounts[w.Rank()])
			if err := w.ReduceScatter(sbuf, 0, rbuf, 0, rcounts, Int, SumOp); err != nil {
				return err
			}
			displ := 0
			for r := 0; r < w.Rank(); r++ {
				displ += rcounts[r]
			}
			for i, v := range rbuf {
				want := int32((displ + i) * size) // every rank contributed i
				if v != want {
					return fmt.Errorf("rbuf[%d] = %d, want %d", i, v, want)
				}
			}
			return nil
		})
	})
}

func TestScanPrefixSums(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		runRanks(t, np, func(w *Comm) error {
			sbuf := []int64{int64(w.Rank() + 1), int64(10 * (w.Rank() + 1))}
			rbuf := make([]int64, 2)
			if err := w.Scan(sbuf, 0, rbuf, 0, 2, Long, SumOp); err != nil {
				return err
			}
			r := int64(w.Rank())
			want0 := (r + 1) * (r + 2) / 2
			if rbuf[0] != want0 || rbuf[1] != 10*want0 {
				return fmt.Errorf("scan = %v, want [%d %d]", rbuf, want0, 10*want0)
			}
			return nil
		})
	})
}

func TestReduceWithUserOp(t *testing.T) {
	op := NewOp("concat-min", func(in, inout any, dt Datatype) error {
		a := in.([]int32)
		b := inout.([]int32)
		for i := range b {
			if a[i] < b[i] {
				b[i] = a[i]
			}
		}
		return nil
	})
	runRanks(t, 4, func(w *Comm) error {
		sbuf := []int32{int32(10 - w.Rank())}
		rbuf := make([]int32, 1)
		if err := w.Reduce(sbuf, 0, rbuf, 0, 1, Int, op, 0); err != nil {
			return err
		}
		if w.Rank() == 0 {
			return expect(rbuf[0] == 7, "user-op min = %d", rbuf[0])
		}
		return nil
	})
}

func TestCollectiveRootValidation(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		if err := w.Bcast([]int32{1}, 0, 1, Int, 9); !errors.Is(err, ErrRank) {
			return fmt.Errorf("bcast bad root: %v", err)
		}
		if err := w.Reduce([]int32{1}, 0, []int32{0}, 0, 1, Int, SumOp, -1); !errors.Is(err, ErrRank) {
			return fmt.Errorf("reduce bad root: %v", err)
		}
		return nil
	})
}

func TestMixedCollectivesAndP2P(t *testing.T) {
	// Collectives on the collective context must not disturb user
	// point-to-point traffic in flight.
	runRanks(t, 4, func(w *Comm) error {
		var pending *Request
		if w.Rank() == 3 {
			var err error
			pending, err = w.Irecv(make([]int32, 1), 0, 1, Int, 0, 77)
			if err != nil {
				return err
			}
		}
		// A storm of collectives.
		for i := 0; i < 10; i++ {
			buf := []int32{int32(i)}
			if err := w.Bcast(buf, 0, 1, Int, i%w.Size()); err != nil {
				return err
			}
			if err := w.Barrier(); err != nil {
				return err
			}
		}
		if w.Rank() == 0 {
			if err := w.Send([]int32{55}, 0, 1, Int, 3, 77); err != nil {
				return err
			}
		}
		if pending != nil {
			st, err := pending.Wait()
			if err != nil {
				return err
			}
			return expect(st.Source == 0 && st.Tag == 77, "late p2p %+v", st)
		}
		return nil
	})
}
