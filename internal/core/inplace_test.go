package core

import (
	"errors"
	"fmt"
	"testing"
)

// inPlaceMeshes: the InPlace remap lives above the transport, but run the
// tests on both in-process meshes to cover the co-located and the
// process-boundary device paths.
var inPlaceMeshes = []string{"chan", "hyb"}

// inPlaceFamilies are the forced families the in-place tests run under; the
// large-message family keeps its older subtest label "segmented".
var inPlaceFamilies = []struct {
	name string
	alg  CollAlg
}{{"classic", CollAlgClassic}, {"segmented", CollAlgRing}}

// TestInPlaceAllgatherv checks MPI_IN_PLACE semantics for Allgatherv: the
// rank's contribution is read from its own slot of the receive buffer and
// the send triple is ignored, on both the classic forwarding ring and the
// forced large-message (zero-staging window) path.
func TestInPlaceAllgatherv(t *testing.T) {
	for _, mesh := range inPlaceMeshes {
		for _, fam := range inPlaceFamilies {
			mesh, fam := mesh, fam
			t.Run(mesh+"/"+fam.name, func(t *testing.T) {
				const np = 4
				runRanksWin(t, mesh, np, func(w *Comm) error {
					w.SetCollAlg(fam.alg)
					rcounts := []int{1, 2, 3, 4}
					displs := []int{0, 1, 3, 6}
					total := 10
					buf := make([]int32, total)
					for i := 0; i < rcounts[w.Rank()]; i++ {
						buf[displs[w.Rank()]+i] = int32(100*w.Rank() + i)
					}
					if err := w.Allgatherv(InPlace, 0, 0, nil, buf, 0, rcounts, displs, Int); err != nil {
						return err
					}
					for r := 0; r < np; r++ {
						for i := 0; i < rcounts[r]; i++ {
							if err := expect(buf[displs[r]+i] == int32(100*r+i),
								"slot %d of rank %d: got %d, want %d", i, r, buf[displs[r]+i], 100*r+i); err != nil {
								return err
							}
						}
					}
					return nil
				})
			})
		}
	}
}

// TestInPlaceIallgatherv checks the non-blocking form accepts InPlace.
func TestInPlaceIallgatherv(t *testing.T) {
	for _, mesh := range inPlaceMeshes {
		mesh := mesh
		t.Run(mesh, func(t *testing.T) {
			const np = 3
			runRanksWin(t, mesh, np, func(w *Comm) error {
				rcounts := []int{2, 2, 2}
				displs := []int{0, 2, 4}
				buf := make([]float64, 6)
				buf[displs[w.Rank()]] = float64(w.Rank()) + 0.25
				buf[displs[w.Rank()]+1] = float64(w.Rank()) + 0.75
				req, err := w.Iallgatherv(InPlace, 0, 0, nil, buf, 0, rcounts, displs, Double)
				if err != nil {
					return err
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
				for r := 0; r < np; r++ {
					if err := expect(buf[2*r] == float64(r)+0.25 && buf[2*r+1] == float64(r)+0.75,
						"block %d: got %v/%v", r, buf[2*r], buf[2*r+1]); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// TestInPlaceAllgather checks MPI_IN_PLACE on the fixed-count Allgather —
// blocking, non-blocking and persistent (twice, so the cached schedule's
// reset re-reads the slot), over a raw-layout and a derived datatype, on
// the forwarding ring and the forced zero-staging window ring: the rank's
// block is read from its own slot of the receive buffer and the send
// triple is ignored.
func TestInPlaceAllgather(t *testing.T) {
	vec, err := Vector(2, 1, 2, Int) // slots 0 and 2 of a 3-slot extent
	if err != nil {
		t.Fatal(err)
	}
	types := []struct {
		name string
		dt   Datatype
		used []int // base slots one element touches
	}{{"raw", Int, []int{0}}, {"derived", vec, []int{0, 2}}}
	const np, rcount = 4, 2
	for _, mesh := range inPlaceMeshes {
		for _, fam := range inPlaceFamilies {
			for _, ty := range types {
				mesh, fam, ty := mesh, fam, ty
				t.Run(mesh+"/"+fam.name+"/"+ty.name, func(t *testing.T) {
					runRanksWin(t, mesh, np, func(w *Comm) error {
						w.SetCollAlg(fam.alg)
						ext := ty.dt.Extent()
						buf := make([]int32, np*rcount*ext)
						val := func(gen, r, e, k int) int32 { return int32(1000*gen + 100*r + 10*e + k) }
						fill := func(gen int) {
							for i := range buf {
								buf[i] = -1
							}
							for e := 0; e < rcount; e++ {
								for _, k := range ty.used {
									buf[(w.Rank()*rcount+e)*ext+k] = val(gen, w.Rank(), e, k)
								}
							}
						}
						check := func(form string, gen int) error {
							want := make([]int32, len(buf))
							for i := range want {
								want[i] = -1
							}
							for r := 0; r < np; r++ {
								for e := 0; e < rcount; e++ {
									for _, k := range ty.used {
										want[(r*rcount+e)*ext+k] = val(gen, r, e, k)
									}
								}
							}
							for i := range buf {
								if buf[i] != want[i] {
									return fmt.Errorf("%s: slot %d = %d, want %d", form, i, buf[i], want[i])
								}
							}
							return nil
						}

						fill(1)
						if err := w.Allgather(InPlace, 0, 0, nil, buf, 0, rcount, ty.dt); err != nil {
							return err
						}
						if err := check("Allgather", 1); err != nil {
							return err
						}

						fill(2)
						req, err := w.Iallgather(InPlace, 0, 0, nil, buf, 0, rcount, ty.dt)
						if err != nil {
							return err
						}
						if _, err := req.Wait(); err != nil {
							return err
						}
						if err := check("Iallgather", 2); err != nil {
							return err
						}

						p, err := w.CommitAllgather(InPlace, 0, 0, nil, buf, 0, rcount, ty.dt)
						if err != nil {
							return err
						}
						for gen := 3; gen <= 4; gen++ {
							fill(gen)
							if err := p.Start(); err != nil {
								return err
							}
							if _, err := p.Wait(); err != nil {
								return err
							}
							if err := check("CommitAllgather", gen); err != nil {
								return err
							}
						}
						return nil
					})
				})
			}
		}
	}
}

// TestInPlaceReduceScatter checks MPI_IN_PLACE semantics for
// ReduceScatter: the full input vector is read from the receive buffer
// and the rank's result chunk overwrites its head, on both the classic
// reduce+scatter and the forced large path, for a short vector and one above
// large_min (133 KiB of Long, which automatic selection sends large too).
func TestInPlaceReduceScatter(t *testing.T) {
	for _, mesh := range inPlaceMeshes {
		for _, fam := range inPlaceFamilies {
			mesh, fam := mesh, fam
			t.Run(mesh+"/"+fam.name, func(t *testing.T) {
				const np = 4
				runRanksWin(t, mesh, np, func(w *Comm) error {
					w.SetCollAlg(fam.alg)
					for _, rcounts := range [][]int{{2, 1, 3, 2}, {5000, 0, 9000, 3000}} {
						total := 0
						for _, n := range rcounts {
							total += n
						}
						buf := make([]int64, total)
						for i := range buf {
							buf[i] = int64(10*w.Rank() + i)
						}
						if err := w.ReduceScatter(InPlace, 0, buf, 0, rcounts, Long, SumOp); err != nil {
							return err
						}
						displ := 0
						for r := 0; r < w.Rank(); r++ {
							displ += rcounts[r]
						}
						for i := 0; i < rcounts[w.Rank()]; i++ {
							want := int64(0)
							for r := 0; r < np; r++ {
								want += int64(10*r + displ + i)
							}
							if err := expect(buf[i] == want,
								"total %d, chunk elem %d: got %d, want %d", total, i, buf[i], want); err != nil {
								return err
							}
						}
					}
					return nil
				})
			})
		}
	}
}

// TestInPlaceErrors checks that InPlace is rejected where it has no
// meaning: as the receive buffer of either collective.
func TestInPlaceErrors(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		rcounts := []int{1, 1}
		displs := []int{0, 1}
		src := make([]int32, 1)
		if err := w.Allgatherv(src, 0, 1, Int, InPlace, 0, rcounts, displs, Int); !errors.Is(err, ErrBuffer) {
			return expect(false, "allgatherv with InPlace rbuf: got %v, want ErrBuffer", err)
		}
		if err := w.ReduceScatter(make([]int32, 2), 0, InPlace, 0, rcounts, Int, SumOp); !errors.Is(err, ErrBuffer) {
			return expect(false, "reduce_scatter with InPlace rbuf: got %v, want ErrBuffer", err)
		}
		if err := w.Allgather(src, 0, 1, Int, InPlace, 0, 1, Int); !errors.Is(err, ErrBuffer) {
			return expect(false, "allgather with InPlace rbuf: got %v, want ErrBuffer", err)
		}
		return nil
	})
}
