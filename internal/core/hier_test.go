package core

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpj/internal/transport"
)

// The tests of this file run collectives over two-level (hierarchical)
// locality layouts: synthetic tables where ranks co-locate in several
// groups, and a real hybrid mesh whose groups talk over localhost TCP.
// Selection reads no locality, so these comms compile the flat schedules
// (TestScheduleShape pins that cell by cell); here they must deliver the
// right bits whatever the layout.

// hierJobSeq hands out process-unique hybrid job ids for the layout tests.
var hierJobSeq atomic.Uint64

// hierLayouts are the synthetic locality tables the correctness sweep runs
// on: an interleaved pair, an uneven three-group table and a blocked 2x4.
var hierLayouts = []struct {
	name string
	np   int
	keys []string
}{
	{"interleaved-2x2", 4, []string{"A", "B", "A", "B"}},
	{"uneven-3g", 5, []string{"A", "A", "B", "C", "B"}},
	{"blocked-2x4", 8, []string{"A", "A", "A", "A", "B", "B", "B", "B"}},
}

// hierSweep runs barrier, broadcast, reduce, allreduce and allgather —
// rooted and non-rooted, small and large payloads, zero and non-zero
// roots — and checks results against answers computed independently.
func hierSweep(w *Comm, tag string) error {
	np := w.Size()

	if err := w.Barrier(); err != nil {
		return fmt.Errorf("%s barrier: %w", tag, err)
	}

	for _, n := range []int{64, 24 << 10} { // 512 B and 192 KiB of float64
		for _, root := range []int{0, np - 1} {
			buf := make([]float64, n)
			if w.Rank() == root {
				for i := range buf {
					buf[i] = float64(root*1000 + i%613)
				}
			}
			if err := w.Bcast(buf, 0, n, Double, root); err != nil {
				return fmt.Errorf("%s bcast n=%d root=%d: %w", tag, n, root, err)
			}
			for i := 0; i < n; i += 61 {
				if want := float64(root*1000 + i%613); buf[i] != want {
					return fmt.Errorf("%s bcast n=%d root=%d: buf[%d] = %v, want %v", tag, n, root, i, buf[i], want)
				}
			}
		}
	}

	const rn = 2048
	sbuf := make([]float64, rn)
	for i := range sbuf {
		sbuf[i] = float64((w.Rank()+1)*100000 + i)
	}
	sum := func(i int) float64 {
		var s float64
		for r := 0; r < np; r++ {
			s += float64((r+1)*100000 + i)
		}
		return s
	}

	for _, root := range []int{0, np / 2} {
		red := make([]float64, rn)
		if err := w.Reduce(sbuf, 0, red, 0, rn, Double, SumOp, root); err != nil {
			return fmt.Errorf("%s reduce root=%d: %w", tag, root, err)
		}
		if w.Rank() == root {
			for i := 0; i < rn; i += 37 {
				if red[i] != sum(i) {
					return fmt.Errorf("%s reduce root=%d: red[%d] = %v, want %v", tag, root, i, red[i], sum(i))
				}
			}
		}
	}

	ar := make([]float64, rn)
	if err := w.Allreduce(sbuf, 0, ar, 0, rn, Double, SumOp); err != nil {
		return fmt.Errorf("%s allreduce: %w", tag, err)
	}
	for i := 0; i < rn; i += 37 {
		if ar[i] != sum(i) {
			return fmt.Errorf("%s allreduce: ar[%d] = %v, want %v", tag, i, ar[i], sum(i))
		}
	}

	for _, gc := range []int{16, 8 << 10} { // small and large gather blocks
		gs := make([]float64, gc)
		for i := range gs {
			gs[i] = float64(w.Rank()*gc + i)
		}
		gr := make([]float64, np*gc)
		if err := w.Allgather(gs, 0, gc, Double, gr, 0, gc, Double); err != nil {
			return fmt.Errorf("%s allgather gc=%d: %w", tag, gc, err)
		}
		for i := 0; i < np*gc; i += 29 {
			if gr[i] != float64(i) {
				return fmt.Errorf("%s allgather gc=%d: gr[%d] = %v, want %v", tag, gc, i, gr[i], float64(i))
			}
		}
		// Equal blocks laid end to end are the fixed-count layout whoever
		// states it: Allgatherv lands the same vector.
		counts, displs := make([]int, np), make([]int, np)
		for r := range counts {
			counts[r], displs[r] = gc, r*gc
		}
		gv := make([]float64, np*gc)
		req, err := w.Iallgatherv(gs, 0, gc, Double, gv, 0, counts, displs, Double)
		if err != nil {
			return fmt.Errorf("%s allgatherv gc=%d: %w", tag, gc, err)
		}
		if _, err := req.Wait(); err != nil {
			return fmt.Errorf("%s allgatherv gc=%d: %w", tag, gc, err)
		}
		for i := range gv {
			if gv[i] != gr[i] {
				return fmt.Errorf("%s allgatherv gc=%d: gv[%d] = %v, want %v", tag, gc, i, gv[i], gr[i])
			}
		}
	}

	return w.Barrier()
}

// Collectives on synthetic multi-group layouts over the channel mesh.
func TestHierCollectivesChan(t *testing.T) {
	for _, lay := range hierLayouts {
		lay := lay
		t.Run(lay.name, func(t *testing.T) {
			runRanksLaidOut(t, lay.keys, func(w *Comm) error { return hierSweep(w, "auto") })
		})
	}
}

// Real hybrid mesh spanning two locality groups inside one process: the
// synthetic keys split the ranks so that intra-group traffic rides the
// channel mesh and inter-group traffic crosses genuine localhost TCP.
func TestHierCollectivesHybTCP(t *testing.T) {
	const np = 4
	keys := []string{"A", "B", "A", "B"}

	lns := make([]net.Listener, np)
	addrs := make([]string, np)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer ln.Close()
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	jobID := 0x41e6<<32 | hierJobSeq.Add(1)

	runRanksOn(t, np, func(i int) (transport.Transport, error) {
		return transport.NewHybTransport(transport.HybConfig{
			Rank: i, JobID: jobID, Locs: keys, Addrs: addrs, Listener: lns[i],
		})
	}, func(w *Comm) error {
		// No synthetic layout here: the view must come from the bootstrap
		// table in the hyb transport's description.
		if tab := w.LocalityTable(); fmt.Sprint(tab) != fmt.Sprint(keys) {
			return expect(false, "hyb device exposed locality table %q, want %q", tab, keys)
		}
		return hierSweep(w, "hyb-auto")
	})
}

// TestHierAllgathervOwnDispls: on a comm spanning locality groups, equal
// counts select one schedule on every member whatever displs each passes —
// MPI lets every process lay out its own receive buffer. Rank 0 passes the
// blocks in reverse rank order with a hole after each, the others lay them
// end to end; every member must compile the same algorithm and assemble
// every block at its own displacements, Int landing in place or staged,
// and a strided derived type staged. A member that chose its
// schedule from its own displs would trade messages its peers do not
// expect — wrong lengths, blocks left unfilled, or a wait for messages
// nobody sends: each wait runs under a 5 s deadline.
func TestHierAllgathervOwnDispls(t *testing.T) {
	types := blockTypes(t)[:2] // fixed-size: OBJECT takes the linear exchange
	const n = 3
	for _, keys := range [][]string{{"A", "B", "A", "B"}, {"A", "A", "B", "B"}} {
		t.Run(strings.Join(keys, ""), func(t *testing.T) {
			runRanksLaidOut(t, keys, func(w *Comm) error {
				np, me := w.Size(), w.Rank()
				counts, displs := uniformLayout(np, n)
				if me == 0 {
					for r := range displs {
						displs[r] = (np - 1 - r) * (n + 1)
					}
				}
				all := make([]int, np)
				for r := range all {
					all[r] = r
				}
				for _, ty := range types {
					nslots := 0
					for r := range displs {
						nslots = max(nslots, (displs[r]+n)*ty.ext)
					}
					at := func(r int) int { return displs[r] * ty.ext }
					sbuf := ty.fill(counts, n*ty.ext, 0, []int{me}, func(int) int { return 0 })
					rbuf := ty.fill(counts, nslots, 0, nil, at)
					req, err := w.Iallgatherv(sbuf, 0, n, ty.dt, rbuf, 0, counts, displs, ty.dt)
					if err != nil {
						return err
					}
					for deadline := time.Now().Add(5 * time.Second); ; {
						_, done, err := req.Test()
						if err != nil {
							return fmt.Errorf("%s: %w", ty.name, err)
						}
						if done {
							break
						}
						if time.Now().After(deadline) {
							return fmt.Errorf("%s: %s allgatherv still running after 5s", ty.name, req.alg)
						}
						time.Sleep(time.Millisecond)
					}
					if req.alg != "recursive-doubling" {
						return fmt.Errorf("%s: compiled %s, want recursive-doubling", ty.name, req.alg)
					}
					if want := ty.fill(counts, nslots, 0, all, at); !reflect.DeepEqual(rbuf, want) {
						return fmt.Errorf("%s: receive buffer %v, want %v", ty.name, rbuf, want)
					}
				}
				return nil
			})
		})
	}
}
