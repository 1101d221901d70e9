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

// hierJobSeq hands out process-unique hybrid job ids for the hierarchy tests.
var hierJobSeq atomic.Uint64

func viewGroups(v *locView) string { return fmt.Sprint(v.groups) }

// buildLocView is the pure heart of the hierarchical family: it turns a
// locality key table into ordered groups and decides whether the layout is
// worth a two-level schedule.
func TestBuildLocView(t *testing.T) {
	cases := []struct {
		name   string
		size   int
		keys   []string
		groups string
		multi  bool
	}{
		{"nil table is one flat group", 4, nil, "[[0 1 2 3]]", false},
		{"short table is one flat group", 4, []string{"A", "B"}, "[[0 1 2 3]]", false},
		{"all distinct keys are singletons", 3, []string{"A", "B", "C"}, "[[0] [1] [2]]", false},
		{"uniform keys are one group", 3, []string{"A", "A", "A"}, "[[0 1 2]]", false},
		{"interleaved", 4, []string{"A", "B", "A", "B"}, "[[0 2] [1 3]]", true},
		{"uneven three groups", 5, []string{"A", "A", "B", "C", "B"}, "[[0 1] [2 4] [3]]", true},
		{"blocked 2x4", 8, []string{"A", "A", "A", "A", "B", "B", "B", "B"}, "[[0 1 2 3] [4 5 6 7]]", true},
		{"empty keys are unknown singletons", 4, []string{"A", "", "A", ""}, "[[0 2] [1] [3]]", true},
		{"all empty keys never co-locate", 3, []string{"", "", ""}, "[[0] [1] [2]]", false},
	}
	for _, tc := range cases {
		v := buildLocView(tc.size, tc.keys)
		if got := viewGroups(v); got != tc.groups {
			t.Errorf("%s: groups = %s, want %s", tc.name, got, tc.groups)
		}
		if v.multi() != tc.multi {
			t.Errorf("%s: multi() = %v, want %v", tc.name, v.multi(), tc.multi)
		}
		for g, members := range v.groups {
			for _, r := range members {
				if v.groupOf[r] != g {
					t.Errorf("%s: groupOf[%d] = %d, want %d", tc.name, r, v.groupOf[r], g)
				}
			}
		}
	}
}

// The transport's locality table feeds the exposure accessors:
// LocalityGroup and LocalityLeaders produce Groups that Create turns into
// working intra- and inter-locality communicators.
func TestLocalityGroupsAndLeaders(t *testing.T) {
	keys := []string{"A", "B", "A", "B"}
	runRanksLaidOut(t, keys, func(w *Comm) error {
		got := w.LocalityTable()
		for i := range keys {
			if got[i] != keys[i] {
				return expect(false, "LocalityTable()[%d] = %q", i, got[i])
			}
		}

		lg, err := w.LocalityGroup()
		if err != nil {
			return err
		}
		wantLocal := [][]int{{0, 2}, {1, 3}, {0, 2}, {1, 3}}[w.Rank()]
		if fmt.Sprint(lg.Ranks()) != fmt.Sprint(wantLocal) {
			return expect(false, "LocalityGroup ranks = %v, want %v", lg.Ranks(), wantLocal)
		}

		local, err := w.Create(lg)
		if err != nil {
			return err
		}
		if local == nil || local.Size() != 2 {
			return expect(false, "local comm %v", local)
		}
		s := []int32{int32(w.Rank())}
		r := make([]int32, 1)
		if err := local.Allreduce(s, 0, r, 0, 1, Int, SumOp); err != nil {
			return err
		}
		if want := int32(w.Rank() + (w.Rank()+2)%4); r[0] != want {
			return expect(false, "intra-group allreduce = %d, want %d", r[0], want)
		}

		ldr, err := w.LocalityLeaders()
		if err != nil {
			return err
		}
		if fmt.Sprint(ldr.Ranks()) != "[0 1]" {
			return expect(false, "leaders = %v, want [0 1]", ldr.Ranks())
		}
		leaders, err := w.Create(ldr)
		if err != nil {
			return err
		}
		if w.Rank() <= 1 {
			if leaders == nil || leaders.Size() != 2 {
				return expect(false, "leader comm %v on rank %d", leaders, w.Rank())
			}
		} else if leaders != nil {
			return expect(false, "rank %d is not a leader but got a comm", w.Rank())
		}
		return nil
	})
}

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

// hierSweep runs every collective the hierarchical family compiles —
// barrier, rooted and non-rooted, small and large payloads,
// zero and non-zero roots — and checks results against the classic
// single-level answer computed independently.
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
		// states it: Allgatherv compiles the same two-level schedule.
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
		if req.alg != "hier" {
			return fmt.Errorf("%s allgatherv gc=%d on equal blocks compiled %q, want hier", tag, gc, req.alg)
		}
		for i := range gv {
			if gv[i] != gr[i] {
				return fmt.Errorf("%s allgatherv gc=%d: gv[%d] = %v, want %v", tag, gc, i, gv[i], gr[i])
			}
		}
	}

	if err := hierGroundTruth(w, tag); err != nil {
		return err
	}
	return w.Barrier()
}

// hierGroundTruth checks element by element the two-level schedules the
// broadcast tree serves, just below and just above large_min: Bcast from a
// root that is not its group's lowest rank (so it replaces that group's
// leader), and Allgather, whose assembled vector fans out inside each group
// by the same tree.
func hierGroundTruth(w *Comm, tag string) error {
	np, me := w.Size(), w.Rank()
	root := -1
	for _, g := range w.localityView().groups {
		if len(g) > 1 {
			root = g[1]
			break
		}
	}
	edge := w.largeMin() / 8 // float64 elements at the threshold
	for _, side := range []struct {
		name  string
		n, bs int // bcast elements, allgather block elements
	}{{"below", edge - 1, (edge - 1) / np}, {"above", edge + 1, edge/np + 1}} {
		if large := side.bs*np >= edge; large != (side.name == "above") {
			return fmt.Errorf("%s allgather np=%d bs=%d: on the wrong side of large_min", tag, np, side.bs)
		}
		b := make([]float64, side.n)
		if me == root {
			for i := range b {
				b[i] = float64(root*7919 + i)
			}
		}
		req, err := w.Ibcast(b, 0, side.n, Double, root)
		if err != nil {
			return fmt.Errorf("%s bcast %s root=%d: %w", tag, side.name, root, err)
		}
		if _, err := req.Wait(); err != nil {
			return fmt.Errorf("%s bcast %s root=%d: %w", tag, side.name, root, err)
		}
		if req.alg != "hier" {
			return fmt.Errorf("%s bcast %s root=%d compiled %q, want hier", tag, side.name, root, req.alg)
		}
		for i, v := range b {
			if want := float64(root*7919 + i); v != want {
				return fmt.Errorf("%s bcast %s root=%d: b[%d] = %v, want %v", tag, side.name, root, i, v, want)
			}
		}

		gs, gr := make([]float64, side.bs), make([]float64, np*side.bs)
		for i := range gs {
			gs[i] = float64(me*7919 + i)
		}
		if err := w.Allgather(gs, 0, side.bs, Double, gr, 0, side.bs, Double); err != nil {
			return fmt.Errorf("%s allgather %s: %w", tag, side.name, err)
		}
		for i, v := range gr {
			if want := float64(i/side.bs*7919 + i%side.bs); v != want {
				return fmt.Errorf("%s allgather %s: gr[%d] = %v, want %v", tag, side.name, i, v, want)
			}
		}
	}
	return nil
}

// Forced CollAlgHier on synthetic multi-group layouts must produce the
// same results as classic, for every collective and layout; the same
// sweep under auto exercises the auto-dispatch path (collHier) since a
// spanning layout auto-selects the hierarchical family by default.
func TestHierCollectivesChan(t *testing.T) {
	for _, lay := range hierLayouts {
		lay := lay
		t.Run(lay.name, func(t *testing.T) {
			runRanksLaidOut(t, lay.keys, func(w *Comm) error {
				if !w.localityView().multi() {
					return expect(false, "layout %v not multi", lay.keys)
				}
				ForceCollAlg(w, CollAlgHier)
				if err := hierSweep(w, "forced"); err != nil {
					return err
				}
				ForceCollAlg(w, CollAlgAuto)
				return hierSweep(w, "auto")
			})
		})
	}
}

// Forcing the hierarchical family on a comm that does not span locality
// groups falls back to classic/auto schedules (force is a family
// preference); compiling the hier allreduce there explicitly errors instead.
func TestHierFlatFallback(t *testing.T) {
	runRanks(t, 3, func(w *Comm) error {
		ForceCollAlg(w, CollAlgHier)
		s := []int32{int32(w.Rank() + 1)}
		r := make([]int32, 1)
		if err := w.Allreduce(s, 0, r, 0, 1, Int, SumOp); err != nil {
			return err
		}
		if r[0] != 6 {
			return expect(false, "flat forced-hier allreduce = %d", r[0])
		}
		ForceCollAlg(w, CollAlgAuto)
		err := allreduceWith(w, allreduceHier, s, 0, r, 0, 1, Int, SumOp)
		if err == nil {
			return expect(false, "hier allreduce on flat comm: no error")
		}
		return nil
	})
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
		tab := w.LocalityTable()
		if tab == nil {
			return expect(false, "hyb device exposed no locality table")
		}
		if !w.localityView().multi() {
			return expect(false, "hyb locality view %v not multi", tab)
		}
		ForceCollAlg(w, CollAlgHier)
		if err := hierSweep(w, "hyb-forced"); err != nil {
			return err
		}
		ForceCollAlg(w, CollAlgAuto)
		return hierSweep(w, "hyb-auto")
	})
}

// TestHierAllgathervOwnDispls: on a comm spanning locality groups, equal
// counts select the two-level allgather on every member whatever displs each
// passes — MPI lets every process lay out its own receive buffer. Rank 0
// passes the blocks in reverse rank order with a hole after each, the
// others lay them end to end; every member must compile "hier" and
// assemble every block at its own displacements, Int landing in place or
// staged, and a strided derived type staged. A member that chose its
// schedule from its own displs would trade messages its peers do not
// expect — wrong lengths, blocks left unfilled, or a wait for messages
// nobody sends: each wait runs under a 5 s deadline.
func TestHierAllgathervOwnDispls(t *testing.T) {
	types := blockTypes(t)[:2] // fixed-size: OBJECT has no two-level schedule
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
					if req.alg != "hier" {
						return fmt.Errorf("%s: compiled %s, want hier", ty.name, req.alg)
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
