package mpj

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpj/internal/core"
	"mpj/internal/device"
	"mpj/internal/transport"
)

// typedJobSeq hands out process-unique job ids for the hub meshes these
// tests build, so repeated runs never collide in the process's hub.
var typedJobSeq atomic.Uint64

// runWorlds executes fn concurrently on np ranks connected by an
// in-process mesh, mirroring the distributed runtime: dev chan is a bare
// channel mesh, hyb the process hub's, which a job's slaves build when
// they all share one process. It fails the test if any rank errors or
// wedges.
func runWorlds(t *testing.T, np int, dev string, fn func(w *Comm) error) {
	t.Helper()
	runWorldsWithin(t, np, dev, 120*time.Second, fn)
}

// runWorldsWithin is runWorlds with the time after which the job counts
// as wedged.
func runWorldsWithin(t *testing.T, np int, dev string, limit time.Duration, fn func(w *Comm) error) {
	t.Helper()
	eps := make([]transport.Transport, np)
	switch dev {
	case "chan":
		for i, e := range transport.NewChanMesh(np) {
			eps[i] = e
		}
	case "hyb":
		loc := transport.ProcessLocality()
		locs := make([]string, np)
		for i := range locs {
			locs[i] = loc
		}
		jobID := 0x7e57<<48 | typedJobSeq.Add(1)
		for i := range eps {
			h, err := transport.JoinHub(jobID, i, locs)
			if err != nil {
				t.Fatalf("hyb endpoint %d: %v", i, err)
			}
			eps[i] = h
		}
	default:
		t.Fatalf("unknown device %q", dev)
	}

	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := device.Open(eps[i])
			if err != nil {
				errs[i] = fmt.Errorf("open device: %w", err)
				return
			}
			defer d.Close()
			w, err := core.NewWorld(d)
			if err != nil {
				errs[i] = fmt.Errorf("new world: %w", err)
				return
			}
			if err := fn(w); err != nil {
				errs[i] = err
				return
			}
			errs[i] = w.Barrier()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("job wedged: ranks did not finish within %v", limit)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

// checkTypedEquiv runs the same operations through the typed facade and
// the classic Datatype facade and demands byte-identical results: a ring
// exchange, Bcast, Gather, Allgather, Alltoall, Reduce, Allreduce (plus
// its non-blocking typed form), and Scan.
func checkTypedEquiv[T Scalar](w *Comm, count, root int, op ReduceOp[T], gen func(rank, i int) T) error {
	size, rank := w.Size(), w.Rank()
	dt := DatatypeOf[T]()
	cop := op.Op()
	src := make([]T, count)
	for i := range src {
		src[i] = gen(rank, i)
	}
	mismatch := func(what string, typed, classic any) error {
		if !reflect.DeepEqual(typed, classic) {
			return fmt.Errorf("%s: typed %v != classic %v (np=%d count=%d root=%d op=%s)",
				what, typed, classic, size, count, root, cop.Name())
		}
		return nil
	}

	// Point-to-point ring, both facades.
	right, left := (rank+1)%size, (rank-1+size)%size
	tGot, cGot := make([]T, count), make([]T, count)
	sr, err := Isend(w, src, right, 11)
	if err != nil {
		return err
	}
	if _, err := Recv(w, tGot, left, 11); err != nil {
		return err
	}
	if _, err := sr.Wait(); err != nil {
		return err
	}
	cr, err := w.Isend(src, 0, count, dt, right, 12)
	if err != nil {
		return err
	}
	if _, err := w.Recv(cGot, 0, count, dt, left, 12); err != nil {
		return err
	}
	if _, err := cr.Wait(); err != nil {
		return err
	}
	if err := mismatch("ring", tGot, cGot); err != nil {
		return err
	}

	// Bcast.
	tB := append([]T(nil), src...)
	cB := append([]T(nil), src...)
	if err := Bcast(w, tB, root); err != nil {
		return err
	}
	if err := w.Bcast(cB, 0, count, dt, root); err != nil {
		return err
	}
	if err := mismatch("bcast", tB, cB); err != nil {
		return err
	}

	// Gather to root.
	var tG, cG []T
	if rank == root {
		tG, cG = make([]T, size*count), make([]T, size*count)
	}
	if err := Gather(w, src, tG, root); err != nil {
		return err
	}
	if err := w.Gather(src, 0, count, dt, cG, 0, count, dt, root); err != nil {
		return err
	}
	if err := mismatch("gather", tG, cG); err != nil {
		return err
	}

	// Allgather.
	tAG, cAG := make([]T, size*count), make([]T, size*count)
	if err := Allgather(w, src, tAG); err != nil {
		return err
	}
	if err := w.Allgather(src, 0, count, dt, cAG, 0, count, dt); err != nil {
		return err
	}
	if err := mismatch("allgather", tAG, cAG); err != nil {
		return err
	}

	// Alltoall (one count-element block per peer).
	sA := make([]T, size*count)
	for i := range sA {
		sA[i] = gen(rank, i+7)
	}
	tA, cA := make([]T, size*count), make([]T, size*count)
	if err := Alltoall(w, sA, tA); err != nil {
		return err
	}
	if err := w.Alltoall(sA, 0, count, dt, cA, 0, count, dt); err != nil {
		return err
	}
	if err := mismatch("alltoall", tA, cA); err != nil {
		return err
	}

	// Reduce to root.
	var tR, cR []T
	if rank == root {
		tR, cR = make([]T, count), make([]T, count)
	}
	if err := Reduce(w, src, tR, op, root); err != nil {
		return err
	}
	if err := w.Reduce(src, 0, cR, 0, count, dt, cop, root); err != nil {
		return err
	}
	if err := mismatch("reduce", tR, cR); err != nil {
		return err
	}

	// Allreduce, blocking and non-blocking typed against blocking classic.
	tAR, cAR, tIAR := make([]T, count), make([]T, count), make([]T, count)
	if err := Allreduce(w, src, tAR, op); err != nil {
		return err
	}
	if err := w.Allreduce(src, 0, cAR, 0, count, dt, cop); err != nil {
		return err
	}
	if err := mismatch("allreduce", tAR, cAR); err != nil {
		return err
	}
	req, err := Iallreduce(w, src, tIAR, op)
	if err != nil {
		return err
	}
	if _, err := req.Wait(); err != nil {
		return err
	}
	if err := mismatch("iallreduce", tIAR, cAR); err != nil {
		return err
	}

	// Scan (inclusive prefix).
	tS, cS := make([]T, count), make([]T, count)
	if err := Scan(w, src, tS, op); err != nil {
		return err
	}
	if err := w.Scan(src, 0, cS, 0, count, dt, cop); err != nil {
		return err
	}
	return mismatch("scan", tS, cS)
}

// TestTypedDatatypeEquivalenceProperty is the two-facade equivalence
// property: over randomized np (including non-powers-of-two), count, root,
// reduction op and collective algorithm family, on both the chan and hyb
// devices, every typed operation must produce results byte-identical
// to its Datatype-facade counterpart (the facades share one algorithm
// source, so any divergence is a fast-path bug). The last two iterations
// push the payload past the eager limit and past the large-message
// algorithm threshold to cover the rendezvous protocol and the
// large-message schedules.
func TestTypedDatatypeEquivalenceProperty(t *testing.T) {
	intOps := []ReduceOp[int64]{Sum[int64](), Max[int64](), BXor[int64]()}
	floatOps := []ReduceOp[float64]{Sum[float64](), Min[float64](), Prod[float64]()}
	algs := []core.CollAlg{core.CollAlgAuto, core.CollAlgClassic, core.CollAlgRing}

	for _, dev := range []string{"chan", "hyb"} {
		t.Run(dev, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xC0FFEE))
			const iters = 7
			for it := 0; it < iters; it++ {
				np := 2 + rng.Intn(4)
				count := rng.Intn(70)
				switch it {
				case iters - 2:
					count = 2600 // 20.8 KiB of int64: crosses the eager limit
				case iters - 1:
					np = 5
					count = 11<<10 + 3 // 88 KiB: crosses the algorithm threshold, odd length
				}
				root := rng.Intn(np)
				iop := intOps[rng.Intn(len(intOps))]
				fop := floatOps[rng.Intn(len(floatOps))]
				alg := algs[rng.Intn(len(algs))]
				seed := rng.Int63()
				runWorlds(t, np, dev, func(w *Comm) error {
					core.ForceCollAlg(w, alg)
					if err := checkTypedEquiv(w, count, root, iop, func(rank, i int) int64 {
						return seed%1000 + int64(rank*31+i)
					}); err != nil {
						return err
					}
					return checkTypedEquiv(w, count, root, fop, func(rank, i int) float64 {
						return 1 + float64((seed+int64(rank*17+i))%97)/8
					})
				})
			}
			// Power-of-two communicators, where the large allreduce compiles
			// recursive halving/doubling, on counts the size does not divide.
			for _, np := range []int{2, 4, 8, 16} {
				for _, count := range []int{np + 1, 11<<10 + 3} {
					runWorlds(t, np, dev, func(w *Comm) error {
						core.ForceCollAlg(w, core.CollAlgRing)
						return checkTypedEquiv(w, count, np/2, Sum[int64](), func(rank, i int) int64 {
							return int64(rank*31 + i)
						})
					})
				}
			}
		})
	}
}

// TestTypedSendrecv checks the typed Sendrecv wrapper: a ring shift with
// differing send/receive element types, against locally computed values.
func TestTypedSendrecv(t *testing.T) {
	runWorlds(t, 4, "chan", func(w *Comm) error {
		right := (w.Rank() + 1) % w.Size()
		left := (w.Rank() - 1 + w.Size()) % w.Size()
		out := []int32{int32(w.Rank()), int32(w.Rank() * 2)}
		in := make([]int32, 2)
		st, err := Sendrecv(w, out, right, 3, in, left, 3)
		if err != nil {
			return err
		}
		if n := st.GetCount(INT); n != 2 {
			return fmt.Errorf("sendrecv status count = %d, want 2", n)
		}
		if in[0] != int32(left) || in[1] != int32(left*2) {
			return fmt.Errorf("sendrecv got %v from %d", in, left)
		}
		// Genuinely mixed element types (S != R): send one int32, receive
		// its little-endian wire bytes into a []byte.
		bo := []int32{0x01020304 + int32(w.Rank())}
		bi := make([]byte, 4)
		if _, err := Sendrecv(w, bo, right, 4, bi, left, 4); err != nil {
			return err
		}
		want := []byte{byte(4 + left), 3, 2, 1}
		if !reflect.DeepEqual(bi, want) {
			return fmt.Errorf("sendrecv mixed got %v, want %v", bi, want)
		}
		return nil
	})
}

// tvSizes derives per-rank block sizes from rng, forcing some to zero.
func tvSizes(rng *rand.Rand, np, maxCount int) []int {
	s := make([]int, np)
	for i := range s {
		if rng.Intn(4) != 0 {
			s[i] = 1 + rng.Intn(maxCount)
		}
	}
	return s
}

// tvDispls lays blocks out in a random permutation with random gaps and
// returns the displacements plus the spanned element count.
func tvDispls(rng *rand.Rand, sizes []int) ([]int, int) {
	displs := make([]int, len(sizes))
	cur := 0
	for _, r := range rng.Perm(len(sizes)) {
		cur += rng.Intn(3)
		displs[r] = cur
		cur += sizes[r]
	}
	return displs, cur + rng.Intn(3)
}

// checkTypedVEquiv runs every V collective through the typed count-slice
// surface and the classic Datatype surface with identical inputs and
// demands byte-identical results, for both the blocking and the
// non-blocking forms. The facades share one schedule source, so any
// divergence is a fast-path bug.
func checkTypedVEquiv[T Scalar](w *Comm, seed int64, maxCount int, op ReduceOp[T], gen func(rank, i int) T) error {
	np, me := w.Size(), w.Rank()
	dt := DatatypeOf[T]()
	rng := rand.New(rand.NewSource(seed))
	root := rng.Intn(np)
	mismatch := func(what string, typed, classic any) error {
		if !reflect.DeepEqual(typed, classic) {
			return fmt.Errorf("%s: typed %v != classic %v (np=%d root=%d seed=%d)",
				what, typed, classic, np, root, seed)
		}
		return nil
	}
	wait := func(what string, r *CollRequest, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if _, err := r.Wait(); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		return nil
	}

	// Gatherv / Igatherv.
	gc := tvSizes(rng, np, maxCount)
	gd, gspan := tvDispls(rng, gc)
	gs := make([]T, gc[me])
	for i := range gs {
		gs[i] = gen(me, i)
	}
	var tG, cG, iG []T
	if me == root {
		tG, cG, iG = make([]T, gspan), make([]T, gspan), make([]T, gspan)
	}
	if err := Gatherv(w, gs, tG, gc, gd, root); err != nil {
		return fmt.Errorf("gatherv typed: %w", err)
	}
	if err := w.Gatherv(gs, 0, gc[me], dt, cG, 0, gc, gd, dt, root); err != nil {
		return fmt.Errorf("gatherv classic: %w", err)
	}
	if err := mismatch("gatherv", tG, cG); err != nil {
		return err
	}
	gr, err := Igatherv(w, gs, iG, gc, gd, root)
	if err := wait("igatherv", gr, err); err != nil {
		return err
	}
	if err := mismatch("igatherv", iG, cG); err != nil {
		return err
	}

	// Scatterv / Iscatterv.
	sc := tvSizes(rng, np, maxCount)
	sd, sspan := tvDispls(rng, sc)
	var src []T
	if me == root {
		src = make([]T, sspan)
		for i := range src {
			src[i] = gen(me, i+3)
		}
	}
	tS, cS, iS := make([]T, sc[me]), make([]T, sc[me]), make([]T, sc[me])
	if err := Scatterv(w, src, sc, sd, tS, root); err != nil {
		return fmt.Errorf("scatterv typed: %w", err)
	}
	if err := w.Scatterv(src, 0, sc, sd, dt, cS, 0, sc[me], dt, root); err != nil {
		return fmt.Errorf("scatterv classic: %w", err)
	}
	if err := mismatch("scatterv", tS, cS); err != nil {
		return err
	}
	sr, err := Iscatterv(w, src, sc, sd, iS, root)
	if err := wait("iscatterv", sr, err); err != nil {
		return err
	}
	if err := mismatch("iscatterv", iS, cS); err != nil {
		return err
	}

	// Allgatherv / Iallgatherv.
	ac := tvSizes(rng, np, maxCount)
	ad, aspan := tvDispls(rng, ac)
	as := make([]T, ac[me])
	for i := range as {
		as[i] = gen(me, i+11)
	}
	tA, cA, iA := make([]T, aspan), make([]T, aspan), make([]T, aspan)
	if err := Allgatherv(w, as, tA, ac, ad); err != nil {
		return fmt.Errorf("allgatherv typed: %w", err)
	}
	if err := w.Allgatherv(as, 0, ac[me], dt, cA, 0, ac, ad, dt); err != nil {
		return fmt.Errorf("allgatherv classic: %w", err)
	}
	if err := mismatch("allgatherv", tA, cA); err != nil {
		return err
	}
	ar, err := Iallgatherv(w, as, iA, ac, ad)
	if err := wait("iallgatherv", ar, err); err != nil {
		return err
	}
	if err := mismatch("iallgatherv", iA, cA); err != nil {
		return err
	}

	// Alltoallv / Ialltoallv over a pairwise-matched matrix.
	M := make([][]int, np)
	for s := range M {
		M[s] = tvSizes(rng, np, maxCount)
	}
	rcnt := make([]int, np)
	for s := 0; s < np; s++ {
		rcnt[s] = M[s][me]
	}
	// Every rank derives every rank's send layout in the same order, so
	// the shared rng stream stays aligned; only its own row is kept.
	var sdis []int
	sspanV := 0
	for r := 0; r < np; r++ {
		d, sp := tvDispls(rng, M[r])
		if r == me {
			sdis, sspanV = d, sp
		}
	}
	rdis, rspan := tvDispls(rng, rcnt)
	vs := make([]T, sspanV)
	for d := 0; d < np; d++ {
		for i := 0; i < M[me][d]; i++ {
			vs[sdis[d]+i] = gen(me*np+d, i)
		}
	}
	tV, cV, iV := make([]T, rspan), make([]T, rspan), make([]T, rspan)
	if err := Alltoallv(w, vs, M[me], sdis, tV, rcnt, rdis); err != nil {
		return fmt.Errorf("alltoallv typed: %w", err)
	}
	if err := w.Alltoallv(vs, 0, M[me], sdis, dt, cV, 0, rcnt, rdis, dt); err != nil {
		return fmt.Errorf("alltoallv classic: %w", err)
	}
	if err := mismatch("alltoallv", tV, cV); err != nil {
		return err
	}
	vr, err := Ialltoallv(w, vs, M[me], sdis, iV, rcnt, rdis)
	if err := wait("ialltoallv", vr, err); err != nil {
		return err
	}
	if err := mismatch("ialltoallv", iV, cV); err != nil {
		return err
	}

	// ReduceScatter / IreduceScatter.
	rsc := tvSizes(rng, np, maxCount)
	total := 0
	for _, n := range rsc {
		total += n
	}
	rin := make([]T, total)
	for i := range rin {
		rin[i] = gen(me, i+29)
	}
	tR, cR, iR := make([]T, rsc[me]), make([]T, rsc[me]), make([]T, rsc[me])
	if err := ReduceScatter(w, rin, tR, rsc, op); err != nil {
		return fmt.Errorf("reduce_scatter typed: %w", err)
	}
	if err := w.ReduceScatter(rin, 0, cR, 0, rsc, dt, op.Op()); err != nil {
		return fmt.Errorf("reduce_scatter classic: %w", err)
	}
	if err := mismatch("reduce_scatter", tR, cR); err != nil {
		return err
	}
	rr, err := IreduceScatter(w, rin, iR, rsc, op)
	if err := wait("ireduce_scatter", rr, err); err != nil {
		return err
	}
	return mismatch("ireduce_scatter", iR, cR)
}

// TestTypedVEquivalenceProperty is the two-facade equivalence property
// for the varying-count family: randomized np (incl. non-powers-of-two),
// per-rank counts (incl. zero-count ranks), permuted gapped
// displacements and algorithm family, on both devices. The
// last chan iteration pushes blocks past the large-message threshold to
// cover the window-ring and ring reduce-scatter schedules.
func TestTypedVEquivalenceProperty(t *testing.T) {
	algs := []core.CollAlg{core.CollAlgAuto, core.CollAlgClassic, core.CollAlgRing}
	for _, dev := range []string{"chan", "hyb"} {
		t.Run(dev, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xBEEF))
			iters := 5
			if dev == "hyb" {
				iters = 3
			}
			for it := 0; it < iters; it++ {
				np := 1 + rng.Intn(5)
				maxCount := 1 + rng.Intn(50)
				if dev == "chan" && it == iters-1 {
					np = 5
					maxCount = 9 << 10 // int64 blocks up to 72 KiB: past largeCollMin
				}
				alg := algs[rng.Intn(len(algs))]
				seed := rng.Int63()
				runWorlds(t, np, dev, func(w *Comm) error {
					core.ForceCollAlg(w, alg)
					if err := checkTypedVEquiv(w, seed, maxCount, Sum[int64](), func(rank, i int) int64 {
						return int64(rank*37+i)%97 - 20
					}); err != nil {
						return err
					}
					return checkTypedVEquiv(w, seed+1, maxCount, Min[float64](), func(rank, i int) float64 {
						return float64((rank*13+i)%83) / 4
					})
				})
			}
		})
	}
}

// TestPersistentCollectiveReuse drives the public persistent-collective
// surface end to end: commit an Allreduce and an Alltoallv once, then
// Start/Wait them several times with the input buffers mutated between
// activations — every activation must see the data of its own epoch.
// Finally, Free must fail an in-flight persistent activation (and any
// later Start) with ErrComm.
func TestPersistentCollectiveReuse(t *testing.T) {
	runWorlds(t, 3, "chan", func(w *Comm) error {
		np, me := w.Size(), w.Rank()
		n := 4
		in := make([]int64, n)
		out := make([]int64, n)
		par, err := w.CommitAllreduce(in, 0, out, 0, n, LONG, SUM)
		if err != nil {
			return err
		}
		// A symmetric block-size matrix keeps every send paired with a
		// matching receive (M[s][d] == M[d][s]); rank r uses row r for
		// both its send and its receive counts.
		M := make([][]int, np)
		for s := range M {
			M[s] = make([]int, np)
			for d := range M[s] {
				M[s][d] = (s + d) % 3
			}
		}
		prefix := func(row []int) ([]int, int) {
			p := make([]int, len(row))
			cur := 0
			for i, n := range row {
				p[i] = cur
				cur += n
			}
			return p, cur
		}
		counts := M[me]
		sdis, span := prefix(counts)
		rdis := sdis
		vs := make([]int64, span)
		vr := make([]int64, span)
		pv, err := w.CommitAlltoallv(vs, 0, counts, sdis, LONG, vr, 0, counts, rdis, LONG)
		if err != nil {
			return err
		}
		for epoch := 0; epoch < 4; epoch++ {
			for i := range in {
				in[i] = int64(epoch*100 + me*10 + i)
			}
			for i := range vs {
				vs[i] = int64(epoch*1000 + me*100 + i)
			}
			for i := range vr {
				vr[i] = -1
			}
			if err := par.Start(); err != nil {
				return err
			}
			if err := pv.Start(); err != nil {
				return err
			}
			if _, err := WaitAllRequests([]AnyRequest{par, pv}); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				var want int64
				for r := 0; r < np; r++ {
					want += int64(epoch*100 + r*10 + i)
				}
				if out[i] != want {
					return fmt.Errorf("epoch %d: allreduce[%d] = %d, want %d", epoch, i, out[i], want)
				}
			}
			// vr[rdis[s]:][:counts[s]] holds rank s's block for me, read
			// from s's vs at s's own send displacement for me.
			for s := 0; s < np; s++ {
				sd, _ := prefix(M[s])
				for i := 0; i < counts[s]; i++ {
					want := int64(epoch*1000 + s*100 + sd[me] + i)
					if vr[rdis[s]+i] != want {
						return fmt.Errorf("epoch %d: alltoallv from %d [%d] = %d, want %d",
							epoch, s, i, vr[rdis[s]+i], want)
					}
				}
			}
		}
		// Free fails an in-flight persistent activation with ErrComm.
		c, err := w.Dup()
		if err != nil {
			return err
		}
		var stuck *PcollRequest
		if me == 0 {
			if stuck, err = c.CommitAllreduce(in, 0, out, 0, n, LONG, SUM); err != nil {
				return err
			}
			if err := stuck.Start(); err != nil {
				return err
			}
		}
		c.Free()
		if me == 0 {
			if _, err := stuck.Wait(); !errors.Is(err, ErrComm) {
				return fmt.Errorf("wait after Free: got %v, want ErrComm", err)
			}
			if err := stuck.Start(); !errors.Is(err, ErrComm) {
				return fmt.Errorf("start after Free: got %v, want ErrComm", err)
			}
		}
		return nil
	})
}

// TestWinPutTFenceAllocationGate is the facade's row of the co-located
// epoch gate: a warmed chan np=2 epoch of mpj.PutT (a []byte, no boxing)
// and Fence allocates nothing on either rank.
func TestWinPutTFenceAllocationGate(t *testing.T) {
	const allocsPerEpoch = 0.05 // across both ranks
	runWorlds(t, 2, "chan", func(w *Comm) error {
		rank := w.Rank()
		win, err := w.WinCreate(make([]byte, 2*4096), 1)
		if err != nil {
			return err
		}
		defer win.Free()
		src := make([]byte, 4096)
		i := 0
		epoch := func() {
			if err := PutT(win, src, 1-rank, (i%2)*4096); err != nil {
				t.Error(err)
			}
			if err := win.Fence(); err != nil {
				t.Error(err)
			}
			i++
		}
		// AllocsPerRun counts the process's mallocs: rank 1 runs the same
		// epochs alongside, so rank 0's figure covers both ranks.
		const warm, runs = 50, 200
		for k := 0; k < warm; k++ {
			epoch()
		}
		if rank != 0 {
			for k := 0; k < runs+1; k++ { // AllocsPerRun makes one extra warm-up call
				epoch()
			}
			return nil
		}
		allocs := testing.AllocsPerRun(runs, epoch)
		t.Logf("%.2f objects allocated per chan np=2 PutT+Fence epoch, both ranks", allocs)
		if allocs > allocsPerEpoch {
			return fmt.Errorf("a co-located PutT+Fence epoch allocates %.2f objects, want ≤ %.2f", allocs, allocsPerEpoch)
		}
		return nil
	})
}
