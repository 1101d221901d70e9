package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpj/internal/device"
	"mpj/internal/transport"
)

// icollJobSeq hands out process-unique hybrid-mesh job ids so the tests in
// this file never collide in the hybrid device's process-local hub.
var icollJobSeq atomic.Uint64

// runRanksHyb is runRanks over a co-located hybrid mesh instead of the
// channel mesh, exercising the hub-routed device under the collectives.
func runRanksHyb(t *testing.T, np int, fn func(w *Comm) error) {
	t.Helper()
	loc := transport.ProcessLocality()
	locs := make([]string, np)
	for i := range locs {
		locs[i] = loc
	}
	jobID := 0x1c011<<32 | icollJobSeq.Add(1)
	eps := make([]transport.Transport, np)
	for i := range eps {
		ep, err := transport.NewHybTransport(transport.HybConfig{Rank: i, JobID: jobID, Locs: locs})
		if err != nil {
			t.Fatalf("hyb transport rank %d: %v", i, err)
		}
		eps[i] = ep
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
			w, err := NewWorld(d)
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
	case <-time.After(60 * time.Second):
		t.Fatal("job wedged: ranks did not finish within 60s")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

// icollCase is one randomized configuration of the equivalence property.
type icollCase struct {
	np    int
	count int
	root  int
	op    *Op
	alg   CollAlg // algorithm family forced for the case (zero = auto)
}

// fill produces rank r's deterministic contribution for a case.
func (c icollCase) fill(r, i int) int32 {
	return int32((r*31+i)*7%1000 - 300)
}

// checkIcollEquivalence runs all eight collectives blocking and
// non-blocking with identical inputs on one rank and compares the results
// element for element. The non-blocking forms are all started before any
// is waited, so up to eight schedules are in flight on the communicator
// at once.
func checkIcollEquivalence(w *Comm, tc icollCase) error {
	np, n := w.Size(), tc.count
	me := w.Rank()
	w.SetCollAlg(tc.alg)
	mine := make([]int32, n)
	for i := range mine {
		mine[i] = tc.fill(me, i)
	}
	blocks := make([]int32, np*n) // per-destination blocks for alltoall
	for r := 0; r < np; r++ {
		for i := 0; i < n; i++ {
			blocks[r*n+i] = tc.fill(me*np+r, i)
		}
	}
	bcastIn := func() []int32 {
		b := make([]int32, n)
		if me == tc.root {
			copy(b, mine)
		}
		return b
	}

	// Blocking reference results.
	bBcast := bcastIn()
	if err := w.Bcast(bBcast, 0, n, Int, tc.root); err != nil {
		return err
	}
	bGather := make([]int32, np*n)
	if err := w.Gather(mine, 0, n, Int, bGather, 0, n, Int, tc.root); err != nil {
		return err
	}
	bScatter := make([]int32, n)
	if err := w.Scatter(blocks, 0, n, Int, bScatter, 0, n, Int, tc.root); err != nil {
		return err
	}
	bAllgather := make([]int32, np*n)
	if err := w.Allgather(mine, 0, n, Int, bAllgather, 0, n, Int); err != nil {
		return err
	}
	bReduce := make([]int32, n)
	if err := w.Reduce(mine, 0, bReduce, 0, n, Int, tc.op, tc.root); err != nil {
		return err
	}
	bAllreduce := make([]int32, n)
	if err := w.Allreduce(mine, 0, bAllreduce, 0, n, Int, tc.op); err != nil {
		return err
	}
	bAlltoall := make([]int32, np*n)
	if err := w.Alltoall(blocks, 0, n, Int, bAlltoall, 0, n, Int); err != nil {
		return err
	}

	// Non-blocking: start everything, then drain as one mixed batch.
	nBcast := bcastIn()
	nGather := make([]int32, np*n)
	nScatter := make([]int32, n)
	nAllgather := make([]int32, np*n)
	nReduce := make([]int32, n)
	nAllreduce := make([]int32, n)
	nAlltoall := make([]int32, np*n)

	var reqs []AnyRequest
	start := func(r *CollRequest, err error) error {
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
		return nil
	}
	if err := start(w.Ibarrier()); err != nil {
		return err
	}
	if err := start(w.Ibcast(nBcast, 0, n, Int, tc.root)); err != nil {
		return err
	}
	if err := start(w.Igather(mine, 0, n, Int, nGather, 0, n, Int, tc.root)); err != nil {
		return err
	}
	if err := start(w.Iscatter(blocks, 0, n, Int, nScatter, 0, n, Int, tc.root)); err != nil {
		return err
	}
	if err := start(w.Iallgather(mine, 0, n, Int, nAllgather, 0, n, Int)); err != nil {
		return err
	}
	if err := start(w.Ireduce(mine, 0, nReduce, 0, n, Int, tc.op, tc.root)); err != nil {
		return err
	}
	if err := start(w.Iallreduce(mine, 0, nAllreduce, 0, n, Int, tc.op)); err != nil {
		return err
	}
	if err := start(w.Ialltoall(blocks, 0, n, Int, nAlltoall, 0, n, Int)); err != nil {
		return err
	}
	if _, err := WaitAllRequests(reqs); err != nil {
		return err
	}

	cmp := func(name string, b, nb []int32, rootOnly bool) error {
		if rootOnly && me != tc.root {
			return nil
		}
		for i := range b {
			if b[i] != nb[i] {
				return fmt.Errorf("%s: np=%d count=%d root=%d op=%s: blocking[%d]=%d nonblocking=%d",
					name, np, n, tc.root, tc.op.Name(), i, b[i], nb[i])
			}
		}
		return nil
	}
	if err := cmp("bcast", bBcast, nBcast, false); err != nil {
		return err
	}
	if err := cmp("gather", bGather, nGather, true); err != nil {
		return err
	}
	if err := cmp("scatter", bScatter, nScatter, false); err != nil {
		return err
	}
	if err := cmp("allgather", bAllgather, nAllgather, false); err != nil {
		return err
	}
	if err := cmp("reduce", bReduce, nReduce, true); err != nil {
		return err
	}
	if err := cmp("allreduce", bAllreduce, nAllreduce, false); err != nil {
		return err
	}
	return cmp("alltoall", bAlltoall, nAlltoall, false)
}

// collAlgs are the algorithm families the property tests randomize over.
var collAlgs = []CollAlg{CollAlgAuto, CollAlgClassic, CollAlgRing}

// TestIcollMatchesBlockingProperty is the equivalence property over
// randomized sizes, counts, ops, roots and algorithm families on the chan
// device: the schedule-compiled non-blocking collectives must
// produce exactly the results of their blocking forms under every
// algorithm, including the ring schedules on non-power-of-two sizes.
func TestIcollMatchesBlockingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	nps := []int{1, 2, 3, 4, 5, 8}
	ops := []*Op{SumOp, MaxOp, MinOp, BXorOp}
	for trial := 0; trial < 12; trial++ {
		np := nps[rng.Intn(len(nps))]
		tc := icollCase{
			np:    np,
			count: rng.Intn(200),
			root:  rng.Intn(np),
			op:    ops[rng.Intn(len(ops))],
			alg:   collAlgs[rng.Intn(len(collAlgs))],
		}
		runRanks(t, np, func(w *Comm) error { return checkIcollEquivalence(w, tc) })
	}
}

// TestIcollMatchesBlockingHyb runs the same equivalence property over the
// hybrid device's hub-routed channel path, again randomizing the
// algorithm family over non-power-of-two sizes.
func TestIcollMatchesBlockingHyb(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, np := range []int{2, 3, 4, 5} {
		tc := icollCase{
			np:    np,
			count: 1 + rng.Intn(300),
			root:  rng.Intn(np),
			op:    SumOp,
			alg:   collAlgs[rng.Intn(len(collAlgs))],
		}
		runRanksHyb(t, np, func(w *Comm) error { return checkIcollEquivalence(w, tc) })
	}
}

// checkCollGroundTruth verifies Bcast, Allreduce and Allgather payloads
// against locally computed expected values — unlike the blocking-vs-
// non-blocking equivalence, an algorithm that corrupted data identically
// in both forms cannot slip through. int64 sums keep the check exact under
// every combine order the algorithms use.
func checkCollGroundTruth(w *Comm, count, root int) error {
	np, me := w.Size(), w.Rank()
	src := func(r, i int) int64 { return int64((r*131+i)*13%4099 - 1024) }

	b := make([]int64, count)
	if me == root {
		for i := range b {
			b[i] = src(root, i)
		}
	}
	if err := w.Bcast(b, 0, count, Long, root); err != nil {
		return err
	}
	for i := range b {
		if b[i] != src(root, i) {
			return fmt.Errorf("bcast[%d] = %d, want %d", i, b[i], src(root, i))
		}
	}

	in := make([]int64, count)
	for i := range in {
		in[i] = src(me, i)
	}
	out := make([]int64, count)
	if err := w.Allreduce(in, 0, out, 0, count, Long, SumOp); err != nil {
		return err
	}
	for i := range out {
		var want int64
		for r := 0; r < np; r++ {
			want += src(r, i)
		}
		if out[i] != want {
			return fmt.Errorf("allreduce[%d] = %d, want %d", i, out[i], want)
		}
	}

	// MaxLoc on a packed pair type (DoubleInt is padded: no raw window, so
	// the large family stages every arrival); ties resolve to the lower rank.
	pin, pout := make([]DoubleInt, count), make([]DoubleInt, count)
	for i := range pin {
		pin[i] = DoubleInt{Value: float64(src(me, i) % 7), Index: int32(me)}
	}
	if err := w.Allreduce(pin, 0, pout, 0, count, DoubleInt2, MaxLocOp); err != nil {
		return err
	}
	for i := range pout {
		want := DoubleInt{Value: float64(src(0, i) % 7)}
		for r := 1; r < np; r++ {
			if v := float64(src(r, i) % 7); v > want.Value {
				want = DoubleInt{Value: v, Index: int32(r)}
			}
		}
		if pout[i] != want {
			return fmt.Errorf("maxloc[%d] = %v, want %v", i, pout[i], want)
		}
	}

	// A user op on a derived (packed) datatype of two Longs per element.
	pair, err := Contiguous(2, Long)
	if err != nil {
		return err
	}
	userSum := NewOp("user-sum", func(a, b any, _ Datatype) error {
		av, bv := a.([]int64), b.([]int64)
		for i := range av {
			bv[i] += av[i]
		}
		return nil
	})
	uout := make([]int64, count/2*2)
	if err := w.Allreduce(in, 0, uout, 0, count/2, pair, userSum); err != nil {
		return err
	}
	for i := range uout {
		if uout[i] != out[i] {
			return fmt.Errorf("user op on %s [%d] = %d, want %d", pair.Name(), i, uout[i], out[i])
		}
	}

	// The persistent form over mutating input: every activation must see
	// the send buffer as it is at that Start.
	pbuf, psum := make([]int64, count), make([]int64, count)
	p, err := w.CommitAllreduce(pbuf, 0, psum, 0, count, Long, SumOp)
	if err != nil {
		return err
	}
	for gen := int64(1); gen <= 4; gen++ {
		for i := range pbuf {
			pbuf[i] = gen * in[i]
		}
		if err := p.Start(); err != nil {
			return err
		}
		if _, err := p.Wait(); err != nil {
			return err
		}
		for i := range psum {
			if psum[i] != gen*out[i] {
				return fmt.Errorf("persistent allreduce, activation %d: [%d] = %d, want %d", gen, i, psum[i], gen*out[i])
			}
		}
	}

	all := make([]int64, np*count)
	if err := w.Allgather(in, 0, count, Long, all, 0, count, Long); err != nil {
		return err
	}
	for r := 0; r < np; r++ {
		for i := 0; i < count; i++ {
			if all[r*count+i] != src(r, i) {
				return fmt.Errorf("allgather[%d][%d] = %d, want %d", r, i, all[r*count+i], src(r, i))
			}
		}
	}
	return nil
}

// TestCollAlgGroundTruthProperty drives the ground-truth check across the
// algorithm selection space on the chan device: payload sizes straddling
// the large-message threshold and non-power-of-two communicators.
func TestCollAlgGroundTruthProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nps := []int{2, 3, 4, 5, 7, 8}
	for trial := 0; trial < 10; trial++ {
		np := nps[rng.Intn(len(nps))]
		alg := collAlgs[rng.Intn(len(collAlgs))]
		count := 1 + rng.Intn(12<<10) // up to 96 KiB of int64, beyond largeCollMin
		root := rng.Intn(np)
		runRanks(t, np, func(w *Comm) error {
			w.SetCollAlg(alg)
			return checkCollGroundTruth(w, count, root)
		})
	}
	// The large family on power-of-two communicators, with counts the size
	// does not divide: fewer elements than ranks (empty halving ranges), a
	// handful, and a large odd vector under automatic selection.
	for _, np := range []int{2, 4, 8, 16} {
		for _, tc := range []struct {
			alg   CollAlg
			count int
		}{{CollAlgRing, np - 1}, {CollAlgRing, 3*np + 1}, {CollAlgAuto, 9<<10 + 11}} {
			runRanks(t, np, func(w *Comm) error {
				w.SetCollAlg(tc.alg)
				return checkCollGroundTruth(w, tc.count, np-1)
			})
		}
	}
}

// TestCollAlgGroundTruthHyb is a smaller ground-truth sweep over the
// hybrid device, pinning the acceptance case: the ring schedules on a
// 5-rank (non-power-of-two) communicator with large payloads.
func TestCollAlgGroundTruthHyb(t *testing.T) {
	for _, alg := range []CollAlg{CollAlgAuto, CollAlgRing} {
		runRanksHyb(t, 5, func(w *Comm) error {
			w.SetCollAlg(alg)
			return checkCollGroundTruth(w, 20<<10, 3)
		})
	}
	// Recursive halving/doubling, on an odd count the size does not divide.
	for _, np := range []int{2, 4, 8, 16} {
		runRanksHyb(t, np, func(w *Comm) error {
			w.SetCollAlg(CollAlgRing)
			return checkCollGroundTruth(w, 20<<10+np+1, 1)
		})
	}
}

// TestRingAllreduceExplicit pins the large allreduce, compiled explicitly,
// on power-of-two and non-power-of-two sizes against the tree+bcast
// result, straddling the eager/rendezvous boundary per chunk.
func TestRingAllreduceExplicit(t *testing.T) {
	for _, np := range []int{2, 3, 4, 5, 8, 16} {
		runRanks(t, np, func(w *Comm) error {
			const n = 9<<10 + 11 // odd count: chunks differ in size
			in := make([]int64, n)
			for i := range in {
				in[i] = int64(w.Rank()*7919 + i)
			}
			ring := make([]int64, n)
			if err := allreduceWith(w, allreduceRing, in, 0, ring, 0, n, Long, SumOp); err != nil {
				return err
			}
			tree := make([]int64, n)
			if err := allreduceWith(w, allreduceTreeBcast, in, 0, tree, 0, n, Long, SumOp); err != nil {
				return err
			}
			for i := range ring {
				if ring[i] != tree[i] {
					return fmt.Errorf("np=%d: ring[%d]=%d tree=%d", np, i, ring[i], tree[i])
				}
			}
			return nil
		})
	}
}

// TestIcollLargePayload pushes the schedules through the rendezvous
// protocol: payloads well above the eager limit must flow through the
// rounds exactly like small ones.
func TestIcollLargePayload(t *testing.T) {
	const n = 8 << 10 // 64 KiB of float64 per contribution, > eager limit
	runRanks(t, 4, func(w *Comm) error {
		mine := make([]float64, n)
		for i := range mine {
			mine[i] = float64(w.Rank()) + float64(i)*1e-6
		}
		sum := make([]float64, n)
		r, err := w.Iallreduce(mine, 0, sum, 0, n, Double, SumOp)
		if err != nil {
			return err
		}
		if _, err := r.Wait(); err != nil {
			return err
		}
		want := float64(w.Size()*(w.Size()-1))/2 + 4*float64(n-1)*1e-6
		return expect(sum[n-1] == want, "sum[last] = %v, want %v", sum[n-1], want)
	})
}

// TestIcollObjectPaths drives the linear (variable-size) schedules with
// OBJECT payloads.
func TestIcollObjectPaths(t *testing.T) {
	runRanks(t, 3, func(w *Comm) error {
		np := w.Size()
		sbuf := []any{fmt.Sprintf("from-%d", w.Rank())}
		rbuf := make([]any, np)
		gr, err := w.Igather(sbuf, 0, 1, Object, rbuf, 0, 1, Object, 1)
		if err != nil {
			return err
		}
		abuf := make([]any, np)
		ar, err := w.Iallgather(sbuf, 0, 1, Object, abuf, 0, 1, Object)
		if err != nil {
			return err
		}
		if _, err := WaitAllRequests([]AnyRequest{gr, ar}); err != nil {
			return err
		}
		for r := 0; r < np; r++ {
			if w.Rank() == 1 && rbuf[r] != fmt.Sprintf("from-%d", r) {
				return fmt.Errorf("gather rbuf[%d] = %v", r, rbuf[r])
			}
			if abuf[r] != fmt.Sprintf("from-%d", r) {
				return fmt.Errorf("allgather abuf[%d] = %v", r, abuf[r])
			}
		}
		return nil
	})
}

// TestIcollConcurrentDisjointComms runs independent non-blocking
// collectives concurrently from two goroutines per rank, each on its own
// duplicated communicator (disjoint contexts). Run under -race this
// checks the engine's locking end to end.
func TestIcollConcurrentDisjointComms(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		c1, err := w.Dup()
		if err != nil {
			return err
		}
		c2, err := w.Dup()
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		bodies := []func(c *Comm) error{
			func(c *Comm) error {
				in := []int64{int64(c.Rank() + 1)}
				out := make([]int64, 1)
				r, err := c.Iallreduce(in, 0, out, 0, 1, Long, ProdOp)
				if err != nil {
					return err
				}
				if _, err := r.Wait(); err != nil {
					return err
				}
				return expect(out[0] == 24, "prod = %d", out[0])
			},
			func(c *Comm) error {
				buf := []int32{0}
				if c.Rank() == 2 {
					buf[0] = 99
				}
				r, err := c.Ibcast(buf, 0, 1, Int, 2)
				if err != nil {
					return err
				}
				if _, err := r.Wait(); err != nil {
					return err
				}
				return expect(buf[0] == 99, "bcast got %d", buf[0])
			},
		}
		for g, c := range []*Comm{c1, c2} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 10; rep++ {
					if err := bodies[g](c); err != nil {
						errs[g] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	})
}

// TestIcollMixedWaitAll completes a point-to-point exchange and a
// non-blocking collective through one WaitAllRequests batch.
func TestIcollMixedWaitAll(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		peer := 1 - w.Rank()
		out := []int32{int32(10 + w.Rank())}
		in := make([]int32, 1)
		sr, err := w.Isend(out, 0, 1, Int, peer, 5)
		if err != nil {
			return err
		}
		rr, err := w.Irecv(in, 0, 1, Int, peer, 5)
		if err != nil {
			return err
		}
		sum := make([]int32, 1)
		cr, err := w.Iallreduce(out, 0, sum, 0, 1, Int, SumOp)
		if err != nil {
			return err
		}
		if _, err := WaitAllRequests([]AnyRequest{sr, rr, cr}); err != nil {
			return err
		}
		if err := expect(in[0] == int32(10+peer), "p2p got %d", in[0]); err != nil {
			return err
		}
		return expect(sum[0] == 21, "allreduce got %d", sum[0])
	})
}

// TestIcollCrossOrderWait completes two outstanding collectives in
// opposite orders on different ranks — legal MPI that deadlocks unless a
// parked Wait also drives sibling schedules on the communicator.
func TestIcollCrossOrderWait(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		// Both are multi-round schedules (recursive doubling /
		// dissemination at np=4), so rounds beyond the first must be
		// posted while the rank is parked on the *other* request.
		in := []int32{int32(w.Rank() + 1)}
		sum := make([]int32, 1)
		a, err := w.Iallreduce(in, 0, sum, 0, 1, Int, SumOp)
		if err != nil {
			return err
		}
		b, err := w.Ibarrier()
		if err != nil {
			return err
		}
		if w.Rank()%2 == 0 {
			if _, err := b.Wait(); err != nil {
				return err
			}
			if _, err := a.Wait(); err != nil {
				return err
			}
		} else {
			if _, err := a.Wait(); err != nil {
				return err
			}
			if _, err := b.Wait(); err != nil {
				return err
			}
		}
		return expect(sum[0] == 10, "allreduce got %d", sum[0])
	})
}

// TestBlockingP2PDrivesCollectives parks a rank in a plain blocking Recv
// while it still owes rounds to an in-flight collective: the p2p Wait
// must drive the schedule, or the peer whose collective depends on those
// rounds would never reach its unblocking Send.
func TestBlockingP2PDrivesCollectives(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		in := []int32{int32(w.Rank() + 1)}
		sum := make([]int32, 1)
		req, err := w.Iallreduce(in, 0, sum, 0, 1, Int, SumOp)
		if err != nil {
			return err
		}
		if w.Rank() == 3 {
			// Recv before Wait: the message only arrives after rank 1's
			// collective completes, which needs this rank's later rounds.
			got := make([]int32, 1)
			if _, err := w.Recv(got, 0, 1, Int, 1, 11); err != nil {
				return err
			}
			if err := expect(got[0] == 7, "recv got %d", got[0]); err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
		} else {
			if _, err := req.Wait(); err != nil {
				return err
			}
			if w.Rank() == 1 {
				if err := w.Send([]int32{7}, 0, 1, Int, 3, 11); err != nil {
					return err
				}
			}
		}
		return expect(sum[0] == 10, "allreduce got %d", sum[0])
	})
}

// TestWaitAnyDrivesCollectives is TestBlockingP2PDrivesCollectives for
// the WaitAny entry point.
func TestWaitAnyDrivesCollectives(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		in := []int32{int32(w.Rank() + 1)}
		sum := make([]int32, 1)
		req, err := w.Iallreduce(in, 0, sum, 0, 1, Int, SumOp)
		if err != nil {
			return err
		}
		if w.Rank() == 3 {
			got := make([]int32, 1)
			rr, err := w.Irecv(got, 0, 1, Int, 1, 12)
			if err != nil {
				return err
			}
			idx, _, err := WaitAny([]*Request{rr})
			if err != nil {
				return err
			}
			if err := expect(idx == 0 && got[0] == 8, "waitany idx=%d got %d", idx, got[0]); err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
		} else {
			if _, err := req.Wait(); err != nil {
				return err
			}
			if w.Rank() == 1 {
				if err := w.Send([]int32{8}, 0, 1, Int, 3, 12); err != nil {
					return err
				}
			}
		}
		return expect(sum[0] == 10, "allreduce got %d", sum[0])
	})
}

// TestIcollCrossCommCrossOrderWait completes outstanding collectives on
// two different communicators in opposite orders on different ranks: the
// in-flight registry is process-wide, so a Wait parked on one
// communicator's collective must drive the other's rounds too.
func TestIcollCrossCommCrossOrderWait(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		c2, err := w.Dup()
		if err != nil {
			return err
		}
		in := []int32{int32(w.Rank() + 1)}
		sumX := make([]int32, 1)
		sumY := make([]int32, 1)
		x, err := w.Iallreduce(in, 0, sumX, 0, 1, Int, SumOp)
		if err != nil {
			return err
		}
		y, err := c2.Iallreduce(in, 0, sumY, 0, 1, Int, ProdOp)
		if err != nil {
			return err
		}
		if w.Rank()%2 == 0 {
			if _, err := x.Wait(); err != nil {
				return err
			}
			if _, err := y.Wait(); err != nil {
				return err
			}
		} else {
			if _, err := y.Wait(); err != nil {
				return err
			}
			if _, err := x.Wait(); err != nil {
				return err
			}
		}
		if err := expect(sumX[0] == 10, "sum got %d", sumX[0]); err != nil {
			return err
		}
		return expect(sumY[0] == 24, "prod got %d", sumY[0])
	})
}

// TestWaitAllRequestsTypedNil: typed-nil pointers boxed into AnyRequest
// slots must be skipped like nil interfaces, matching WaitAll's contract.
func TestWaitAllRequestsTypedNil(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		in := []int32{int32(w.Rank() + 1)}
		sum := make([]int32, 1)
		cr, err := w.Iallreduce(in, 0, sum, 0, 1, Int, SumOp)
		if err != nil {
			return err
		}
		var nilP2P *Request
		var nilPre *Prequest
		var nilColl *CollRequest
		sts, err := WaitAllRequests([]AnyRequest{nilP2P, nilPre, nilColl, nil, cr})
		if err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			if sts[i] != nil {
				return fmt.Errorf("slot %d: nil request produced status %v", i, sts[i])
			}
		}
		// A batch of only typed nils must complete immediately too.
		if _, err := WaitAllRequests([]AnyRequest{nilP2P, nilColl}); err != nil {
			return err
		}
		return expect(sum[0] == 3, "sum got %d", sum[0])
	})
}

// TestIcollWaitAllCrossProgress pins the progress guarantee of
// WaitAllRequests: rank 0 waits on a batch whose first slot (a receive)
// can only be satisfied after its second slot (a collective) completes on
// the peer — a slot-by-slot Wait would deadlock, round-robin progress must
// not.
func TestIcollWaitAllCrossProgress(t *testing.T) {
	runRanks(t, 3, func(w *Comm) error {
		in := []int32{int32(w.Rank() + 1)}
		sum := make([]int32, 1)
		if w.Rank() == 0 {
			got := make([]int32, 1)
			rr, err := w.Irecv(got, 0, 1, Int, 1, 9)
			if err != nil {
				return err
			}
			cr, err := w.Iallreduce(in, 0, sum, 0, 1, Int, SumOp)
			if err != nil {
				return err
			}
			if _, err := WaitAllRequests([]AnyRequest{rr, cr}); err != nil {
				return err
			}
			if err := expect(got[0] == 42, "recv got %d", got[0]); err != nil {
				return err
			}
		} else {
			cr, err := w.Iallreduce(in, 0, sum, 0, 1, Int, SumOp)
			if err != nil {
				return err
			}
			// The collective must complete before the unblocking send.
			if _, err := cr.Wait(); err != nil {
				return err
			}
			if w.Rank() == 1 {
				if err := w.Send([]int32{42}, 0, 1, Int, 0, 9); err != nil {
					return err
				}
			}
		}
		return expect(sum[0] == 6, "allreduce got %d", sum[0])
	})
}

// TestIcollTestPolling completes a collective purely through Test calls —
// no Wait — which exercises the non-blocking progress path.
func TestIcollTestPolling(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		in := []int32{int32(w.Rank())}
		out := make([]int32, 1)
		r, err := w.Iallreduce(in, 0, out, 0, 1, Int, SumOp)
		if err != nil {
			return err
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			_, done, err := r.Test()
			if err != nil {
				return err
			}
			if done {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("collective did not complete under Test polling")
			}
			time.Sleep(50 * time.Microsecond)
		}
		return expect(out[0] == 6, "sum = %d", out[0])
	})
}

// TestFreeFailsInflightCollective: a collective abandoned when the
// communicator is freed completes with ErrComm instead of hanging — even
// when some members never started it (the erroneous program the
// total-failure model must still unwind).
func TestFreeFailsInflightCollective(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		c, err := w.Dup()
		if err != nil {
			return err
		}
		var req *CollRequest
		if w.Rank() == 0 {
			// Only rank 0 starts the collective: it can never complete.
			in := []int32{1}
			out := make([]int32, 1)
			if req, err = c.Iallreduce(in, 0, out, 0, 1, Int, SumOp); err != nil {
				return err
			}
		}
		c.Free()
		if w.Rank() == 0 {
			if _, err := req.Wait(); !errors.Is(err, ErrComm) {
				return fmt.Errorf("wait after Free: got %v, want ErrComm", err)
			}
		}
		// New collectives on the freed communicator fail immediately.
		if _, err := c.Ibarrier(); !errors.Is(err, ErrComm) {
			return fmt.Errorf("ibarrier on freed comm: got %v, want ErrComm", err)
		}
		if err := c.Barrier(); !errors.Is(err, ErrComm) {
			return fmt.Errorf("barrier on freed comm: got %v, want ErrComm", err)
		}
		return nil
	})
}

// TestFreeWakesBlockedWaiter frees the communicator from a second
// goroutine while Wait is already blocked on an incompletable collective;
// the waiter must unblock with ErrComm.
func TestFreeWakesBlockedWaiter(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		c, err := w.Dup()
		if err != nil {
			return err
		}
		if w.Rank() == 1 {
			c.Free()
			return nil
		}
		in := []int32{1}
		out := make([]int32, 1)
		req, err := c.Iallreduce(in, 0, out, 0, 1, Int, SumOp)
		if err != nil {
			return err
		}
		go func() {
			time.Sleep(20 * time.Millisecond)
			c.Free()
		}()
		if _, err := req.Wait(); !errors.Is(err, ErrComm) {
			return fmt.Errorf("blocked wait: got %v, want ErrComm", err)
		}
		return nil
	})
}

// ---------------------------------------------------------------------
// Varying-count (V family) equivalence property: for every V collective
// the blocking, non-blocking and persistent forms must produce identical
// results — and the blocking form is additionally checked against locally
// computed ground truth, so an algorithm that corrupted data identically
// in all three forms cannot slip through. Layouts are randomized over
// zero-count ranks and permuted, gapped (non-contiguous) displacements;
// persistent schedules are started twice with mutated buffers in between,
// pinning that each Start re-reads the user data.
// ---------------------------------------------------------------------

// vcollCase is one randomized configuration of the V equivalence property.
type vcollCase struct {
	np       int
	seed     int64
	alg      CollAlg
	maxCount int
}

// vSizes derives per-rank block sizes, forcing some ranks to zero.
func vSizes(rng *rand.Rand, np, maxCount int) []int {
	s := make([]int, np)
	for i := range s {
		if rng.Intn(4) == 0 {
			continue // zero-count rank
		}
		s[i] = 1 + rng.Intn(maxCount)
	}
	return s
}

// vDispls lays the blocks out in a random permutation with random gaps
// between them (non-contiguous, non-monotone displacements) and returns
// the displacements plus the spanned slot count.
func vDispls(rng *rand.Rand, sizes []int) (displs []int, span int) {
	displs = make([]int, len(sizes))
	cur := 0
	for _, r := range rng.Perm(len(sizes)) {
		cur += rng.Intn(3)
		displs[r] = cur
		cur += sizes[r]
	}
	return displs, cur + rng.Intn(3)
}

// checkVcoll runs the V equivalence property for element type T. All
// randomness comes from tc.seed, so every rank derives the same layouts.
func checkVcoll[T int32 | int64 | float64](w *Comm, dt Datatype, tc vcollCase) error {
	np, me := w.Size(), w.Rank()
	w.SetCollAlg(tc.alg)
	rng := rand.New(rand.NewSource(tc.seed))
	root := rng.Intn(np)
	val := func(gen, rank, i int) T { return T((gen*13+rank*31+i)*7%127 - 30) }
	var sentinel T = -99
	cmp := func(name string, want, got []T) error {
		if len(want) != len(got) {
			return fmt.Errorf("%s: length %d != %d", name, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				return fmt.Errorf("%s: np=%d root=%d alg=%v: [%d] = %v, want %v",
					name, np, root, tc.alg, i, got[i], want[i])
			}
		}
		return nil
	}
	blank := func(n int) []T {
		b := make([]T, n)
		for i := range b {
			b[i] = sentinel
		}
		return b
	}

	// --- Gatherv ---
	gc := vSizes(rng, np, tc.maxCount)
	gd, gspan := vDispls(rng, gc)
	gatherWant := func(gen int) []T {
		want := blank(gspan)
		for r := 0; r < np; r++ {
			for i := 0; i < gc[r]; i++ {
				want[gd[r]+i] = val(gen, r, i)
			}
		}
		return want
	}
	gs := make([]T, gc[me])
	for i := range gs {
		gs[i] = val(0, me, i)
	}
	var bG, nG, pG []T
	if me == root {
		bG, nG, pG = blank(gspan), blank(gspan), blank(gspan)
	}
	if err := w.Gatherv(gs, 0, gc[me], dt, bG, 0, gc, gd, dt, root); err != nil {
		return fmt.Errorf("gatherv: %w", err)
	}
	if me == root {
		if err := cmp("gatherv", gatherWant(0), bG); err != nil {
			return err
		}
	}
	gr, err := w.Igatherv(gs, 0, gc[me], dt, nG, 0, gc, gd, dt, root)
	if err != nil {
		return fmt.Errorf("igatherv: %w", err)
	}
	if _, err := gr.Wait(); err != nil {
		return fmt.Errorf("igatherv: %w", err)
	}
	if me == root {
		if err := cmp("igatherv", bG, nG); err != nil {
			return err
		}
	}
	gp, err := w.CommitGatherv(gs, 0, gc[me], dt, pG, 0, gc, gd, dt, root)
	if err != nil {
		return fmt.Errorf("pgatherv: %w", err)
	}
	if err := gp.Start(); err != nil {
		return err
	}
	if _, err := gp.Wait(); err != nil {
		return err
	}
	if me == root {
		if err := cmp("pgatherv", bG, pG); err != nil {
			return err
		}
	}
	// Mutate the contribution and run the committed schedule again: the
	// second activation must gather the new data.
	for i := range gs {
		gs[i] = val(1, me, i)
	}
	if err := gp.Start(); err != nil {
		return err
	}
	if _, err := gp.Wait(); err != nil {
		return err
	}
	if me == root {
		if err := cmp("pgatherv restart", gatherWant(1), pG); err != nil {
			return err
		}
	}

	// --- Scatterv ---
	sc := vSizes(rng, np, tc.maxCount)
	sd, sspan := vDispls(rng, sc)
	var src []T
	if me == root {
		src = make([]T, sspan)
		for i := range src {
			src[i] = val(2, root, i)
		}
	}
	scatterWant := func(gen int) []T {
		want := make([]T, sc[me])
		for i := range want {
			want[i] = val(gen, root, sd[me]+i)
		}
		return want
	}
	bS, nS, pS := blank(sc[me]), blank(sc[me]), blank(sc[me])
	if err := w.Scatterv(src, 0, sc, sd, dt, bS, 0, sc[me], dt, root); err != nil {
		return fmt.Errorf("scatterv: %w", err)
	}
	if err := cmp("scatterv", scatterWant(2), bS); err != nil {
		return err
	}
	sr, err := w.Iscatterv(src, 0, sc, sd, dt, nS, 0, sc[me], dt, root)
	if err != nil {
		return fmt.Errorf("iscatterv: %w", err)
	}
	if _, err := sr.Wait(); err != nil {
		return fmt.Errorf("iscatterv: %w", err)
	}
	if err := cmp("iscatterv", bS, nS); err != nil {
		return err
	}
	sp, err := w.CommitScatterv(src, 0, sc, sd, dt, pS, 0, sc[me], dt, root)
	if err != nil {
		return fmt.Errorf("pscatterv: %w", err)
	}
	for rep, gen := range []int{2, 3} {
		if me == root && rep == 1 {
			for i := range src {
				src[i] = val(gen, root, i)
			}
		}
		if err := sp.Start(); err != nil {
			return err
		}
		if _, err := sp.Wait(); err != nil {
			return err
		}
		if err := cmp("pscatterv", scatterWant(gen), pS); err != nil {
			return err
		}
	}

	// --- Allgatherv ---
	ac := vSizes(rng, np, tc.maxCount)
	ad, aspan := vDispls(rng, ac)
	as := make([]T, ac[me])
	for i := range as {
		as[i] = val(4, me, i)
	}
	allWant := func(gen int) []T {
		want := blank(aspan)
		for r := 0; r < np; r++ {
			for i := 0; i < ac[r]; i++ {
				want[ad[r]+i] = val(gen, r, i)
			}
		}
		return want
	}
	bA, nA, pA := blank(aspan), blank(aspan), blank(aspan)
	if err := w.Allgatherv(as, 0, ac[me], dt, bA, 0, ac, ad, dt); err != nil {
		return fmt.Errorf("allgatherv: %w", err)
	}
	if err := cmp("allgatherv", allWant(4), bA); err != nil {
		return err
	}
	ar, err := w.Iallgatherv(as, 0, ac[me], dt, nA, 0, ac, ad, dt)
	if err != nil {
		return fmt.Errorf("iallgatherv: %w", err)
	}
	if _, err := ar.Wait(); err != nil {
		return fmt.Errorf("iallgatherv: %w", err)
	}
	if err := cmp("iallgatherv", bA, nA); err != nil {
		return err
	}
	ap, err := w.CommitAllgatherv(as, 0, ac[me], dt, pA, 0, ac, ad, dt)
	if err != nil {
		return fmt.Errorf("pallgatherv: %w", err)
	}
	for rep, gen := range []int{4, 5} {
		if rep == 1 {
			for i := range as {
				as[i] = val(gen, me, i)
			}
		}
		if err := ap.Start(); err != nil {
			return err
		}
		if _, err := ap.Wait(); err != nil {
			return err
		}
		if err := cmp("pallgatherv", allWant(gen), pA); err != nil {
			return err
		}
	}

	// --- Alltoallv ---
	// M[s][d] is the block size from rank s to rank d; every rank derives
	// the full matrix and every rank's displacements from the shared rng.
	M := make([][]int, np)
	for s := range M {
		M[s] = vSizes(rng, np, tc.maxCount)
	}
	col := func(d int) []int {
		c := make([]int, np)
		for s := 0; s < np; s++ {
			c[s] = M[s][d]
		}
		return c
	}
	sdispls := make([][]int, np)
	sspans := make([]int, np)
	rdispls := make([][]int, np)
	rspans := make([]int, np)
	for r := 0; r < np; r++ {
		sdispls[r], sspans[r] = vDispls(rng, M[r])
	}
	for r := 0; r < np; r++ {
		rdispls[r], rspans[r] = vDispls(rng, col(r))
	}
	a2aVal := func(gen, s, d, i int) T { return T((gen*17+s*41+d*13+i)*3%101 - 20) }
	a2aSrc := func(gen int) []T {
		sb := make([]T, sspans[me])
		for i := range sb {
			sb[i] = sentinel
		}
		for d := 0; d < np; d++ {
			for i := 0; i < M[me][d]; i++ {
				sb[sdispls[me][d]+i] = a2aVal(gen, me, d, i)
			}
		}
		return sb
	}
	a2aWant := func(gen int) []T {
		want := blank(rspans[me])
		for s := 0; s < np; s++ {
			for i := 0; i < M[s][me]; i++ {
				want[rdispls[me][s]+i] = a2aVal(gen, s, me, i)
			}
		}
		return want
	}
	vsb := a2aSrc(6)
	bV, nV, pV := blank(rspans[me]), blank(rspans[me]), blank(rspans[me])
	if err := w.Alltoallv(vsb, 0, M[me], sdispls[me], dt, bV, 0, col(me), rdispls[me], dt); err != nil {
		return fmt.Errorf("alltoallv: %w", err)
	}
	if err := cmp("alltoallv", a2aWant(6), bV); err != nil {
		return err
	}
	vr, err := w.Ialltoallv(vsb, 0, M[me], sdispls[me], dt, nV, 0, col(me), rdispls[me], dt)
	if err != nil {
		return fmt.Errorf("ialltoallv: %w", err)
	}
	if _, err := vr.Wait(); err != nil {
		return fmt.Errorf("ialltoallv: %w", err)
	}
	if err := cmp("ialltoallv", bV, nV); err != nil {
		return err
	}
	vp, err := w.CommitAlltoallv(vsb, 0, M[me], sdispls[me], dt, pV, 0, col(me), rdispls[me], dt)
	if err != nil {
		return fmt.Errorf("palltoallv: %w", err)
	}
	for rep, gen := range []int{6, 7} {
		if rep == 1 {
			copy(vsb, a2aSrc(gen))
		}
		if err := vp.Start(); err != nil {
			return err
		}
		if _, err := vp.Wait(); err != nil {
			return err
		}
		if err := cmp("palltoallv", a2aWant(gen), pV); err != nil {
			return err
		}
	}

	// --- ReduceScatter ---
	rsc := vSizes(rng, np, tc.maxCount)
	total := 0
	off := 0
	for r, n := range rsc {
		if r < me {
			off += n
		}
		total += n
	}
	rin := make([]T, total)
	for i := range rin {
		rin[i] = val(8, me, i)
	}
	rsWant := func(gen int) []T {
		want := make([]T, rsc[me])
		for i := range want {
			var sum T
			for r := 0; r < np; r++ {
				sum += val(gen, r, off+i)
			}
			want[i] = sum
		}
		return want
	}
	bR, nR, pR := blank(rsc[me]), blank(rsc[me]), blank(rsc[me])
	if err := w.ReduceScatter(rin, 0, bR, 0, rsc, dt, SumOp); err != nil {
		return fmt.Errorf("reduce_scatter: %w", err)
	}
	if err := cmp("reduce_scatter", rsWant(8), bR); err != nil {
		return err
	}
	rr, err := w.IreduceScatter(rin, 0, nR, 0, rsc, dt, SumOp)
	if err != nil {
		return fmt.Errorf("ireduce_scatter: %w", err)
	}
	if _, err := rr.Wait(); err != nil {
		return fmt.Errorf("ireduce_scatter: %w", err)
	}
	if err := cmp("ireduce_scatter", bR, nR); err != nil {
		return err
	}
	rp, err := w.CommitReduceScatter(rin, 0, pR, 0, rsc, dt, SumOp)
	if err != nil {
		return fmt.Errorf("preduce_scatter: %w", err)
	}
	for rep, gen := range []int{8, 9} {
		if rep == 1 {
			for i := range rin {
				rin[i] = val(gen, me, i)
			}
		}
		if err := rp.Start(); err != nil {
			return err
		}
		if _, err := rp.Wait(); err != nil {
			return err
		}
		if err := cmp("preduce_scatter", rsWant(gen), pR); err != nil {
			return err
		}
	}

	// --- All five V schedules in flight at once, drained as one mixed
	// batch (plus a barrier), exercising per-operation tag isolation. ---
	cG, cS, cA := blank(gspan), blank(sc[me]), blank(aspan)
	cV, cR := blank(rspans[me]), blank(rsc[me])
	var cGbuf []T
	if me == root {
		cGbuf = cG
	}
	var reqs []AnyRequest
	add := func(r *CollRequest, err error) error {
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
		return nil
	}
	if err := add(w.Igatherv(gs, 0, gc[me], dt, cGbuf, 0, gc, gd, dt, root)); err != nil {
		return err
	}
	if err := add(w.Iscatterv(src, 0, sc, sd, dt, cS, 0, sc[me], dt, root)); err != nil {
		return err
	}
	if err := add(w.Ibarrier()); err != nil {
		return err
	}
	if err := add(w.Iallgatherv(as, 0, ac[me], dt, cA, 0, ac, ad, dt)); err != nil {
		return err
	}
	if err := add(w.Ialltoallv(vsb, 0, M[me], sdispls[me], dt, cV, 0, col(me), rdispls[me], dt)); err != nil {
		return err
	}
	if err := add(w.IreduceScatter(rin, 0, cR, 0, rsc, dt, SumOp)); err != nil {
		return err
	}
	if _, err := WaitAllRequests(reqs); err != nil {
		return fmt.Errorf("v mixed batch: %w", err)
	}
	if me == root {
		if err := cmp("concurrent gatherv", gatherWant(1), cG); err != nil {
			return err
		}
	}
	if err := cmp("concurrent scatterv", scatterWant(3), cS); err != nil {
		return err
	}
	if err := cmp("concurrent allgatherv", allWant(5), cA); err != nil {
		return err
	}
	if err := cmp("concurrent alltoallv", a2aWant(7), cV); err != nil {
		return err
	}
	return cmp("concurrent reduce_scatter", rsWant(9), cR)
}

// runVcollCase dispatches a case to a randomly selected datatype.
func runVcollCase(w *Comm, tc vcollCase) error {
	switch tc.seed % 3 {
	case 0:
		return checkVcoll[int32](w, Int, tc)
	case 1:
		return checkVcoll[int64](w, Long, tc)
	default:
		return checkVcoll[float64](w, Double, tc)
	}
}

// TestVcollEquivalenceProperty is the V-family equivalence property on the
// chan device: randomized np (including non-powers-of-two and 1), counts
// (including zero-count ranks), permuted gapped displacements, datatype
// and algorithm family.
func TestVcollEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	nps := []int{1, 2, 3, 4, 5, 7, 8}
	for trial := 0; trial < 10; trial++ {
		np := nps[rng.Intn(len(nps))]
		tc := vcollCase{
			np:       np,
			seed:     rng.Int63(),
			alg:      collAlgs[rng.Intn(len(collAlgs))],
			maxCount: 1 + rng.Intn(40),
		}
		runRanks(t, np, func(w *Comm) error { return runVcollCase(w, tc) })
	}
}

// TestVcollEquivalenceLarge pushes the V family past the large-message
// threshold on the chan device, forcing the zero-staging window ring
// (allgatherv) and ring reduce-scatter, with block sizes crossing the
// eager/rendezvous boundary.
func TestVcollEquivalenceLarge(t *testing.T) {
	for _, np := range []int{3, 5} {
		tc := vcollCase{np: np, seed: 424243, alg: CollAlgAuto, maxCount: 9 << 10}
		runRanks(t, np, func(w *Comm) error { return runVcollCase(w, tc) })
	}
}

// TestVcollEquivalenceHyb runs the V equivalence property over the hybrid
// device's hub-routed path, including a forced-ring case.
func TestVcollEquivalenceHyb(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i, np := range []int{2, 3, 5} {
		tc := vcollCase{
			np:       np,
			seed:     rng.Int63(),
			alg:      collAlgs[i%len(collAlgs)],
			maxCount: 1 + rng.Intn(60),
		}
		runRanksHyb(t, np, func(w *Comm) error { return runVcollCase(w, tc) })
	}
}

// TestVcollObjectPaths drives the variable-size (Object) paths of the V
// schedules: gatherv, scatterv, allgatherv and alltoallv with per-rank
// string payloads of varying counts.
func TestVcollObjectPaths(t *testing.T) {
	runRanks(t, 3, func(w *Comm) error {
		np, me := w.Size(), w.Rank()
		counts := []int{2, 0, 1}
		displs := []int{3, 0, 1}
		span := 5
		obj := func(r, i int) any { return fmt.Sprintf("obj-%d-%d", r, i) }
		sbuf := make([]any, counts[me])
		for i := range sbuf {
			sbuf[i] = obj(me, i)
		}
		check := func(name string, got []any) error {
			for r := 0; r < np; r++ {
				for i := 0; i < counts[r]; i++ {
					if got[displs[r]+i] != obj(r, i) {
						return fmt.Errorf("%s: [%d] = %v, want %v", name, displs[r]+i, got[displs[r]+i], obj(r, i))
					}
				}
			}
			return nil
		}
		gbuf := make([]any, span)
		if err := w.Gatherv(sbuf, 0, counts[me], Object, gbuf, 0, counts, displs, Object, 1); err != nil {
			return err
		}
		if me == 1 {
			if err := check("gatherv", gbuf); err != nil {
				return err
			}
		}
		abuf := make([]any, span)
		if err := w.Allgatherv(sbuf, 0, counts[me], Object, abuf, 0, counts, displs, Object); err != nil {
			return err
		}
		if err := check("allgatherv", abuf); err != nil {
			return err
		}
		// Scatterv the gathered layout back out from rank 1.
		rbuf := make([]any, counts[me])
		if err := w.Scatterv(gbuf, 0, counts, displs, Object, rbuf, 0, counts[me], Object, 1); err != nil {
			return err
		}
		for i := 0; i < counts[me]; i++ {
			if rbuf[i] != obj(me, i) {
				return fmt.Errorf("scatterv: [%d] = %v", i, rbuf[i])
			}
		}
		// Alltoallv: rank s sends one string to every d >= s.
		sc := make([]int, np)
		sd := make([]int, np)
		for d := range sc {
			if d >= me {
				sc[d] = 1
			}
			sd[d] = d
		}
		rc := make([]int, np)
		rd := make([]int, np)
		for s := range rc {
			if s <= me {
				rc[s] = 1
			}
			rd[s] = s
		}
		vs := make([]any, np)
		for d := 0; d < np; d++ {
			vs[d] = obj(me, 100+d)
		}
		vr := make([]any, np)
		if err := w.Alltoallv(vs, 0, sc, sd, Object, vr, 0, rc, rd, Object); err != nil {
			return err
		}
		for s := 0; s <= me; s++ {
			if vr[s] != obj(s, 100+me) {
				return fmt.Errorf("alltoallv: from %d = %v", s, vr[s])
			}
		}
		return nil
	})
}

// TestPcollStartWhileActive pins the persistent-collective activation
// contract: Wait before any Start fails, completed activations restart
// cleanly, and Start while the previous activation is still in flight
// fails with ErrOther (checked on an activation that provably cannot
// complete: its peer never starts).
func TestPcollStartWhileActive(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		in := []int32{int32(w.Rank() + 1)}
		out := make([]int32, 1)
		p, err := w.CommitAllreduce(in, 0, out, 0, 1, Int, SumOp)
		if err != nil {
			return err
		}
		if _, err := p.Wait(); !errors.Is(err, ErrOther) {
			return fmt.Errorf("wait before start: got %v, want ErrOther", err)
		}
		for rep := 0; rep < 2; rep++ {
			if err := p.Start(); err != nil {
				return err
			}
			if _, err := p.Wait(); err != nil {
				return err
			}
			if err := expect(out[0] == 3, "rep %d: allreduce got %d", rep, out[0]); err != nil {
				return err
			}
		}
		// Start-while-active, deterministically: on a duplicated
		// communicator only rank 0 activates, so the activation can never
		// complete and the second Start must be rejected.
		c, err := w.Dup()
		if err != nil {
			return err
		}
		var q *PcollRequest
		if w.Rank() == 0 {
			if q, err = c.CommitAllreduce(in, 0, out, 0, 1, Int, SumOp); err != nil {
				return err
			}
			if err := q.Start(); err != nil {
				return err
			}
			if err := q.Start(); !errors.Is(err, ErrOther) {
				return fmt.Errorf("start while active: got %v, want ErrOther", err)
			}
		}
		c.Free()
		if w.Rank() == 0 {
			if _, err := q.Wait(); !errors.Is(err, ErrComm) {
				return fmt.Errorf("wait after free: got %v, want ErrComm", err)
			}
		}
		return nil
	})
}

// TestPcollFreeFailsInflight frees the communicator while a persistent
// collective activation can never complete: the parked waiter must
// unblock with ErrComm, and both Start and Commit on the freed
// communicator must fail with ErrComm.
func TestPcollFreeFailsInflight(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		c, err := w.Dup()
		if err != nil {
			return err
		}
		var p *PcollRequest
		if w.Rank() == 0 {
			// Only rank 0 starts the activation: it can never complete.
			in := []int32{1}
			out := make([]int32, 1)
			if p, err = c.CommitAllreduce(in, 0, out, 0, 1, Int, SumOp); err != nil {
				return err
			}
			if err := p.Start(); err != nil {
				return err
			}
		}
		c.Free()
		if w.Rank() == 0 {
			if _, err := p.Wait(); !errors.Is(err, ErrComm) {
				return fmt.Errorf("wait after Free: got %v, want ErrComm", err)
			}
			if err := p.Start(); !errors.Is(err, ErrComm) {
				return fmt.Errorf("start on freed comm: got %v, want ErrComm", err)
			}
		}
		if _, err := c.CommitBarrier(); !errors.Is(err, ErrComm) {
			return fmt.Errorf("commit on freed comm: got %v, want ErrComm", err)
		}
		return nil
	})
}

// TestPcollMixedWaitAll drains a persistent collective activation, a
// plain collective and a point-to-point exchange through one
// WaitAllRequests batch.
func TestPcollMixedWaitAll(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		peer := 1 - w.Rank()
		out := []int32{int32(10 + w.Rank())}
		in := make([]int32, 1)
		sum := make([]int32, 1)
		psum := make([]int32, 1)
		p, err := w.CommitAllreduce(out, 0, psum, 0, 1, Int, SumOp)
		if err != nil {
			return err
		}
		if err := p.Start(); err != nil {
			return err
		}
		sr, err := w.Isend(out, 0, 1, Int, peer, 5)
		if err != nil {
			return err
		}
		rr, err := w.Irecv(in, 0, 1, Int, peer, 5)
		if err != nil {
			return err
		}
		cr, err := w.Iallreduce(out, 0, sum, 0, 1, Int, SumOp)
		if err != nil {
			return err
		}
		if _, err := WaitAllRequests([]AnyRequest{sr, rr, cr, p}); err != nil {
			return err
		}
		if err := expect(in[0] == int32(10+peer), "p2p got %d", in[0]); err != nil {
			return err
		}
		if err := expect(sum[0] == 21, "allreduce got %d", sum[0]); err != nil {
			return err
		}
		return expect(psum[0] == 21, "persistent allreduce got %d", psum[0])
	})
}

// TestPcollClassicFamily commits persistent forms of the fixed-count
// collectives (bcast, gather, scatter, allgather, alltoall, reduce, scan,
// barrier) and runs each twice with mutated inputs, checking ground truth
// both times.
func TestPcollClassicFamily(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		np, me := w.Size(), w.Rank()
		const n = 5
		val := func(gen, rank, i int) int64 { return int64(gen*1000 + rank*10 + i) }

		bb := make([]int64, n)
		pb, err := w.CommitBcast(bb, 0, n, Long, 2)
		if err != nil {
			return err
		}
		gsrc := make([]int64, n)
		gdst := make([]int64, np*n)
		pg, err := w.CommitGather(gsrc, 0, n, Long, gdst, 0, n, Long, 1)
		if err != nil {
			return err
		}
		ssrc := make([]int64, np*n)
		sdst := make([]int64, n)
		ps, err := w.CommitScatter(ssrc, 0, n, Long, sdst, 0, n, Long, 0)
		if err != nil {
			return err
		}
		adst := make([]int64, np*n)
		pa, err := w.CommitAllgather(gsrc, 0, n, Long, adst, 0, n, Long)
		if err != nil {
			return err
		}
		tsrc := make([]int64, np*n)
		tdst := make([]int64, np*n)
		pt, err := w.CommitAlltoall(tsrc, 0, n, Long, tdst, 0, n, Long)
		if err != nil {
			return err
		}
		rdst := make([]int64, n)
		pr, err := w.CommitReduce(gsrc, 0, rdst, 0, n, Long, SumOp, 3)
		if err != nil {
			return err
		}
		cdst := make([]int64, n)
		pc, err := w.CommitScan(gsrc, 0, cdst, 0, n, Long, SumOp)
		if err != nil {
			return err
		}
		pbar, err := w.CommitBarrier()
		if err != nil {
			return err
		}

		for gen := 0; gen < 2; gen++ {
			if me == 2 {
				for i := range bb {
					bb[i] = val(gen, 2, i)
				}
			}
			for i := range gsrc {
				gsrc[i] = val(gen, me, i)
			}
			for r := 0; r < np; r++ {
				for i := 0; i < n; i++ {
					ssrc[r*n+i] = val(gen, r, i)
					tsrc[r*n+i] = val(gen, me*np+r, i)
				}
			}
			for _, p := range []*PcollRequest{pb, pg, ps, pa, pt, pr, pc, pbar} {
				if err := p.Start(); err != nil {
					return err
				}
				if _, err := p.Wait(); err != nil {
					return err
				}
			}
			for i := 0; i < n; i++ {
				if bb[i] != val(gen, 2, i) {
					return fmt.Errorf("gen %d: pbcast[%d] = %d", gen, i, bb[i])
				}
				if sdst[i] != val(gen, me, i) {
					return fmt.Errorf("gen %d: pscatter[%d] = %d", gen, i, sdst[i])
				}
				var sum, prefix int64
				for r := 0; r < np; r++ {
					sum += val(gen, r, i)
					if r <= me {
						prefix += val(gen, r, i)
					}
				}
				if me == 3 && rdst[i] != sum {
					return fmt.Errorf("gen %d: preduce[%d] = %d, want %d", gen, i, rdst[i], sum)
				}
				if cdst[i] != prefix {
					return fmt.Errorf("gen %d: pscan[%d] = %d, want %d", gen, i, cdst[i], prefix)
				}
				for r := 0; r < np; r++ {
					if me == 1 && gdst[r*n+i] != val(gen, r, i) {
						return fmt.Errorf("gen %d: pgather[%d][%d] = %d", gen, r, i, gdst[r*n+i])
					}
					if adst[r*n+i] != val(gen, r, i) {
						return fmt.Errorf("gen %d: pallgather[%d][%d] = %d", gen, r, i, adst[r*n+i])
					}
					if tdst[r*n+i] != val(gen, r*np+me, i) {
						return fmt.Errorf("gen %d: palltoall[%d][%d] = %d", gen, r, i, tdst[r*n+i])
					}
				}
			}
		}
		return nil
	})
}

// TestVcollZeroCountExemptDispls pins the exemption checkVSpec documents:
// a zero-count block is never accessed, so whatever displacement rides
// along with it — negative, out of range — must not fail the collective,
// including for the caller's own block in the finish hooks.
func TestVcollZeroCountExemptDispls(t *testing.T) {
	runRanks(t, 1, func(w *Comm) error {
		var none []int32
		if err := w.Gatherv(none, 0, 0, Int, none, 0, []int{0}, []int{99}, Int, 0); err != nil {
			return fmt.Errorf("gatherv: %w", err)
		}
		if err := w.Scatterv(none, 0, []int{0}, []int{-5}, Int, none, 0, 0, Int, 0); err != nil {
			return fmt.Errorf("scatterv: %w", err)
		}
		if err := w.Allgatherv(none, 0, 0, Int, none, 0, []int{0}, []int{1 << 30}, Int); err != nil {
			return fmt.Errorf("allgatherv: %w", err)
		}
		if err := w.Alltoallv(none, 0, []int{0}, []int{-3}, Int, none, 0, []int{0}, []int{7}, Int); err != nil {
			return fmt.Errorf("alltoallv: %w", err)
		}
		if err := w.ReduceScatter(none, 0, none, 0, []int{0}, Int, SumOp); err != nil {
			return fmt.Errorf("reduce_scatter: %w", err)
		}
		return nil
	})
	// Multi-rank: one rank's block is empty with a garbage displacement;
	// the other blocks must land correctly around it.
	runRanks(t, 3, func(w *Comm) error {
		me := w.Rank()
		counts := []int{2, 0, 1}
		displs := []int{0, -9, 3}
		mine := make([]int32, counts[me])
		for i := range mine {
			mine[i] = int32(me*10 + i)
		}
		got := make([]int32, 4)
		if err := w.Allgatherv(mine, 0, counts[me], Int, got, 0, counts, displs, Int); err != nil {
			return fmt.Errorf("allgatherv: %w", err)
		}
		if got[0] != 0 || got[1] != 1 || got[3] != 20 {
			return fmt.Errorf("allgatherv: got %v", got)
		}
		var root []int32
		if me == 0 {
			root = make([]int32, 4)
		}
		if err := w.Gatherv(mine, 0, counts[me], Int, root, 0, counts, displs, Int, 0); err != nil {
			return fmt.Errorf("gatherv: %w", err)
		}
		if me == 0 && (root[0] != 0 || root[1] != 1 || root[3] != 20) {
			return fmt.Errorf("gatherv: got %v", root)
		}
		return nil
	})
}
