package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mpj/internal/device"
	"mpj/internal/fault"
	"mpj/internal/transport"
)

// needAreas skips a test on a system without shared-memory areas.
func needAreas(t testing.TB) {
	t.Helper()
	a, err := transport.NewArea(hostAreaSize(2))
	if err != nil {
		t.Skipf("no host areas here: %v", err)
	}
	a.Unmap()
}

// noHostFault plans host areas through the test seam and refuses nothing.
func noHostFault(int) error { return nil }

// hostRanks runs fn on np goroutine ranks of a channel mesh whose host
// areas the test seam plans, with fault's refusals (nil: none), counting
// profilers on and the large-message threshold at 1 KiB.
func hostRanks(t *testing.T, np int, fault func(rank int) error, fn func(w *Comm) error) {
	t.Helper()
	needAreas(t)
	eps := transport.NewChanMesh(np)
	runRanksCounted(t, np, func(i int) (transport.Transport, error) { return eps[i], nil }, true, func(w *Comm) error {
		w.proc.hostFault = noHostFault
		if fault != nil {
			w.proc.hostFault = fault
		}
		w.proc.largeMin = 1 << 10
		return fn(w)
	})
}

// rawBytes is the memory of a slice of a raw datatype, for comparing bits.
func rawBytes(dt Datatype, buf any, count int) []byte {
	if count == 0 {
		return nil
	}
	return vWindow(dt, buf, 0, count)
}

// hostOps is the number of host-path allreduces on w so far.
func hostOps(w *Comm) int64 { return w.ProfSnapshot().HostOps }

// ringBits runs one allreduce on the forced large family — the message
// schedule a host walk replaces — into want.
func ringBits(w *Comm, sbuf any, want any, count int, dt Datatype, op *Op) error {
	w.SetCollAlg(CollAlgRing)
	defer w.SetCollAlg(CollAlgAuto)
	req, err := w.Iallreduce(sbuf, 0, want, 0, count, dt, op)
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return err
}

// checkHostBits runs one Allreduce and one Iallreduce of count random
// elements through the host area and compares their bits with the forced
// large family's on the same communicator; with aliased, also InPlace and
// the aliased layouts.
func checkHostBits[T any](w *Comm, op *Op, dt Datatype, count int, aliased bool, val func(*rand.Rand) T) error {
	rng := rand.New(rand.NewSource(int64(w.Rank()*7919 + count)))
	in := make([]T, count)
	for i := range in {
		in[i] = val(rng)
	}
	want := make([]T, count)
	if err := ringBits(w, in, want, count, dt, op); err != nil {
		return err
	}
	where := fmt.Sprintf("np=%d %s %s count=%d", w.Size(), op.Name(), dt.Name(), count)
	run := func(lay string, sbuf any, soff int, rbuf []T, roff int, blocking bool) error {
		before := hostOps(w)
		var err error
		if blocking {
			err = w.Allreduce(sbuf, soff, rbuf, roff, count, dt, op)
		} else {
			err = waitColl(w.Iallreduce(sbuf, soff, rbuf, roff, count, dt, op))
		}
		if err != nil {
			return fmt.Errorf("%s %s: %w", where, lay, err)
		}
		if got := hostOps(w) - before; got != 1 {
			return fmt.Errorf("%s %s: %d host operations, want 1", where, lay, got)
		}
		if !bytes.Equal(rawBytes(dt, rbuf[roff:], count), rawBytes(dt, want, count)) {
			return fmt.Errorf("%s %s: bits differ from the ring schedule's", where, lay)
		}
		return nil
	}
	if err := run("disjoint", in, 0, make([]T, count), 0, true); err != nil {
		return err
	}
	if err := run("Iallreduce", in, 0, make([]T, count), 0, false); err != nil {
		return err
	}
	if !aliased {
		return nil
	}
	if err := run("InPlace", InPlace, 0, append([]T(nil), in...), 0, true); err != nil {
		return err
	}
	for _, lay := range aliasLayouts {
		so, ro := lay.so(count), lay.ro(count)
		back := make([]T, 2*count+2)
		copy(back[so:], in)
		if err := run(lay.name, back, so, back, ro, true); err != nil {
			return err
		}
	}
	return nil
}

// waitColl completes a started collective.
func waitColl(r *CollRequest, err error) error {
	if err != nil {
		return err
	}
	_, err = r.Wait()
	return err
}

// TestHostPathSameBits: the host walk returns exactly the bits the forced
// large family returns on the same communicator — the halving tree's
// association at powers of two, the ring's order otherwise — through
// Allreduce and Iallreduce, for every predefined op on
// float64 (random non-integer values), int64, int32 and bool, at np 2…8,
// with counts that divide neither np nor the chunk, one chunk and three,
// and InPlace and the aliased layouts for a float and an integer op.
func TestHostPathSameBits(t *testing.T) {
	f64 := func(r *rand.Rand) float64 { return r.Float64()*2000 - 1000 }
	prod := func(r *rand.Rand) float64 { return 0.5 + r.Float64() } // no overflow
	i64 := func(r *rand.Rand) int64 { return r.Int63() - 1<<62 }
	i32 := func(r *rand.Rand) int32 { return int32(r.Uint32()) }
	boo := func(r *rand.Rand) bool { return r.Intn(4) != 0 }
	for np := 2; np <= 8; np++ {
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			hostRanks(t, np, nil, func(w *Comm) error {
				for _, count := range []int{1001, 3*hostChunk/8 + 13} {
					for _, op := range []*Op{SumOp, MaxOp, MinOp} {
						if err := checkHostBits(w, op, Double, count, op == SumOp, f64); err != nil {
							return err
						}
					}
					if err := checkHostBits(w, ProdOp, Double, count, false, prod); err != nil {
						return err
					}
					for _, op := range []*Op{SumOp, ProdOp, MaxOp, MinOp, BAndOp, BOrOp, BXorOp} {
						if err := checkHostBits(w, op, Long, count, false, i64); err != nil {
							return err
						}
						if err := checkHostBits(w, op, Int, count, op == BXorOp, i32); err != nil {
							return err
						}
					}
					for _, op := range []*Op{LAndOp, LOrOp, LXorOp} {
						if err := checkHostBits(w, op, Boolean, 8*count, false, boo); err != nil {
							return err
						}
					}
				}
				if p := w.allreducePath(); p != "host" {
					return fmt.Errorf("path %q, want host", p)
				}
				return nil
			})
		})
	}
}

// TestHostAreaCounters: a 1 MiB float64 Allreduce at np=4 walks four
// chunks in eight rounds and sends no message; this rank copies its 768 KiB
// of the others' shares and its 256 KiB of folded share into the area.
func TestHostAreaCounters(t *testing.T) {
	const n = 1 << 17
	hostRanks(t, 4, nil, func(w *Comm) error {
		in, out := make([]float64, n), make([]float64, n)
		for i := range in {
			in[i] = float64(w.Rank() + i)
		}
		if err := w.Allreduce(in, 0, out, 0, n, Double, SumOp); err != nil { // sets the area up
			return err
		}
		a := w.ProfSnapshot()
		const ops = 3
		for i := 0; i < ops; i++ {
			if err := w.Allreduce(in, 0, out, 0, n, Double, SumOp); err != nil {
				return err
			}
		}
		b := w.ProfSnapshot()
		for i, v := range out {
			if want := float64(6 + 4*i); v != want {
				return fmt.Errorf("element %d = %v, want %v", i, v, want)
			}
		}
		if err := expect(b.HostOps-a.HostOps == ops && b.HostChunks-a.HostChunks == 4*ops && b.HostBytes-a.HostBytes == ops*8*n,
			"host ops %d, chunks %d, bytes %d; want %d, %d, %d", b.HostOps-a.HostOps, b.HostChunks-a.HostChunks, b.HostBytes-a.HostBytes, ops, 4*ops, ops*8*n); err != nil {
			return err
		}
		return expect(b.SentMsgs() == a.SentMsgs() && b.CollRounds-a.CollRounds == 2*4*ops,
			"%d messages and %d rounds during host operations, want 0 and %d", b.SentMsgs()-a.SentMsgs(), b.CollRounds-a.CollRounds, 2*4*ops)
	})
}

// TestHostAreaIallreduce: once a blocking Allreduce has set the area up, a
// 1 MiB float64 Iallreduce at np=3 and 4 walks through it — no message,
// exactly two rounds per chunk — with the forced large family's bits.
// Three CommitAllreduce activations keep their message rounds (see
// CommitAllreduce) with the same bits.
func TestHostAreaIallreduce(t *testing.T) {
	const n = 1 << 17
	for _, np := range []int{3, 4} {
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			hostRanks(t, np, nil, func(w *Comm) error {
				rng := rand.New(rand.NewSource(int64(w.Rank()) + 1))
				in, want, out := make([]float64, n), make([]float64, n), make([]float64, n)
				for i := range in {
					in[i] = rng.Float64()*2000 - 1000
				}
				if err := w.Allreduce(in, 0, out, 0, n, Double, SumOp); err != nil { // sets the area up
					return err
				}
				if err := ringBits(w, in, want, n, Double, SumOp); err != nil {
					return err
				}
				same := func(what string) error {
					if !bytes.Equal(rawBytes(Double, out, n), rawBytes(Double, want, n)) {
						return fmt.Errorf("%s: bits differ from the ring schedule's", what)
					}
					clear(out)
					return nil
				}
				a := w.ProfSnapshot()
				if err := waitColl(w.Iallreduce(in, 0, out, 0, n, Double, SumOp)); err != nil {
					return err
				}
				b := w.ProfSnapshot()
				if err := expect(b.HostOps-a.HostOps == 1 && b.SentMsgs() == a.SentMsgs() && b.CollRounds-a.CollRounds == 2*4,
					"Iallreduce: %d host operations, %d messages, %d rounds; want 1, 0, 8", b.HostOps-a.HostOps, b.SentMsgs()-a.SentMsgs(), b.CollRounds-a.CollRounds); err != nil {
					return err
				}
				if err := same("Iallreduce"); err != nil {
					return err
				}
				p, err := w.CommitAllreduce(in, 0, out, 0, n, Double, SumOp)
				if err != nil {
					return err
				}
				for k := 0; k < 3; k++ {
					a := w.ProfSnapshot()
					if err := p.Start(); err != nil {
						return err
					}
					if _, err := p.Wait(); err != nil {
						return err
					}
					b := w.ProfSnapshot()
					if err := expect(b.HostOps == a.HostOps && b.SentMsgs() > a.SentMsgs(),
						"activation %d: %d host operations, %d messages; want 0, > 0", k, b.HostOps-a.HostOps, b.SentMsgs()-a.SentMsgs()); err != nil {
						return err
					}
					if err := same(fmt.Sprintf("activation %d", k)); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// TestHostAreaPersistentOrder: two persistent allreduces on a communicator
// with a host area, started in opposite orders on the two members, each
// return the forced large family's bits.
func TestHostAreaPersistentOrder(t *testing.T) {
	const n = 3*hostChunk/8 + 5
	hostRanks(t, 2, nil, func(w *Comm) error {
		var ins, outs, wants [2][]float64
		for k := range ins {
			rng := rand.New(rand.NewSource(int64(10*k + w.Rank())))
			ins[k], outs[k], wants[k] = make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range ins[k] {
				ins[k][i] = rng.Float64()*2000 - 1000
			}
			if err := ringBits(w, ins[k], wants[k], n, Double, SumOp); err != nil {
				return err
			}
		}
		if err := w.Allreduce(ins[0], 0, outs[0], 0, n, Double, SumOp); err != nil { // sets the area up
			return err
		}
		var ps [2]*PcollRequest
		for k := range ps {
			p, err := w.CommitAllreduce(ins[k], 0, outs[k], 0, n, Double, SumOp)
			if err != nil {
				return err
			}
			ps[k] = p
		}
		for round := 0; round < 2; round++ {
			for k := range ps {
				if err := ps[(k+w.Rank())%2].Start(); err != nil {
					return err
				}
			}
			if _, err := WaitAllRequests([]AnyRequest{ps[0], ps[1]}); err != nil {
				return err
			}
			for k := range ps {
				if !bytes.Equal(rawBytes(Double, outs[k], n), rawBytes(Double, wants[k], n)) {
					return fmt.Errorf("round %d: allreduce %d's bits differ from the ring schedule's", round, k)
				}
				clear(outs[k])
			}
		}
		return nil
	})
}

// TestHostAreaQueued: three Iallreduces in flight on one area at once,
// completed in a different order on every member, walk in call order and
// each returns its own sum.
func TestHostAreaQueued(t *testing.T) {
	const np, n, ops = 4, 3*hostChunk/8 + 5, 3
	hostRanks(t, np, nil, func(w *Comm) error {
		in, out := make([]int64, n), make([]int64, n)
		if err := w.Allreduce(in, 0, out, 0, n, Long, SumOp); err != nil { // sets the area up
			return err
		}
		before := hostOps(w)
		var reqs [ops]*CollRequest
		var outs [ops][]int64
		for k := range reqs {
			in := make([]int64, n)
			for i := range in {
				in[i] = int64(1000*k + w.Rank()*n + i)
			}
			outs[k] = make([]int64, n)
			r, err := w.Iallreduce(in, 0, outs[k], 0, n, Long, SumOp)
			if err != nil {
				return err
			}
			reqs[k] = r
		}
		for j := range reqs {
			if _, err := reqs[(ops-1-j+w.Rank())%ops].Wait(); err != nil {
				return err
			}
		}
		for k := range outs {
			for i, v := range outs[k] {
				if want := int64(np*(1000*k+i) + n*np*(np-1)/2); v != want {
					return fmt.Errorf("op %d element %d = %d, want %d", k, i, v, want)
				}
			}
		}
		return expect(hostOps(w)-before == ops, "%d host operations, want %d", hostOps(w)-before, ops)
	})
}

// TestHostAreaRefused: a refusal of any member's part of the set-up — the
// creator's memory file, a mapper's /proc access or token check — leaves
// every member on the schedule for good, with the right result, and the
// status saying why.
func TestHostAreaRefused(t *testing.T) {
	const np, n = 4, 5000
	for _, row := range []struct {
		name   string
		victim int
		err    string
	}{
		{"memfd", 0, "memfd_create: function not implemented"},
		{"proc", 2, "open /proc/1/fd/9: permission denied"},
		{"token", 3, "/proc/1/fd/9 holds another token"},
	} {
		t.Run(row.name, func(t *testing.T) {
			fault := func(rank int) error {
				if rank == row.victim {
					return errors.New(row.err)
				}
				return nil
			}
			hostRanks(t, np, fault, func(w *Comm) error {
				in, out := make([]int64, n), make([]int64, n)
				for i := range in {
					in[i] = int64(w.Rank()*n + i)
				}
				for op := 0; op < 3; op++ {
					if err := w.Allreduce(in, 0, out, 0, n, Long, SumOp); err != nil {
						return err
					}
					for i, v := range out {
						if want := int64(np*i + n*np*(np-1)/2); v != want {
							return fmt.Errorf("op %d element %d = %d, want %d", op, i, v, want)
						}
					}
				}
				if ops := hostOps(w); ops != 0 {
					return fmt.Errorf("%d host operations on a refused area", ops)
				}
				why := "another member refused"
				switch {
				case w.Rank() == row.victim:
					why = row.err
				case row.victim == 0:
					why = "the lowest member could not create it"
				}
				return expect(w.allreducePath() == "host refused: "+why, "path %q, want refused: %s", w.allreducePath(), why)
			})
		})
	}
}

// TestHostAreaMemberKilled: a member that dies mid-chunk — once the
// chunk's first barrier has passed, as its fold round posts — makes every
// survivor's Allreduce return a RankFailedError naming it within
// hostFailDeadline.
func TestHostAreaMemberKilled(t *testing.T) {
	const np, victim, n, hostFailDeadline = 4, 2, 3 * hostChunk / 8, 5 * time.Second
	needAreas(t)
	dom := fault.NewDomain()
	var killed time.Time
	var mu sync.Mutex
	chaosJob(t, "chan", np, dom, nil, func(rank int, w *Comm) error {
		w.proc.hostFault = noHostFault
		in, out := make([]float64, n), make([]float64, n)
		if err := w.Allreduce(in, 0, out, 0, n, Double, SumOp); err != nil { // sets the area up
			return err
		}
		if rank == victim {
			w.Device().SetRoundHook(func(ctx, tag, round int) {
				if ctx == w.coll && round == 3 { // chunk 1's fold
					mu.Lock()
					killed = time.Now()
					mu.Unlock()
					dom.Kill(victim)
				}
			})
		}
		err := w.Allreduce(in, 0, out, 0, n, Double, SumOp)
		if rank == victim {
			return nil
		}
		mu.Lock()
		took := time.Since(killed)
		mu.Unlock()
		if fr, ok := device.FailedRank(err); !ok || fr != victim {
			return fmt.Errorf("allreduce returned %v, want a RankFailedError for rank %d", err, victim)
		}
		if took > hostFailDeadline {
			return fmt.Errorf("the failure took %v to surface, past %v", took, hostFailDeadline)
		}
		// The area is broken for good: the next operation says so at once.
		if err2 := w.Allreduce(in, 0, out, 0, n, Double, SumOp); !errors.Is(err2, ErrRankFailed) {
			return fmt.Errorf("the next allreduce returned %v, want ErrRankFailed", err2)
		}
		return nil
	})
}

// TestHostAreaRevoked: a member revoking the communicator while the others
// wait at a host-area barrier ends their Allreduce with ErrRevoked.
func TestHostAreaRevoked(t *testing.T) {
	const np, n = 4, 4096
	hostRanks(t, np, nil, func(w *Comm) error {
		c, err := w.Dup()
		if err != nil {
			return err
		}
		defer c.Free()
		in, out := make([]int32, n), make([]int32, n)
		if err := c.Allreduce(in, 0, out, 0, n, Int, SumOp); err != nil {
			return err
		}
		if w.Rank() == 0 {
			time.Sleep(20 * time.Millisecond) // the others are waiting by now
			return c.Revoke()
		}
		if err := c.Allreduce(in, 0, out, 0, n, Int, SumOp); !errors.Is(err, ErrRevoked) {
			return fmt.Errorf("allreduce returned %v, want ErrRevoked", err)
		}
		return nil
	})
}

// TestHostAreaTwoComms: two communicators running host-path allreduces at
// the same time, each from its own goroutine on every rank, keep apart.
func TestHostAreaTwoComms(t *testing.T) {
	const np, n, ops = 4, 3 * hostChunk / 8, 10
	hostRanks(t, np, nil, func(w *Comm) error {
		var comms [2]*Comm
		for i := range comms {
			c, err := w.Dup()
			if err != nil {
				return err
			}
			defer c.Free()
			comms[i] = c
		}
		errs := make(chan error, len(comms))
		for k, c := range comms {
			go func() {
				in, out := make([]int64, n), make([]int64, n)
				for op := 0; op < ops; op++ {
					for i := range in {
						in[i] = int64((k+1)*1000*op + c.Rank()*n + i)
					}
					if err := c.Allreduce(in, 0, out, 0, n, Long, SumOp); err != nil {
						errs <- err
						return
					}
					for i, v := range out {
						if want := int64(np*((k+1)*1000*op+i) + n*np*(np-1)/2); v != want {
							errs <- fmt.Errorf("comm %d op %d element %d = %d, want %d", k, op, i, v, want)
							return
						}
					}
				}
				errs <- expect(hostOps(c) == ops, "comm %d: %d host operations, want %d", k, hostOps(c), ops)
			}()
		}
		return errors.Join(<-errs, <-errs)
	})
}

// TestHostAreaFreeReleases: Free unmaps a communicator's area, and the
// world's own area goes with the device.
func TestHostAreaFreeReleases(t *testing.T) {
	const n = 2048
	hostRanks(t, 3, nil, func(w *Comm) error {
		c, err := w.Dup()
		if err != nil {
			return err
		}
		in, out := make([]float64, n), make([]float64, n)
		if err := c.Allreduce(in, 0, out, 0, n, Double, SumOp); err != nil {
			return err
		}
		if p := c.allreducePath(); p != "host" {
			return fmt.Errorf("path %q before Free, want host", p)
		}
		c.Free()
		return expect(c.host == nil && c.allreducePath() == "released", "after Free: path %q", c.allreducePath())
	})
}

// TestHostAreaAllocationGate pins what a walk through the host area costs
// the heap: a warmed 1 MiB float64 Allreduce, and an Iallreduce, at np=4
// through the test seam's area allocate at most hostAllocsPerOp objects per
// operation on a rank — the request, its rounds, the walk, its finish hook
// and the status.
// AllocsPerRun counts the whole process, so the other ranks run the same
// loop alongside and rank 0's figure covers all four.
func TestHostAreaAllocationGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts on purpose")
	}
	const np, n, hostAllocsPerOp = 4, 1 << 17, 5
	for _, blocking := range []bool{true, false} {
		name := "Iallreduce"
		if blocking {
			name = "Allreduce"
		}
		t.Run(name, func(t *testing.T) {
			hostRanks(t, np, nil, func(w *Comm) error {
				var in, out any = make([]float64, n), make([]float64, n)
				if err := w.Allreduce(in, 0, out, 0, n, Double, SumOp); err != nil { // sets the area up
					return err
				}
				op := func() {
					var err error
					if blocking {
						err = w.Allreduce(in, 0, out, 0, n, Double, SumOp)
					} else {
						err = waitColl(w.Iallreduce(in, 0, out, 0, n, Double, SumOp))
					}
					if err != nil {
						t.Error(err)
					}
				}
				const warm, runs = 20, 100
				for k := 0; k < warm; k++ {
					op()
				}
				if w.Rank() != 0 {
					for k := 0; k < runs+1; k++ { // AllocsPerRun makes one extra warm-up call
						op()
					}
					return nil
				}
				perRank := testing.AllocsPerRun(runs, op) / np
				t.Logf("%s: %.2f objects allocated per 1 MiB np=4 host walk and rank", name, perRank)
				return expect(perRank <= hostAllocsPerOp, "a host walk allocates %.2f objects per rank, want ≤ %d", perRank, hostAllocsPerOp)
			})
		})
	}
}
