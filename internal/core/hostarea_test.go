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

// hostRanks runs fn on np goroutine ranks of a channel mesh whose host
// areas the test seam plans, with opt's faults (nil: none), counting
// profilers on and the large-message threshold at 1 KiB.
func hostRanks(t *testing.T, np int, opt *hostOption, fn func(w *Comm) error) {
	t.Helper()
	needAreas(t)
	eps := transport.NewChanMesh(np)
	runRanksCounted(t, np, func(i int) (transport.Transport, error) { return eps[i], nil }, true, func(w *Comm) error {
		w.proc.hostOpt = &hostOption{}
		if opt != nil {
			w.proc.hostOpt = opt
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

// checkHostBits runs one Allreduce of count random elements through the
// host path and compares its bits with Iallreduce's on the same
// communicator; with aliased, also InPlace and the aliased layouts.
func checkHostBits[T any](w *Comm, op *Op, dt Datatype, count int, aliased bool, val func(*rand.Rand) T) error {
	rng := rand.New(rand.NewSource(int64(w.Rank()*7919 + count)))
	in := make([]T, count)
	for i := range in {
		in[i] = val(rng)
	}
	want := make([]T, count)
	req, err := w.Iallreduce(in, 0, want, 0, count, dt, op)
	if err != nil {
		return err
	}
	if _, err := req.Wait(); err != nil {
		return err
	}
	where := fmt.Sprintf("np=%d %s %s count=%d", w.Size(), op.Name(), dt.Name(), count)
	run := func(lay string, sbuf any, soff int, rbuf []T, roff int) error {
		before := hostOps(w)
		if err := w.Allreduce(sbuf, soff, rbuf, roff, count, dt, op); err != nil {
			return fmt.Errorf("%s %s: %w", where, lay, err)
		}
		if got := hostOps(w) - before; got != 1 {
			return fmt.Errorf("%s %s: %d host operations, want 1", where, lay, got)
		}
		if !bytes.Equal(rawBytes(dt, rbuf[roff:], count), rawBytes(dt, want, count)) {
			return fmt.Errorf("%s %s: bits differ from Iallreduce's", where, lay)
		}
		return nil
	}
	got := make([]T, count)
	if err := run("disjoint", in, 0, got, 0); err != nil {
		return err
	}
	if !aliased {
		return nil
	}
	if err := run("InPlace", InPlace, 0, append([]T(nil), in...), 0); err != nil {
		return err
	}
	for _, lay := range aliasLayouts {
		so, ro := lay.so(count), lay.ro(count)
		back := make([]T, 2*count+2)
		copy(back[so:], in)
		if err := run(lay.name, back, so, back, ro); err != nil {
			return err
		}
	}
	return nil
}

// TestHostPathSameBits: the host path returns exactly the bits Iallreduce
// returns on the same communicator — the halving tree's association at
// powers of two, the ring's order otherwise — for every predefined op on
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
// chunks and sends no message; this rank copies its 768 KiB of the others'
// shares and its 256 KiB of folded share into the area.
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
		return expect(b.SentMsgs() == a.SentMsgs() && b.CollRounds == a.CollRounds,
			"%d messages and %d rounds during host operations, want 0", b.SentMsgs()-a.SentMsgs(), b.CollRounds-a.CollRounds)
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
			opt := &hostOption{fault: func(rank int) error {
				if rank == row.victim {
					return errors.New(row.err)
				}
				return nil
			}}
			hostRanks(t, np, opt, func(w *Comm) error {
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

// TestHostAreaMemberKilled: a member that dies mid-chunk — after the
// chunk's first barrier, its share unfolded — makes every survivor's
// Allreduce return a RankFailedError naming it within hostFailDeadline.
func TestHostAreaMemberKilled(t *testing.T) {
	const np, victim, n, hostFailDeadline = 4, 2, 3 * hostChunk / 8, 5 * time.Second
	needAreas(t)
	dom := fault.NewDomain()
	var killed time.Time
	var mu sync.Mutex
	opt := &hostOption{chunk: func(rank, chunk int) error {
		if rank != victim || chunk != 1 {
			return nil
		}
		mu.Lock()
		killed = time.Now()
		mu.Unlock()
		dom.Kill(victim)
		return errors.New("killed")
	}}
	chaosJob(t, "chan", np, dom, nil, func(rank int, w *Comm) error {
		w.proc.hostOpt = opt
		in, out := make([]float64, n), make([]float64, n)
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
