package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpj/internal/device"
	"mpj/internal/fault"
	"mpj/internal/prof"
	"mpj/internal/transport"
)

// runRanksWin runs fn over the requested mesh: "chan" and "hyb" (the
// process hub's channel mesh: every peer in this address space), "hyb2+2"
// (a TCP mesh whose locality table lays out two hosts of two processes, as
// only synthetic keys do: every pair on a socket, and the pairs within a
// host pulling each other's payloads), "tcp" (every peer remote) or
// "tcp-ring" (every peer another process of this host, trading frames
// through shared-memory rings).
func runRanksWin(t *testing.T, mesh string, np int, fn func(w *Comm) error) {
	t.Helper()
	switch mesh {
	case "chan":
		runRanks(t, np, fn)
	case "tcp":
		runRanksTCP(t, np, fn)
	case "hyb":
		runRanksHyb(t, np, fn)
	case "hyb2+2":
		if np != 4 {
			t.Fatalf("mesh hyb2+2 needs np=4, got %d", np)
		}
		a, b := fmt.Sprintf("hostA#%d", os.Getpid()), fmt.Sprintf("hostB#%d", os.Getpid())
		trs := tcpMeshAt(t, np, []string{a, a, b, b})
		runRanksOn(t, np, func(i int) (transport.Transport, error) { return trs[i], nil }, fn)
	case "tcp-ring":
		runRanksCoHost(t, np, fn)
	default:
		t.Fatalf("unknown mesh %q", mesh)
	}
}

// runRanksCoHost runs fn over a TCP mesh whose locality table says that
// every rank is a process of this host, as the bootstrap table of slave
// processes on one machine does; the device then trades frames with them
// through rings (and pulls their rendezvous payloads). The ring gate is the
// production one — at most a rank per CPU of a process that owns its
// scheduler — so this process declares that it does, as a slave would.
// Where the gate opens (no GOMAXPROCS in the environment, a CPU per rank),
// frames must have ridden the rings.
func runRanksCoHost(t *testing.T, np int, fn func(w *Comm) error) {
	t.Helper()
	device.OwnScheduler()
	locs := make([]string, np)
	for i := range locs {
		locs[i] = transport.ProcessLocality()
	}
	trs := tcpMeshAt(t, np, locs)
	gated := os.Getenv("GOMAXPROCS") == "" && runtime.GOMAXPROCS(0) >= np
	runRanksOn(t, np, func(i int) (transport.Transport, error) {
		return trs[i], nil
	}, func(w *Comm) error {
		if err := fn(w); err != nil {
			return err
		}
		if n := w.Device().Stats().RingFrames.Load(); gated && n == 0 {
			return fmt.Errorf("rank %d sent no frame through a ring (media %v)", w.Rank(), w.Device().FrameMedia())
		}
		return nil
	})
}

// runRanksOn is the runRanks harness over caller-supplied transports.
func runRanksOn(t *testing.T, np int, mk func(i int) (transport.Transport, error), fn func(w *Comm) error) {
	t.Helper()
	runRanksCounted(t, np, mk, false, fn)
}

// runRanksCounted is runRanksOn with, when counted, a counting profiler on
// every device, for tests that assert Win.ProfSnapshot counts.
func runRanksCounted(t *testing.T, np int, mk func(i int) (transport.Transport, error), counted bool, fn func(w *Comm) error) {
	t.Helper()
	err := runJob(np, func(i int) (*device.Device, error) {
		tr, err := mk(i)
		if err != nil {
			return nil, fmt.Errorf("transport: %w", err)
		}
		var opts []device.Option
		if counted {
			opts = append(opts, device.WithProfiler(prof.New(i, prof.Spec{Counters: true})))
		}
		return device.Open(tr, opts...)
	}, fn)
	if err != nil {
		t.Fatal(err)
	}
}

// winMeshes are the co-located meshes every functional test runs on.
var winMeshes = []string{"chan", "hyb"}

// TestWinPutGetFence: every rank puts a known value into every member's
// window (including itself), fences, checks its own exposed buffer, then
// reads a neighbor's window back with Get.
func TestWinPutGetFence(t *testing.T) {
	for _, mesh := range winMeshes {
		mesh := mesh
		t.Run(mesh, func(t *testing.T) {
			runRanksWin(t, mesh, 4, func(w *Comm) (err error) {
				np, rank := w.Size(), w.Rank()
				buf := make([]int64, np)
				win, err := w.WinCreate(buf, 1)
				if err != nil {
					return err
				}
				defer freeOnSuccess(win, &err)

				// Epoch 1: rank r writes 100+r into slot r of every window.
				val := []int64{100 + int64(rank)}
				for tgt := 0; tgt < np; tgt++ {
					if err := win.Put(val, 0, 1, Long, tgt, rank); err != nil {
						return fmt.Errorf("put to %d: %w", tgt, err)
					}
				}
				if err := win.Fence(); err != nil {
					return err
				}
				for r := 0; r < np; r++ {
					if err := expect(buf[r] == 100+int64(r), "buf[%d] = %d, want %d", r, buf[r], 100+r); err != nil {
						return err
					}
				}

				// Epoch 2: read the right neighbor's whole window.
				got := make([]int64, np)
				nb := (rank + 1) % np
				if err := win.Get(got, 0, np, Long, nb, 0); err != nil {
					return fmt.Errorf("get from %d: %w", nb, err)
				}
				if err := win.Fence(); err != nil {
					return err
				}
				for r := 0; r < np; r++ {
					if err := expect(got[r] == 100+int64(r), "got[%d] = %d, want %d", r, got[r], 100+r); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// TestWinAccumulateFence: concurrent accumulations from every rank into
// rank 0's window, with Sum and Max semantics checked element-wise.
func TestWinAccumulateFence(t *testing.T) {
	for _, mesh := range winMeshes {
		mesh := mesh
		t.Run(mesh, func(t *testing.T) {
			runRanksWin(t, mesh, 4, func(w *Comm) (err error) {
				np, rank := w.Size(), w.Rank()
				buf := make([]int64, 2)
				win, err := w.WinCreate(buf, 1)
				if err != nil {
					return err
				}
				defer freeOnSuccess(win, &err)

				contrib := []int64{int64(rank) + 1}
				if err := win.Accumulate(contrib, 0, 1, Long, 0, 0, SumOp); err != nil {
					return err
				}
				if err := win.Accumulate(contrib, 0, 1, Long, 0, 1, MaxOp); err != nil {
					return err
				}
				if err := win.Fence(); err != nil {
					return err
				}
				if rank == 0 {
					want := int64(np * (np + 1) / 2)
					if err := expect(buf[0] == want, "sum = %d, want %d", buf[0], want); err != nil {
						return err
					}
					if err := expect(buf[1] == int64(np), "max = %d, want %d", buf[1], np); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// TestWinLockCounter: a shared counter at rank 0 incremented by every rank
// under an exclusive lock — passive target, no fence, the target never
// cooperates. FIFO frame ordering guarantees each Accumulate is applied
// before its epoch's unlock acknowledgement.
func TestWinLockCounter(t *testing.T) {
	for _, mesh := range winMeshes {
		mesh := mesh
		t.Run(mesh, func(t *testing.T) {
			const rounds = 5
			runRanksWin(t, mesh, 4, func(w *Comm) (err error) {
				np, rank := w.Size(), w.Rank()
				buf := make([]int64, 1)
				win, err := w.WinCreate(buf, 1)
				if err != nil {
					return err
				}
				defer freeOnSuccess(win, &err)

				one := []int64{1}
				for k := 0; k < rounds; k++ {
					if err := win.Lock(LockExclusive, 0); err != nil {
						return err
					}
					if err := win.Accumulate(one, 0, 1, Long, 0, 0, SumOp); err != nil {
						return err
					}
					if err := win.Unlock(0); err != nil {
						return err
					}
				}
				if err := w.Barrier(); err != nil {
					return err
				}
				// Read the final value under a shared lock (self-target).
				got := make([]int64, 1)
				if err := win.Lock(LockShared, rank); err != nil {
					return err
				}
				if rank == 0 {
					if err := win.Get(got, 0, 1, Long, 0, 0); err != nil {
						return err
					}
				}
				if err := win.Unlock(rank); err != nil {
					return err
				}
				if rank == 0 {
					want := int64(np * rounds)
					return expect(got[0] == want, "counter = %d, want %d", got[0], want)
				}
				return nil
			})
		})
	}
}

// runRanksWire is the window harness over fault-wrapped channel transports
// with no fault armed: the fault endpoint hides the transport's locality,
// so every operation takes the wire protocol — the remote path exercised
// in-process.
func runRanksWire(t *testing.T, np int, fn func(w *Comm) error) {
	t.Helper()
	dom := fault.NewDomain()
	eps := transport.NewChanMesh(np)
	runRanksOn(t, np, func(i int) (transport.Transport, error) {
		return dom.Wrap(eps[i]), nil
	}, fn)
}

// TestWinWirePath: Put/Get/Accumulate and lock epochs when every peer is
// forced onto the RMA frame family.
func TestWinWirePath(t *testing.T) {
	runRanksWire(t, 3, func(w *Comm) (err error) {
		np, rank := w.Size(), w.Rank()
		buf := make([]int32, np+1)
		win, err := w.WinCreate(buf, 1)
		if err != nil {
			return err
		}
		defer freeOnSuccess(win, &err)

		// Fence epoch: scatter rank marks, accumulate a sum.
		val := []int32{int32(10 + rank)}
		for tgt := 0; tgt < np; tgt++ {
			if err := win.Put(val, 0, 1, Int, tgt, rank); err != nil {
				return err
			}
			if err := win.Accumulate(val, 0, 1, Int, tgt, np, SumOp); err != nil {
				return err
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		var sum int32
		for r := 0; r < np; r++ {
			if err := expect(buf[r] == int32(10+r), "buf[%d] = %d, want %d", r, buf[r], 10+r); err != nil {
				return err
			}
			sum += int32(10 + r)
		}
		if err := expect(buf[np] == sum, "acc slot = %d, want %d", buf[np], sum); err != nil {
			return err
		}

		// Get epoch: remote Gets land by the end of the fence.
		got := make([]int32, np+1)
		nb := (rank + 1) % np
		if err := win.Get(got, 0, np+1, Int, nb, 0); err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		for r := 0; r < np; r++ {
			if err := expect(got[r] == int32(10+r), "got[%d] = %d, want %d", r, got[r], 10+r); err != nil {
				return err
			}
		}

		// Lock epoch over the wire: everyone increments rank 0's sum slot.
		one := []int32{1}
		if err := win.Lock(LockExclusive, 0); err != nil {
			return err
		}
		if err := win.Accumulate(one, 0, 1, Int, 0, np, SumOp); err != nil {
			return err
		}
		if err := win.Unlock(0); err != nil {
			return err
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			return expect(buf[np] == sum+int32(np), "locked acc = %d, want %d", buf[np], sum+int32(np))
		}
		return nil
	})
}

// TestWinTCP: the full window surface — fence epochs with Put, Get and
// Accumulate, then a lock epoch — over the real TCP mesh, where every
// peer (except self) takes the wire protocol.
func TestWinTCP(t *testing.T) {
	runRanksTCP(t, 3, func(w *Comm) (err error) {
		np, rank := w.Size(), w.Rank()
		buf := make([]float64, np+1)
		win, err := w.WinCreate(buf, 1)
		if err != nil {
			return err
		}
		defer freeOnSuccess(win, &err)

		val := []float64{float64(rank) + 0.5}
		for tgt := 0; tgt < np; tgt++ {
			if err := win.Put(val, 0, 1, Double, tgt, rank); err != nil {
				return err
			}
			if err := win.Accumulate(val, 0, 1, Double, tgt, np, SumOp); err != nil {
				return err
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		var sum float64
		for r := 0; r < np; r++ {
			if err := expect(buf[r] == float64(r)+0.5, "buf[%d] = %v", r, buf[r]); err != nil {
				return err
			}
			sum += float64(r) + 0.5
		}
		if err := expect(buf[np] == sum, "acc = %v, want %v", buf[np], sum); err != nil {
			return err
		}

		got := make([]float64, np+1)
		if err := win.Get(got, 0, np+1, Double, (rank+1)%np, 0); err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		for r := 0; r < np; r++ {
			if err := expect(got[r] == float64(r)+0.5, "got[%d] = %v", r, got[r]); err != nil {
				return err
			}
		}

		one := []float64{1}
		if err := win.Lock(LockExclusive, 0); err != nil {
			return err
		}
		if err := win.Accumulate(one, 0, 1, Double, 0, np, SumOp); err != nil {
			return err
		}
		if err := win.Unlock(0); err != nil {
			return err
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			return expect(buf[np] == sum+float64(np), "locked acc = %v, want %v", buf[np], sum+float64(np))
		}
		return nil
	})
}

// TestWinMuteFence: a rank muted (outbound silently dropped, never
// declared dead) during an open fence epoch must surface as a typed
// ErrRankFailed at the fence on every rank — the epoch deadline feeds the
// failure registry — rather than hanging the job.
func TestWinMuteFence(t *testing.T) {
	const np = 3
	const victim = 2
	dom := fault.NewDomain()
	eps := transport.NewChanMesh(np)
	devs := make([]*device.Device, np)
	worlds := make([]*Comm, np)
	for i := 0; i < np; i++ {
		d, err := device.Open(dom.Wrap(eps[i]))
		if err != nil {
			t.Fatalf("open device %d: %v", i, err)
		}
		devs[i] = d
		dom.Bind(i, d)
		w, err := NewWorld(d)
		if err != nil {
			t.Fatalf("new world %d: %v", i, err)
		}
		worlds[i] = w
	}

	gate := newGoBarrier(np)
	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := worlds[i]
			buf := make([]int64, np)
			win, err := w.WinCreate(buf, 1)
			if err != nil {
				errs[i] = err
				return
			}
			win.SetEpochTimeout(300 * time.Millisecond)
			if err := w.Barrier(); err != nil {
				errs[i] = err
				return
			}
			gate.await()
			if i == 0 {
				dom.Mute(victim)
			}
			gate.await()
			// The epoch is open; the victim's sync frames are now being
			// dropped on the floor.
			err = win.Fence()
			if err == nil {
				errs[i] = fmt.Errorf("fence succeeded with rank %d muted", victim)
				return
			}
			if !errors.Is(err, ErrRankFailed) {
				errs[i] = fmt.Errorf("fence failed with %v, want ErrRankFailed", err)
				return
			}
			if i != victim {
				if fr, ok := device.FailedRank(err); !ok || fr != victim {
					errs[i] = fmt.Errorf("failed rank %d (ok=%v), want %d", fr, ok, victim)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("job wedged: muted fence did not surface within 30s")
	}
	for _, d := range devs {
		d.Abort()
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", i, err)
		}
	}
}

// TestWinKilledRank: RMA operations and epoch closes against a killed rank
// fail typed with the victim's identity, chaos-style.
func TestWinKilledRank(t *testing.T) {
	const np = 3
	const victim = 2
	dom := fault.NewDomain()
	eps := transport.NewChanMesh(np)
	devs := make([]*device.Device, np)
	worlds := make([]*Comm, np)
	for i := 0; i < np; i++ {
		d, err := device.Open(dom.Wrap(eps[i]))
		if err != nil {
			t.Fatalf("open device %d: %v", i, err)
		}
		devs[i] = d
		dom.Bind(i, d)
		w, err := NewWorld(d)
		if err != nil {
			t.Fatalf("new world %d: %v", i, err)
		}
		worlds[i] = w
	}

	gate := newGoBarrier(np)
	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := worlds[i]
			buf := make([]int64, np)
			win, err := w.WinCreate(buf, 1)
			if err != nil {
				errs[i] = err
				return
			}
			win.SetEpochTimeout(time.Second)
			if err := w.Barrier(); err != nil {
				errs[i] = err
				return
			}
			gate.await()
			if i == 0 {
				dom.Kill(victim)
			}
			gate.await()
			if i == victim {
				return
			}
			// Direct operation against the dead rank: typed, immediate.
			val := []int64{1}
			err = win.Put(val, 0, 1, Long, victim, 0)
			if err == nil || !errors.Is(err, ErrRankFailed) {
				errs[i] = fmt.Errorf("put to dead rank: %v, want ErrRankFailed", err)
				return
			}
			if fr, ok := device.FailedRank(err); !ok || fr != victim {
				errs[i] = fmt.Errorf("put failed rank %d (ok=%v), want %d", fr, ok, victim)
				return
			}
			// Epoch close with a dead member: typed, no hang.
			err = win.Fence()
			if err == nil || !errors.Is(err, ErrRankFailed) {
				errs[i] = fmt.Errorf("fence with dead member: %v, want ErrRankFailed", err)
				return
			}
			// Lock on the dead target: typed too.
			err = win.Lock(LockExclusive, victim)
			if err == nil || !errors.Is(err, ErrRankFailed) {
				errs[i] = fmt.Errorf("lock on dead rank: %v, want ErrRankFailed", err)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("job wedged: dead-rank RMA did not surface within 30s")
	}
	for _, d := range devs {
		d.Abort()
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", i, err)
		}
	}
}

// TestWinRevoked: revoking the communicator fails window operations with
// ErrRevoked on every rank. Manual harness: nothing collective works on
// the world after the revocation, so teardown is Abort, not Barrier.
func TestWinRevoked(t *testing.T) {
	const np = 3
	eps := transport.NewChanMesh(np)
	devs := make([]*device.Device, np)
	worlds := make([]*Comm, np)
	for i := 0; i < np; i++ {
		d, err := device.Open(eps[i])
		if err != nil {
			t.Fatalf("open device %d: %v", i, err)
		}
		devs[i] = d
		w, err := NewWorld(d)
		if err != nil {
			t.Fatalf("new world %d: %v", i, err)
		}
		worlds[i] = w
	}
	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := worlds[i]
			buf := make([]int64, 4)
			win, err := w.WinCreate(buf, 1)
			if err != nil {
				errs[i] = err
				return
			}
			// Rank 0 revokes right after its barrier; the revocation may
			// overtake a slower rank's barrier completion, which is then
			// itself a legitimate ErrRevoked.
			if err := w.Barrier(); err != nil && !(i != 0 && errors.Is(err, ErrRevoked)) {
				errs[i] = err
				return
			}
			if i == 0 {
				if err := w.Revoke(); err != nil {
					errs[i] = err
					return
				}
			}
			// Revocation propagates asynchronously; poll until it lands.
			val := []int64{1}
			deadline := time.Now().Add(10 * time.Second)
			for {
				err := win.Put(val, 0, 1, Long, (i+1)%np, 0)
				if err != nil {
					if !errors.Is(err, ErrRevoked) {
						errs[i] = fmt.Errorf("put on revoked comm: %v, want ErrRevoked", err)
					}
					break
				}
				if time.Now().After(deadline) {
					errs[i] = fmt.Errorf("revocation never reached window operations")
					break
				}
				time.Sleep(time.Millisecond)
			}
			if err := win.Fence(); !errors.Is(err, ErrRevoked) {
				errs[i] = fmt.Errorf("fence on revoked comm: %v, want ErrRevoked", err)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("job wedged: revoked windows did not fail within 30s")
	}
	for _, d := range devs {
		d.Abort()
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", i, err)
		}
	}
}

// TestWinProfExact: the profiling counters for a known co-located Put or
// Get are exact — and the wire byte counter stays zero, proving the
// co-located data op is a memmove with no wire serialization, at 4 KiB and
// at the 64 KiB a Put once had to beat Send/Recv at. The counters follow
// the branch that moved the bytes, so a co-located Put sent as an RMA
// frame counts wire bytes here: the raw cells cover putBytes, the strided
// cell (every other origin element, a Vector) Put's packing branch.
func TestWinProfExact(t *testing.T) {
	const np = 2
	for _, tc := range []struct {
		op    string
		count int // int32 elements
	}{
		{"put", 1024}, // 4 KiB
		{"put", 16 << 10},
		{"get", 16 << 10},
		{"put-strided", 1024},
	} {
		bytes := int64(4 * tc.count)
		t.Run(fmt.Sprintf("%s/%dB", tc.op, bytes), func(t *testing.T) {
			runRanksProf(t, np, prof.Spec{Counters: true}, false, func(w *Comm) (err error) {
				rank := w.Rank()
				buf := make([]int32, tc.count)
				for i := range buf {
					buf[i] = int32(rank<<20 | i)
				}
				win, err := w.WinCreate(buf, 1)
				if err != nil {
					return err
				}
				defer freeOnSuccess(win, &err)
				origin := make([]int32, 2*tc.count)
				if rank == 0 {
					for i := range origin {
						origin[i] = int32(i)
					}
					switch tc.op {
					case "put":
						err = win.Put(origin, 0, tc.count, Int, 1, 0)
					case "put-strided":
						var every2 Datatype
						if every2, err = Vector(tc.count, 1, 2, Int); err == nil {
							err = win.Put(origin, 0, 1, every2, 1, 0)
						}
					default:
						err = win.Get(origin, 0, tc.count, Int, 1, 0)
					}
					if err != nil {
						return err
					}
				}
				if err := win.Fence(); err != nil {
					return err
				}

				s := win.ProfSnapshot()
				if rank == 0 {
					ops, opBytes := s.RmaPuts, s.RmaPutBytes
					if tc.op == "get" {
						ops, opBytes = s.RmaGets, s.RmaGetBytes
						if err := expect(origin[tc.count-1] == int32(1<<20|(tc.count-1)),
							"get read %#x at the last element", origin[tc.count-1]); err != nil {
							return err
						}
					}
					if err := expect(ops == 1 && s.RmaOps() == 1, "%d %ss of %d ops, want 1", ops, tc.op, s.RmaOps()); err != nil {
						return err
					}
					if err := expect(opBytes == bytes, "%s bytes = %d, want %d", tc.op, opBytes, bytes); err != nil {
						return err
					}
					if err := expect(s.RmaLocalBytes == bytes, "rmaLocalBytes = %d, want %d", s.RmaLocalBytes, bytes); err != nil {
						return err
					}
				} else if tc.op != "get" {
					want := int32(tc.count - 1)
					if tc.op == "put-strided" {
						want *= 2
					}
					if err := expect(buf[tc.count-1] == want, "put left %#x at the last element", buf[tc.count-1]); err != nil {
						return err
					}
				}
				// Both ranks: zero wire traffic of any kind on the window context.
				if err := expect(s.RmaWireBytes == 0, "rmaWireBytes = %d, want 0", s.RmaWireBytes); err != nil {
					return err
				}
				if err := expect(s.EagerSentBytes == 0 && s.RdvSentBytes == 0,
					"two-sided bytes on window ctx: eager %d rdv %d, want 0", s.EagerSentBytes, s.RdvSentBytes); err != nil {
					return err
				}
				if err := expect(s.RmaFences == 1, "rmaFences = %d, want 1", s.RmaFences); err != nil {
					return err
				}
				// The fence announced to each co-located peer by direct store,
				// once: a window without a remote member has no completion
				// phase (over TCP the same fence costs 2(np-1) frames; see
				// TestWinProfExactTCP).
				return expect(s.RmaSyncFrames == 0 && s.RmaSyncDirect == np-1,
					"fence announcements: %d frames / %d direct, want 0 / %d", s.RmaSyncFrames, s.RmaSyncDirect, np-1)
			})
		})
	}
}

// TestWinParkedFenceChargedToWindow: time a fence spends parked is the
// window's wait time (Win.ProfSnapshot().WaitNs), none of it the
// communicator's collective context's.
func TestWinParkedFenceChargedToWindow(t *testing.T) {
	const late = 30 * time.Millisecond
	runRanksProf(t, 2, prof.Spec{Counters: true}, false, func(w *Comm) (err error) {
		win, err := w.WinCreate(make([]int64, 2), 1)
		if err != nil {
			return err
		}
		defer freeOnSuccess(win, &err)
		if err := w.Barrier(); err != nil {
			return err
		}
		if w.Rank() == 1 {
			time.Sleep(late)
			return win.Fence()
		}
		p := w.dev.Profiler()
		coll, own := p.CtxSnapshot(w.coll).WaitNs, win.ProfSnapshot().WaitNs
		if err := win.Fence(); err != nil {
			return err
		}
		if d := win.ProfSnapshot().WaitNs - own; d < int64(late/2) {
			return fmt.Errorf("a fence parked ≈%v charged %v to its window", late, time.Duration(d))
		}
		return expect(p.CtxSnapshot(w.coll).WaitNs == coll, "the fence charged %v to the collective context",
			time.Duration(p.CtxSnapshot(w.coll).WaitNs-coll))
	})
}

// TestWinErrors: argument validation across the window surface.
func TestWinErrors(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		if _, err := w.WinCreate([]string{"x"}, 1); !errors.Is(err, ErrBuffer) {
			return fmt.Errorf("WinCreate(strings): %v, want ErrBuffer", err)
		}
		if _, err := w.WinCreate(make([]int64, 1), 0); !errors.Is(err, ErrArg) {
			return fmt.Errorf("WinCreate(dispUnit 0): %v, want ErrArg", err)
		}
		buf := make([]int64, 4)
		win, err := w.WinCreate(buf, 1)
		if err != nil {
			return err
		}
		val := []int64{1}
		f32 := []float32{1}
		cases := []struct {
			name string
			err  error
			want error
		}{
			{"neg count", win.Put(val, 0, -1, Long, 0, 0), ErrCount},
			{"bad target", win.Put(val, 0, 1, Long, 9, 0), ErrRank},
			{"wrong type", win.Put(f32, 0, 1, Float, 0, 0), ErrType},
			{"neg disp", win.Put(val, 0, 1, Long, 0, -1), ErrArg},
			{"out of bounds", win.Put(val, 0, 1, Long, 0, 4), ErrArg},
			{"user op", win.Accumulate(val, 0, 1, Long, 0, 0, mustUserOp()), ErrOp},
			{"bad lock mode", win.Lock(0, 0), ErrArg},
			{"unlock unheld", win.Unlock(0), ErrArg},
		}
		for _, tc := range cases {
			if !errors.Is(tc.err, tc.want) {
				return fmt.Errorf("%s: got %v, want %v", tc.name, tc.err, tc.want)
			}
		}
		// Zero count is a no-op, not an error.
		if err := win.Put(val, 0, 0, Long, 0, 0); err != nil {
			return fmt.Errorf("zero-count put: %v", err)
		}
		if err := win.Free(); err != nil {
			return err
		}
		if err := win.Put(val, 0, 1, Long, 0, 0); !errors.Is(err, ErrComm) {
			return fmt.Errorf("put after free: %v, want ErrComm", err)
		}
		if err := win.Fence(); !errors.Is(err, ErrComm) {
			return fmt.Errorf("fence after free: %v, want ErrComm", err)
		}
		return nil
	})
}

// mustUserOp builds a user-defined operation (valid for collectives,
// rejected by Accumulate).
func mustUserOp() *Op {
	return NewOp("test-user-op", func(in, inout any, dt Datatype) error { return nil })
}

// TestWinProperty is the randomized RMA property test: a schedule of
// fence-separated epochs with a random mix of Puts (disjoint per-origin
// regions), commutative Accumulates and Gets, derived from a seed shared
// by all ranks, checked against a locally computed shadow of every
// window. Runs on every layout a fence can see — all in one address space
// (chan, hyb), two hosts of two over sockets (hyb2+2: pulled and wired
// payloads mixed in one fence) and all remote (tcp) — and under -race with
// the standard test invocation.
func TestWinProperty(t *testing.T) {
	const B = 8 // per-origin put region, in elements
	for _, mesh := range []string{"chan", "hyb", "hyb2+2", "tcp"} {
		mesh := mesh
		t.Run(mesh, func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				runRanksWin(t, mesh, 4, func(w *Comm) (err error) {
					np, rank := w.Size(), w.Rank()
					slots := np*B + B // put regions + shared accumulate region
					buf := make([]int64, slots)
					win, err := w.WinCreate(buf, 1)
					if err != nil {
						return err
					}
					defer freeOnSuccess(win, &err)

					// Every rank derives the same global schedule.
					rng := rand.New(rand.NewSource(7919 * int64(trial+1)))
					// shadow[t] mirrors rank t's window.
					shadow := make([][]int64, np)
					for i := range shadow {
						shadow[i] = make([]int64, slots)
					}

					const epochs = 4
					for e := 0; e < epochs; e++ {
						type putOp struct{ origin, target, disp, count int }
						type accOp struct {
							origin, target, disp int
							val                  int64
						}
						var puts []putOp
						var accs []accOp
						for o := 0; o < np; o++ {
							for k := rng.Intn(3); k > 0; k-- {
								count := 1 + rng.Intn(B)
								disp := o*B + rng.Intn(B-count+1)
								puts = append(puts, putOp{o, rng.Intn(np), disp, count})
							}
							for k := rng.Intn(3); k > 0; k-- {
								accs = append(accs, accOp{o, rng.Intn(np), np*B + rng.Intn(B), rng.Int63n(100)})
							}
						}
						// Issue this rank's share; update the shadow for all.
						for _, p := range puts {
							val := make([]int64, p.count)
							for i := range val {
								val[i] = int64(e)<<40 | int64(p.origin)<<20 | int64(p.disp+i)
							}
							if p.origin == rank {
								if err := win.Put(val, 0, p.count, Long, p.target, p.disp); err != nil {
									return fmt.Errorf("epoch %d put: %w", e, err)
								}
							}
							copy(shadow[p.target][p.disp:], val)
						}
						for _, a := range accs {
							if a.origin == rank {
								if err := win.Accumulate([]int64{a.val}, 0, 1, Long, a.target, a.disp, SumOp); err != nil {
									return fmt.Errorf("epoch %d acc: %w", e, err)
								}
							}
							shadow[a.target][a.disp] += a.val
						}
						if err := win.Fence(); err != nil {
							return fmt.Errorf("epoch %d fence: %w", e, err)
						}
						// Own window matches the shadow after every fence.
						for i, v := range buf {
							if v != shadow[rank][i] {
								return fmt.Errorf("epoch %d: buf[%d] = %d, shadow %d", e, i, v, shadow[rank][i])
							}
						}
						// Spot-check a random remote window with Get.
						tgt := rng.Intn(np)
						got := make([]int64, slots)
						if err := win.Get(got, 0, slots, Long, tgt, 0); err != nil {
							return fmt.Errorf("epoch %d get: %w", e, err)
						}
						if err := win.Fence(); err != nil {
							return fmt.Errorf("epoch %d get-fence: %w", e, err)
						}
						for i, v := range got {
							if v != shadow[tgt][i] {
								return fmt.Errorf("epoch %d: got[%d] = %d from rank %d, shadow %d", e, i, v, tgt, shadow[tgt][i])
							}
						}
					}
					return nil
				})
			}
		})
	}
}
