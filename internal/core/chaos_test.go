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
	"mpj/internal/fault"
	"mpj/internal/transport"
)

// chaosJobSeq hands out process-unique hybrid-mesh job ids for the chaos
// scenarios, away from the icoll test range.
var chaosJobSeq atomic.Uint64

// chaosCase is one fault-injection scenario: np ranks run op, the victim
// is killed as it reaches its round-th schedule round, and the survivors
// must all observe a typed rank failure (or a fully completed result),
// shrink, and keep computing.
type chaosCase struct {
	np     int
	victim int
	round  int
	op     string
}

// chaosCases derives n scenarios from a fixed seed — randomized coverage,
// reproducible runs.
func chaosCases(n int) []chaosCase {
	rng := rand.New(rand.NewSource(0x5eed))
	ops := []string{"barrier", "bcast", "allreduce", "allgather"}
	cases := make([]chaosCase, n)
	for i := range cases {
		np := 2 + rng.Intn(4) // 2..5
		cases[i] = chaosCase{
			np:     np,
			victim: rng.Intn(np),
			round:  rng.Intn(4),
			op:     ops[rng.Intn(len(ops))],
		}
	}
	return cases
}

// TestChaosCollectiveKill is the chaos property over the channel mesh:
// kill one rank mid-collective and every survivor must get ErrRankFailed
// naming the victim (or a complete, correct result if its schedule beat
// the failure) — never a hang, never a partial result marked success —
// and after Shrink the survivors' communicator must still compute.
func TestChaosCollectiveKill(t *testing.T) {
	for _, tc := range chaosCases(10) {
		tc := tc
		t.Run(fmt.Sprintf("np%d_%s_kill%d@r%d", tc.np, tc.op, tc.victim, tc.round), func(t *testing.T) {
			chaosScenario(t, "chan", tc)
		})
	}
}

// TestChaosCollectiveKillHyb is the same property over the hybrid mesh,
// where the kill also exercises the process-hub abort notification path.
func TestChaosCollectiveKillHyb(t *testing.T) {
	for _, tc := range chaosCases(6) {
		tc := tc
		t.Run(fmt.Sprintf("np%d_%s_kill%d@r%d", tc.np, tc.op, tc.victim, tc.round), func(t *testing.T) {
			chaosScenario(t, "hyb", tc)
		})
	}
}

// chaosLentCases kill a rank inside a 1 MiB schedule of the large vector
// family — the one whose sends lend user memory to the device: the transport
// is reading the survivors' buffers, above the eager limit and by reference,
// when the death lands. In the allreduce at np=4 (halving/doubling, 4
// rounds) the kill falls in round 0, the one that lends the *send* buffer,
// in the second halving round and in the last doubling round; at np=3 (the
// ring, 4 rounds) in a reduce-scatter round that lends the receive buffer
// and in the last allgather round. The ReduceScatter runs the fold half
// alone: at np=4 (halving, 2 rounds) the kill falls in round 0, which lends
// the send buffer, at np=3 (the ring, 2 rounds) in round 1, which lends the
// pooled working vector. The 1 MiB Bcast lands in place and lends the fixed
// cell: at np=4 the kill falls in round 0, while the root lends its own
// buffer to the victim, and in the victim's forwarding round 1, while rank
// 3's receive lands in its user buffer; at np=3 (no forwarder: the root
// feeds both ranks) in round 0.
var chaosLentCases = []chaosCase{
	{np: 4, victim: 2, round: 0, op: "allreduce1m"},
	{np: 4, victim: 2, round: 1, op: "allreduce1m"},
	{np: 4, victim: 1, round: 3, op: "allreduce1m"},
	{np: 3, victim: 2, round: 1, op: "allreduce1m"},
	{np: 3, victim: 1, round: 3, op: "allreduce1m"},
	{np: 4, victim: 1, round: 0, op: "reducescatter1m"},
	{np: 3, victim: 2, round: 1, op: "reducescatter1m"},
	{np: 4, victim: 2, round: 0, op: "bcast1m"},
	{np: 4, victim: 2, round: 1, op: "bcast1m"},
	{np: 3, victim: 1, round: 0, op: "bcast1m"},
}

// TestChaosLentAllreduceKill is the failure contract of lent sends, over
// real sockets and the hybrid mesh: every survivor gets ErrRankFailed (or
// the complete result), and the moment Allreduce returns its buffers are
// the caller's again — chaosOp overwrites them, so under -race a transport
// goroutine still reading or filling one is a report.
func TestChaosLentAllreduceKill(t *testing.T) { chaosLentKill(t, "allreduce1m") }

// TestChaosLentReduceScatterKill is the same contract for the large
// ReduceScatter.
func TestChaosLentReduceScatterKill(t *testing.T) { chaosLentKill(t, "reducescatter1m") }

// TestChaosLentBcastKill is the same contract for the large Bcast.
func TestChaosLentBcastKill(t *testing.T) { chaosLentKill(t, "bcast1m") }

func chaosLentKill(t *testing.T, op string) {
	for _, mesh := range []string{"tcp", "hyb"} {
		for _, tc := range chaosLentCases {
			if tc.op != op {
				continue
			}
			mesh, tc := mesh, tc
			t.Run(fmt.Sprintf("%s_np%d_kill%d@r%d", mesh, tc.np, tc.victim, tc.round), func(t *testing.T) {
				chaosScenario(t, mesh, tc)
			})
		}
	}
}

// TestChaosLentAllreduceFree is the same contract for Comm.Free with an
// Iallreduce outstanding, under both exchange patterns: when Free returns,
// the buffers of the abandoned schedule — the lent send buffer too — are
// the caller's.
func TestChaosLentAllreduceFree(t *testing.T) {
	chaosLentFree(t, func(c *Comm, in, out []int32) (*CollRequest, error) {
		return c.iallreduce("iallreduce", c.nextCollTag(), allreduceRing, formNonBlocking, in, 0, out, 0, len(in), Int, SumOp)
	})
}

// TestChaosLentReduceScatterFree is TestChaosLentAllreduceFree for an
// outstanding large IreduceScatter.
func TestChaosLentReduceScatterFree(t *testing.T) {
	chaosLentFree(t, func(c *Comm, in, out []int32) (*CollRequest, error) {
		counts, _ := uniformLayout(c.Size(), len(in)/c.Size())
		return c.IreduceScatter(in, 0, out, 0, counts, Int, SumOp)
	})
}

// TestChaosLentBcastFree is TestChaosLentAllreduceFree for an outstanding
// large Ibcast: the root's lent buffer is the caller's when Free returns.
func TestChaosLentBcastFree(t *testing.T) {
	chaosLentFree(t, func(c *Comm, in, _ []int32) (*CollRequest, error) {
		return c.Ibcast(in, 0, len(in), Int, 0)
	})
}

func chaosLentFree(t *testing.T, start func(c *Comm, in, out []int32) (*CollRequest, error)) {
	for _, mesh := range []string{"tcp", "hyb"} {
		for _, np := range []int{4, 3} {
			mesh, np := mesh, np
			t.Run(fmt.Sprintf("%s_np%d", mesh, np), func(t *testing.T) {
				chaosJob(t, mesh, np, nil, nil, func(rank int, w *Comm) error {
					c, err := w.Dup()
					if err != nil {
						return err
					}
					in, out := make([]int32, chaosLentCount), make([]int32, chaosLentCount)
					req, err := start(c, in, out)
					if err != nil {
						return err
					}
					c.Free()
					scribble(in, out)
					if _, err := req.Wait(); !errors.Is(err, ErrComm) {
						return fmt.Errorf("%s on a freed comm: %v, want ErrComm", req.name, err)
					}
					return w.Barrier()
				})
			})
		}
	}
}

// chaosLentCount is 1 MiB of Int: every message of the large allreduce at
// np=3 and np=4 (a third, a quarter or a half of it) is a rendezvous on
// every device.
const chaosLentCount = 1 << 18

// scribble overwrites buffers a collective has handed back.
func scribble(bufs ...[]int32) {
	for _, b := range bufs {
		for i := range b {
			b[i] = -1
		}
	}
}

// chaosTransports builds the requested mesh for np ranks.
func chaosTransports(t *testing.T, mesh string, np int) []transport.Transport {
	t.Helper()
	switch mesh {
	case "tcp":
		return tcpMesh(t, np)
	case "chan":
		eps := transport.NewChanMesh(np)
		trs := make([]transport.Transport, np)
		for i := range eps {
			trs[i] = eps[i]
		}
		return trs
	case "hyb":
		loc := transport.ProcessLocality()
		locs := make([]string, np)
		for i := range locs {
			locs[i] = loc
		}
		jobID := 0xc4a05<<32 | chaosJobSeq.Add(1)
		trs := make([]transport.Transport, np)
		for i := range trs {
			ep, err := transport.NewHybTransport(transport.HybConfig{Rank: i, JobID: jobID, Locs: locs})
			if err != nil {
				t.Fatalf("hyb transport rank %d: %v", i, err)
			}
			trs[i] = ep
		}
		return trs
	default:
		t.Fatalf("unknown mesh %q", mesh)
		return nil
	}
}

// chaosScenario runs one fault-injected job: the kill trigger is armed
// before any rank starts.
func chaosScenario(t *testing.T, mesh string, tc chaosCase) {
	dom := fault.NewDomain()
	arm := func() error { return dom.KillAt(tc.victim, tc.round) }
	chaosJob(t, mesh, tc.np, dom, arm, func(rank int, w *Comm) error {
		return chaosRank(rank, w, dom, tc)
	})
}

// chaosJob runs fn on np ranks over the requested mesh, wrapped in dom when
// there is one; arm, when there is one, runs once every device is bound,
// before any rank starts. Unlike runRanks it tears down with Abort (a
// barrier on the world would hang when a member is dead) and leaves judging
// each rank's outcome to fn.
func chaosJob(t *testing.T, mesh string, np int, dom *fault.Domain, arm func() error, fn func(rank int, w *Comm) error) {
	trs := chaosTransports(t, mesh, np)
	devs := make([]*device.Device, np)
	worlds := make([]*Comm, np)
	for i, tr := range trs {
		if dom != nil {
			tr = dom.Wrap(tr)
		}
		d, err := device.Open(tr)
		if err != nil {
			t.Fatalf("open device %d: %v", i, err)
		}
		devs[i] = d
		if dom != nil {
			dom.Bind(i, d)
		}
		w, err := NewWorld(d)
		if err != nil {
			t.Fatalf("new world %d: %v", i, err)
		}
		worlds[i] = w
	}
	if arm != nil {
		if err := arm(); err != nil {
			t.Fatalf("arm: %v", err)
		}
	}

	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, worlds[i])
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("job wedged: survivors did not finish within 60s")
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

// chaosRank is one rank's program: run the collective under fire, then —
// survivors only — assert the failure was typed, shrink, and prove the
// shrunken communicator still computes with a ground-truth-checked
// Allreduce.
func chaosRank(rank int, w *Comm, dom *fault.Domain, tc chaosCase) error {
	verify, err := chaosOp(w, tc.op)

	if rank == tc.victim {
		// The trigger fires only if this rank reaches schedule round
		// tc.round; if its schedule was shorter, die now so the survivors'
		// shrink has a failure to agree on either way.
		dom.Kill(rank)
		return nil
	}

	if err != nil {
		if !errors.Is(err, ErrRankFailed) {
			return fmt.Errorf("%s failed with %v, want ErrRankFailed", tc.op, err)
		}
		if fr, ok := device.FailedRank(err); !ok || fr != tc.victim {
			return fmt.Errorf("%s: failed rank %d (ok=%v), want victim %d", tc.op, fr, ok, tc.victim)
		}
	} else if verr := verify(); verr != nil {
		// No error means the schedule fully completed, so the result must
		// be the complete, correct one — a partial write marked success is
		// the bug this catches.
		return fmt.Errorf("%s completed but result is partial/wrong: %w", tc.op, verr)
	}

	nc, err := w.Shrink()
	if err != nil {
		return fmt.Errorf("shrink: %w", err)
	}
	if got, want := nc.Size(), tc.np-1; got != want {
		return fmt.Errorf("shrunken size = %d, want %d", got, want)
	}
	if nc.Group().Rank(tc.victim) != Undefined {
		return fmt.Errorf("victim %d still in shrunken group", tc.victim)
	}

	// Ground truth on the shrunken communicator: every survivor
	// contributes its world rank + 1; the sum is known.
	in := []int64{int64(rank) + 1}
	out := []int64{0}
	if err := nc.Allreduce(in, 0, out, 0, 1, Long, SumOp); err != nil {
		return fmt.Errorf("allreduce on shrunken comm: %w", err)
	}
	var want int64
	for i := 0; i < nc.Size(); i++ {
		want += int64(nc.Group().WorldRank(i)) + 1
	}
	if out[0] != want {
		return fmt.Errorf("shrunken allreduce = %d, want %d", out[0], want)
	}
	return nc.Barrier()
}

// chaosOp runs the scenario's collective with known data and returns a
// closure that verifies the complete result (used only when the schedule
// finished without error).
func chaosOp(w *Comm, op string) (func() error, error) {
	np, rank := w.Size(), w.Rank()
	const count = 32
	switch op {
	case "barrier":
		return func() error { return nil }, w.Barrier()
	case "bcast":
		buf := make([]int32, count)
		if rank == 0 {
			for i := range buf {
				buf[i] = int32(3*i + 7)
			}
		}
		err := w.Bcast(buf, 0, count, Int, 0)
		return func() error {
			for i, v := range buf {
				if v != int32(3*i+7) {
					return fmt.Errorf("bcast[%d] = %d, want %d", i, v, 3*i+7)
				}
			}
			return nil
		}, err
	case "allreduce":
		in := make([]int32, count)
		for i := range in {
			in[i] = int32(rank + i)
		}
		out := make([]int32, count)
		err := w.Allreduce(in, 0, out, 0, count, Int, SumOp)
		return func() error {
			base := np * (np - 1) / 2
			for i, v := range out {
				if want := int32(base + np*i); v != want {
					return fmt.Errorf("allreduce[%d] = %d, want %d", i, v, want)
				}
			}
			return nil
		}, err
	case "allreduce1m":
		in, out := make([]int32, chaosLentCount), make([]int32, chaosLentCount)
		for i := range in {
			in[i] = int32(rank + i)
		}
		err := allreduceWith(w, allreduceRing, in, 0, out, 0, len(in), Int, SumOp)
		if err != nil {
			// Failed or not, a returned collective has returned its buffers.
			scribble(in, out)
		}
		return func() error {
			defer scribble(in, out)
			base := np * (np - 1) / 2
			for i, v := range out {
				if want := int32(base + np*i); v != want {
					return fmt.Errorf("allreduce1m[%d] = %d, want %d", i, v, want)
				}
			}
			return nil
		}, err
	case "reducescatter1m":
		// Blocks of chaosLentCount/np elements (the cut is uneven at np=3).
		counts, displs := make([]int, np), make([]int, np)
		for r := range counts {
			displs[r] = r * chaosLentCount / np
			counts[r] = (r+1)*chaosLentCount/np - displs[r]
		}
		in, out := make([]int32, chaosLentCount), make([]int32, counts[rank])
		for i := range in {
			in[i] = int32(rank + i)
		}
		err := w.ReduceScatter(in, 0, out, 0, counts, Int, SumOp)
		if err != nil {
			scribble(in, out)
		}
		return func() error {
			defer scribble(in, out)
			base := np * (np - 1) / 2
			for i, v := range out {
				if want := int32(base + np*(displs[rank]+i)); v != want {
					return fmt.Errorf("reducescatter1m[%d] = %d, want %d", i, v, want)
				}
			}
			return nil
		}, err
	case "bcast1m":
		buf := make([]int32, chaosLentCount)
		if rank == 0 {
			for i := range buf {
				buf[i] = int32(3*i + 7)
			}
		}
		err := w.Bcast(buf, 0, len(buf), Int, 0)
		if err != nil {
			scribble(buf)
		}
		return func() error {
			defer scribble(buf)
			for i, v := range buf {
				if v != int32(3*i+7) {
					return fmt.Errorf("bcast1m[%d] = %d, want %d", i, v, 3*i+7)
				}
			}
			return nil
		}, err
	case "allgather":
		in := make([]int32, count)
		for i := range in {
			in[i] = int32(rank*1000 + i)
		}
		out := make([]int32, count*np)
		err := w.Allgather(in, 0, count, Int, out, 0, count, Int)
		return func() error {
			for r := 0; r < np; r++ {
				for i := 0; i < count; i++ {
					if got, want := out[r*count+i], int32(r*1000+i); got != want {
						return fmt.Errorf("allgather[%d][%d] = %d, want %d", r, i, got, want)
					}
				}
			}
			return nil
		}, err
	}
	return nil, fmt.Errorf("unknown chaos op %q", op)
}
