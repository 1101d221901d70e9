package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpj/internal/device"
	"mpj/internal/fault"
	"mpj/internal/transport"
)

// runFaultRanks is the fault-harness variant of runRanks: a channel mesh
// wrapped in a fault.Domain, arm invoked after every device is bound and
// before any rank starts, no implicit finalize barrier (the world may
// hold a dead member by then), teardown by Abort.
func runFaultRanks(t *testing.T, np int, arm func(dom *fault.Domain) error,
	fn func(rank int, w *Comm, dom *fault.Domain) error) {
	t.Helper()
	eps := transport.NewChanMesh(np)
	dom := fault.NewDomain()
	devs := make([]*device.Device, np)
	worlds := make([]*Comm, np)
	for i := range eps {
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
	if arm != nil {
		if err := arm(dom); err != nil {
			t.Fatalf("arm fault: %v", err)
		}
	}
	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, worlds[i], dom)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("job wedged: ranks did not finish within 60s")
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

// awaitDead parks until w's device has recorded worldRank's failure — the
// fault domain's kill notification is synchronous on the killer's
// goroutine, so this only bridges the gap to the other ranks' goroutines.
func awaitDead(w *Comm, worldRank int) {
	for !w.dev.RankFailed(worldRank) {
		time.Sleep(time.Millisecond)
	}
}

// within returns op's error, or a timeout error when op is still blocked
// after d (the goroutine running it is then abandoned).
func within(d time.Duration, op func() error) error {
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return fmt.Errorf("still blocked after %v", d)
	}
}

// TestAgreeAllAlive: with every member alive, Agree is a plain AND-
// reduction, and consecutive agreements on one communicator stay ordered
// by the agreement counter.
func TestAgreeAllAlive(t *testing.T) {
	const np = 4
	runRanks(t, np, func(w *Comm) error {
		got, err := w.Agree(^uint64(1 << w.Rank()))
		if err != nil {
			return fmt.Errorf("agree: %w", err)
		}
		want := ^uint64(1<<np - 1)
		if err := expect(got == want, "agree = %#x, want %#x", got, want); err != nil {
			return err
		}
		// A second agreement must not collide with the first.
		got, err = w.Agree(uint64(0xff00) | uint64(w.Rank()))
		if err != nil {
			return fmt.Errorf("second agree: %w", err)
		}
		return expect(got == 0xff00, "second agree = %#x, want 0xff00", got)
	})
}

// TestAgreeExcludesDeadMember: a member that died before contributing is
// excluded from the AND — the survivors still agree, uniformly, on the
// fold of their own contributions.
func TestAgreeExcludesDeadMember(t *testing.T) {
	const np, victim = 4, 3
	runFaultRanks(t, np, nil, func(rank int, w *Comm, dom *fault.Domain) error {
		if rank == victim {
			dom.Kill(victim)
			return nil
		}
		got, err := w.Agree(^uint64(1 << rank))
		if err != nil {
			return fmt.Errorf("agree: %w", err)
		}
		// Survivors 0..2 cleared their bits; the victim's bit 3 survives
		// because its contribution never entered the decision.
		want := ^uint64(0b0111)
		return expect(got == want, "agree = %#x, want %#x", got, want)
	})
}

// TestRevokePropagates: one member revokes; every other member's pending
// and future operations fail with ErrRevoked, and Shrink then rebuilds a
// working communicator even though nobody died. The typed point-to-point
// calls are held to it on the revoking rank and on both peers, which learn
// of the revocation by frame: rank 1 while parked in Irecv+Wait, rank 2
// while parked in a blocking TypedRecv.
func TestRevokePropagates(t *testing.T) {
	const np = 3
	typed := []struct {
		name string
		op   func(w *Comm, peer int) error
	}{
		{"TypedSend", func(w *Comm, peer int) error { return TypedSend(w, []int32{1}, peer, 5) }},
		{"TypedIsend", func(w *Comm, peer int) error {
			r, err := TypedIsend(w, []int32{1}, peer, 5)
			if err == nil {
				_, err = r.Wait()
			}
			return err
		}},
		{"TypedRecv", func(w *Comm, peer int) error {
			_, err := TypedRecv(w, make([]int32, 1), peer, 5)
			return err
		}},
		{"TypedIrecv", func(w *Comm, peer int) error {
			r, err := TypedIrecv(w, make([]int32, 1), peer, 5)
			if err == nil {
				_, err = r.Wait()
			}
			return err
		}},
		{"TypedSendrecv", func(w *Comm, peer int) error {
			_, err := TypedSendrecv(w, []int32{1}, peer, 5, make([]int32, 1), peer, 5)
			return err
		}},
	}
	revoked := func(what string, op func() error) error {
		if err := within(10*time.Second, op); !errors.Is(err, ErrRevoked) {
			return fmt.Errorf("%s on revoked comm: %v, want ErrRevoked", what, err)
		}
		return nil
	}
	runFaultRanks(t, np, nil, func(rank int, w *Comm, dom *fault.Domain) error {
		peer := 0
		if rank == 0 {
			// Rank 2 parks right after its token.
			if _, err := TypedRecv(w, make([]int32, 1), 2, 9); err != nil {
				return fmt.Errorf("token: %w", err)
			}
			if err := w.Revoke(); err != nil {
				return fmt.Errorf("revoke: %w", err)
			}
			if err := expect(w.Revoked(), "revoker does not see communicator revoked"); err != nil {
				return err
			}
			// Post-revoke operations fail fast locally too.
			if _, err := w.Isend([]int32{1}, 0, 1, Int, 1, 5); !errors.Is(err, ErrRevoked) {
				return fmt.Errorf("isend on revoked comm: %v, want ErrRevoked", err)
			}
			peer = 1
		} else {
			// Park in a receive that no send will ever match; the revocation
			// must complete it (at post time or at wait time, depending on
			// when the frame lands).
			park := func() error {
				buf := make([]int32, 1)
				r, err := w.Irecv(buf, 0, 1, Int, 0, 7)
				if err == nil {
					_, err = r.Wait()
				}
				return err
			}
			if rank == 2 {
				if err := TypedSend(w, []int32{1}, 0, 9); err != nil {
					return fmt.Errorf("token: %w", err)
				}
				park = func() error {
					_, err := TypedRecv(w, make([]int32, 1), 0, 7)
					return err
				}
			}
			if err := revoked("parked recv", park); err != nil {
				return err
			}
			if err := expect(w.Revoked(), "peer does not see communicator revoked"); err != nil {
				return err
			}
		}
		for _, tc := range typed {
			if err := revoked(tc.name, func() error { return tc.op(w, peer) }); err != nil {
				return err
			}
		}

		// Recovery: Shrink works on a revoked communicator; with no deaths
		// the survivor set is everyone, and the new communicator computes.
		nc, err := w.Shrink()
		if err != nil {
			return fmt.Errorf("shrink: %w", err)
		}
		if err := expect(nc.Size() == np, "shrunken size = %d, want %d", nc.Size(), np); err != nil {
			return err
		}
		in, out := []int64{int64(rank) + 1}, []int64{0}
		if err := nc.Allreduce(in, 0, out, 0, 1, Long, SumOp); err != nil {
			return fmt.Errorf("allreduce on shrunken comm: %w", err)
		}
		if err := expect(out[0] == np*(np+1)/2, "allreduce = %d, want %d", out[0], np*(np+1)/2); err != nil {
			return err
		}
		return nc.Barrier()
	})
}

// TestShrinkCompactsRanks: after a mid-group death, Shrink renumbers the
// survivors in old group order.
func TestShrinkCompactsRanks(t *testing.T) {
	const np, victim = 4, 1
	runFaultRanks(t, np, nil, func(rank int, w *Comm, dom *fault.Domain) error {
		if rank == victim {
			dom.Kill(victim)
			return nil
		}
		nc, err := w.Shrink()
		if err != nil {
			return fmt.Errorf("shrink: %w", err)
		}
		if err := expect(nc.Size() == np-1, "shrunken size = %d, want %d", nc.Size(), np-1); err != nil {
			return err
		}
		// World order 0,2,3 compacts to new ranks 0,1,2.
		wantRank := map[int]int{0: 0, 2: 1, 3: 2}[rank]
		if err := expect(nc.Rank() == wantRank, "world %d: shrunken rank = %d, want %d", rank, nc.Rank(), wantRank); err != nil {
			return err
		}
		return nc.Barrier()
	})
}

// TestPersistentStartAfterFailure: once a member of the communicator is
// known dead, starting a committed persistent collective fails
// immediately with the typed rank failure — not ErrComm, and without
// touching the wire.
func TestPersistentStartAfterFailure(t *testing.T) {
	const np, victim = 3, 2
	runFaultRanks(t, np, nil, func(rank int, w *Comm, dom *fault.Domain) error {
		const count = 8
		in, out := make([]int32, count), make([]int32, count)
		for i := range in {
			in[i] = int32(rank + i)
		}
		p, err := w.CommitAllreduce(in, 0, out, 0, count, Int, SumOp)
		if err != nil {
			return fmt.Errorf("commit: %w", err)
		}
		// One healthy activation first.
		if err := p.Start(); err != nil {
			return fmt.Errorf("healthy start: %w", err)
		}
		if _, err := p.Wait(); err != nil {
			return fmt.Errorf("healthy wait: %w", err)
		}
		// Quiesce before the kill: the victim dies only after every survivor
		// reports its activation complete, so no survivor has the collective
		// in flight when the failure lands.
		if rank == victim {
			tok := make([]int32, 1)
			for r := 0; r < np; r++ {
				if r == victim {
					continue
				}
				if _, err := w.Recv(tok, 0, 1, Int, r, 99); err != nil {
					return fmt.Errorf("done token from %d: %w", r, err)
				}
			}
			dom.Kill(victim)
			return nil
		}
		if err := w.Send([]int32{1}, 0, 1, Int, victim, 99); err != nil {
			return fmt.Errorf("done token: %w", err)
		}
		awaitDead(w, victim)
		err = p.Start()
		if err == nil {
			return errors.New("start after member failure succeeded")
		}
		if !errors.Is(err, ErrRankFailed) || errors.Is(err, ErrComm) {
			return fmt.Errorf("start after failure: %v, want ErrRankFailed (and not ErrComm)", err)
		}
		if fr, ok := FailedRank(err); !ok || fr != victim {
			return fmt.Errorf("start after failure names rank %d (ok=%v), want %d", fr, ok, victim)
		}
		return nil
	})
}

// TestPersistentInFlightFailure: a persistent collective activation that
// is in flight when a member dies completes with ErrRankFailed — typed,
// prompt, and never ErrComm.
func TestPersistentInFlightFailure(t *testing.T) {
	const np, victim = 3, 2
	arm := func(dom *fault.Domain) error { return dom.KillAt(victim, 0) }
	runFaultRanks(t, np, arm, func(rank int, w *Comm, dom *fault.Domain) error {
		const count = 8
		in, out := make([]int32, count), make([]int32, count)
		p, err := w.CommitAllreduce(in, 0, out, 0, count, Int, SumOp)
		if err != nil {
			return fmt.Errorf("commit: %w", err)
		}
		err = p.Start()
		if err == nil {
			_, err = p.Wait()
		}
		if rank == victim {
			dom.Kill(victim) // ensure the trigger fired even on a short schedule
			return nil
		}
		if err == nil {
			return errors.New("activation over a dying communicator succeeded")
		}
		if !errors.Is(err, ErrRankFailed) || errors.Is(err, ErrComm) {
			return fmt.Errorf("in-flight activation: %v, want ErrRankFailed (and not ErrComm)", err)
		}
		if fr, ok := FailedRank(err); !ok || fr != victim {
			return fmt.Errorf("in-flight activation names rank %d (ok=%v), want %d", fr, ok, victim)
		}
		return nil
	})
}

// TestMixedBatchFailure: a WaitAllRequests batch mixing point-to-point
// persistent requests between survivors with a collective over the dying
// world drains fully — the survivor-only traffic completes, the
// collective slot reports the typed rank failure. The np=3 allreduce is
// reduce-then-broadcast to rank 0, and the victim, rank 2, sends its
// contribution in its round 0. Killed before that round, it is a member
// every survivor's collective depends on, and each must fail. Killed
// before round 1, its contribution may have left: a survivor then either
// fails naming the victim or returns the exact sum of all three
// contributions — what the ULFM semantics promise, no more.
func TestMixedBatchFailure(t *testing.T) {
	const np, victim, count = 3, 2, 8
	contribution := func(rank, i int) int32 { return int32(rank*100 + i + 1) }
	for _, tc := range []struct {
		name   string
		killAt int
		mayEnd bool // a survivor's collective may complete with the full sum
	}{
		{"before-contribution", 0, false},
		{"mid-collective", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arm := func(dom *fault.Domain) error { return dom.KillAt(victim, tc.killAt) }
			runFaultRanks(t, np, arm, func(rank int, w *Comm, dom *fault.Domain) error {
				in, out := make([]int32, count), make([]int32, count)
				for i := range in {
					in[i] = contribution(rank, i)
				}
				if rank == victim {
					cr, err := w.Iallreduce(in, 0, out, 0, count, Int, SumOp)
					if err == nil {
						_, _ = cr.Wait()
					}
					dom.Kill(victim)
					return nil
				}

				peer := 1 - rank
				sbuf, rbuf := make([]int32, count), make([]int32, count)
				for i := range sbuf {
					sbuf[i] = int32(rank*100 + i)
				}
				ps, err := w.SendInit(sbuf, 0, count, Int, peer, 11)
				if err != nil {
					return fmt.Errorf("sendinit: %w", err)
				}
				pr, err := w.RecvInit(rbuf, 0, count, Int, peer, 11)
				if err != nil {
					return fmt.Errorf("recvinit: %w", err)
				}
				if err := StartAll([]*Prequest{ps, pr}); err != nil {
					return fmt.Errorf("startall: %w", err)
				}
				// p2pDone checks that the survivor-to-survivor exchange
				// completed with the right bytes, whatever the collective did.
				p2pDone := func() error {
					for i := range rbuf {
						if want := int32(peer*100 + i); rbuf[i] != want {
							return fmt.Errorf("p2p rbuf[%d] = %d, want %d", i, rbuf[i], want)
						}
					}
					return nil
				}
				typed := func(what string, err error) error {
					if !errors.Is(err, ErrRankFailed) || errors.Is(err, ErrComm) {
						return fmt.Errorf("%s: %v, want ErrRankFailed (and not ErrComm)", what, err)
					}
					if fr, ok := FailedRank(err); !ok || fr != victim {
						return fmt.Errorf("%s names rank %d (ok=%v), want %d", what, fr, ok, victim)
					}
					return nil
				}
				cr, err := w.Iallreduce(in, 0, out, 0, count, Int, SumOp)
				if err != nil {
					// The kill can land before the collective is even built; the
					// fail-fast path must still be the typed failure.
					if err := typed("iallreduce", err); err != nil {
						return err
					}
					if _, err := WaitAllRequests([]AnyRequest{ps, pr}); err != nil {
						return err
					}
					return p2pDone()
				}
				_, err = WaitAllRequests([]AnyRequest{ps, pr, cr})
				switch {
				case err == nil && !tc.mayEnd:
					return errors.New("mixed batch over a dying world succeeded")
				case err == nil:
					for i := range out {
						want := contribution(0, i) + contribution(1, i) + contribution(victim, i)
						if out[i] != want {
							return fmt.Errorf("collective completed with out[%d] = %d, want the full sum %d", i, out[i], want)
						}
					}
				default:
					if err := typed("mixed batch", err); err != nil {
						return err
					}
				}
				return p2pDone()
			})
		})
	}
}

// TestPcollSkeletonCache: pure persistent collectives cache their round
// skeleton at first Start and re-activations re-read the live user
// buffers; builders with build-time packed payloads cache too, via their
// reset hooks, and stay correct across buffer mutations.
func TestPcollSkeletonCache(t *testing.T) {
	const np = 3
	runRanks(t, np, func(w *Comm) error {
		rank := w.Rank()

		// Varying-count gather: rank r contributes r+1 values.
		scount := rank + 1
		sbuf := make([]int32, scount)
		rcounts := make([]int, np)
		displs := make([]int, np)
		total := 0
		for r := 0; r < np; r++ {
			rcounts[r] = r + 1
			displs[r] = total
			total += r + 1
		}
		rbuf := make([]int32, total)
		fill := func(gen int32) {
			for i := range sbuf {
				sbuf[i] = gen*1000 + int32(rank*10+i)
			}
		}
		check := func(gen int32) error {
			if rank != 0 {
				return nil
			}
			for r := 0; r < np; r++ {
				for i := 0; i < rcounts[r]; i++ {
					if got, want := rbuf[displs[r]+i], gen*1000+int32(r*10+i); got != want {
						return fmt.Errorf("gen %d: rbuf[%d+%d] = %d, want %d", gen, displs[r], i, got, want)
					}
				}
			}
			return nil
		}

		p, err := w.CommitGatherv(sbuf, 0, scount, Int, rbuf, 0, rcounts, displs, Int, 0)
		if err != nil {
			return fmt.Errorf("commit gatherv: %w", err)
		}
		for gen := int32(1); gen <= 3; gen++ {
			fill(gen)
			if err := p.Start(); err != nil {
				return fmt.Errorf("gen %d start: %w", gen, err)
			}
			if _, err := p.Wait(); err != nil {
				return fmt.Errorf("gen %d wait: %w", gen, err)
			}
			if err := check(gen); err != nil {
				return err
			}
			if err := expect(p.skel != nil, "gen %d: pgatherv skeleton not cached", gen); err != nil {
				return err
			}
		}

		// Allreduce packs its contribution at build time; the builder's
		// reset hook re-derives it per reactivation, so it caches too —
		// and must recompute across buffer mutations all the same.
		in, out := make([]int32, 4), make([]int32, 4)
		pa, err := w.CommitAllreduce(in, 0, out, 0, 4, Int, SumOp)
		if err != nil {
			return fmt.Errorf("commit allreduce: %w", err)
		}
		for gen := int32(1); gen <= 2; gen++ {
			for i := range in {
				in[i] = gen * int32(rank+1)
			}
			if err := pa.Start(); err != nil {
				return fmt.Errorf("allreduce gen %d start: %w", gen, err)
			}
			if _, err := pa.Wait(); err != nil {
				return fmt.Errorf("allreduce gen %d wait: %w", gen, err)
			}
			if err := expect(pa.skel != nil, "pallreduce skeleton not cached"); err != nil {
				return err
			}
			want := gen * int32(np*(np+1)/2)
			for i, v := range out {
				if v != want {
					return fmt.Errorf("allreduce gen %d: out[%d] = %d, want %d", gen, i, v, want)
				}
			}
		}

		// Barrier is trivially pure.
		pb, err := w.CommitBarrier()
		if err != nil {
			return fmt.Errorf("commit barrier: %w", err)
		}
		if err := pb.Start(); err != nil {
			return fmt.Errorf("barrier start: %w", err)
		}
		if _, err := pb.Wait(); err != nil {
			return fmt.Errorf("barrier wait: %w", err)
		}
		return expect(pb.skel != nil, "pbarrier skeleton not cached")
	})
}
