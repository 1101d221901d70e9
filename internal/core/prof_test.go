package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"mpj/internal/device"
	"mpj/internal/prof"
	"mpj/internal/transport"
)

// runRanksProf is the runRanks harness with a prof.Recorder attached to
// every rank's device, over the channel mesh or, when hyb, the process
// hub's (hubMesh).
func runRanksProf(t *testing.T, np int, spec prof.Spec, hyb bool, fn func(w *Comm) error) {
	t.Helper()
	var eps []transport.Transport
	if hyb {
		eps = hubMesh(t, np)
	} else {
		for _, ep := range transport.NewChanMesh(np) {
			eps = append(eps, ep)
		}
	}
	err := runJob(np, func(i int) (*device.Device, error) {
		var opts []device.Option
		if rec := prof.New(i, spec); rec != nil {
			opts = append(opts, device.WithProfiler(rec))
		}
		return device.Open(eps[i], opts...)
	}, fn)
	if err != nil {
		t.Fatal(err)
	}
}

// goBarrier is a reusable in-process barrier with no MPJ traffic. The
// exact-count tests need it: snapshots are taken per rank, and a rank
// that raced ahead into the next MPJ operation would land frames on
// slower ranks before they snapshot, inflating their receive counters.
type goBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
}

func newGoBarrier(n int) *goBarrier {
	b := &goBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *goBarrier) await() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// measureOp isolates op's counter movement on w: an MPJ barrier drains
// in-flight traffic (its own completion implies every inbound frame was
// counted), then in-process barriers bracket the op so no rank starts it
// before all have taken their base snapshot, and none proceeds past it
// before all have taken their post snapshot.
func measureOp(w *Comm, bar *goBarrier, op func() error) (prof.Snapshot, error) {
	if err := w.Barrier(); err != nil {
		return prof.Snapshot{}, err
	}
	base := w.ProfSnapshot()
	bar.await()
	if err := op(); err != nil {
		return prof.Snapshot{}, err
	}
	diff := snapDiff(base, w.ProfSnapshot())
	bar.await()
	return diff, nil
}

// snapDiff returns the counter movement from base to cur, field by field.
func snapDiff(base, cur prof.Snapshot) prof.Snapshot {
	return prof.Snapshot{
		SendOps:        cur.SendOps - base.SendOps,
		RecvOps:        cur.RecvOps - base.RecvOps,
		EagerSent:      cur.EagerSent - base.EagerSent,
		EagerSentBytes: cur.EagerSentBytes - base.EagerSentBytes,
		RdvSent:        cur.RdvSent - base.RdvSent,
		RdvSentBytes:   cur.RdvSentBytes - base.RdvSentBytes,
		EagerRecv:      cur.EagerRecv - base.EagerRecv,
		EagerRecvBytes: cur.EagerRecvBytes - base.EagerRecvBytes,
		RdvRecv:        cur.RdvRecv - base.RdvRecv,
		RdvRecvBytes:   cur.RdvRecvBytes - base.RdvRecvBytes,
		CollStarted:    cur.CollStarted - base.CollStarted,
		CollDone:       cur.CollDone - base.CollDone,
		CollFailed:     cur.CollFailed - base.CollFailed,
		CollRounds:     cur.CollRounds - base.CollRounds,
		WaitNs:         cur.WaitNs - base.WaitNs,
	}
}

// sumSnaps totals per-rank snapshots across the job.
func sumSnaps(ds []prof.Snapshot) prof.Snapshot {
	var s prof.Snapshot
	for _, d := range ds {
		s.SendOps += d.SendOps
		s.RecvOps += d.RecvOps
		s.EagerSent += d.EagerSent
		s.EagerSentBytes += d.EagerSentBytes
		s.RdvSent += d.RdvSent
		s.RdvSentBytes += d.RdvSentBytes
		s.EagerRecv += d.EagerRecv
		s.EagerRecvBytes += d.EagerRecvBytes
		s.RdvRecv += d.RdvRecv
		s.RdvRecvBytes += d.RdvRecvBytes
		s.CollStarted += d.CollStarted
		s.CollDone += d.CollDone
		s.CollFailed += d.CollFailed
		s.CollRounds += d.CollRounds
	}
	return s
}

// TestProfCountersBcastExact checks the counters against the ground-truth
// traffic of a classic binomial Bcast on both devices: np-1 block
// transfers of exactly count*4 bytes, eager below the protocol threshold
// and rendezvous above it, one collective started and completed per rank.
func TestProfCountersBcastExact(t *testing.T) {
	const np = 4
	cases := []struct {
		name  string
		hyb   bool
		count int  // int32 elements
		eager bool // expected protocol at the default 16 KiB limit
	}{
		{"chan-eager", false, 1024, true},
		{"chan-rdv", false, 16 << 10, false},
		{"hyb-eager", true, 1024, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			diffs := make([]prof.Snapshot, np)
			bar := newGoBarrier(np)
			runRanksProf(t, np, prof.Spec{Counters: true}, tc.hyb, func(w *Comm) error {
				ForceCollAlg(w, CollAlgClassic)
				buf := make([]int32, tc.count)
				if w.Rank() == 0 {
					for i := range buf {
						buf[i] = int32(i)
					}
				}
				if !w.ProfEnabled() {
					return fmt.Errorf("ProfEnabled() = false with counters on")
				}
				diff, err := measureOp(w, bar, func() error {
					return w.Bcast(buf, 0, tc.count, Int, 0)
				})
				if err != nil {
					return err
				}
				diffs[w.Rank()] = diff
				if buf[tc.count-1] != int32(tc.count-1) {
					return fmt.Errorf("bcast payload corrupted")
				}
				return nil
			})
			total := sumSnaps(diffs)
			wantBytes := int64((np - 1) * tc.count * 4)
			sentMsgs, sentBytes := total.EagerSent, total.EagerSentBytes
			recvMsgs, recvBytes := total.EagerRecv, total.EagerRecvBytes
			otherMsgs := total.RdvSent + total.RdvRecv
			if !tc.eager {
				sentMsgs, sentBytes = total.RdvSent, total.RdvSentBytes
				recvMsgs, recvBytes = total.RdvRecv, total.RdvRecvBytes
				otherMsgs = total.EagerSent + total.EagerRecv
			}
			if sentMsgs != np-1 || recvMsgs != np-1 || otherMsgs != 0 {
				t.Errorf("messages: sent %d recv %d other-protocol %d, want %d/%d/0 (%+v)",
					sentMsgs, recvMsgs, otherMsgs, np-1, np-1, total)
			}
			if sentBytes != wantBytes || recvBytes != wantBytes {
				t.Errorf("bytes: sent %d recv %d, want %d both", sentBytes, recvBytes, wantBytes)
			}
			if total.SendOps != np-1 || total.RecvOps != np-1 {
				t.Errorf("ops: %d sends %d recvs, want %d both", total.SendOps, total.RecvOps, np-1)
			}
			if total.CollStarted != np || total.CollDone != np || total.CollFailed != 0 {
				t.Errorf("collectives: started %d done %d failed %d, want %d/%d/0",
					total.CollStarted, total.CollDone, total.CollFailed, np, np)
			}
		})
	}

	// Below large_min the same plan at 8 B and 4 KiB, raw and derived, under
	// automatic selection and every forced family: the one binomial tree,
	// an eager message of the whole payload per edge, the root sending one
	// per child and every other rank receiving one.
	pair, err := Contiguous(2, Int)
	if err != nil {
		t.Fatal(err)
	}
	for _, bytes := range []int{8, 4 << 10} {
		for _, ty := range []struct {
			name string
			dt   Datatype
		}{{"int", Int}, {"pair", pair}} {
			dt := ty.dt
			for _, fam := range shapeFamilies {
				const np, root = 4, 1
				t.Run(fmt.Sprintf("small_%dB_%s_%s", bytes, ty.name, fam), func(t *testing.T) {
					diffs := make([]prof.Snapshot, np)
					children := make([]int, np)
					bar := newGoBarrier(np)
					runRanksProf(t, np, prof.Spec{Counters: true}, false, func(w *Comm) error {
						ForceCollAlg(w, fam)
						_, ch := binomialEdges(w, root)
						children[w.Rank()] = len(ch)
						buf := make([]int32, bytes/4)
						if w.Rank() == root {
							for i := range buf {
								buf[i] = int32(i*7 + 3)
							}
						}
						diff, err := measureOp(w, bar, func() error {
							req, err := w.Ibcast(buf, 0, bytes/dt.ByteSize(), dt, root)
							if err != nil {
								return err
							}
							if req.alg != "binomial" {
								return fmt.Errorf("compiled %s, want binomial", req.alg)
							}
							_, err = req.Wait()
							return err
						})
						diffs[w.Rank()] = diff
						if err != nil {
							return err
						}
						for i, v := range buf {
							if v != int32(i*7+3) {
								return fmt.Errorf("buf[%d] = %d, want %d", i, v, i*7+3)
							}
						}
						return nil
					})
					for r, d := range diffs {
						recvd, rounds := int64(1), int64(1)
						if r == root {
							recvd, rounds = 0, 0
						}
						sent := int64(children[r])
						if sent > 0 {
							rounds++
						}
						if d.EagerSent != sent || d.EagerRecv != recvd || d.RdvSent+d.RdvRecv != 0 ||
							d.EagerSentBytes != sent*int64(bytes) || d.EagerRecvBytes != recvd*int64(bytes) ||
							d.CollRounds != rounds || d.CollStarted != 1 || d.CollDone != 1 {
							t.Errorf("rank %d: %d eager sent (%d B), %d arrived (%d B), %d rendezvous, %d rounds; want %d (%d B), %d (%d B), 0, %d (%+v)",
								r, d.EagerSent, d.EagerSentBytes, d.EagerRecv, d.EagerRecvBytes, d.RdvSent+d.RdvRecv, d.CollRounds,
								sent, sent*int64(bytes), recvd, recvd*int64(bytes), rounds, d)
						}
					}
				})
			}
		}
	}

	// Above large_min the same tree lands in place: still one message per
	// edge, never one per segment.
	const large = 1 << 18 // 1 MiB of Int
	for _, np := range []int{3, 4, 5, 8} {
		for _, root := range []int{0, np - 1} {
			for _, hyb := range []bool{false, true} {
				name := fmt.Sprintf("large_np%d_root%d_chan", np, root)
				if hyb {
					name = fmt.Sprintf("large_np%d_root%d_hyb", np, root)
				}
				t.Run(name, func(t *testing.T) {
					diffs := make([]prof.Snapshot, np)
					bar := newGoBarrier(np)
					runRanksProf(t, np, prof.Spec{Counters: true}, hyb, func(w *Comm) error {
						buf := make([]int32, large)
						if w.Rank() == root {
							for i := range buf {
								buf[i] = int32(i ^ root)
							}
						}
						diff, err := measureOp(w, bar, func() error {
							req, err := w.Ibcast(buf, 0, large, Int, root)
							if err != nil {
								return err
							}
							if req.alg != "binomial" {
								return fmt.Errorf("compiled %s, want binomial", req.alg)
							}
							_, err = req.Wait()
							return err
						})
						diffs[w.Rank()] = diff
						if err != nil {
							return err
						}
						for i, v := range buf {
							if v != int32(i^root) {
								return fmt.Errorf("buf[%d] = %d, want %d", i, v, i^root)
							}
						}
						return nil
					})
					checkBcastTotals(t, sumSnaps(diffs), np, 4*large)
				})
			}
		}
	}

	// The persistent form: one cached skeleton, four activations over a
	// root buffer rewritten between Starts, each exactly one tree's traffic.
	t.Run("persistent_large_np4", func(t *testing.T) {
		const np, root = 4, 1
		diffs := make([][]prof.Snapshot, 4)
		for i := range diffs {
			diffs[i] = make([]prof.Snapshot, np)
		}
		bar := newGoBarrier(np)
		runRanksProf(t, np, prof.Spec{Counters: true}, false, func(w *Comm) error {
			buf := make([]int32, large)
			p, err := w.CommitBcast(buf, 0, large, Int, root)
			if err != nil {
				return err
			}
			for gen := range diffs {
				if w.Rank() == root {
					for i := range buf {
						buf[i] = int32(gen*7 + i)
					}
				}
				diff, err := measureOp(w, bar, func() error {
					if err := p.Start(); err != nil {
						return err
					}
					_, err := p.Wait()
					return err
				})
				if err != nil {
					return err
				}
				diffs[gen][w.Rank()] = diff
				if p.skel == nil || p.active.alg != "binomial" {
					return fmt.Errorf("activation %d: skeleton cached %v, alg %s", gen, p.skel != nil, p.active.alg)
				}
				for i, v := range buf {
					if v != int32(gen*7+i) {
						return fmt.Errorf("activation %d: buf[%d] = %d, want %d", gen, i, v, gen*7+i)
					}
				}
			}
			return nil
		})
		for gen, d := range diffs {
			t.Run(fmt.Sprintf("activation%d", gen), func(t *testing.T) {
				checkBcastTotals(t, sumSnaps(d), np, 4*large)
			})
		}
	})
}

// checkBcastTotals checks one broadcast's job-wide counters: np-1
// rendezvous messages of exactly bytes each, one collective per rank.
func checkBcastTotals(t *testing.T, total prof.Snapshot, np, bytes int) {
	t.Helper()
	want := int64(np - 1)
	if total.SentMsgs() != want || total.RecvMsgs() != want || total.EagerSent+total.EagerRecv != 0 {
		t.Errorf("messages: sent %d recv %d eager %d, want %d/%d/0 (%+v)",
			total.SentMsgs(), total.RecvMsgs(), total.EagerSent+total.EagerRecv, want, want, total)
	}
	if total.SentBytes() != want*int64(bytes) || total.RecvBytes() != want*int64(bytes) {
		t.Errorf("bytes: sent %d recv %d, want %d both", total.SentBytes(), total.RecvBytes(), want*int64(bytes))
	}
	if total.CollStarted != int64(np) || total.CollDone != int64(np) || total.CollFailed != 0 {
		t.Errorf("collectives: started %d done %d failed %d, want %d/%d/0",
			total.CollStarted, total.CollDone, total.CollFailed, np, np)
	}
}

// TestProfCountersPingPongExact pins what the profiler sees of the
// benchmark's ping-pong shape: per rank and round trip one message and its
// bytes posted, one payload and its bytes arrived, all of it rendezvous at
// 1 MiB and all of it eager at 4 KiB. The counts are what they were when
// rendezvous payloads still travelled as frames: the recorder sees every
// payload once, at the device boundary, however the bytes move below it.
func TestProfCountersPingPongExact(t *testing.T) {
	const trips = 5
	for _, tc := range []struct {
		name  string
		hyb   bool
		count int // bytes
	}{
		{"chan-1m", false, 1 << 20},
		{"hyb-1m", true, 1 << 20},
		{"chan-4k", false, 4 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			diffs := make([]prof.Snapshot, 2)
			bar := newGoBarrier(2)
			runRanksProf(t, 2, prof.Spec{Counters: true}, tc.hyb, func(w *Comm) error {
				buf := make([]byte, tc.count)
				diff, err := measureOp(w, bar, func() error {
					for i := 0; i < trips; i++ {
						if w.Rank() == 0 {
							if err := TypedSend(w, buf, 1, 1); err != nil {
								return err
							}
						}
						if _, err := TypedRecv(w, buf, 1-w.Rank(), 1); err != nil {
							return err
						}
						if w.Rank() == 1 {
							if err := TypedSend(w, buf, 0, 1); err != nil {
								return err
							}
						}
					}
					return nil
				})
				diffs[w.Rank()] = diff
				return err
			})
			bytes := int64(trips * tc.count)
			for rank, d := range diffs {
				msgs, sent, recvd, rdv := d.SendOps, d.EagerSentBytes+d.RdvSentBytes, d.EagerRecvBytes+d.RdvRecvBytes, d.RdvSent+d.RdvRecv
				wantRdv := int64(0)
				if tc.count > device.DefaultEagerLimit {
					wantRdv = 2 * trips
				}
				if msgs != trips || d.RecvOps != trips || sent != bytes || recvd != bytes || rdv != wantRdv || d.EagerSent+d.EagerRecv+rdv != 2*trips {
					t.Errorf("rank %d: %d msgs / %d recvs posted, %d B sent, %d B arrived, %d rendezvous of %d payloads; want %d/%d, %d, %d, %d of %d (%+v)",
						rank, msgs, d.RecvOps, sent, recvd, rdv, d.EagerSent+d.EagerRecv+rdv, trips, trips, bytes, bytes, wantRdv, 2*trips, d)
				}
			}
		})
	}
}

// profLarge is the element count of the exact-counter rows of the large
// vector family: Int, 236 KiB, above large_min, and divisible by every
// communicator size 3…8, so every chunk is the same size.
const profLarge = 60480

// TestProfCountersAllreduceExact pins the recursive-doubling Allreduce to
// its textbook traffic: every rank sends one count*4-byte message in each
// of log2(np) rounds; and the large allreduce to its own.
func TestProfCountersAllreduceExact(t *testing.T) {
	const np, count = 4, 1024
	diffs := make([]prof.Snapshot, np)
	bar := newGoBarrier(np)
	runRanksProf(t, np, prof.Spec{Counters: true}, false, func(w *Comm) error {
		sbuf := make([]int32, count)
		rbuf := make([]int32, count)
		for i := range sbuf {
			sbuf[i] = int32(w.Rank() + i)
		}
		diff, err := measureOp(w, bar, func() error {
			return allreduceWith(w, allreduceRecursiveDoubling, sbuf, 0, rbuf, 0, count, Int, SumOp)
		})
		if err != nil {
			return err
		}
		diffs[w.Rank()] = diff
		if rbuf[0] != 0+1+2+3 {
			return fmt.Errorf("allreduce result %d, want 6", rbuf[0])
		}
		return nil
	})
	total := sumSnaps(diffs)
	const rounds = 2 // log2(4)
	wantMsgs := int64(np * rounds)
	wantBytes := wantMsgs * count * 4
	if total.EagerSent != wantMsgs || total.EagerRecv != wantMsgs {
		t.Errorf("messages: sent %d recv %d, want %d both (%+v)", total.EagerSent, total.EagerRecv, wantMsgs, total)
	}
	if total.EagerSentBytes != wantBytes || total.EagerRecvBytes != wantBytes {
		t.Errorf("bytes: sent %d recv %d, want %d both", total.EagerSentBytes, total.EagerRecvBytes, wantBytes)
	}
	if total.CollRounds != int64(np*rounds) {
		t.Errorf("rounds: %d, want %d", total.CollRounds, np*rounds)
	}
	if total.CollStarted != np || total.CollDone != np {
		t.Errorf("collectives: started %d done %d, want %d both", total.CollStarted, total.CollDone, np)
	}
	for i, d := range diffs {
		if d.WaitNs < 0 {
			t.Errorf("rank %d: negative wait time %d", i, d.WaitNs)
		}
	}

	// The large family, per rank — the counts a traced benchmark run prints
	// as device.msgs_per_op and core.rounds_per_op: 2·log₂p messages and
	// rounds of recursive halving/doubling on a power-of-two communicator,
	// the ring's 2(p-1) on any other, and 2·n·(p-1)/p bytes either way.
	for _, tc := range []struct {
		np, msgs int
		alg      string
	}{
		{4, 4, "halving-doubling"},
		{8, 6, "halving-doubling"},
		{3, 4, "ring"},
		{5, 8, "ring"},
		{6, 10, "ring"},
		{7, 12, "ring"},
	} {
		t.Run(fmt.Sprintf("large_np%d", tc.np), func(t *testing.T) {
			diffs := make([]prof.Snapshot, tc.np)
			bar := newGoBarrier(tc.np)
			runRanksProf(t, tc.np, prof.Spec{Counters: true}, false, func(w *Comm) error {
				sbuf, rbuf := make([]int32, profLarge), make([]int32, profLarge)
				for i := range sbuf {
					sbuf[i] = int32(w.Rank() + i)
				}
				diff, err := measureOp(w, bar, func() error {
					req, err := w.Iallreduce(sbuf, 0, rbuf, 0, profLarge, Int, SumOp)
					if err != nil {
						return err
					}
					if req.alg != tc.alg {
						return fmt.Errorf("compiled %s, want %s", req.alg, tc.alg)
					}
					_, err = req.Wait()
					return err
				})
				diffs[w.Rank()] = diff
				return err
			})
			bytes := int64(2 * profLarge * 4 * (tc.np - 1) / tc.np)
			for rank, d := range diffs {
				if d.SentMsgs() != int64(tc.msgs) || d.RecvMsgs() != int64(tc.msgs) || d.CollRounds != int64(tc.msgs) ||
					d.SentBytes() != bytes || d.RecvBytes() != bytes || d.CollStarted != 1 || d.CollDone != 1 {
					t.Errorf("rank %d: %d msgs sent, %d arrived, %d rounds, %d B sent, %d B arrived; want %d, %d, %d, %d, %d (%+v)",
						rank, d.SentMsgs(), d.RecvMsgs(), d.CollRounds, d.SentBytes(), d.RecvBytes(), tc.msgs, tc.msgs, tc.msgs, bytes, bytes, d)
				}
			}
		})
	}
}

// TestCollSelectionReadsNoTable: selection reads no file. A crossover table
// in the format earlier versions loaded at NewWorld — from
// ~/.mpj/colltab.json, or from the path in MPJ_COLL_TABLE — raising
// large_min to 1 MiB must not move an np=4 chan Allreduce of 256 KiB off
// the large family: recursive halving/doubling, 4 messages each way per
// rank, as TestProfCountersAllreduceExact pins.
func TestCollSelectionReadsNoTable(t *testing.T) {
	table := []byte(`{"version": 1, "devices": {"chan": {"large_min": 1048576}, "hyb": {"large_min": 1048576}, "tcp": {"large_min": 1048576}}}`)
	home := t.TempDir()
	if err := os.Mkdir(filepath.Join(home, ".mpj"), 0o755); err != nil {
		t.Fatal(err)
	}
	named := filepath.Join(t.TempDir(), "table.json")
	for _, path := range []string{filepath.Join(home, ".mpj", "colltab.json"), named} {
		if err := os.WriteFile(path, table, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Setenv("HOME", home)
	t.Setenv("MPJ_COLL_TABLE", named)

	const np, count = 4, 64 << 10 // 256 KiB of Int
	diffs := make([]prof.Snapshot, np)
	bar := newGoBarrier(np)
	runRanksProf(t, np, prof.Spec{Counters: true}, false, func(w *Comm) error {
		sbuf, rbuf := make([]int32, count), make([]int32, count)
		for i := range sbuf {
			sbuf[i] = int32(w.Rank() + i)
		}
		diff, err := measureOp(w, bar, func() error {
			return w.Allreduce(sbuf, 0, rbuf, 0, count, Int, SumOp)
		})
		diffs[w.Rank()] = diff
		if err != nil {
			return err
		}
		return expect(rbuf[0] == 0+1+2+3, "allreduce result %d, want 6", rbuf[0])
	})
	for rank, d := range diffs {
		if d.SentMsgs() != 4 || d.RecvMsgs() != 4 {
			t.Errorf("rank %d: %d messages sent, %d arrived; want the large family's 4 and 4 (%+v)", rank, d.SentMsgs(), d.RecvMsgs(), d)
		}
	}
}

// TestProfCountersReduceScatterExact pins the large ReduceScatter to the
// large allreduce's fold half, per rank: log₂p messages and rounds of
// recursive halving on a power-of-two communicator, the ring's p-1 on any
// other, n·(p-1)/p bytes either way (np=2 stays classic under
// largeCollMinNP). The varying row (vLayout at np=4: blocks n, 2n, 0, n)
// shows that an empty range moves no message: rank 2 receives nothing for
// its empty block and rank 3 sends rank 2 nothing for it.
func TestProfCountersReduceScatterExact(t *testing.T) {
	type want struct{ sent, recvd, sentElems, recvdElems int }
	const n = 4096 // the varying row's unit: 64 KiB of Int in all
	for _, tc := range []struct {
		np     int
		alg    string
		vary   bool
		ranks  []want // per rank, for the varying row
		rounds int
	}{
		{np: 3, alg: "ring", rounds: 2},
		{np: 4, alg: "halving", rounds: 2},
		{np: 5, alg: "ring", rounds: 4},
		{np: 8, alg: "halving", rounds: 3},
		{np: 4, alg: "halving", rounds: 2, vary: true, ranks: []want{
			{2, 2, 3 * n, 4 * n}, {2, 2, 2 * n, 5 * n}, {2, 1, 4 * n, n}, {1, 2, 3 * n, 2 * n}}},
	} {
		name := fmt.Sprintf("np%d", tc.np)
		if tc.vary {
			name += "_vlayout"
		}
		t.Run(name, func(t *testing.T) {
			counts, _ := uniformLayout(tc.np, profLarge/tc.np)
			total := profLarge
			if tc.vary {
				counts, _, total = vLayout(tc.np, n)
			}
			diffs := make([]prof.Snapshot, tc.np)
			bar := newGoBarrier(tc.np)
			runRanksProf(t, tc.np, prof.Spec{Counters: true}, false, func(w *Comm) error {
				sbuf, rbuf := make([]int32, total), make([]int32, counts[w.Rank()])
				diff, err := measureOp(w, bar, func() error {
					req, err := w.IreduceScatter(sbuf, 0, rbuf, 0, counts, Int, SumOp)
					if err != nil {
						return err
					}
					if req.alg != tc.alg {
						return fmt.Errorf("compiled %s, want %s", req.alg, tc.alg)
					}
					_, err = req.Wait()
					return err
				})
				diffs[w.Rank()] = diff
				return err
			})
			for rank, d := range diffs {
				msgs := tc.rounds
				w := want{msgs, msgs, total * (tc.np - 1) / tc.np, total * (tc.np - 1) / tc.np}
				if tc.vary {
					w = tc.ranks[rank]
				}
				if d.SentMsgs() != int64(w.sent) || d.RecvMsgs() != int64(w.recvd) || d.CollRounds != int64(tc.rounds) ||
					d.SentBytes() != int64(4*w.sentElems) || d.RecvBytes() != int64(4*w.recvdElems) || d.CollStarted != 1 || d.CollDone != 1 {
					t.Errorf("rank %d: %d msgs sent, %d arrived, %d rounds, %d B sent, %d B arrived; want %d, %d, %d, %d, %d (%+v)",
						rank, d.SentMsgs(), d.RecvMsgs(), d.CollRounds, d.SentBytes(), d.RecvBytes(),
						w.sent, w.recvd, tc.rounds, 4*w.sentElems, 4*w.recvdElems, d)
				}
			}
		})
	}
}

// TestProfCountersAllgatherExact pins every flat allgather, np 2…9, to its
// messages, rounds and bytes per rank: Allgather, and Allgatherv over the
// uniform layout, over vLayout's varying blocks laid end to end, over them
// permuted with gaps, and mixed — rank 0 passing the permuted displs while
// the others lay the blocks end to end — of Int, of a strided derived type
// and of OBJECT. Fixed-size blocks take the gather half whatever each
// member's displs — recursive doubling at a power-of-two size (log₂p
// messages for the uniform layout), the ring's p-1 steps otherwise — and an
// empty range is no message; variable-size blocks take one linear round,
// p-1 sends. Every
// compiled schedule passes lendCheck, and every case checks its bits through
// the I form, InPlace and a persistent request started three times over
// mutated buffers — its schedule cached, slots outside the blocks left alone.
func TestProfCountersAllgatherExact(t *testing.T) {
	types := blockTypes(t)
	const n = 3 // the layouts' unit, in elements
	type agCase struct {
		name           string
		v              bool // Allgatherv
		counts, displs []int
		rank0          []int // rank 0's displs where they differ from the others'
		typ            int
	}
	layouts := func(np int) (cs []agCase) {
		uni, udispls := uniformLayout(np, n)
		counts, displs, _ := vLayout(np, n)
		gapped, at := make([]int, np), 0 // vLayout's blocks in reverse rank order, one element apart
		for r := np - 1; r >= 0; r-- {
			gapped[r], at = at, at+counts[r]+1
		}
		for typ := range types {
			cs = append(cs,
				agCase{"allgather", false, uni, udispls, nil, typ},
				agCase{"allgatherv/uniform", true, uni, udispls, nil, typ},
				agCase{"allgatherv/end-to-end", true, counts, displs, nil, typ},
				agCase{"allgatherv/gapped", true, counts, gapped, nil, typ},
				agCase{"allgatherv/mixed", true, counts, displs, gapped, typ})
		}
		return cs
	}
	fill := func(tc agCase, slots, k int, blocks []int, at func(r int) int) any {
		return types[tc.typ].fill(tc.counts, slots, k, blocks, at)
	}
	type result struct {
		d   prof.Snapshot
		alg string
	}
	for np := 2; np <= 9; np++ {
		cases := layouts(np)
		all := make([]int, np) // every block
		for r := range all {
			all[r] = r
		}
		got := make([][]result, len(cases))
		for i := range got {
			got[i] = make([]result, np)
		}
		bar := newGoBarrier(np)
		runRanksProf(t, np, prof.Spec{Counters: true}, false, func(w *Comm) error {
			me := w.Rank()
			for ci, tc := range cases {
				if me == 0 && tc.rank0 != nil {
					tc.displs = tc.rank0
				}
				ty := types[tc.typ]
				where := fmt.Sprintf("np=%d %s %s", np, tc.name, ty.name)
				nslots := 0
				for r := range tc.counts {
					nslots = max(nslots, (tc.displs[r]+tc.counts[r])*ty.ext)
				}
				inRecv := func(r int) int { return tc.displs[r] * ty.ext }
				sbuf := fill(tc, tc.counts[me]*ty.ext, 0, []int{me}, func(int) int { return 0 })
				rbuf := fill(tc, nslots, 0, nil, inRecv)
				start := func(sbuf any, soff, scount int) (*CollRequest, error) {
					if tc.v {
						return w.Iallgatherv(sbuf, soff, scount, ty.dt, rbuf, 0, tc.counts, tc.displs, ty.dt)
					}
					return w.Iallgather(sbuf, soff, scount, ty.dt, rbuf, 0, n, ty.dt)
				}
				check := func(how string, k int) error {
					if want := fill(tc, nslots, k, all, inRecv); !reflect.DeepEqual(rbuf, want) {
						return fmt.Errorf("%s %s: receive buffer %v, want %v", where, how, rbuf, want)
					}
					return nil
				}
				d, err := measureOp(w, bar, func() error {
					req, err := start(sbuf, 0, tc.counts[me])
					if err != nil {
						return err
					}
					got[ci][me].alg = req.alg
					if err := lendCheck(req.rounds, nil); err != nil {
						return err
					}
					_, err = req.Wait()
					return err
				})
				if err != nil {
					return fmt.Errorf("%s: %w", where, err)
				}
				got[ci][me].d = d
				if err := check("I form", 0); err != nil {
					return err
				}

				// InPlace: the contribution waits in the rank's own slot.
				rbuf = fill(tc, nslots, 0, []int{me}, inRecv)
				req, err := start(InPlace, 0, 0)
				if err == nil {
					_, err = req.Wait()
				}
				if err != nil {
					return fmt.Errorf("%s InPlace: %w", where, err)
				}
				if err := check("InPlace", 0); err != nil {
					return err
				}

				// The persistent form, its buffers rewritten before each Start.
				rbuf = fill(tc, nslots, 0, nil, inRecv)
				var p *PcollRequest
				if tc.v {
					p, err = w.CommitAllgatherv(sbuf, 0, tc.counts[me], ty.dt, rbuf, 0, tc.counts, tc.displs, ty.dt)
				} else {
					p, err = w.CommitAllgather(sbuf, 0, tc.counts[me], ty.dt, rbuf, 0, n, ty.dt)
				}
				if err != nil {
					return fmt.Errorf("%s Commit: %w", where, err)
				}
				for k := 1; k <= 3; k++ {
					reflect.Copy(reflect.ValueOf(sbuf), reflect.ValueOf(fill(tc, tc.counts[me]*ty.ext, k, []int{me}, func(int) int { return 0 })))
					reflect.Copy(reflect.ValueOf(rbuf), reflect.ValueOf(fill(tc, nslots, k, nil, inRecv)))
					if err := p.Start(); err != nil {
						return fmt.Errorf("%s Start %d: %w", where, k, err)
					}
					if err := lendCheck(p.active.rounds, nil); err != nil {
						return fmt.Errorf("%s Start %d: %w", where, k, err)
					}
					if _, err := p.Wait(); err != nil {
						return fmt.Errorf("%s Start %d: %w", where, k, err)
					}
					if p.skel == nil {
						return fmt.Errorf("%s Start %d: the schedule was not cached", where, k)
					}
					if err := check(fmt.Sprintf("Start %d", k), k); err != nil {
						return err
					}
				}
			}
			return nil
		})
		for ci, tc := range cases {
			ty := types[tc.typ]
			// What block r weighs on the wire: its packed bytes, none when
			// it is empty.
			bytes := make([]int, np)
			for r := range tc.counts {
				bytes[r] = ty.packed(t, tc.counts, r)
			}
			for me, g := range got[ci] {
				var sent, recvd, sentB, recvdB, rounds int
				step := func(send, recv int) {
					if send > 0 {
						sent, sentB = sent+1, sentB+send
					}
					if recv > 0 {
						recvd, recvdB = recvd+1, recvdB+recv
					}
					if send+recv > 0 {
						rounds++
					}
				}
				span := func(lo, d int) (b int) {
					for r := lo; r < lo+d; r++ {
						b += bytes[r]
					}
					return b
				}
				alg := "ring"
				switch {
				case ty.dt == Object:
					alg = "linear"
					for r := range bytes {
						if r != me {
							step(bytes[me], bytes[r])
						}
					}
					rounds = min(rounds, 1)
				case np&(np-1) == 0:
					alg = "recursive-doubling"
					for d := 1; d < np; d <<= 1 {
						lo := me &^ (d - 1)
						step(span(lo, d), span(lo^d, d))
					}
				default:
					for s := 0; s < np-1; s++ {
						step(bytes[(me-s+np)%np], bytes[(me-s-1+2*np)%np])
					}
				}
				d := g.d
				if g.alg != alg || d.SentMsgs() != int64(sent) || d.RecvMsgs() != int64(recvd) || d.CollRounds != int64(rounds) ||
					d.SentBytes() != int64(sentB) || d.RecvBytes() != int64(recvdB) || d.CollStarted != 1 || d.CollDone != 1 {
					t.Errorf("np=%d %s %s rank %d: %s, %d msgs sent, %d arrived, %d rounds, %d B sent, %d B arrived; want %s, %d, %d, %d, %d, %d (%+v)",
						np, tc.name, ty.name, me, g.alg, d.SentMsgs(), d.RecvMsgs(), d.CollRounds, d.SentBytes(), d.RecvBytes(),
						alg, sent, recvd, rounds, sentB, recvdB, d)
				}
			}
		}
	}
}

// blockType is a datatype of the exact-counter tables of the blocked
// collectives, with how its elements lie in a buffer.
type blockType struct {
	name  string
	dt    Datatype
	ext   int   // slots per element
	slots []int // the slots of an element that it carries
}

// blockTypes are Int, a strided derived type and OBJECT.
func blockTypes(t *testing.T) []blockType {
	vec, err := Vector(2, 1, 2, Int) // two Ints around a hole: 3 slots, 8 bytes
	if err != nil {
		t.Fatal(err)
	}
	return []blockType{{"int", Int, 1, []int{0}}, {"vector", vec, 3, []int{0, 2}}, {"object", Object, 1, []int{0}}}
}

// fill returns a buffer of the type with the given slots, every slot holding
// the sentinel but the elements of each listed block r — counts[r] of them
// from slot at(r) on — whose values name generation k, r, the element and
// the slot within it.
func (ty blockType) fill(counts []int, slots, k int, blocks []int, at func(r int) int) any {
	ints, objs := make([]int32, slots), make([]any, slots)
	for i := range ints {
		ints[i] = -1
	}
	for _, r := range blocks {
		for i := 0; i < counts[r]; i++ {
			for _, o := range ty.slots {
				v := int32(k*100000 + r*1000 + i*10 + o)
				ints[at(r)+i*ty.ext+o], objs[at(r)+i*ty.ext+o] = v, int(v)
			}
		}
	}
	if ty.dt == Object {
		return objs
	}
	return ints
}

// packed returns what block r of counts weighs on the wire: its packed
// bytes, none when it is empty.
func (ty blockType) packed(t *testing.T, counts []int, r int) int {
	if counts[r] == 0 {
		return 0
	}
	b, err := ty.dt.Pack(nil, ty.fill(counts, counts[r]*ty.ext, 0, []int{r}, func(int) int { return 0 }), 0, counts[r])
	if err != nil {
		t.Fatal(err)
	}
	return len(b)
}

// TestProfCountersScatterExact pins the scatter's one schedule, np 2…9 and
// every root, to its messages, rounds and bytes per rank: Scatter, and
// Scatterv over the uniform layout and over vLayout's varying blocks, empty
// ones included, laid out in reverse rank order with gaps — of Int, of a
// strided derived type and of OBJECT. Each compiles one linear round: the
// root sends every non-empty block but its own, and every other rank
// receives its block, or nothing when it is empty. Every case checks its
// bits through the I form and through a persistent request started three
// times over mutated buffers — its schedule cached, slots outside the
// blocks left alone.
func TestProfCountersScatterExact(t *testing.T) {
	types := blockTypes(t)
	const n = 3 // the layouts' unit, in elements
	type scCase struct {
		name           string
		v              bool // Scatterv
		counts, displs []int
		typ            int
	}
	layouts := func(np int) (cs []scCase) {
		uni, udispls := uniformLayout(np, n)
		counts, _, _ := vLayout(np, n)
		gapped, at := make([]int, np), 0 // vLayout's blocks in reverse rank order, one element apart
		for r := np - 1; r >= 0; r-- {
			gapped[r], at = at, at+counts[r]+1
		}
		for typ := range types {
			cs = append(cs,
				scCase{"scatter", false, uni, udispls, typ},
				scCase{"scatterv/uniform", true, uni, udispls, typ},
				scCase{"scatterv/gapped", true, counts, gapped, typ})
		}
		return cs
	}
	type result struct {
		d   prof.Snapshot
		alg string
	}
	for np := 2; np <= 9; np++ {
		cases := layouts(np)
		all := make([]int, np) // every block
		for r := range all {
			all[r] = r
		}
		got := make([][][]result, np) // [root][case][rank]
		for root := range got {
			got[root] = make([][]result, len(cases))
			for ci := range cases {
				got[root][ci] = make([]result, np)
			}
		}
		bar := newGoBarrier(np)
		runRanksProf(t, np, prof.Spec{Counters: true}, false, func(w *Comm) error {
			me := w.Rank()
			for root := 0; root < np; root++ {
				for ci, tc := range cases {
					ty := types[tc.typ]
					where := fmt.Sprintf("np=%d root=%d %s %s", np, root, tc.name, ty.name)
					nslots := 0
					for r := range tc.counts {
						nslots = max(nslots, (tc.displs[r]+tc.counts[r])*ty.ext)
					}
					inSend := func(r int) int { return tc.displs[r] * ty.ext }
					mine := func(int) int { return 0 }
					var sbuf any // read on the root only
					if me == root {
						sbuf = ty.fill(tc.counts, nslots, 0, all, inSend)
					}
					rbuf := ty.fill(tc.counts, tc.counts[me]*ty.ext, 0, nil, mine)
					check := func(how string, k int) error {
						if want := ty.fill(tc.counts, tc.counts[me]*ty.ext, k, []int{me}, mine); !reflect.DeepEqual(rbuf, want) {
							return fmt.Errorf("%s %s: receive buffer %v, want %v", where, how, rbuf, want)
						}
						return nil
					}
					d, err := measureOp(w, bar, func() error {
						var req *CollRequest
						var err error
						if tc.v {
							req, err = w.Iscatterv(sbuf, 0, tc.counts, tc.displs, ty.dt, rbuf, 0, tc.counts[me], ty.dt, root)
						} else {
							req, err = w.Iscatter(sbuf, 0, n, ty.dt, rbuf, 0, n, ty.dt, root)
						}
						if err != nil {
							return err
						}
						got[root][ci][me].alg = req.alg
						_, err = req.Wait()
						return err
					})
					if err != nil {
						return fmt.Errorf("%s: %w", where, err)
					}
					got[root][ci][me].d = d
					if err := check("I form", 0); err != nil {
						return err
					}

					// The persistent form, its buffers rewritten before each Start.
					var p *PcollRequest
					if tc.v {
						p, err = w.CommitScatterv(sbuf, 0, tc.counts, tc.displs, ty.dt, rbuf, 0, tc.counts[me], ty.dt, root)
					} else {
						p, err = w.CommitScatter(sbuf, 0, n, ty.dt, rbuf, 0, n, ty.dt, root)
					}
					if err != nil {
						return fmt.Errorf("%s Commit: %w", where, err)
					}
					for k := 1; k <= 3; k++ {
						if me == root {
							reflect.Copy(reflect.ValueOf(sbuf), reflect.ValueOf(ty.fill(tc.counts, nslots, k, all, inSend)))
						}
						reflect.Copy(reflect.ValueOf(rbuf), reflect.ValueOf(ty.fill(tc.counts, tc.counts[me]*ty.ext, k, nil, mine)))
						if err := p.Start(); err != nil {
							return fmt.Errorf("%s Start %d: %w", where, k, err)
						}
						if _, err := p.Wait(); err != nil {
							return fmt.Errorf("%s Start %d: %w", where, k, err)
						}
						if p.skel == nil {
							return fmt.Errorf("%s Start %d: the schedule was not cached", where, k)
						}
						if err := check(fmt.Sprintf("Start %d", k), k); err != nil {
							return err
						}
					}
				}
			}
			return nil
		})
		for root := range got {
			for ci, tc := range cases {
				ty := types[tc.typ]
				for me, g := range got[root][ci] {
					var sent, recvd, sentB, recvdB int
					if me == root {
						for r := range tc.counts {
							if b := ty.packed(t, tc.counts, r); r != root && b > 0 {
								sent, sentB = sent+1, sentB+b
							}
						}
					} else if b := ty.packed(t, tc.counts, me); b > 0 {
						recvd, recvdB = 1, b
					}
					rounds := min(sent+recvd, 1)
					d := g.d
					if g.alg != "linear" || d.SentMsgs() != int64(sent) || d.RecvMsgs() != int64(recvd) || d.CollRounds != int64(rounds) ||
						d.SentBytes() != int64(sentB) || d.RecvBytes() != int64(recvdB) || d.CollStarted != 1 || d.CollDone != 1 {
						t.Errorf("np=%d root=%d %s %s rank %d: %s, %d msgs sent, %d arrived, %d rounds, %d B sent, %d B arrived; want linear, %d, %d, %d, %d, %d (%+v)",
							np, root, tc.name, ty.name, me, g.alg, d.SentMsgs(), d.RecvMsgs(), d.CollRounds, d.SentBytes(), d.RecvBytes(),
							sent, recvd, rounds, sentB, recvdB, d)
					}
				}
			}
		}
	}
}

// TestProfCountersAlltoallvExact checks the single-round Ialltoallv
// schedule against its per-pair ground truth: every ordered non-self pair
// exchanges exactly its scounts block, and nothing else moves.
func TestProfCountersAlltoallvExact(t *testing.T) {
	const np = 3
	scount := func(me, r int) int { return me + r + 1 }
	diffs := make([]prof.Snapshot, np)
	bar := newGoBarrier(np)
	runRanksProf(t, np, prof.Spec{Counters: true}, false, func(w *Comm) error {
		me := w.Rank()
		scounts := make([]int, np)
		sdispls := make([]int, np)
		rcounts := make([]int, np)
		rdispls := make([]int, np)
		stot, rtot := 0, 0
		for r := 0; r < np; r++ {
			scounts[r], sdispls[r] = scount(me, r), stot
			stot += scounts[r]
			rcounts[r], rdispls[r] = scount(r, me), rtot
			rtot += rcounts[r]
		}
		sbuf := make([]int32, stot)
		for i := range sbuf {
			sbuf[i] = int32(me*100 + i)
		}
		rbuf := make([]int32, rtot)
		diff, err := measureOp(w, bar, func() error {
			return w.Alltoallv(sbuf, 0, scounts, sdispls, Int, rbuf, 0, rcounts, rdispls, Int)
		})
		if err != nil {
			return err
		}
		diffs[me] = diff
		return nil
	})
	total := sumSnaps(diffs)
	wantMsgs, wantBytes := int64(0), int64(0)
	for me := 0; me < np; me++ {
		for r := 0; r < np; r++ {
			if r == me {
				continue
			}
			wantMsgs++
			wantBytes += int64(scount(me, r) * 4)
		}
	}
	if total.EagerSent != wantMsgs || total.EagerRecv != wantMsgs {
		t.Errorf("messages: sent %d recv %d, want %d both", total.EagerSent, total.EagerRecv, wantMsgs)
	}
	if total.EagerSentBytes != wantBytes || total.EagerRecvBytes != wantBytes {
		t.Errorf("bytes: sent %d recv %d, want %d both", total.EagerSentBytes, total.EagerRecvBytes, wantBytes)
	}
	if total.CollRounds != np {
		t.Errorf("rounds: %d, want %d (one round per rank)", total.CollRounds, np)
	}
}

// TestProfCountersConcurrentComms drives two communicators' collectives
// concurrently on every rank — the counter paths must be race-free (the
// -race build is the point of this test) and the per-comm context slices
// must attribute each comm's schedules to it exactly.
func TestProfCountersConcurrentComms(t *testing.T) {
	const np, iters, count = 4, 10, 256
	runRanksProf(t, np, prof.Spec{Counters: true}, false, func(w *Comm) error {
		c2, err := w.Dup()
		if err != nil {
			return err
		}
		c2base := c2.ProfSnapshot()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g, comm := range []*Comm{w, c2} {
			g, comm := g, comm
			wg.Add(1)
			go func() {
				defer wg.Done()
				sbuf := make([]int32, count)
				rbuf := make([]int32, count)
				for i := 0; i < iters; i++ {
					if err := comm.Allreduce(sbuf, 0, rbuf, 0, count, Int, SumOp); err != nil {
						errs[g] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				return fmt.Errorf("goroutine %d: %w", g, err)
			}
		}
		c2diff := snapDiff(c2base, c2.ProfSnapshot())
		if c2diff.CollDone != iters {
			return fmt.Errorf("dup comm completed %d collectives, want %d", c2diff.CollDone, iters)
		}
		if wdiff := w.ProfSnapshot(); wdiff.CollDone < iters {
			return fmt.Errorf("world completed %d collectives, want at least %d", wdiff.CollDone, iters)
		}
		return nil
	})
}

// TestProfTraceSchema runs a traced job and validates every rank's
// timeline file as Chrome trace_event JSON: parseable, complete ("X")
// events in non-decreasing ts order, non-negative durations, one pid per
// file equal to the rank, and lane tids within the fixed set.
func TestProfTraceSchema(t *testing.T) {
	const np = 3
	prefix := t.TempDir() + "/run"
	runRanksProf(t, np, prof.Spec{Counters: true, TracePrefix: prefix}, false, func(w *Comm) error {
		const n = 1024
		buf := make([]int32, n)
		out := make([]int32, n)
		if err := w.Bcast(buf, 0, n, Int, 0); err != nil {
			return err
		}
		return w.Allreduce(buf, 0, out, 0, n, Int, SumOp)
	})
	for rank := 0; rank < np; rank++ {
		raw, err := os.ReadFile(prof.TracePath(prefix, rank))
		if err != nil {
			t.Fatalf("rank %d trace: %v", rank, err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				TS   float64 `json:"ts"`
				Dur  float64 `json:"dur"`
				PID  int     `json:"pid"`
				TID  int     `json:"tid"`
			} `json:"traceEvents"`
			DisplayTimeUnit string `json:"displayTimeUnit"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("rank %d trace: invalid JSON: %v", rank, err)
		}
		lastTS, completes := -1.0, 0
		for _, ev := range doc.TraceEvents {
			switch ev.Ph {
			case "M":
				continue // metadata carries no timing
			case "X":
				completes++
				if ev.PID != rank {
					t.Errorf("rank %d trace: event %q has pid %d", rank, ev.Name, ev.PID)
				}
				if ev.TID < 1 || ev.TID > 3 {
					t.Errorf("rank %d trace: event %q on unknown lane %d", rank, ev.Name, ev.TID)
				}
				if ev.TS < lastTS {
					t.Errorf("rank %d trace: event %q ts %v before %v", rank, ev.Name, ev.TS, lastTS)
				}
				lastTS = ev.TS
				if ev.Dur < 0 {
					t.Errorf("rank %d trace: event %q negative duration", rank, ev.Name)
				}
			default:
				t.Errorf("rank %d trace: unexpected phase %q", rank, ev.Ph)
			}
		}
		// At least the bcast and allreduce schedules must have completed.
		if completes < 2 {
			t.Errorf("rank %d trace: %d complete events, want at least 2", rank, completes)
		}
	}
}
