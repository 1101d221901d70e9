package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"mpj/internal/device"
)

func TestSendRecvBasic(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		switch w.Rank() {
		case 0:
			return w.Send([]int32{1, 2, 3}, 0, 3, Int, 1, 42)
		case 1:
			buf := make([]int32, 3)
			st, err := w.Recv(buf, 0, 3, Int, 0, 42)
			if err != nil {
				return err
			}
			if err := expect(st.Source == 0 && st.Tag == 42, "status %+v", st); err != nil {
				return err
			}
			if err := expect(st.GetCount(Int) == 3, "count %d", st.GetCount(Int)); err != nil {
				return err
			}
			return expect(buf[0] == 1 && buf[1] == 2 && buf[2] == 3, "buf %v", buf)
		}
		return nil
	})
}

func TestAllSendModes(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		const n = 64
		msg := make([]float64, n)
		for i := range msg {
			msg[i] = float64(i) * 1.5
		}
		if w.Rank() == 0 {
			if err := w.BufferAttach(1 << 16); err != nil {
				return err
			}
			if err := w.Send(msg, 0, n, Double, 1, 1); err != nil {
				return fmt.Errorf("send: %w", err)
			}
			if err := w.Ssend(msg, 0, n, Double, 1, 2); err != nil {
				return fmt.Errorf("ssend: %w", err)
			}
			if err := w.Bsend(msg, 0, n, Double, 1, 3); err != nil {
				return fmt.Errorf("bsend: %w", err)
			}
			// Ensure the receive for Rsend is posted: handshake.
			if _, err := w.Recv(make([]byte, 1), 0, 1, Byte, 1, 9); err != nil {
				return err
			}
			if err := w.Rsend(msg, 0, n, Double, 1, 4); err != nil {
				return fmt.Errorf("rsend: %w", err)
			}
			if _, err := w.BufferDetach(); err != nil {
				return err
			}
			return nil
		}
		for tag := 1; tag <= 3; tag++ {
			buf := make([]float64, n)
			if _, err := w.Recv(buf, 0, n, Double, 0, tag); err != nil {
				return fmt.Errorf("recv tag %d: %w", tag, err)
			}
			if buf[n-1] != float64(n-1)*1.5 {
				return fmt.Errorf("tag %d corrupted: %v", tag, buf[n-1])
			}
		}
		r, err := w.Irecv(make([]float64, n), 0, n, Double, 0, 4)
		if err != nil {
			return err
		}
		if err := w.Send([]byte{1}, 0, 1, Byte, 0, 9); err != nil {
			return err
		}
		_, err = r.Wait()
		return err
	})
}

func TestBsendRequiresAttachedBuffer(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		if w.Rank() != 0 {
			return nil
		}
		err := w.Bsend([]int32{1}, 0, 1, Int, 1, 0)
		return expect(errors.Is(err, ErrBuffer), "Bsend without buffer: %v", err)
	})
}

func TestBsendOverflowsBuffer(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		if w.Rank() != 0 {
			return nil
		}
		if err := w.BufferAttach(8); err != nil {
			return err
		}
		err := w.Bsend(make([]float64, 100), 0, 100, Double, 1, 0)
		return expect(errors.Is(err, ErrBuffer), "oversized Bsend: %v", err)
	})
}

func TestSendrecvExchange(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		size := w.Size()
		right := (w.Rank() + 1) % size
		left := (w.Rank() - 1 + size) % size
		out := []int32{int32(w.Rank())}
		in := make([]int32, 1)
		st, err := w.Sendrecv(out, 0, 1, Int, right, 5, in, 0, 1, Int, left, 5)
		if err != nil {
			return err
		}
		if err := expect(st.Source == left, "source %d, want %d", st.Source, left); err != nil {
			return err
		}
		return expect(in[0] == int32(left), "got %d from %d", in[0], left)
	})
}

func TestSendrecvReplace(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		peer := 1 - w.Rank()
		buf := []int32{int32(w.Rank() + 100)}
		if _, err := w.SendrecvReplace(buf, 0, 1, Int, peer, 3, peer, 3); err != nil {
			return err
		}
		return expect(buf[0] == int32(peer+100), "replaced value %d", buf[0])
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		if w.Rank() != 0 {
			return w.Send([]int32{int32(w.Rank())}, 0, 1, Int, 0, w.Rank()*11)
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			buf := make([]int32, 1)
			st, err := w.Recv(buf, 0, 1, Int, AnySource, AnyTag)
			if err != nil {
				return err
			}
			if err := expect(st.Tag == st.Source*11, "tag %d from %d", st.Tag, st.Source); err != nil {
				return err
			}
			if err := expect(int(buf[0]) == st.Source, "payload %d from %d", buf[0], st.Source); err != nil {
				return err
			}
			seen[st.Source] = true
		}
		return expect(len(seen) == 3, "sources %v", seen)
	})
}

func TestObjectMessaging(t *testing.T) {
	type record struct {
		Name string
		Vals []float64
	}
	RegisterType(record{})
	runRanks(t, 2, func(w *Comm) error {
		if w.Rank() == 0 {
			msg := []any{record{Name: "a", Vals: []float64{1, 2}}, "plain string", 42}
			return w.Send(msg, 0, 3, Object, 1, 7)
		}
		buf := make([]any, 3)
		st, err := w.Recv(buf, 0, 3, Object, 0, 7)
		if err != nil {
			return err
		}
		if err := expect(st.GetCount(Object) == 3, "count %d", st.GetCount(Object)); err != nil {
			return err
		}
		rec, ok := buf[0].(record)
		if err := expect(ok && rec.Name == "a" && len(rec.Vals) == 2, "buf[0] %#v", buf[0]); err != nil {
			return err
		}
		if err := expect(buf[1] == "plain string", "buf[1] %#v", buf[1]); err != nil {
			return err
		}
		return expect(buf[2] == 42, "buf[2] %#v", buf[2])
	})
}

func TestDerivedTypeTransfer(t *testing.T) {
	// Send a matrix column; receive it as a contiguous row.
	runRanks(t, 2, func(w *Comm) error {
		const n = 4
		col, err := Vector(n, 1, n, Double)
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			matrix := make([]float64, n*n)
			for i := range matrix {
				matrix[i] = float64(i)
			}
			return w.Send(matrix, 2, 1, col, 1, 0) // column 2
		}
		row := make([]float64, n)
		if _, err := w.Recv(row, 0, n, Double, 0, 0); err != nil {
			return err
		}
		for i, v := range row {
			if v != float64(i*n+2) {
				return fmt.Errorf("row[%d] = %v", i, v)
			}
		}
		return nil
	})
}

func TestTruncationReported(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		if w.Rank() == 0 {
			return w.Send(make([]int32, 10), 0, 10, Int, 1, 0)
		}
		_, err := w.Recv(make([]int32, 4), 0, 4, Int, 0, 0)
		return expect(errors.Is(err, ErrTruncate), "truncated recv: %v", err)
	})
}

func TestProbeOnComm(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		if w.Rank() == 0 {
			return w.Send(make([]float64, 8), 0, 8, Double, 1, 13)
		}
		st, err := w.Probe(0, 13)
		if err != nil {
			return err
		}
		if err := expect(st.GetCount(Double) == 8, "probe count %d", st.GetCount(Double)); err != nil {
			return err
		}
		_, err = w.Recv(make([]float64, 8), 0, 8, Double, 0, 13)
		return err
	})
}

func TestIprobeOnComm(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		if w.Rank() == 0 {
			return w.Send([]int32{9}, 0, 1, Int, 1, 4)
		}
		// Poll until the message lands.
		for {
			st, ok, err := w.Iprobe(AnySource, AnyTag)
			if err != nil {
				return err
			}
			if ok {
				if err := expect(st.Source == 0 && st.Tag == 4, "iprobe %+v", st); err != nil {
					return err
				}
				break
			}
		}
		_, err := w.Recv(make([]int32, 1), 0, 1, Int, 0, 4)
		return err
	})
}

func TestWaitAnyAcrossRequests(t *testing.T) {
	runRanks(t, 3, func(w *Comm) error {
		if w.Rank() != 0 {
			return w.Send([]int32{int32(w.Rank())}, 0, 1, Int, 0, w.Rank())
		}
		bufs := [][]int32{make([]int32, 1), make([]int32, 1)}
		reqs := make([]*Request, 2)
		for i := 0; i < 2; i++ {
			var err error
			reqs[i], err = w.Irecv(bufs[i], 0, 1, Int, i+1, i+1)
			if err != nil {
				return err
			}
		}
		seen := 0
		for {
			idx, st, err := WaitAny(reqs)
			if err != nil {
				return err
			}
			if idx == -1 {
				break
			}
			if err := expect(st.Source == idx+1, "idx %d source %d", idx, st.Source); err != nil {
				return err
			}
			seen++
		}
		return expect(seen == 2, "completions %d", seen)
	})
}

func TestTestAnyAndWaitAllOnComm(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		if w.Rank() == 0 {
			if err := w.Send([]int32{1}, 0, 1, Int, 1, 0); err != nil {
				return err
			}
			return w.Send([]int32{2}, 0, 1, Int, 1, 1)
		}
		a := make([]int32, 1)
		b := make([]int32, 1)
		r0, err := w.Irecv(a, 0, 1, Int, 0, 0)
		if err != nil {
			return err
		}
		r1, err := w.Irecv(b, 0, 1, Int, 0, 1)
		if err != nil {
			return err
		}
		if _, err := WaitAll([]*Request{r0, r1, nil}); err != nil {
			return err
		}
		// After completion TestAny over consumed/nil requests reports
		// "nothing active".
		if _, err := r0.Wait(); err != nil { // idempotent
			return err
		}
		return expect(a[0] == 1 && b[0] == 2, "a=%v b=%v", a, b)
	})
}

func TestPersistentRequests(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		const iters = 20
		buf := make([]int64, 1)
		if w.Rank() == 0 {
			p, err := w.SendInit(buf, 0, 1, Long, 1, 6)
			if err != nil {
				return err
			}
			for i := 0; i < iters; i++ {
				buf[0] = int64(i * i)
				if err := p.Start(); err != nil {
					return err
				}
				if _, err := p.Wait(); err != nil {
					return err
				}
			}
			return nil
		}
		p, err := w.RecvInit(buf, 0, 1, Long, 0, 6)
		if err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if err := p.Start(); err != nil {
				return err
			}
			if _, err := p.Wait(); err != nil {
				return err
			}
			if buf[0] != int64(i*i) {
				return fmt.Errorf("iteration %d got %d", i, buf[0])
			}
		}
		return nil
	})
}

func TestPersistentStartWhileActive(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		if w.Rank() != 1 {
			// Keep rank 1's receive pending forever... until we send.
			return w.Send([]int32{1}, 0, 1, Int, 1, 0)
		}
		p, err := w.RecvInit(make([]int32, 1), 0, 1, Int, 0, 0)
		if err != nil {
			return err
		}
		if err := p.Start(); err != nil {
			return err
		}
		if _, err := p.Wait(); err != nil {
			return err
		}
		// Restarting after completion is fine; a second receive has no
		// matching send, so cancel it via the underlying request.
		return nil
	})
}

func TestArgumentValidationOnComm(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		if err := w.Send([]int32{1}, 0, 1, Int, 5, 0); !errors.Is(err, ErrRank) {
			return fmt.Errorf("bad dst: %v", err)
		}
		if err := w.Send([]int32{1}, 0, 1, Int, 1, -3); !errors.Is(err, ErrTag) {
			return fmt.Errorf("bad tag: %v", err)
		}
		if _, err := w.Recv(make([]int32, 1), 0, 1, Int, 9, 0); !errors.Is(err, ErrRank) {
			return fmt.Errorf("bad src: %v", err)
		}
		if err := w.Send([]int64{1}, 0, 1, Int, 1, 0); !errors.Is(err, ErrBuffer) {
			return fmt.Errorf("wrong buffer type: %v", err)
		}
		return nil
	})
}

func TestLargeMessageGoesRendezvous(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		n := device.DefaultEagerLimit // in elements → 8x the eager limit in bytes
		if w.Rank() == 0 {
			buf := make([]float64, n)
			for i := range buf {
				buf[i] = float64(i)
			}
			if err := w.Send(buf, 0, n, Double, 1, 0); err != nil {
				return err
			}
			return expect(w.Device().Stats().RTSSent.Load() > 0, "large send used no rendezvous")
		}
		buf := make([]float64, n)
		if _, err := w.Recv(buf, 0, n, Double, 0, 0); err != nil {
			return err
		}
		return expect(buf[n-1] == float64(n-1), "tail %v", buf[n-1])
	})
}

func TestCancelRecvOnComm(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		if w.Rank() != 1 {
			return nil
		}
		r, err := w.Irecv(make([]int32, 1), 0, 1, Int, 0, 99)
		if err != nil {
			return err
		}
		if err := r.Cancel(); err != nil {
			return err
		}
		st, err := r.Wait()
		if err != nil {
			return err
		}
		return expect(st.Cancelled, "status %+v", st)
	})
}

// TestRawSendsBorrowTheUserBuffer pins which sends leave from user memory
// and which are copied when posted. A raw-layout send (typed facade or
// Comm.Send of a base type) of rendezvous size is borrowed until its
// request completes: bytes written before the receiver's CTS are the bytes
// that travel — which is why the contract forbids writing them. A send the
// datatype layer has to pack (a strided vector here) is copied at post, as
// are SendrecvReplace and inter-communicator sends, whose callers cannot
// keep the rule.
func TestRawSendsBorrowTheUserBuffer(t *testing.T) {
	const n = 64 << 10 // int32 elements: 256 KiB, well past the eager limit
	bar := newGoBarrier(2)
	fill := func(s []int32, v int32) {
		for i := range s {
			s[i] = v
		}
	}
	all := func(s []int32, v int32) bool {
		for _, x := range s {
			if x != v {
				return false
			}
		}
		return true
	}
	vec, err := Vector(n, 1, 2, Int)
	if err != nil {
		t.Fatal(err)
	}
	runRanks(t, 2, func(w *Comm) error {
		for tag, tc := range []struct {
			name     string
			send     func(buf []int32) (*Request, error)
			borrowed bool
		}{
			{"typed", func(buf []int32) (*Request, error) { return TypedIsend(w, buf[:n], 1, 0) }, true},
			{"comm", func(buf []int32) (*Request, error) { return w.Isend(buf, 0, n, Int, 1, 1) }, true},
			{"packed", func(buf []int32) (*Request, error) { return w.Isend(buf, 0, 1, vec, 1, 2) }, false},
		} {
			got := make([]int32, n)
			if w.Rank() == 0 {
				buf := make([]int32, 2*n)
				fill(buf, 1)
				sr, err := tc.send(buf)
				if err != nil {
					return err
				}
				fill(buf, 2) // against the rule, before any receive exists
				bar.await()
				if _, err := sr.Wait(); err != nil {
					return err
				}
				continue
			}
			bar.await()
			if _, err := TypedRecv(w, got, 0, tag); err != nil {
				return err
			}
			want := int32(1)
			if tc.borrowed {
				want = 2
			}
			if err := expect(all(got, want), "%s send: receiver saw %d…, want all %d", tc.name, got[0], want); err != nil {
				return err
			}
		}
		// SendrecvReplace receives into the buffer it sends: at rendezvous
		// size that only works because its send does not borrow.
		buf := make([]int32, n)
		fill(buf, int32(w.Rank()+100))
		if _, err := w.SendrecvReplace(buf, 0, n, Int, 1-w.Rank(), 3, 1-w.Rank(), 3); err != nil {
			return err
		}
		return expect(all(buf, int32(1-w.Rank()+100)), "large SendrecvReplace: got %d…", buf[0])
	})
}

// TestBlockingPingPongAllocationGate pins what the blocking point-to-point
// path costs: a warmed 4 KiB Send+Recv round trip — the typed facade, and
// Comm.Send/Recv with Int from a buffer boxed once — allocates the two
// Statuses the receives return and nothing else, on every device. Eager
// sends take no request, receives a pooled one that never leaves the call,
// and no header or length prefix escapes below. AllocsPerRun counts the
// whole process, so rank 1 runs the same loop alongside and rank 0's figure
// covers both ranks and every transport goroutine.
func TestBlockingPingPongAllocationGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts on purpose")
	}
	const (
		objectsPerTrip = 2 // across both ranks
		bytesPerTrip   = 160
	)
	for _, mesh := range []string{"chan", "tcp", "hyb", "tcp-ring"} {
		for _, typed := range []bool{true, false} {
			name := mesh + "/datatype"
			if typed {
				name = mesh + "/typed"
			}
			t.Run(name, func(t *testing.T) {
				runRanksWin(t, mesh, 2, func(w *Comm) error {
					rank, peer := w.Rank(), 1-w.Rank()
					buf := make([]int32, 1024)
					var boxed any = buf
					hop := func(send bool) {
						var err error
						switch {
						case send && typed:
							err = TypedSend(w, buf, peer, 3)
						case send:
							err = w.Send(boxed, 0, len(buf), Int, peer, 3)
						case typed:
							_, err = TypedRecv(w, buf, peer, 3)
						default:
							_, err = w.Recv(boxed, 0, len(buf), Int, peer, 3)
						}
						if err != nil {
							t.Error(err)
						}
					}
					trip := func() {
						hop(rank == 0)
						hop(rank != 0)
					}
					const warm, runs = 50, 200
					for k := 0; k < warm; k++ {
						trip()
					}
					if rank != 0 {
						for k := 0; k < runs+1; k++ { // AllocsPerRun makes one extra warm-up call
							trip()
						}
						return nil
					}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					allocs := testing.AllocsPerRun(runs, trip)
					runtime.ReadMemStats(&after)
					perTrip := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs+1)
					t.Logf("%s: %.0f B and %.2f objects allocated per 4 KiB hop, both ranks", name, perTrip/2, allocs/2)
					if allocs > objectsPerTrip || perTrip > bytesPerTrip {
						return fmt.Errorf("a 4 KiB round trip allocates %.2f objects / %.0f B, want ≤ %d / %d",
							allocs, perTrip, objectsPerTrip, bytesPerTrip)
					}
					return nil
				})
			})
		}
	}
}
