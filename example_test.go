package mpj_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"mpj"
)

// The examples run complete multi-rank MPJ programs inside the test
// process with RunLocal (the "chan" device: every rank a goroutine). The
// same application functions run unchanged under the distributed runtime —
// see README.md for launching them through mpjd/mpjrun.

// A point-to-point exchange: rank 0 sends a greeting, rank 1 receives it.
func ExampleComm_Send() {
	err := mpj.RunLocal(2, func(w *mpj.Comm) error {
		const tag = 1
		switch w.Rank() {
		case 0:
			msg := []byte("hello, rank 1")
			return w.Send(msg, 0, len(msg), mpj.BYTE, 1, tag)
		default:
			buf := make([]byte, 64)
			st, err := w.Recv(buf, 0, len(buf), mpj.BYTE, 0, tag)
			if err != nil {
				return err
			}
			fmt.Printf("rank 1 got %q\n", buf[:st.GetCount(mpj.BYTE)])
			return nil
		}
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: rank 1 got "hello, rank 1"
}

// A broadcast: the root's buffer reaches every rank; the last rank reports.
func ExampleComm_Bcast() {
	err := mpj.RunLocal(4, func(w *mpj.Comm) error {
		buf := make([]int32, 3)
		if w.Rank() == 0 {
			buf = []int32{2, 3, 5}
		}
		if err := w.Bcast(buf, 0, 3, mpj.INT, 0); err != nil {
			return err
		}
		if w.Rank() == w.Size()-1 {
			fmt.Println("rank 3 sees", buf)
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: rank 3 sees [2 3 5]
}

// An allreduce: every rank contributes rank+1 and every rank learns the
// global sum; rank 0 reports it.
func ExampleComm_Allreduce() {
	err := mpj.RunLocal(4, func(w *mpj.Comm) error {
		in := []int64{int64(w.Rank() + 1)}
		out := make([]int64, 1)
		if err := w.Allreduce(in, 0, out, 0, 1, mpj.LONG, mpj.SUM); err != nil {
			return err
		}
		if w.Rank() == 0 {
			fmt.Println("sum of 1..4 =", out[0])
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: sum of 1..4 = 10
}

// The typed API: the same allreduce with a plain slice and a typed
// reduction — no Datatype or offset arguments, checked at compile time.
func ExampleAllreduce() {
	err := mpj.RunLocal(4, func(w *mpj.Comm) error {
		sum := make([]int64, 1)
		if err := mpj.Allreduce(w, []int64{int64(w.Rank())}, sum, mpj.Sum[int64]()); err != nil {
			return err
		}
		if w.Rank() == 0 {
			fmt.Printf("sum of ranks = %d\n", sum[0])
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: sum of ranks = 6
}

// Typed point-to-point: offsets are subslices, the element type selects
// the wire datatype.
func ExampleSend() {
	err := mpj.RunLocal(2, func(w *mpj.Comm) error {
		const tag = 1
		switch w.Rank() {
		case 0:
			return mpj.Send(w, []float64{3.14, 2.71}, 1, tag)
		case 1:
			buf := make([]float64, 2)
			if _, err := mpj.Recv(w, buf, 0, tag); err != nil {
				return err
			}
			fmt.Printf("received %.2f and %.2f\n", buf[0], buf[1])
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: received 3.14 and 2.71
}

// Per-communicator counters: with MPJ_PROF=counters every rank records
// message and byte totals, and ProfSnapshot slices them per communicator.
// Rank 0 of a binomial broadcast on two ranks sends exactly one message
// carrying the packed payload.
func ExampleComm_ProfSnapshot() {
	os.Setenv("MPJ_PROF", "counters")
	defer os.Unsetenv("MPJ_PROF")
	err := mpj.RunLocal(2, func(w *mpj.Comm) error {
		buf := make([]int32, 1024)
		if err := w.Bcast(buf, 0, 1024, mpj.INT, 0); err != nil {
			return err
		}
		if w.Rank() == 0 {
			s := w.ProfSnapshot()
			fmt.Printf("rank 0 sent %d bytes in %d messages\n", s.SentBytes(), s.SentMsgs())
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: rank 0 sent 4096 bytes in 1 messages
}

// Schedule timelines: MPJ_PROF=trace:<prefix> additionally writes one
// Chrome trace_event JSON file per rank at shutdown — load them in
// chrome://tracing or Perfetto to see per-collective round spans.
func ExampleRunLocal_tracing() {
	dir, err := os.MkdirTemp("", "mpj-trace")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer os.RemoveAll(dir)
	os.Setenv("MPJ_PROF", "trace:"+dir+"/run")
	defer os.Unsetenv("MPJ_PROF")
	err = mpj.RunLocal(2, func(w *mpj.Comm) error {
		sum := make([]int64, 1)
		return mpj.Allreduce(w, []int64{int64(w.Rank())}, sum, mpj.Sum[int64]())
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	files, _ := filepath.Glob(dir + "/run.rank*.trace.json")
	fmt.Printf("%d trace files\n", len(files))
	// Output: 2 trace files
}

// Typed Sendrecv: every rank passes a value to its right neighbour and
// receives from its left in one deadlock-safe call — the shape of a halo
// exchange.
func ExampleSendrecv() {
	err := mpj.RunLocal(3, func(w *mpj.Comm) error {
		const tag = 2
		right := (w.Rank() + 1) % w.Size()
		left := (w.Rank() - 1 + w.Size()) % w.Size()
		got := make([]int32, 1)
		if _, err := mpj.Sendrecv(w, []int32{int32(w.Rank() * 10)}, right, tag, got, left, tag); err != nil {
			return err
		}
		if w.Rank() == 0 {
			fmt.Printf("rank 0 received %d from rank %d\n", got[0], left)
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: rank 0 received 20 from rank 2
}

// One-sided communication: a window over each rank's slice, and a fence
// epoch in which rank 0 Puts a value straight into rank 1's window — no
// receive is posted anywhere.
func ExampleComm_WinCreate() {
	err := mpj.RunLocal(2, func(w *mpj.Comm) error {
		buf := make([]int32, 4)
		win, err := w.WinCreate(buf, 1) // collective, like communicator creation
		if err != nil {
			return err
		}
		if err := win.Fence(); err != nil { // open the access epoch
			return err
		}
		if w.Rank() == 0 {
			if err := mpj.PutT(win, []int32{42}, 1, 3); err != nil { // -> rank 1, slot 3
				return err
			}
		}
		if err := win.Fence(); err != nil { // close: all Puts are now visible
			return err
		}
		if w.Rank() == 1 {
			fmt.Printf("rank 1 slot 3 = %d\n", buf[3])
		}
		return win.Free()
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: rank 1 slot 3 = 42
}

// Passive-target epochs: every rank locks rank 0's window exclusively and
// accumulates into a shared counter; the lock queue at the target orders
// the increments, so no update is lost.
func ExampleWin_Lock() {
	err := mpj.RunLocal(4, func(w *mpj.Comm) error {
		counter := make([]int64, 1)
		win, err := w.WinCreate(counter, 1)
		if err != nil {
			return err
		}
		if err := win.Lock(mpj.LockExclusive, 0); err != nil {
			return err
		}
		if err := mpj.AccumulateT(win, []int64{1}, 0, 0, mpj.Sum[int64]()); err != nil {
			return err
		}
		if err := win.Unlock(0); err != nil { // applied at rank 0 on return
			return err
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		if w.Rank() == 0 {
			fmt.Printf("counter = %d\n", counter[0])
		}
		return win.Free()
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: counter = 4
}

// The elastic cycle: one rank dies mid-job, the survivors observe the
// typed failure, Shrink to the survivor set, Spawn a replacement back to
// full size and Merge into a rebuilt world that computes again.
// Replacements re-enter the same application with Spawned() true. Under
// the distributed runtime (mpjrun -elastic) a real death ends a process
// (a crash, or the daemon destroying a rank whose liveness lease lapsed)
// and the survivors' transports report it the same way.
func ExampleComm_Spawn() {
	err := mpj.RunLocal(3, func(w *mpj.Comm) error {
		if w.Spawned() { // a replacement: join the rebuilt world's work
			sum := make([]int64, 1)
			return mpj.Allreduce(w, []int64{int64(w.Rank() + 1)}, sum, mpj.Sum[int64]())
		}
		if w.Rank() == 1 { // the victim dies: its device ends, peers see it go
			w.Device().Die(errors.New("example kill"))
			return nil
		}
		sum := make([]int64, 1)
		err := mpj.Allreduce(w, []int64{1}, sum, mpj.Sum[int64]())
		if !errors.Is(err, mpj.ErrRankFailed) {
			return fmt.Errorf("want a rank failure, got %v", err)
		}
		sw, err := w.Shrink() // survivors only
		if err != nil {
			return err
		}
		ic, err := sw.Spawn(1) // intercomm to the replacement
		if err != nil {
			return err
		}
		w2, err := ic.Merge(false) // rebuilt full-size world
		if err != nil {
			return err
		}
		if err := mpj.Allreduce(w2, []int64{int64(w2.Rank() + 1)}, sum, mpj.Sum[int64]()); err != nil {
			return err
		}
		if w2.Rank() == 0 {
			fmt.Printf("rebuilt world: size %d, sum %d\n", w2.Size(), sum[0])
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: rebuilt world: size 3, sum 6
}

// Fence epochs with Get: each rank publishes its rank in its window and
// reads its left neighbour's copy — the one-sided shape of a ring
// exchange.
func ExampleWin_Fence() {
	err := mpj.RunLocal(3, func(w *mpj.Comm) error {
		src := []int32{int32(w.Rank() * 10)}
		win, err := w.WinCreate(src, 1)
		if err != nil {
			return err
		}
		left := (w.Rank() + w.Size() - 1) % w.Size()
		got := make([]int32, 1)
		if err := win.Fence(); err != nil { // epoch: everyone's src is published
			return err
		}
		if err := mpj.GetT(win, got, left, 0); err != nil {
			return err
		}
		if err := win.Fence(); err != nil { // gets have landed
			return err
		}
		if w.Rank() == 0 {
			fmt.Printf("rank 0 read %d from rank %d\n", got[0], left)
		}
		return win.Free()
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: rank 0 read 20 from rank 2
}
