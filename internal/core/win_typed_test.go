package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// putTMatchesPut has every rank write the same sequence of blocks into its
// right neighbour's two windows — one through TypedPut, one through
// Win.Put — and checks both against a locally computed shadow, byte for
// byte, after the fence.
func putTMatchesPut[T Scalar](w *Comm, dispUnit int, gen func(i int) T) (err error) {
	const slots = 24
	np, rank := w.Size(), w.Rank()
	typed, classic := make([]T, slots), make([]T, slots)
	winT, err := w.WinCreate(typed, dispUnit)
	if err != nil {
		return err
	}
	defer freeOnSuccess(winT, &err)
	winC, err := w.WinCreate(classic, dispUnit)
	if err != nil {
		return err
	}
	defer freeOnSuccess(winC, &err)

	b := baseFor[T]()
	shadow := make([]T, slots)
	origin, target := (rank+np-1)%np, (rank+1)%np
	blocks := []struct{ disp, n int }{{0, 2}, {1, 3}, {5, 4}, {(slots - 6) / dispUnit, 6}}
	for k, blk := range blocks {
		mine, theirs := make([]T, blk.n), make([]T, blk.n)
		for i := range mine {
			mine[i], theirs[i] = gen(100*rank+10*k+i), gen(100*origin+10*k+i)
		}
		if err := TypedPut(winT, mine, target, blk.disp); err != nil {
			return fmt.Errorf("block %d TypedPut: %w", k, err)
		}
		if err := winC.Put(mine, 0, blk.n, Datatype(b), target, blk.disp); err != nil {
			return fmt.Errorf("block %d Put: %w", k, err)
		}
		copy(shadow[blk.disp*dispUnit:], theirs)
	}
	if err := winT.Fence(); err != nil {
		return err
	}
	if err := winC.Fence(); err != nil {
		return err
	}
	want := b.bytesOf(shadow, 0, slots)
	if got := b.bytesOf(typed, 0, slots); !bytes.Equal(got, want) {
		return fmt.Errorf("TypedPut window % x, want % x", got, want)
	}
	if got := b.bytesOf(classic, 0, slots); !bytes.Equal(got, want) {
		return fmt.Errorf("Win.Put window % x, want % x", got, want)
	}
	return nil
}

// TestWinPutTMatchesPut: the typed Put (the engine behind mpj.PutT) and
// Win.Put share one byte-level body; they must write the same bytes for
// every raw element type and displacement unit, co-located (chan) and over
// the frame path (tcp), and report the same errors (putTErrors).
func TestWinPutTMatchesPut(t *testing.T) {
	for _, mesh := range []string{"chan", "tcp"} {
		t.Run(mesh+"/errors", func(t *testing.T) { putTErrors(t, mesh) })
		for _, du := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/dispUnit%d", mesh, du), func(t *testing.T) {
				runRanksWin(t, mesh, 3, func(w *Comm) error {
					if err := putTMatchesPut(w, du, func(i int) byte { return byte(i + 1) }); err != nil {
						return fmt.Errorf("byte: %w", err)
					}
					if err := putTMatchesPut(w, du, func(i int) int32 { return int32(i)*0x01010101 + 1 }); err != nil {
						return fmt.Errorf("int32: %w", err)
					}
					if err := putTMatchesPut(w, du, func(i int) float64 { return float64(i) + 0.25 }); err != nil {
						return fmt.Errorf("float64: %w", err)
					}
					return nil
				})
			})
		}
	}
}

// putTErrors: TypedPut reports exactly what Win.Put reports for the same
// request — an empty slice is a no-op, a block past the window is ErrArg, a
// slice of the wrong element type ErrType, a freed window ErrComm and a
// target registered as failed ErrRankFailed.
func putTErrors(t *testing.T, mesh string) {
	const np, dead = 3, 2
	var job *winJob
	if mesh == "chan" {
		job = openWinColocatedJob(t, np)
	} else {
		job = openWinJob(t, tcpMesh(t, np))
	}
	job.run(t, func(i int, w *Comm) error {
		win, err := w.WinCreate(make([]int64, 4), 1)
		if err != nil {
			return err
		}
		freed, err := w.WinCreate(make([]int64, 4), 1)
		if err != nil {
			return err
		}
		if err := freed.Free(); err != nil || i != 0 {
			return err
		}
		w.dev.NotifyRankFailed(dead, errors.New("test: declared dead"))
		val, short := []int64{1}, []int16{1}
		rows := []struct {
			name           string
			typed, classic func() error
			want           error
		}{
			{"empty", func() error { return TypedPut(win, []int64{}, 1, 0) },
				func() error { return win.Put(val, 0, 0, Long, 1, 0) }, nil},
			{"out of range", func() error { return TypedPut(win, val, 1, 4) },
				func() error { return win.Put(val, 0, 1, Long, 1, 4) }, ErrArg},
			{"element mismatch", func() error { return TypedPut(win, short, 1, 0) },
				func() error { return win.Put(short, 0, 1, Short, 1, 0) }, ErrType},
			{"freed", func() error { return TypedPut(freed, val, 1, 0) },
				func() error { return freed.Put(val, 0, 1, Long, 1, 0) }, ErrComm},
			{"dead target", func() error { return TypedPut(win, val, dead, 0) },
				func() error { return win.Put(val, 0, 1, Long, dead, 0) }, ErrRankFailed},
		}
		for _, r := range rows {
			et, ec := r.typed(), r.classic()
			if !errors.Is(et, r.want) || !errors.Is(ec, r.want) {
				return fmt.Errorf("%s: TypedPut %v, Win.Put %v, want %v", r.name, et, ec, r.want)
			}
			if fmt.Sprint(et) != fmt.Sprint(ec) {
				return fmt.Errorf("%s: TypedPut %q, Win.Put %q", r.name, et, ec)
			}
		}
		return nil
	})
}
