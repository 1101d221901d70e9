package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"mpj/internal/wire"
)

// RMA byte counts travel in int32 header fields (KindRmaGet carries the
// requested length in Tag, the data kinds carry it in Len). opSetup must
// therefore reject any transfer of >= 2 GiB with ErrArg before a schedule
// is built, for every entry point: Put, Get, Accumulate, and the
// FetchAndOp/CompareAndSwap reply sizing.
func TestWinRejectsOversizedTransfers(t *testing.T) {
	// (1<<28)+1 longs = 2 GiB + 8 bytes: just over the int32 wire limit.
	// The guard fires before any buffer bounds check, so a tiny origin
	// buffer is fine — no 2 GiB allocation happens.
	const hugeCount = (1 << 28) + 1

	runRanksWin(t, "chan", 2, func(w *Comm) error {
		buf := make([]int64, 4)
		win, err := w.WinCreate(buf, 1)
		if err != nil {
			return err
		}
		defer win.Free()
		if err := win.Fence(); err != nil {
			return err
		}

		target := (w.Rank() + 1) % w.Size()
		small := make([]int64, 4)

		if err := win.Get(small, 0, hugeCount, Long, target, 0); !errors.Is(err, ErrArg) {
			return expect(false, "Get(huge): err = %v, want ErrArg", err)
		}
		if err := win.Put(small, 0, hugeCount, Long, target, 0); !errors.Is(err, ErrArg) {
			return expect(false, "Put(huge): err = %v, want ErrArg", err)
		}
		if err := win.Accumulate(small, 0, hugeCount, Long, target, 0, SumOp); !errors.Is(err, ErrArg) {
			return expect(false, "Accumulate(huge): err = %v, want ErrArg", err)
		}

		// Sane transfers still work after the rejections.
		if err := win.Fence(); err != nil {
			return err
		}
		got := make([]int64, 4)
		if err := win.Get(got, 0, 4, Long, target, 0); err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		return nil
	})
}

// hostileFrame feeds one crafted frame to the window's inbound handler and
// reports a panic instead of propagating it.
func hostileFrame(win *Win, h wire.Header, payload []byte) (p any) {
	defer func() { p = recover() }()
	win.handleFrame(int(h.Src), h, payload)
	return nil
}

// TestWinHostileFrame: the byte range an inbound RMA frame addresses comes
// off the socket. Every kind that touches the window — Put, Accumulate,
// Get, FetchAndOp, CompareAndSwap — must drop a frame whose offset (Seq)
// or, for Get, requested length (Tag) puts any byte outside the window,
// including offsets near 2^63 whose sum with the length wraps: no panic
// (it would happen with the window mutex held) and no byte changed.
func TestWinHostileFrame(t *testing.T) {
	const size, n = 64, 8
	job := openWinColocatedJob(t, 2)
	job.run(t, func(i int, w *Comm) error {
		buf := make([]byte, size)
		win, err := w.WinCreate(buf, 1)
		if err != nil || i != 0 {
			return err
		}
		for k := range buf {
			buf[k] = byte(k + 1)
		}
		want := append([]byte(nil), buf...)
		sum := int32(rmaOpID(SumOp))
		type row struct {
			kind    wire.Kind
			tag     int32
			payload int
		}
		rows := []row{
			{wire.KindRmaPut, 0, n},
			{wire.KindRmaAcc, sum, n},
			{wire.KindRmaFetchOp, sum, n},
			{wire.KindRmaCas, 0, 2 * n},
		}
		for _, tag := range []int32{n, math.MaxInt32, math.MinInt32, -1} {
			rows = append(rows, row{wire.KindRmaGet, tag, 0})
		}
		seqs := []uint64{math.MaxInt64, math.MaxInt64 - n + 1, 1 << 62, size - n + 1, size, math.MaxUint64}
		for _, r := range rows {
			for _, seq := range seqs {
				payload := bytes.Repeat([]byte{0xEE}, r.payload)
				h := wire.Header{Kind: r.kind, Src: 1, Tag: r.tag, Context: int32(win.ctx), Seq: seq, MsgID: 1, Len: int32(r.payload)}
				if p := hostileFrame(win, h, payload); p != nil {
					return fmt.Errorf("kind %d seq %d tag %d: the handler panicked: %v", r.kind, seq, r.tag, p)
				}
				if !bytes.Equal(buf, want) {
					return fmt.Errorf("kind %d seq %d tag %d: the window changed", r.kind, seq, r.tag)
				}
			}
		}
		return nil
	})
}

// FuzzWinSpan checks winSpan against exact arithmetic: it accepts a range
// iff n >= 0 and seq+n <= size with no wrap, and then returns off == seq.
func FuzzWinSpan(f *testing.F) {
	for _, c := range []struct {
		seq     uint64
		n, size int
	}{
		{0, 8, 64}, {56, 8, 64}, {57, 8, 64}, {64, 0, 64}, {0, -1, 64},
		{math.MaxInt64 - 2, 8, 64}, {math.MaxUint64, 1, 64}, {1 << 62, math.MaxInt, math.MaxInt},
	} {
		f.Add(c.seq, c.n, c.size)
	}
	f.Fuzz(func(t *testing.T, seq uint64, n, size int) {
		if size < 0 {
			t.Skip("window sizes are lengths")
		}
		off, ok := winSpan(seq, n, size)
		end, carry := bits.Add64(seq, uint64(n), 0)
		inside := n >= 0 && carry == 0 && end <= uint64(size)
		if ok != inside {
			t.Fatalf("winSpan(%d, %d, %d) ok = %v, want %v", seq, n, size, ok, inside)
		}
		if ok && (off < 0 || uint64(off) != seq || off > size-n) {
			t.Fatalf("winSpan(%d, %d, %d) off = %d", seq, n, size, off)
		}
	})
}
