package core

import (
	"fmt"
	"testing"
)

// pickyDT wraps a raw base type but refuses to expose a receive window at
// the listed element offsets — the smallest datatype whose receive layout
// windows at some blocks and not at others, which no stock type can reach
// (raw base types window everywhere, non-raw types window nowhere).
type pickyDT struct {
	Datatype
	deny map[int]bool // element offsets whose window is refused
}

func (p pickyDT) window(buf any, off, count int) ([]byte, bool) {
	if p.deny[off] {
		return nil, false
	}
	return p.Datatype.(rawWindower).window(buf, off, count)
}

func (p pickyDT) PackInto(dst []byte, buf any, off, count int) error {
	return p.Datatype.(packerInto).PackInto(dst, buf, off, count)
}

// TestAllgathervStagedSlot runs Allgatherv at np=3 with one or two blocks
// refusing their raw window, in a permuted layout with gaps (one window
// per block) and in one laid end to end (one window for all): the layout
// stages whole and must still deliver every block, including on the rank
// whose own block was refused.
func TestAllgathervStagedSlot(t *testing.T) {
	const np = 3
	rcounts := []int{3, 4, 5}
	cases := []struct {
		name   string
		displs []int
		deny   []int // displacements denied a window
	}{
		{"own-slot-staged", []int{6, 0, 10}, []int{0}},     // rank 1's block
		{"first-slot-staged", []int{6, 0, 10}, []int{6}},   // rank 0's block
		{"two-slots-staged", []int{6, 0, 10}, []int{0, 6}}, // ranks 0 and 1
		{"end-to-end-staged", []int{0, 3, 7}, []int{0}},    // the one window
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runRanks(t, np, func(w *Comm) error {
				deny := map[int]bool{}
				for _, d := range tc.deny {
					deny[d] = true
				}
				dt := pickyDT{Datatype: Int, deny: deny}
				me := w.Rank()
				sbuf := make([]int32, rcounts[me])
				for i := range sbuf {
					sbuf[i] = int32(me*100 + i)
				}
				rbuf := make([]int32, 15)
				if err := w.Allgatherv(sbuf, 0, rcounts[me], dt, rbuf, 0, rcounts, tc.displs, dt); err != nil {
					return err
				}
				for r := 0; r < np; r++ {
					for i := 0; i < rcounts[r]; i++ {
						if got, want := rbuf[tc.displs[r]+i], int32(r*100+i); got != want {
							return fmt.Errorf("block %d element %d: got %d, want %d", r, i, got, want)
						}
					}
				}
				return nil
			})
		})
	}
}
