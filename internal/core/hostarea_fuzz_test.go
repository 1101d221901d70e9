package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"testing"

	"mpj/internal/device"
	"mpj/internal/transport"
	"mpj/internal/wire"
)

// FuzzHostArea feeds a host area garbage, as a hostile member could write
// it: the generation word and the sleepers word before the operation, and
// again — with the slots — after each chunk's first barrier, where a member
// writing concurrently would have been. The generation may run backwards,
// jump ahead or count past the members. One member of the three is marked
// failed, so that every wait that is not ended by the garbage ends in its
// RankFailedError. The operation must never panic, never write outside its
// receive window or into its send buffer, and end in nil, a wire.ErrFrame
// or ErrRankFailed.
func FuzzHostArea(f *testing.F) {
	needAreas(f)
	const np = 3
	eps := transport.NewChanMesh(np)
	var c *Comm
	for i, ep := range eps {
		d, err := device.Open(ep)
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { d.Close() })
		if i == 0 {
			if c, err = NewWorld(d); err != nil {
				f.Fatal(err)
			}
			d.NotifyRankFailed(2, errors.New("a dead member"))
		}
	}
	mem, err := transport.NewArea(hostAreaSize(np))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(mem.Unmap)

	seed := func(gen, passed, later uint64, count uint32, fill byte) []byte {
		b := make([]byte, 29)
		binary.LittleEndian.PutUint64(b, gen)
		binary.LittleEndian.PutUint64(b[8:], passed)
		binary.LittleEndian.PutUint64(b[16:], later)
		binary.LittleEndian.PutUint32(b[24:], count)
		b[28] = fill
		return b
	}
	f.Add(seed(0, 0, 0, 1000, 0))               // honest start, nobody else comes: the dead member ends it
	f.Add(seed(2, 0, 5, 1000, 0xff))            // both barriers pass on this rank's arrivals
	f.Add(seed(2, 0, 2, 40000, 0x7f))           // the first passes, then the count runs back
	f.Add(seed(2, 0, 9, 1000, 0x11))            // the first passes, then the count is past the members
	f.Add(seed(1<<40, 0, 0, 1000, 1))           // far ahead of barrier 0
	f.Add(seed(11, 3, 11, 70000, 0x40))         // barrier 3 passes, then the next is done without this rank
	f.Add(seed(^uint64(0), 1<<62, 0, 10, 0x80)) // wrapped counts
	f.Add(seed(5, 1, 8, 3*hostChunk/8+1, 0x3c)) // three chunks
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 29 {
			return
		}
		gen := binary.LittleEndian.Uint64(in)
		passed := binary.LittleEndian.Uint64(in[8:]) % 1024
		later := binary.LittleEndian.Uint64(in[16:])
		count := 1 + int(binary.LittleEndian.Uint32(in[24:]))%(3*hostChunk/8)
		garbage := in[28:]
		ctl := mem.Bytes()[:hostCtl]
		clear(ctl[8:]) // keep the token
		mem.Word(hostOffGen).Store(gen)
		mem.Word(hostOffSleepers).Store(later)
		for i := hostCtl; i < len(mem.Bytes()); i += len(garbage) {
			copy(mem.Bytes()[i:], garbage)
		}
		a := &hostArea{mem: mem, np: np, me: 0, passed: passed, tmp: make([]byte, bits.Len(np)*hostBlock)}
		c.proc.hostOpt = &hostOption{chunk: func(rank, chunk int) error {
			mem.Word(hostOffGen).Store(later + uint64(chunk))
			for i := hostCtl + chunk; i < len(mem.Bytes()); i += 4096 {
				mem.Bytes()[i] = garbage[0]
			}
			return nil
		}}

		src := make([]float64, count)
		for i := range src {
			src[i] = float64(i)
		}
		back := make([]float64, count+16)
		for i := range back {
			back[i] = -1
		}
		dst := back[8 : 8+count]
		err := c.hostRun(a, vWindow(Double, src, 0, count), vWindow(Double, dst, 0, count), 8, SumOp.byType[Double])
		if err != nil && !errors.Is(err, wire.ErrFrame) && !errors.Is(err, ErrRankFailed) {
			t.Fatalf("hostRun returned %v, want nil, a wire.ErrFrame or ErrRankFailed", err)
		}
		for i := range 8 {
			if back[i] != -1 || back[8+count+i] != -1 {
				t.Fatalf("wrote outside the receive window: guard %d", i)
			}
		}
		for i, v := range src {
			if v != float64(i) {
				t.Fatalf("wrote into the send buffer at %d", i)
			}
		}
		if err != nil && !errors.Is(a.err, err) {
			t.Fatalf("the area is not broken after %v", err)
		}
	})
}

// TestHostAreaHostileCounts pins the barrier's reading of the generation
// word on one member: each row starts the word somewhere and says what the
// first barrier must end in.
func TestHostAreaHostileCounts(t *testing.T) {
	needAreas(t)
	mem, err := transport.NewArea(hostAreaSize(3))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Unmap()
	eps := transport.NewChanMesh(3)
	d, err := device.Open(eps[0])
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := NewWorld(d)
	if err != nil {
		t.Fatal(err)
	}
	d.NotifyRankFailed(1, errors.New("a dead member"))
	for _, row := range []struct {
		name   string
		passed uint64
		gen    uint64
		want   error
	}{
		{"last to arrive", 0, 2, nil},
		{"behind the barrier", 4, 3, wire.ErrFrame}, // barrier 4 starts at 12
		{"past the members", 0, 3, wire.ErrFrame},
		{"jumped ahead", 1, 1 << 20, wire.ErrFrame},
		{"waits on a dead member", 0, 0, ErrRankFailed},
	} {
		mem.Word(hostOffGen).Store(row.gen)
		a := &hostArea{mem: mem, np: 3, passed: row.passed}
		if err := c.hostBarrier(a); !errors.Is(err, row.want) || (row.want == nil) != (err == nil) {
			t.Errorf("%s: barrier returned %v, want %v", row.name, err, row.want)
		}
	}
	if bytes.Count(mem.Bytes()[hostCtl:], []byte{0}) != len(mem.Bytes())-hostCtl {
		t.Error("a barrier wrote into the slots")
	}
}
