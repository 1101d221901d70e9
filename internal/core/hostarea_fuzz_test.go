package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"mpj/internal/device"
	"mpj/internal/transport"
	"mpj/internal/wire"
)

// FuzzHostArea feeds a host area garbage, as a hostile member could write
// it: the generation word and the sleepers word before the walk, and again
// — with the slots — as each chunk's fold round starts, where a member
// writing concurrently would have been. The generation may run backwards,
// jump ahead or count past the members. The other two members never come:
// a walk still waiting after a few passes of the engine is failed the way
// their deaths would fail it. The walk must never panic, never write
// outside its receive window or into its send buffer, and end in nil, a
// wire.ErrFrame or ErrRankFailed — and an error must break the area.
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
			c.proc.hostFault, c.proc.largeMin = noHostFault, 1
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
	f.Add(seed(0, 0, 0, 1000, 0))               // honest start, nobody else comes
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
		a := newHostArea(mem, np, 0)
		a.passed = passed
		c.host, c.hostSet = a, true
		defer func() { c.host, c.hostSet = nil, false }() // no helper to end at the device's close
		c.dev.SetRoundHook(func(ctx, tag, round int) {
			if round%2 == 0 {
				return
			}
			chunk := round / 2
			mem.Word(hostOffGen).Store(later + uint64(chunk))
			for i := hostCtl + chunk; i < len(mem.Bytes()); i += 4096 {
				mem.Bytes()[i] = garbage[0]
			}
		})
		defer c.dev.SetRoundHook(nil)

		src := make([]float64, count)
		for i := range src {
			src[i] = float64(i)
		}
		back := make([]float64, count+16)
		for i := range back {
			back[i] = -1
		}
		dst := back[8 : 8+count]
		r, err := c.Iallreduce(src, 0, dst, 0, count, Double, SumOp)
		if err != nil || r.alg != "host" {
			t.Fatalf("Iallreduce compiled %v, %v; want a walk", r, err)
		}
		for i := 0; i < 8 && !r.Done(); i++ {
		}
		r.fail(fmt.Errorf("%w: the other members never came", ErrRankFailed)) // no-op once done
		_, err = r.Wait()
		if err != nil && !errors.Is(err, wire.ErrFrame) && !errors.Is(err, ErrRankFailed) {
			t.Fatalf("the walk returned %v, want nil, a wire.ErrFrame or ErrRankFailed", err)
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
		a.mu.Lock()
		broken := a.err
		a.mu.Unlock()
		if err != nil && broken == nil {
			t.Fatalf("the area is not broken after %v", err)
		}
	})
}

// TestHostAreaHostileCounts pins the barrier's reading of the generation
// word on one member: each row starts the word somewhere and says what the
// first barrier's arrival and look must end in.
func TestHostAreaHostileCounts(t *testing.T) {
	needAreas(t)
	mem, err := transport.NewArea(hostAreaSize(3))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Unmap()
	for _, row := range []struct {
		name   string
		passed uint64
		gen    uint64
		done   bool
		want   error
	}{
		{"last to arrive", 0, 2, true, nil},
		{"behind the barrier", 4, 3, false, wire.ErrFrame}, // barrier 4 starts at 12
		{"past the members", 0, 3, false, wire.ErrFrame},
		{"jumped ahead", 1, 1 << 20, false, wire.ErrFrame},
		{"waits for the others", 0, 0, false, nil},
	} {
		mem.Word(hostOffGen).Store(row.gen)
		a := newHostArea(mem, 3, 0)
		a.passed = row.passed
		v, target, err := a.arrive()
		done := false
		if err == nil {
			done, _, err = a.look(v, target)
		}
		if !errors.Is(err, row.want) || (row.want == nil) != (err == nil) || done != row.done {
			t.Errorf("%s: barrier ended in %v, %v; want %v, %v", row.name, done, err, row.done, row.want)
		}
	}
	if bytes.Count(mem.Bytes()[hostCtl:], []byte{0}) != len(mem.Bytes())-hostCtl {
		t.Error("a barrier wrote into the slots")
	}
}
