package transport

// The rendezvous half of the co-host rings: a stream area per direction.
//
// A rendezvous payload between two processes of one host is pulled by the
// receiver with one process_vm_readv (see internal/device pull.go): one
// copy, but one CPU, and the sender parks meanwhile and must be woken. A
// blocking send whose receiver is already waiting does better when both
// CPUs move the bytes: the sender copies the payload into a few fixed
// slots of shared memory while the receiver copies each filled slot out
// into the posted buffer. Every ring's memory file therefore ends in a
// stream area of streamSlots slots, which eager frames never touch; the
// ring's producer is the stream's producer.
//
// One stream uses an area at a time. The producer claims it (StreamOpen)
// only when the consumer has said it is finished with the last stream
// (offDone), numbers the new stream, and announces that number in its
// RTS. It publishes slot after slot by moving offFill — the stream's id
// and its count of bytes published — and the consumer frees them by
// moving offRead the same way. The consumer copies into the head of its
// buffer only what offFill says is published, and never more than the
// buffer holds. Either end that waits for the other without progress for
// StreamBudget gives up: the producer marks offFill stopped, the consumer
// writes offDone, which the producer reads before every slot. Whatever
// the consumer did not get through the area it pulls, or takes over the
// socket; the stream always ends with the consumer's offDone.
//
// The area's bytes are hostile bytes like the ring's: a count in offFill
// that names another stream, runs backwards, passes the announced length
// or more than the area holds, or a stop mark off a slot boundary is a
// wire.ErrFrame — the producer's failure, never a panic and never a byte
// past the consumer's buffer.

import (
	"runtime"
	"sync/atomic"
	"time"
)

const (
	// streamSlot is the unit the producer publishes: the consumer copies a
	// slot out while the producer fills the next.
	streamSlot  = 64 << 10
	streamSlots = 4
	streamArea  = streamSlots * streamSlot

	// streamStop in offFill: the producer gave up at the count beside it.
	streamStop = 1 << 31
	// streamCount masks the count of bytes in offFill and offRead; the
	// stream's id is the upper half.
	streamCount = streamStop - 1
)

// StreamBudget bounds how long an end of a stream waits for the other
// without progress before it leaves the rest to the pull. A sender whose
// receiver was parked waits out its wake-up (28–53 µs on a 2-CPU host),
// and a receiver woken by a doorbell waits out the rest of the sender's
// write of it (25–130 µs) before the first slot comes; on a 2-CPU host
// 150 µs took half as many streams over as 100 µs, at less CPU. The two
// ends of a stream also poll that long before they park (see
// internal/device polls.go).
const StreamBudget = 150 * time.Microsecond

// StreamMiss says why StreamOpen claimed no stream area.
type StreamMiss int

const (
	StreamClaimed StreamMiss = iota // it did: the id is not 0
	StreamNoRing                    // no live ring to dst, or its connection ended
	StreamHeld                      // a stream of this endpoint is still in the area
	StreamBehind                    // the peer has not finished the last one (offDone)
)

// StreamOpen claims the stream area of the ring to dst for one payload and
// returns the stream's id, or 0 and why there is none to claim. A claimed
// area must be handed back with Stream.
func (t *TCPTransport) StreamOpen(dst int) (uint32, StreamMiss) {
	rs := t.rings
	if rs == nil {
		return 0, StreamNoRing
	}
	rs.streams.RLock()
	defer rs.streams.RUnlock()
	o := t.outRing(dst)
	if rs.gone || o == nil || rs.ended[dst].Load() {
		return 0, StreamNoRing
	}
	if !o.streaming.CompareAndSwap(false, true) {
		return 0, StreamHeld
	}
	if o.m.word(offDone).Load() != uint64(o.last) {
		o.streaming.Store(false)
		return 0, StreamBehind
	}
	if o.last == 0 {
		// The first stream: fault the area in now, before the RTS has a
		// receiver waiting for the first slot. Untouched, the pages cost
		// the first slots more than the receiver waits for one.
		area := o.m.area()
		for i := 0; i < len(area); i += 4096 {
			area[i] = 0
		}
	}
	if o.last++; o.last == 0 {
		o.last = 1
	}
	o.m.word(offFill).Store(uint64(o.last) << 32)
	return o.last, StreamClaimed
}

// Stream copies payload, whose RTS announced stream id, into the area
// StreamOpen claimed, slot by slot, hands the area back and reports
// whether the whole payload went in. It returns once the payload is all
// in, once the peer is finished with the stream, or once no slot freed for
// StreamBudget — then it marks the stream stopped, so the peer pulls the
// rest at once. hook, when set, runs before each slot is copied, once the
// slot is free, with the payload offset of the slot; false ends the stream
// there with no mark, as a producer that died would (a test seam).
func (t *TCPTransport) Stream(dst int, id uint32, payload []byte, hook func(off int) bool) bool {
	rs := t.rings
	rs.streams.RLock()
	defer rs.streams.RUnlock()
	o := t.outRing(dst)
	defer o.streaming.Store(false)
	if rs.gone {
		return false
	}
	area := o.m.area()
	fill, read, done := o.m.word(offFill), o.m.word(offRead), o.m.word(offDone)
	tag := uint64(id) << 32
	for off, last := 0, time.Now(); off < len(payload); {
		n := min(streamSlot, len(payload)-off)
		for {
			if done.Load() == uint64(id) {
				return false
			}
			consumed := 0
			if r := read.Load(); r&^streamCount == tag {
				consumed = int(r & streamCount)
			}
			if off+n-consumed <= streamArea {
				break
			}
			if time.Since(last) > StreamBudget || rs.ended[dst].Load() {
				fill.Store(tag | uint64(off) | streamStop)
				return false
			}
			runtime.Gosched()
		}
		if hook != nil && !hook(off) {
			return false
		}
		copy(area[off%streamArea:], payload[off:off+n])
		off += n
		fill.Store(tag | uint64(off))
		last = time.Now()
	}
	return true
}

// Unstream copies stream id, announced by src's RTS for a payload of total
// bytes, out of src's area into the head of dst, slot by slot as src fills
// them, and returns how many bytes it filled; the caller fetches the rest
// another way. It stops short when src marks the stream stopped, when no
// slot comes for StreamBudget, or when quit reads true; it stops at
// len(dst) when that is less than total. A malformed area is a
// wire.ErrFrame. On every path it tells src it is finished with the
// stream.
func (t *TCPTransport) Unstream(src int, id uint32, total int, dst []byte, quit *atomic.Bool) (int, error) {
	rs := t.rings
	if rs == nil {
		return 0, nil
	}
	rs.streams.RLock()
	defer rs.streams.RUnlock()
	in := rs.ins[src]
	if rs.gone || in == nil || !in.live.Load() {
		return 0, nil
	}
	return in.m.unstream(id, total, dst, quit, &rs.ended[src])
}

// unstream is Unstream on the mapped ring m; ended, when set, reads true
// once the producer's connection has ended.
func (m ringMem) unstream(id uint32, total int, dst []byte, quit, ended *atomic.Bool) (got int, err error) {
	fill, read, done := m.word(offFill), m.word(offRead), m.word(offDone)
	defer done.Store(uint64(id))
	area := m.area()
	tag := uint64(id) << 32
	want := min(len(dst), total)
	for last := time.Now(); got < want; {
		if quit != nil && quit.Load() {
			return got, nil
		}
		f := fill.Load()
		pub := int(f & streamCount)
		switch {
		case f&^(streamStop|streamCount) != tag:
			return got, ringFrameErr("stream %d published as stream %d", id, f>>32)
		case pub > total || pub < got || pub-got > streamArea:
			return got, ringFrameErr("stream of %d bytes published %d with %d copied out", total, pub, got)
		case pub > got:
			end := min(pub, want)
			for got < end {
				got += copy(dst[got:end], area[got%streamArea:])
			}
			read.Store(tag | uint64(got))
			last = time.Now()
		case f&streamStop != 0:
			if pub%streamSlot != 0 {
				return got, ringFrameErr("stream stopped at byte %d, inside a slot", pub)
			}
			return got, nil
		case time.Since(last) > StreamBudget || ended != nil && ended.Load():
			return got, nil
		default:
			runtime.Gosched()
		}
	}
	return got, nil
}
