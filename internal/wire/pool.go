package wire

import (
	"math/bits"
	"sync"
)

// Frame buffer pool.
//
// The eager path builds one frame per message (NewFrame) and, over TCP,
// reads one frame per inbound message (ReadFrame/ReadBody). Allocating
// those frames fresh makes the per-message cost scale with GC pressure
// rather than with the hardware, so frames are recycled through
// size-classed sync.Pools: GetBuf hands out a buffer from the smallest
// class that fits, PutBuf returns one when its owner is done with it.
//
// Ownership is strictly linear: a frame has exactly one owner at a time,
// and only the current owner may call PutBuf. Send transfers ownership to
// the transport; inbound frames are owned by the transport.Handler they are
// delivered to. Calling PutBuf is always optional — a frame that is simply
// dropped is reclaimed by the GC and the pool refills on demand — but a
// double PutBuf (or a PutBuf of a frame someone else still reads) corrupts
// later messages, so when in doubt, drop instead of putting.
//
// A rendezvous payload is not a frame and never passes through here on its
// way across: the transport sends it from, and lands it in, memory it only
// borrows (transport.SendData, transport.Lander). Two pooled buffers sit
// at the ends of that path, each with one owner throughout. The stash of a
// packed send (device.IsendFill) belongs to the device: it is lent to the
// transport until the SendData completion and goes back to the pool with
// the send request, on every path. The buffer of an allocate-on-arrival
// receive is taken from the pool when its payload is about to land and
// handed to the caller for good (device.Request.Data): it is never put
// back. The top class stays at 1 MiB for the same reason as before — the
// pool must not pin unbounded memory — and nothing on the rendezvous path
// now depends on it: a 1 MiB payload plus header no longer needs a buffer
// of either size.

const (
	// minClassBits is the smallest pooled buffer class (64 B), chosen to
	// cover header-only control frames (HeaderLen is 33).
	minClassBits = 6
	// maxClassBits is the largest pooled buffer class (1 MiB). Larger
	// buffers are allocated directly and dropped on PutBuf so the pool
	// never pins unbounded memory.
	maxClassBits = 20
)

// pooledBuf boxes a buffer so slices can move through a sync.Pool without
// allocating a fresh interface box per Put; the empty boxes are themselves
// recycled through boxPool, making steady-state Get/Put allocation-free.
type pooledBuf struct{ b []byte }

var (
	classPools [maxClassBits + 1]sync.Pool // classPools[c] holds buffers with cap ≥ 1<<c
	boxPool    sync.Pool                   // empty *pooledBuf boxes
)

// classFor returns the smallest class whose buffers hold n bytes.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return minClassBits
	}
	return bits.Len(uint(n - 1))
}

// GetBuf returns a buffer of length n, reusing a pooled buffer when one is
// available. The contents are unspecified; the caller must overwrite all n
// bytes before exposing them.
func GetBuf(n int) []byte {
	if n > 1<<maxClassBits {
		return make([]byte, n)
	}
	c := classFor(n)
	if v := classPools[c].Get(); v != nil {
		pb := v.(*pooledBuf)
		b := pb.b[:n]
		pb.b = nil
		boxPool.Put(pb)
		return b
	}
	return make([]byte, n, 1<<c)
}

// PutBuf returns a buffer to the pool for reuse by a later GetBuf. The
// caller must own b (see the ownership rules above) and must not touch it
// afterwards. Buffers outside the pooled size range are dropped.
func PutBuf(b []byte) {
	if cap(b) > 1<<maxClassBits {
		return // oversized: never pin more than one class-max buffer per entry
	}
	c := bits.Len(uint(cap(b))) - 1 // largest class with 1<<c ≤ cap(b)
	if c < minClassBits {
		return
	}
	pb, _ := boxPool.Get().(*pooledBuf)
	if pb == nil {
		pb = new(pooledBuf)
	}
	pb.b = b[:0]
	classPools[c].Put(pb)
}
