package core

// One-sided communication (RMA): Win objects over registered buffers, with
// Put/Get/Accumulate data movement and fence / lock-unlock epoch control.
//
// A window is created collectively (WinCreate) over a slice the caller
// keeps owning; afterwards any member can read or modify any member's
// window without that member posting a receive. Two transport paths move
// the data:
//
//   - co-located peers (same address space: every chan peer, hyb peers in
//     one process, and always the caller itself) are literal memory copies
//     into the target's registered slice, serialized on the target
//     window's mutex — no wire serialization at all (the prof byte
//     counters record these as "local" bytes);
//   - remote peers speak the RMA frame family (wire.KindRma*), handled at
//     the device boundary without user-posted receives; Put and
//     Accumulate pack straight into pooled wire frames, Get replies land
//     directly in raw-layout origin buffers.
//
// Epoch semantics follow MPI's separation model. Fence is collective and
// rests on two rules. Announcements follow the data path of the peer: a
// co-located member is told by a store into its *Win (this rank's
// operations on it were applied synchronously, before the store), a remote
// one by a KindRmaFenceSync frame that per-path FIFO delivers behind this
// rank's data frames — so a rank holding every member's entry announcement
// has applied every inbound operation of the epoch. The completion phase
// (a second all-to-all, nobody leaves before everyone has absorbed the
// epoch) runs iff the window has a remote member, that is iff a frame can
// be on the wire at all: with C's frame to B still in flight, A — already
// holding C's entry — could otherwise leave the fence and have a
// next-epoch operation on B overtake it; and a completion announcement is
// the only proof a rank gets that its own entry frames arrived (a muted
// rank fails at the fence it could not announce, like everyone else). A
// window of co-located members alone has neither problem: a store cannot
// be in flight and cannot be lost.
//
// Lock/Unlock is passive-target: the target queues waiting origins
// per-window (FIFO, with shared-reader coalescing) and grants without any
// action by the target's application code. Completion at Unlock rides the
// unlock acknowledgement: per-path FIFO means every reply of the epoch
// precedes it.
//
// Epoch-close waits park in core's one park loop (parkUntil), so a rank
// inside Fence, Lock or Unlock keeps driving its in-flight collective
// schedules. Every state change such a wait looks at — a Get or fetch
// reply, a fence announcement, a lock grant or unlock ack, a terminal
// failure — moves the device's wake generation (Device.Wake).
//
// Failure behavior matches the fault-tolerance surface of ft.go: an
// operation or epoch close touching a dead rank fails with ErrRankFailed,
// a revoked communicator fails everything with ErrRevoked, and epoch-close
// waits carry a deadline (MPJ_RMA_TIMEOUT, default 30s) that feeds the
// device failure registry — a mute-style fault (frames silently dropped,
// no connection error) surfaces as a typed failure instead of a hang.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/device"
	"mpj/internal/prof"
	"mpj/internal/wire"
)

// Lock modes for Win.Lock, as in MPI_LOCK_SHARED / MPI_LOCK_EXCLUSIVE.
const (
	// LockShared admits any number of concurrent shared holders.
	LockShared = 1
	// LockExclusive admits a single holder.
	LockExclusive = 2
)

// DefaultEpochTimeout bounds epoch-close waits (Fence, Lock, Unlock) when
// MPJ_RMA_TIMEOUT does not override it: a wait that parks expires this long
// after it parked. On expiry the unresponsive peers are reported to the
// failure registry, so the wait fails with ErrRankFailed instead of
// hanging. The window's one watchdog timer stays armed between epochs; its
// body only wakes the device, so it keeps no window alive.
const DefaultEpochTimeout = 30 * time.Second

// parseEpochTimeout parses the string form of the epoch deadline (the
// MPJ_RMA_TIMEOUT environment variable, read once at NewWorld). Empty
// means DefaultEpochTimeout; anything else must be a positive duration
// with its unit, such as "500ms" or "5s".
func parseEpochTimeout(raw string) (time.Duration, error) {
	if raw == "" {
		return DefaultEpochTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, err
	}
	if d <= 0 {
		return 0, fmt.Errorf("epoch timeout %q: want a positive duration", raw)
	}
	return d, nil
}

// winRegistry maps co-location tokens to live windows, process-wide. Every
// rank registers its window under a fresh token before the WinCreate
// exchange; after it, co-located members resolve each other's token to the
// actual *Win once (Win.peers) and from then on copy memory directly.
var winRegistry = struct {
	mu   sync.Mutex
	next uint64
	m    map[uint64]*Win
}{m: make(map[uint64]*Win)}

func registerWinToken(w *Win) uint64 {
	winRegistry.mu.Lock()
	defer winRegistry.mu.Unlock()
	winRegistry.next++
	winRegistry.m[winRegistry.next] = w
	return winRegistry.next
}

func lookupWinToken(token uint64) *Win {
	winRegistry.mu.Lock()
	defer winRegistry.mu.Unlock()
	return winRegistry.m[token]
}

func dropWinToken(token uint64) {
	winRegistry.mu.Lock()
	defer winRegistry.mu.Unlock()
	delete(winRegistry.m, token)
}

// rmaOps enumerates the predefined reduction operations usable with
// Accumulate, in wire-id order. User-defined operations are rejected (the
// MPI rule: the target applies the operation without user code running
// there, so both sides must agree on it by id).
var rmaOps = []*Op{MaxOp, MinOp, SumOp, ProdOp, LAndOp, LOrOp, LXorOp, BAndOp, BOrOp, BXorOp}

func rmaOpID(op *Op) int {
	for i, o := range rmaOps {
		if o == op {
			return i
		}
	}
	return -1
}

// lockWaiter is one queued passive-target lock request at the window
// owner.
type lockWaiter struct {
	origin int // member rank of the requesting origin
	mode   int // LockShared or LockExclusive
}

// pendingGet is an outstanding remote Get at the origin, completed by a
// KindRmaGetReply (or a target failure).
type pendingGet struct {
	target int
	win    []byte // raw landing window, when the origin buffer allows it
	dt     Datatype
	buf    any
	off    int
	count  int
}

// ctlFrame is an outbound control frame collected while holding the window
// mutex and sent after releasing it (a send to a co-located self dispatches
// synchronously back into the handler, which retakes the mutex).
type ctlFrame struct {
	target int
	kind   wire.Kind
	tag    int
	seq    uint64
}

// Win is a one-sided communication window over a registered buffer — the
// MPJ analogue of MPI_Win. Created collectively by Comm.WinCreate; all
// epoch-control calls (Fence) are collective over the same communicator.
//
// The registered buffer stays owned by the caller, but between epoch
// synchronizations it may be modified by remote Put/Accumulate at any
// time; local reads of the buffer are only well-defined inside the
// separation the epochs provide (after a Fence, or while holding a lock on
// the own rank).
type Win struct {
	c   *Comm
	dev *device.Device
	ctx int // dedicated device context of this window

	dt       Datatype // base element type of the registered slice
	elemSize int
	buf      []byte // raw byte window over the registered slice
	slots    int    // registered length in elements

	token     uint64 // own co-location registry token
	peers     []*Win // co-located members' windows (self included); nil = remote
	remote    bool   // some member is remote: fences run the completion phase
	peerSlots []int  // per-member registered lengths (elements)
	peerDisp  []int  // per-member displacement units (elements)
	world     []int  // member rank → world rank

	timeout time.Duration

	mu  sync.Mutex
	err error // terminal: ErrRevoked (comm revoked) or ErrComm (freed)

	// The deadline watchdog (see waitEpoch): one timer per window, whose
	// body wakes the device. watchAt is when it fires (zero before the
	// first park); while it lies ahead, every parked waiter's own
	// deadline is at or after it.
	watch   *time.Timer
	watchAt time.Time

	// Target-side passive-lock state.
	holders map[int]int // origin member rank → lock mode
	lockQ   []lockWaiter

	// Origin-side epoch state.
	fenceGen  uint64          // local fence generation (2 per completed fence)
	fenceRecv []atomic.Uint64 // highest fence generation announced per member
	nextGet   uint64
	gets      map[uint64]*pendingGet
	grants    map[int]bool // target member rank → lock granted
	unlockAck map[int]bool // target member rank → unlock acknowledged
	held      map[int]int  // target member rank → mode of lock this rank holds
	lockStart map[int]time.Time

	epochStart time.Time // previous fence, for trace epoch spans
}

// winElemOf resolves the base datatype and length of a window buffer. Only
// raw-layout slices are accepted: the whole point of a window is that
// remote bytes land in (and leave from) the registered memory directly.
func winElemOf(buf any) (Datatype, int, error) {
	var dt Datatype
	var n int
	switch s := buf.(type) {
	case []byte:
		dt, n = Byte, len(s)
	case []bool:
		dt, n = Boolean, len(s)
	case []int16:
		dt, n = Short, len(s)
	case []int32:
		dt, n = Int, len(s)
	case []int64:
		dt, n = Long, len(s)
	case []int:
		dt, n = GoInt, len(s)
	case []float32:
		dt, n = Float, len(s)
	case []float64:
		dt, n = Double, len(s)
	default:
		return nil, 0, fmt.Errorf("%w: window buffer must be a primitive slice, got %T", ErrBuffer, buf)
	}
	return dt, n, nil
}

// WinCreate creates a one-sided communication window over buf, the MPJ
// analogue of MPI_Win_create. Collective: every member calls it with its
// own buffer (lengths may differ; a member may expose an empty slice) and
// its own displacement unit, measured in buffer elements — target
// displacements in Put/Get/Accumulate address element dispUnit*tdisp of
// the target's slice. The element types must agree across members.
//
// The window allocates a dedicated device context, so its traffic (and
// profiling counters) never mixes with the communicator's two-sided
// traffic.
func (c *Comm) WinCreate(buf any, dispUnit int) (*Win, error) {
	if c.Revoked() {
		return nil, fmt.Errorf("mpj: win create: %w", ErrRevoked)
	}
	if dispUnit <= 0 {
		return nil, fmt.Errorf("%w: win create: displacement unit %d must be positive", ErrArg, dispUnit)
	}
	dt, slots, err := winElemOf(buf)
	if err != nil {
		return nil, fmt.Errorf("mpj: win create: %w", err)
	}
	var raw []byte
	if slots > 0 {
		if raw = vWindow(dt, buf, 0, slots); raw == nil {
			return nil, fmt.Errorf("%w: win create: %s buffer has no raw layout on this host", ErrType, dt.Name())
		}
	}
	ctx, err := c.allocContexts(1)
	if err != nil {
		return nil, fmt.Errorf("mpj: win create: %w", err)
	}

	size := c.Size()
	w := &Win{
		c:         c,
		dev:       c.dev,
		ctx:       ctx,
		dt:        dt,
		elemSize:  dt.ByteSize(),
		buf:       raw,
		slots:     slots,
		timeout:   c.proc.epochTimeout,
		holders:   make(map[int]int),
		fenceRecv: make([]atomic.Uint64, size),
		gets:      make(map[uint64]*pendingGet),
		grants:    make(map[int]bool),
		unlockAck: make(map[int]bool),
		held:      make(map[int]int),
		lockStart: make(map[int]time.Time),
		world:     make([]int, size),
	}
	for m := 0; m < size; m++ {
		wr, err := c.worldRank(m)
		if err != nil {
			return nil, err
		}
		w.world[m] = wr
	}

	// Register under a fresh co-location token AND in the process window
	// map before the exchange: a peer whose WinCreate returns first may
	// legally issue operations against this rank while this rank is still
	// inside the allgather below, and those frames (or direct memory
	// accesses) must find the window.
	w.token = registerWinToken(w)
	c.proc.registerWin(w)

	// Exchange (token, length, dispUnit, elemSize); the allgather doubles
	// as the creation barrier. elemSize is a cross-rank type check: the
	// wire protocol addresses target memory in elements.
	mine := []int64{int64(w.token), int64(slots), int64(dispUnit), int64(w.elemSize)}
	all := make([]int64, 4*size)
	if err := c.Allgather(mine, 0, 4, Long, all, 0, 4, Long); err != nil {
		dropWinToken(w.token)
		c.proc.unregisterWin(w)
		return nil, fmt.Errorf("mpj: win create: %w", err)
	}
	w.peers = make([]*Win, size)
	w.peerSlots = make([]int, size)
	w.peerDisp = make([]int, size)
	for m := 0; m < size; m++ {
		w.peerSlots[m] = int(all[4*m+1])
		w.peerDisp[m] = int(all[4*m+2])
		if es := int(all[4*m+3]); es != w.elemSize {
			dropWinToken(w.token)
			c.proc.unregisterWin(w)
			return nil, fmt.Errorf("%w: win create: element size %d at rank %d != local %d",
				ErrType, es, m, w.elemSize)
		}
		// Every member registered before it entered the exchange, so a
		// co-located member's token resolves now, once; a miss is a member
		// whose own creation already failed.
		if !c.dev.LocalPeer(w.world[m]) {
			w.remote = true
		} else if w.peers[m] = lookupWinToken(uint64(all[4*m])); w.peers[m] == nil {
			dropWinToken(w.token)
			c.proc.unregisterWin(w)
			return nil, fmt.Errorf("mpj: win create: %w: rank %d's window is gone", ErrComm, m)
		}
	}

	c.addWinCtx(ctx)
	w.epochStart = time.Now()
	return w, nil
}

// SetEpochTimeout overrides the deadline on epoch-close waits (Fence,
// Lock, Unlock) for this window. Zero or negative restores the process
// default: MPJ_RMA_TIMEOUT as NewWorld parsed it, else
// DefaultEpochTimeout.
func (w *Win) SetEpochTimeout(d time.Duration) {
	if d <= 0 {
		d = w.c.proc.epochTimeout
	}
	w.mu.Lock()
	w.timeout = d
	w.mu.Unlock()
}

// Comm returns the communicator the window was created over.
func (w *Win) Comm() *Comm { return w.c }

// ProfSnapshot returns the profiling counters of this window's dedicated
// device context — its one-sided traffic only, unlike Comm.ProfSnapshot
// which sums every context of the communicator. Zero when profiling is
// off.
func (w *Win) ProfSnapshot() prof.Snapshot {
	if p := w.dev.Profiler(); p != nil {
		return p.CtxSnapshot(w.ctx)
	}
	return prof.Snapshot{}
}

// Size returns the number of members exposing the window.
func (w *Win) Size() int { return len(w.world) }

// Rank returns the calling process's member rank.
func (w *Win) Rank() int { return w.c.rank }

// Slots returns the number of elements rank exposes in its window.
func (w *Win) Slots(rank int) int {
	if rank < 0 || rank >= len(w.peerSlots) {
		return 0
	}
	return w.peerSlots[rank]
}

// Free releases the window, the analogue of MPI_Win_free. Collective: it
// synchronizes the members (no one frees while a peer's operations are
// still in flight) and then unregisters the window; further operations
// fail with ErrComm.
func (w *Win) Free() error {
	err := w.c.Barrier()
	w.fail(fmt.Errorf("%w: window freed", ErrComm))
	dropWinToken(w.token)
	w.c.proc.unregisterWin(w)
	if err != nil {
		return fmt.Errorf("mpj: win free: %w", err)
	}
	return nil
}

// fail terminally fails the window (communicator revocation, teardown,
// Free): parked epoch waits wake and return err, future operations fail.
// It stops the watchdog too: no wait will park here again.
func (w *Win) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	if w.watch != nil {
		w.watch.Stop()
	}
	w.mu.Unlock()
	w.dev.Wake()
}

// usable returns the window's terminal error, if any.
func (w *Win) usable() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// ---------------------------------------------------------------------
// Data movement: Put, Get, Accumulate.

// opSetup validates one data operation and resolves the target byte
// offset and payload length. A zero count is a no-op (ok=false).
func (w *Win) opSetup(name string, dt Datatype, count, target, tdisp int) (boff, nbytes int, ok bool, err error) {
	fail := func(e error) (int, int, bool, error) {
		return 0, 0, false, fmt.Errorf("mpj: rma %s: %w", name, e)
	}
	if e := w.usable(); e != nil {
		return fail(e)
	}
	if count < 0 {
		return fail(fmt.Errorf("%w: count %d", ErrCount, count))
	}
	if target < 0 || target >= len(w.world) {
		return fail(fmt.Errorf("%w: target %d of %d-member window", ErrRank, target, len(w.world)))
	}
	if dt == nil || dt.Base() != w.dt {
		return fail(fmt.Errorf("%w: window holds %s elements", ErrType, w.dt.Name()))
	}
	sz := dt.ByteSize()
	if sz < 0 {
		return fail(fmt.Errorf("%w: %s has no fixed size", ErrType, dt.Name()))
	}
	if count == 0 {
		return 0, 0, false, nil
	}
	if e := w.dev.RankError(w.world[target]); e != nil {
		return fail(e)
	}
	if tdisp < 0 {
		return fail(fmt.Errorf("%w: negative target displacement %d", ErrArg, tdisp))
	}
	boff = tdisp * w.peerDisp[target] * w.elemSize
	nbytes = count * sz
	// RMA byte counts ride the wire in int32 header fields (KindRmaGet
	// carries the requested length in Tag, the data kinds carry it in Len),
	// so a transfer of >= 2 GiB would silently truncate on encode. Reject
	// it here, before the bounds check, so every entry point — Put, Get,
	// Accumulate and the FetchAndOp/CompareAndSwap reply sizing — fails
	// loudly with ErrArg instead.
	if nbytes > math.MaxInt32 {
		return fail(fmt.Errorf("%w: %d-byte transfer exceeds the %d-byte RMA wire limit (int32 header fields)",
			ErrArg, nbytes, math.MaxInt32))
	}
	if boff+nbytes > w.peerSlots[target]*w.elemSize {
		return fail(fmt.Errorf("%w: target block [%d:%d) outside rank %d's %d-element window",
			ErrArg, boff/w.elemSize, (boff+nbytes)/w.elemSize, target, w.peerSlots[target]))
	}
	return boff, nbytes, true, nil
}

// lockPeer locks co-located member target's window for one direct access;
// a terminally failed one (freed, revoked) fails the operation instead.
func (w *Win) lockPeer(name string, target int) (*Win, error) {
	tw := w.peers[target]
	tw.mu.Lock()
	if err := tw.err; err != nil {
		tw.mu.Unlock()
		return nil, fmt.Errorf("mpj: rma %s: rank %d's window: %w", name, target, err)
	}
	return tw, nil
}

// sendData ships count elements of dt from buf[off:] to the target as one
// RMA frame, packing directly into the pooled frame when the datatype
// supports it.
func (w *Win) sendData(kind wire.Kind, target, tag, boff, nbytes int, dt Datatype, buf any, off, count int) error {
	if pi, isPI := dt.(packerInto); isPI {
		return w.dev.RMASendFill(nbytes, func(p []byte) error {
			return pi.PackInto(p, buf, off, count)
		}, w.world[target], kind, w.ctx, tag, uint64(boff), 0)
	}
	data, err := dt.Pack(nil, buf, off, count)
	if err != nil {
		return err
	}
	if len(data) != nbytes {
		return fmt.Errorf("%w: packed %d bytes, expected %d", ErrType, len(data), nbytes)
	}
	return w.dev.RMASend(w.world[target], kind, w.ctx, tag, uint64(boff), 0, data)
}

// Put transfers count elements of dt from buf starting at slot off into
// target's window at element displacement tdisp (scaled by the target's
// displacement unit) — MPI_Put. It returns once buf is reusable; the data
// is guaranteed applied at the target only after the epoch closes (Fence,
// or Unlock of a lock on target). Co-located targets are a direct memory
// copy.
func (w *Win) Put(buf any, off, count int, dt Datatype, target, tdisp int) error {
	boff, nbytes, ok, err := w.opSetup("put", dt, count, target, tdisp)
	if !ok {
		return err
	}
	if raw := vWindow(dt, buf, off, count); raw != nil {
		return w.putBytes(raw, target, boff)
	}
	if w.peers[target] != nil {
		tw, err := w.lockPeer("put", target)
		if err != nil {
			return err
		}
		err = packIntoWindow(tw.buf[boff:boff+nbytes], dt, buf, off, count)
		tw.mu.Unlock()
		if err != nil {
			return fmt.Errorf("mpj: rma put: %w", err)
		}
	} else {
		if err := w.sendData(wire.KindRmaPut, target, 0, boff, nbytes, dt, buf, off, count); err != nil {
			return fmt.Errorf("mpj: rma put: %w", err)
		}
	}
	if p := w.dev.Profiler(); p != nil {
		p.RmaOp(w.ctx, 'p', nbytes, w.peers[target] != nil)
	}
	return nil
}

// putBytes is the byte-level body of a raw-layout Put, shared by Win.Put
// and TypedPut: src is the origin's memory, already in wire layout, and
// boff the target byte offset opSetup resolved for len(src) bytes. A
// co-located target gets one memmove under its window mutex, a remote one
// one KindRmaPut frame.
func (w *Win) putBytes(src []byte, target, boff int) error {
	if w.peers[target] != nil {
		tw, err := w.lockPeer("put", target)
		if err != nil {
			return err
		}
		copy(tw.buf[boff:boff+len(src)], src)
		tw.mu.Unlock()
	} else if err := w.dev.RMASend(w.world[target], wire.KindRmaPut, w.ctx, 0, uint64(boff), 0, src); err != nil {
		return fmt.Errorf("mpj: rma put: %w", err)
	}
	if p := w.dev.Profiler(); p != nil {
		p.RmaOp(w.ctx, 'p', len(src), w.peers[target] != nil)
	}
	return nil
}

// packIntoWindow packs count elements of dt from buf[off:] into the
// exactly-sized destination window — a single memmove for raw-layout
// datatypes.
func packIntoWindow(dst []byte, dt Datatype, buf any, off, count int) error {
	if pi, ok := dt.(packerInto); ok {
		return pi.PackInto(dst, buf, off, count)
	}
	data, err := dt.Pack(nil, buf, off, count)
	if err != nil {
		return err
	}
	if len(data) != len(dst) {
		return fmt.Errorf("%w: packed %d bytes, expected %d", ErrType, len(data), len(dst))
	}
	copy(dst, data)
	return nil
}

// Get transfers count elements of dt from target's window at element
// displacement tdisp into buf starting at slot off — MPI_Get. For
// co-located targets the copy happens immediately; for remote targets the
// data is valid only after the epoch closes (Fence, or Unlock of a lock
// on target).
func (w *Win) Get(buf any, off, count int, dt Datatype, target, tdisp int) error {
	boff, nbytes, ok, err := w.opSetup("get", dt, count, target, tdisp)
	if !ok {
		return err
	}
	if n := bufSlots(buf); n >= 0 && (off < 0 || off+count*dt.Extent() > n) {
		return fmt.Errorf("mpj: rma get: %w: block [%d:%d) outside %d-slot buffer",
			ErrBuffer, off, off+count*dt.Extent(), n)
	}
	if w.peers[target] != nil {
		tw, err := w.lockPeer("get", target)
		if err != nil {
			return err
		}
		_, err = dt.Unpack(tw.buf[boff:boff+nbytes], buf, off, count)
		tw.mu.Unlock()
		if err != nil {
			return fmt.Errorf("mpj: rma get: %w", err)
		}
	} else {
		w.mu.Lock()
		w.nextGet++
		id := w.nextGet
		g := &pendingGet{target: target, dt: dt, buf: buf, off: off, count: count}
		g.win = vWindow(dt, buf, off, count)
		w.gets[id] = g
		w.mu.Unlock()
		err := w.dev.RMASend(w.world[target], wire.KindRmaGet, w.ctx, nbytes, uint64(boff), id, nil)
		if err != nil {
			w.mu.Lock()
			delete(w.gets, id)
			w.mu.Unlock()
			return fmt.Errorf("mpj: rma get: %w", err)
		}
	}
	if p := w.dev.Profiler(); p != nil {
		p.RmaOp(w.ctx, 'g', nbytes, w.peers[target] != nil)
	}
	return nil
}

// Accumulate combines count elements of dt from buf starting at slot off
// into target's window at element displacement tdisp using the predefined
// reduction op — MPI_Accumulate. Element-wise: window[i] = op(buf[i],
// window[i]), applied under the target window's serialization, so
// concurrent accumulations from different origins with the same
// commutative op are well-defined. User-defined operations are rejected
// with ErrOp: the target applies the operation without user code running
// there.
func (w *Win) Accumulate(buf any, off, count int, dt Datatype, target, tdisp int, op *Op) error {
	boff, nbytes, ok, err := w.opSetup("accumulate", dt, count, target, tdisp)
	if !ok {
		return err
	}
	opID := rmaOpID(op)
	if opID < 0 {
		if op == nil {
			return fmt.Errorf("mpj: rma accumulate: %w: nil op", ErrOp)
		}
		return fmt.Errorf("mpj: rma accumulate: %w: %s is not a predefined operation", ErrOp, op.Name())
	}
	comb, err := op.combinerFor(w.dt)
	if err != nil {
		return fmt.Errorf("mpj: rma accumulate: %w", err)
	}
	if w.peers[target] != nil {
		data, err := packExact(dt, buf, off, count)
		if err != nil {
			return fmt.Errorf("mpj: rma accumulate: %w", err)
		}
		tw, err := w.lockPeer("accumulate", target)
		if err != nil {
			return err
		}
		err = comb(data, tw.buf[boff:boff+nbytes])
		tw.mu.Unlock()
		if err != nil {
			return fmt.Errorf("mpj: rma accumulate: %w", err)
		}
	} else {
		if err := w.sendData(wire.KindRmaAcc, target, opID, boff, nbytes, dt, buf, off, count); err != nil {
			return fmt.Errorf("mpj: rma accumulate: %w", err)
		}
	}
	if p := w.dev.Profiler(); p != nil {
		p.RmaOp(w.ctx, 'a', nbytes, w.peers[target] != nil)
	}
	return nil
}

// atomicSetup validates a single-element read-modify-write operation
// (FetchAndOp, CompareAndSwap): on top of the usual data-operation checks
// it requires dt to be exactly one window element (the target applies the
// update as one atomic unit) and validates the result landing slot.
func (w *Win) atomicSetup(name string, dt Datatype, result any, roff, target, tdisp int) (boff int, ok bool, err error) {
	boff, nbytes, ok, err := w.opSetup(name, dt, 1, target, tdisp)
	if !ok || err != nil {
		return 0, false, err
	}
	if nbytes != w.elemSize {
		return 0, false, fmt.Errorf("mpj: rma %s: %w: operates on single %s elements, got %d-byte datatype",
			name, ErrType, w.dt.Name(), nbytes)
	}
	if n := bufSlots(result); n >= 0 && (roff < 0 || roff+dt.Extent() > n) {
		return 0, false, fmt.Errorf("mpj: rma %s: %w: result slot %d outside %d-slot buffer",
			name, ErrBuffer, roff, n)
	}
	return boff, true, nil
}

// fetchPending registers a pending single-element reply landing in
// result[roff] and returns its correlation id. The entry lives in the same
// table as outstanding Gets, so epoch closes (Fence, Unlock) wait for the
// reply and a dead target fails it typed.
func (w *Win) fetchPending(dt Datatype, result any, roff, target int) uint64 {
	w.mu.Lock()
	w.nextGet++
	id := w.nextGet
	g := &pendingGet{target: target, dt: dt, buf: result, off: roff, count: 1}
	g.win = vWindow(dt, result, roff, 1)
	w.gets[id] = g
	w.mu.Unlock()
	return id
}

func (w *Win) dropPending(id uint64) {
	w.mu.Lock()
	delete(w.gets, id)
	w.mu.Unlock()
}

// FetchAndOp atomically combines one element of dt from buf[ooff] into
// target's window at element displacement tdisp with the predefined
// reduction op, and fetches the element's prior value into result[roff] —
// MPI_Fetch_and_op. The read-modify-write is applied as one unit under the
// target window's serialization, so concurrent FetchAndOp calls from
// different origins to the same slot are well-defined (the classic
// one-sided counter/ticket primitive). For co-located targets the prior
// value is available immediately; for remote targets it is valid only
// after the epoch closes (Fence, or Unlock of a lock on target).
func (w *Win) FetchAndOp(buf any, ooff int, result any, roff int, dt Datatype, target, tdisp int, op *Op) error {
	boff, ok, err := w.atomicSetup("fetch_and_op", dt, result, roff, target, tdisp)
	if !ok {
		return err
	}
	opID := rmaOpID(op)
	if opID < 0 {
		if op == nil {
			return fmt.Errorf("mpj: rma fetch_and_op: %w: nil op", ErrOp)
		}
		return fmt.Errorf("mpj: rma fetch_and_op: %w: %s is not a predefined operation", ErrOp, op.Name())
	}
	comb, err := op.combinerFor(w.dt)
	if err != nil {
		return fmt.Errorf("mpj: rma fetch_and_op: %w", err)
	}
	contrib, err := packExact(dt, buf, ooff, 1)
	if err != nil {
		return fmt.Errorf("mpj: rma fetch_and_op: %w", err)
	}
	if w.peers[target] != nil {
		prior := make([]byte, w.elemSize)
		tw, err := w.lockPeer("fetch_and_op", target)
		if err != nil {
			return err
		}
		copy(prior, tw.buf[boff:boff+w.elemSize])
		err = comb(contrib, tw.buf[boff:boff+w.elemSize])
		tw.mu.Unlock()
		if err != nil {
			return fmt.Errorf("mpj: rma fetch_and_op: %w", err)
		}
		if _, err := dt.Unpack(prior, result, roff, 1); err != nil {
			return fmt.Errorf("mpj: rma fetch_and_op: %w", err)
		}
	} else {
		id := w.fetchPending(dt, result, roff, target)
		if err := w.dev.RMASend(w.world[target], wire.KindRmaFetchOp, w.ctx, opID, uint64(boff), id, contrib); err != nil {
			w.dropPending(id)
			return fmt.Errorf("mpj: rma fetch_and_op: %w", err)
		}
	}
	if p := w.dev.Profiler(); p != nil {
		p.RmaOp(w.ctx, 'a', w.elemSize, w.peers[target] != nil)
	}
	return nil
}

// CompareAndSwap atomically compares one element of dt at compare[coff]
// with target's window element at displacement tdisp, stores buf[ooff]
// there on a (bytewise) match, and fetches the element's prior value into
// result[roff] — MPI_Compare_and_swap. Like FetchAndOp the update is one
// atomic unit at the target, and the fetched value is valid after the
// epoch closes (immediately for co-located targets). The swap happened iff
// the fetched prior value equals the compare value.
func (w *Win) CompareAndSwap(buf any, ooff int, compare any, coff int, result any, roff int, dt Datatype, target, tdisp int) error {
	boff, ok, err := w.atomicSetup("compare_and_swap", dt, result, roff, target, tdisp)
	if !ok {
		return err
	}
	cmp, err := packExact(dt, compare, coff, 1)
	if err != nil {
		return fmt.Errorf("mpj: rma compare_and_swap: %w", err)
	}
	newv, err := packExact(dt, buf, ooff, 1)
	if err != nil {
		return fmt.Errorf("mpj: rma compare_and_swap: %w", err)
	}
	if w.peers[target] != nil {
		prior := make([]byte, w.elemSize)
		tw, err := w.lockPeer("compare_and_swap", target)
		if err != nil {
			return err
		}
		slot := tw.buf[boff : boff+w.elemSize]
		copy(prior, slot)
		if bytes.Equal(cmp, prior) {
			copy(slot, newv)
		}
		tw.mu.Unlock()
		if _, err := dt.Unpack(prior, result, roff, 1); err != nil {
			return fmt.Errorf("mpj: rma compare_and_swap: %w", err)
		}
	} else {
		id := w.fetchPending(dt, result, roff, target)
		payload := append(cmp, newv...)
		if err := w.dev.RMASend(w.world[target], wire.KindRmaCas, w.ctx, 0, uint64(boff), id, payload); err != nil {
			w.dropPending(id)
			return fmt.Errorf("mpj: rma compare_and_swap: %w", err)
		}
	}
	if p := w.dev.Profiler(); p != nil {
		p.RmaOp(w.ctx, 'a', w.elemSize, w.peers[target] != nil)
	}
	return nil
}

// ---------------------------------------------------------------------
// Epoch control.

// waitEpoch parks in the one park loop until pred reports done (or an
// error). pred runs without w.mu (the fence's reads only atomics), so a
// wait whose predicate already holds reads no clock and takes no lock. One
// that has to park fixes its deadline on the first park (park time +
// timeout) and makes sure the window's watchdog fires at or before it
// (armWatchLocked); on every later wake-up it judges expiry on its own
// clock, so a fire meant for another waiter is a spurious wake-up. On
// expiry every member stuck() (run under w.mu) still blames is reported to
// the device failure registry, which turns the hang into a typed
// ErrRankFailed through pred's dead-rank checks. A terminal failure of the
// window or the device ends the wait with its error. Time parked is
// charged to the window's context.
func (w *Win) waitEpoch(pred func() (bool, error), stuck func() []int) (err error) {
	var deadline time.Time
	w.c.parkUntil(w.ctx, nil, func() bool {
		var done bool
		if done, err = pred(); done || err != nil {
			return true
		}
		w.mu.Lock()
		if err = w.err; err == nil {
			err = w.dev.Err()
		}
		if err != nil {
			w.mu.Unlock()
			return true
		}
		now, timeout := time.Now(), w.timeout
		var late []int
		if deadline.IsZero() {
			deadline = now.Add(timeout)
		} else if !now.Before(deadline) {
			late = stuck()
			deadline = now.Add(timeout)
		}
		w.armWatchLocked(now, deadline)
		w.mu.Unlock()
		if len(late) > 0 {
			cause := fmt.Errorf("mpj: rma epoch deadline (%s) expired", timeout)
			for _, m := range late {
				w.dev.NotifyRankFailed(w.world[m], cause)
			}
		}
		return false
	})
	return err
}

// armWatchLocked makes the watchdog fire at or before deadline. A watch
// still ahead and due no later is left alone — in steady state every
// epoch of a window finds it so and touches no timer; one already due (it
// fired, or is about to) or due after deadline (the timeout was shortened)
// is reset to deadline. A reset that takes back a due fire wakes the
// device itself, for the other waiters that fire was to wake. Callers hold
// w.mu.
func (w *Win) armWatchLocked(now, deadline time.Time) {
	due := !now.Before(w.watchAt)
	if !due && !w.watchAt.After(deadline) {
		return
	}
	w.watchAt = deadline
	if w.watch == nil {
		w.watch = time.AfterFunc(deadline.Sub(now), w.dev.Wake)
	} else if w.watch.Reset(deadline.Sub(now)) && due {
		w.dev.Wake()
	}
}

// getsDone is the epoch predicate for outstanding Gets: done when none
// remain; a Get whose target died fails typed (and is dropped, so the
// window stays usable for recovery).
func (w *Win) getsDone() (bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, g := range w.gets {
		if err := w.dev.RankError(w.world[g.target]); err != nil {
			delete(w.gets, id)
			return false, err
		}
	}
	return len(w.gets) == 0, nil
}

// stuckGets blames the targets of outstanding Gets. Callers hold w.mu.
func (w *Win) stuckGets() []int {
	seen := make(map[int]bool)
	var out []int
	for _, g := range w.gets {
		if !seen[g.target] {
			seen[g.target] = true
			out = append(out, g.target)
		}
	}
	return out
}

// syncPhase announces fence generation gen to every peer — by an atomic
// store into a co-located peer's window, which wakes the peer's device, by
// frame to a remote one — and waits until every live peer announced at
// least gen (dead peers whose announcement is missing fail the fence
// typed). The store takes no window mutex: it publishes this rank's direct
// operations on the peer, all applied before it.
func (w *Win) syncPhase(gen uint64) error {
	me, frames := w.c.rank, 0
	for m, tw := range w.peers {
		if m == me {
			continue
		}
		if tw != nil {
			tw.fenceRecv[me].Store(gen)
			tw.dev.Wake()
			continue
		}
		frames++
		if err := w.dev.RMASend(w.world[m], wire.KindRmaFenceSync, w.ctx, 0, gen, 0, nil); err != nil {
			if errors.Is(err, ErrRankFailed) {
				continue // the wait below reports it
			}
			return err
		}
	}
	if p := w.dev.Profiler(); p != nil {
		p.RmaSync(w.ctx, frames, len(w.peers)-1-frames)
	}
	return w.waitEpoch(func() (bool, error) {
		for m := range w.world {
			if m == me || w.fenceRecv[m].Load() >= gen {
				continue
			}
			return false, w.dev.RankError(w.world[m])
		}
		return true, nil
	}, func() []int {
		var out []int
		for m := range w.world {
			if m != me && w.fenceRecv[m].Load() < gen {
				out = append(out, m)
			}
		}
		return out
	})
}

// Fence closes the current access/exposure epoch and opens the next —
// MPI_Win_fence. Collective over the window's communicator. When Fence
// returns, every operation of the closing epoch (by any member, any
// target) has been applied and all local Gets have landed; the buffers
// are consistent everywhere.
//
// The epoch close carries a deadline (SetEpochTimeout / MPJ_RMA_TIMEOUT):
// members that stay silent past it are reported to the failure registry
// and the fence fails with ErrRankFailed instead of hanging.
func (w *Win) Fence() error {
	w.mu.Lock()
	err, drain := w.err, len(w.gets) > 0
	w.mu.Unlock()
	// Outstanding Gets first: their replies are epoch data.
	if err == nil && drain {
		err = w.waitEpoch(w.getsDone, w.stuckGets)
	}
	if err != nil {
		return fmt.Errorf("mpj: fence: %w", err)
	}
	w.mu.Lock()
	w.fenceGen += 2
	entry, done := w.fenceGen-1, w.fenceGen
	w.mu.Unlock()
	// Phase 1 — entry: a rank holding all entry announcements has applied
	// every inbound operation of the epoch (per-path FIFO puts data
	// frames ahead of the announcement; a co-located origin applied its
	// operations before it stored the announcement).
	if err := w.syncPhase(entry); err != nil {
		return fmt.Errorf("mpj: fence: %w", err)
	}
	// Phase 2 — completion: no rank leaves the fence before every rank
	// finished phase 1, so next-epoch operations can never land on a
	// window that has not absorbed this epoch yet, and a rank whose entry
	// frames were lost does not leave at all. A window without a remote
	// member has no frame to be in flight or lost, and skips it.
	if w.remote {
		if err := w.syncPhase(done); err != nil {
			return fmt.Errorf("mpj: fence: %w", err)
		}
	}
	if p := w.dev.Profiler(); p != nil {
		p.RmaFence(w.ctx)
		w.mu.Lock()
		start := w.epochStart
		w.epochStart = time.Now()
		w.mu.Unlock()
		p.RmaEpoch(w.ctx, "fence", start)
	}
	return nil
}

// Lock opens a passive-target access epoch on target's window —
// MPI_Win_lock. mode is LockShared or LockExclusive; requests queue FIFO
// at the target (shared requests coalesce) and are granted without any
// action by the target's application. Operations issued after Lock are
// guaranteed applied once Unlock returns.
func (w *Win) Lock(mode, target int) error {
	if err := w.usable(); err != nil {
		return fmt.Errorf("mpj: lock: %w", err)
	}
	if mode != LockShared && mode != LockExclusive {
		return fmt.Errorf("%w: lock mode %d", ErrArg, mode)
	}
	if target < 0 || target >= len(w.world) {
		return fmt.Errorf("mpj: lock: %w: target %d", ErrRank, target)
	}
	w.mu.Lock()
	_, dup := w.held[target]
	w.mu.Unlock()
	if dup {
		return fmt.Errorf("mpj: lock: %w: already holding a lock on rank %d", ErrArg, target)
	}
	if err := w.dev.RankError(w.world[target]); err != nil {
		return fmt.Errorf("mpj: lock: %w", err)
	}
	start := time.Now()
	if err := w.sendCtl(target, wire.KindRmaLockReq, mode, 0); err != nil {
		return fmt.Errorf("mpj: lock: %w", err)
	}
	if err := w.awaitAck(w.grants, target); err != nil {
		return fmt.Errorf("mpj: lock: %w", err)
	}
	w.mu.Lock()
	w.held[target] = mode
	w.lockStart[target] = start
	w.mu.Unlock()
	if p := w.dev.Profiler(); p != nil {
		p.RmaLock(w.ctx)
	}
	return nil
}

// Unlock closes the passive-target epoch on target — MPI_Win_unlock. When
// it returns, every Put/Get/Accumulate this rank issued at target since
// the matching Lock has been applied (the acknowledgement travels behind
// every reply on the same FIFO path). A dead target surfaces as
// ErrRankFailed; an unresponsive one trips the epoch deadline.
func (w *Win) Unlock(target int) error {
	if err := w.usable(); err != nil {
		return fmt.Errorf("mpj: unlock: %w", err)
	}
	w.mu.Lock()
	_, holding := w.held[target]
	start := w.lockStart[target]
	w.mu.Unlock()
	if !holding {
		return fmt.Errorf("mpj: unlock: %w: no lock held on rank %d", ErrArg, target)
	}
	release := func() {
		w.mu.Lock()
		delete(w.held, target)
		delete(w.lockStart, target)
		w.mu.Unlock()
	}
	if err := w.sendCtl(target, wire.KindRmaUnlock, 0, 0); err != nil {
		release()
		return fmt.Errorf("mpj: unlock: %w", err)
	}
	err := w.awaitAck(w.unlockAck, target)
	release()
	if err != nil {
		return fmt.Errorf("mpj: unlock: %w", err)
	}
	if p := w.dev.Profiler(); p != nil {
		p.RmaEpoch(w.ctx, fmt.Sprintf("lock:%d", target), start)
	}
	return nil
}

// awaitAck waits for target's lock grant or unlock ack — its entry in acks,
// which it consumes; a dead target fails the wait typed.
func (w *Win) awaitAck(acks map[int]bool, target int) error {
	return w.waitEpoch(func() (bool, error) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if acks[target] {
			delete(acks, target)
			return true, nil
		}
		return false, w.dev.RankError(w.world[target])
	}, func() []int { return []int{target} })
}

// sendCtl ships one control frame to a member, dispatching synchronously
// into the local handler when the member is this rank itself (self-frames
// must not depend on the transport: a TCP mesh has no self-connection).
// Callers must not hold w.mu.
func (w *Win) sendCtl(target int, kind wire.Kind, tag int, seq uint64) error {
	if target == w.c.rank {
		h := wire.Header{
			Kind: kind, Src: int32(w.world[target]), Tag: int32(tag),
			Context: int32(w.ctx), Seq: seq,
		}
		w.handleFrame(w.world[target], h, nil)
		return nil
	}
	return w.dev.RMASend(w.world[target], kind, w.ctx, tag, seq, 0, nil)
}

// ---------------------------------------------------------------------
// Inbound frame handling and target-side lock queue.

// winSpan resolves the byte range an inbound RMA frame addresses: n bytes
// at offset seq of a size-byte window. ok is false unless the whole range
// lies inside the window. seq and n come off the wire, so the test is
// written not to overflow: seq near 2^63 must not wrap off+n into range.
func winSpan(seq uint64, n, size int) (off int, ok bool) {
	if n < 0 || seq > uint64(size) || uint64(n) > uint64(size)-seq {
		return 0, false
	}
	return int(seq), true
}

// handleFrame dispatches one inbound RMA frame. It runs on the transport
// reader goroutine (or synchronously on the caller for self-frames):
// state changes happen under w.mu, outbound control frames are collected
// and sent after releasing it, and a change an epoch wait looks at wakes
// the device then too.
func (w *Win) handleFrame(src int, h wire.Header, payload []byte) {
	origin := w.c.groupSource(src)
	if origin < 0 || origin >= len(w.world) {
		return // not a member: a stale frame of a freed window's context
	}
	var outs []ctlFrame
	wake := false
	w.mu.Lock()
	switch h.Kind {
	case wire.KindRmaPut:
		if off, ok := winSpan(h.Seq, len(payload), len(w.buf)); ok {
			copy(w.buf[off:], payload)
		}

	case wire.KindRmaAcc:
		opID := int(h.Tag)
		if off, ok := winSpan(h.Seq, len(payload), len(w.buf)); ok && opID >= 0 && opID < len(rmaOps) {
			if comb, err := rmaOps[opID].combinerFor(w.dt); err == nil {
				_ = comb(payload, w.buf[off:off+len(payload)])
			}
		}

	case wire.KindRmaGet:
		n := int(h.Tag)
		if off, ok := winSpan(h.Seq, n, len(w.buf)); ok {
			// The reply is built under w.mu (the copy out of the window
			// must be serialized like any other access) — safe, because
			// transport sends never block.
			_ = w.dev.RMASendFill(n, func(p []byte) error {
				copy(p, w.buf[off:off+n])
				return nil
			}, src, wire.KindRmaGetReply, w.ctx, 0, h.Seq, h.MsgID)
		}

	case wire.KindRmaFetchOp:
		// Atomic fetch-and-op: reply the prior value first (the frame is
		// filled synchronously, before the combine mutates the slot), then
		// apply window[slot] = op(origin, window[slot]) under w.mu.
		opID, n := int(h.Tag), len(payload)
		if off, ok := winSpan(h.Seq, n, len(w.buf)); ok && n > 0 && opID >= 0 && opID < len(rmaOps) {
			_ = w.dev.RMASendFill(n, func(p []byte) error {
				copy(p, w.buf[off:off+n])
				return nil
			}, src, wire.KindRmaFetchReply, w.ctx, 0, h.Seq, h.MsgID)
			if comb, err := rmaOps[opID].combinerFor(w.dt); err == nil {
				_ = comb(payload, w.buf[off:off+n])
			}
		}

	case wire.KindRmaCas:
		// Atomic compare-and-swap: payload is compare element + new
		// element. Reply the prior value, then swap on a bytewise match.
		n := len(payload) / 2
		if off, ok := winSpan(h.Seq, n, len(w.buf)); ok && n > 0 && len(payload) == 2*n {
			_ = w.dev.RMASendFill(n, func(p []byte) error {
				copy(p, w.buf[off:off+n])
				return nil
			}, src, wire.KindRmaFetchReply, w.ctx, 0, h.Seq, h.MsgID)
			if bytes.Equal(payload[:n], w.buf[off:off+n]) {
				copy(w.buf[off:off+n], payload[n:])
			}
		}

	case wire.KindRmaGetReply, wire.KindRmaFetchReply:
		if g, ok := w.gets[h.MsgID]; ok {
			delete(w.gets, h.MsgID)
			if g.win != nil {
				copy(g.win, payload)
			} else {
				_, _ = g.dt.Unpack(payload, g.buf, g.off, g.count)
			}
			wake = true
		}

	case wire.KindRmaFenceSync:
		if h.Seq > w.fenceRecv[origin].Load() {
			w.fenceRecv[origin].Store(h.Seq)
			wake = true
		}

	case wire.KindRmaLockReq:
		outs = w.lockReqLocked(origin, int(h.Tag))

	case wire.KindRmaLockGrant:
		if h.Tag == 0 {
			w.grants[origin] = true
		} else {
			w.unlockAck[origin] = true
		}
		wake = true

	case wire.KindRmaUnlock:
		delete(w.holders, origin)
		outs = append(outs, ctlFrame{target: origin, kind: wire.KindRmaLockGrant, tag: 1})
		outs = append(outs, w.promoteLocked()...)
	}
	w.mu.Unlock()
	if wake {
		w.dev.Wake()
	}
	for _, o := range outs {
		_ = w.sendCtl(o.target, o.kind, o.tag, o.seq)
	}
}

// lockReqLocked grants or queues a lock request at this window (the
// target side). Grant rules: exclusive needs no holders and an empty
// queue; shared joins current shared holders but queues behind any
// waiter, so writers are never starved. Callers hold w.mu.
func (w *Win) lockReqLocked(origin, mode int) []ctlFrame {
	grant := false
	if mode == LockExclusive {
		grant = len(w.holders) == 0 && len(w.lockQ) == 0
	} else {
		grant = !w.exclusiveHeldLocked() && len(w.lockQ) == 0
	}
	if grant {
		w.holders[origin] = mode
		return []ctlFrame{{target: origin, kind: wire.KindRmaLockGrant, tag: 0}}
	}
	w.lockQ = append(w.lockQ, lockWaiter{origin: origin, mode: mode})
	return nil
}

func (w *Win) exclusiveHeldLocked() bool {
	for _, m := range w.holders {
		if m == LockExclusive {
			return true
		}
	}
	return false
}

// promoteLocked grants queued lock requests that became admissible, FIFO
// with shared coalescing. Callers hold w.mu.
func (w *Win) promoteLocked() []ctlFrame {
	var outs []ctlFrame
	for len(w.lockQ) > 0 {
		head := w.lockQ[0]
		if head.mode == LockExclusive {
			if len(w.holders) > 0 {
				break
			}
			w.holders[head.origin] = head.mode
			outs = append(outs, ctlFrame{target: head.origin, kind: wire.KindRmaLockGrant, tag: 0})
			w.lockQ = w.lockQ[1:]
			break
		}
		if w.exclusiveHeldLocked() {
			break
		}
		w.holders[head.origin] = head.mode
		outs = append(outs, ctlFrame{target: head.origin, kind: wire.KindRmaLockGrant, tag: 0})
		w.lockQ = w.lockQ[1:]
	}
	return outs
}

// onRankFailed releases, at this target, the locks a newly failed origin
// held or requested, so queued peers are granted instead of tripping their
// deadlines. Parked epoch waits need nothing from here: the failure moved
// the device's wake generation, and their predicates consult the failure
// registry.
func (w *Win) onRankFailed(worldRank int) {
	origin := w.c.groupSource(worldRank)
	if origin < 0 || origin >= len(w.world) {
		return
	}
	var outs []ctlFrame
	w.mu.Lock()
	if _, ok := w.holders[origin]; ok {
		delete(w.holders, origin)
		outs = w.promoteLocked()
	}
	for i := 0; i < len(w.lockQ); {
		if w.lockQ[i].origin == origin {
			w.lockQ = append(w.lockQ[:i], w.lockQ[i+1:]...)
		} else {
			i++
		}
	}
	w.mu.Unlock()
	for _, o := range outs {
		_ = w.sendCtl(o.target, o.kind, o.tag, o.seq)
	}
}
