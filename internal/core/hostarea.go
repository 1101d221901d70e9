package core

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/transport"
	"mpj/internal/wire"
)

// The host area: a large Allreduce among processes of one host folds
// through shared memory instead of its schedule.
//
// Between slave processes of one host the large allreduce's schedule is
// log₂p (or 2(p-1)) rendezvous rounds whose payloads are pulled out of the
// peer's memory, a system call and a copy per message. A communicator whose
// members are all processes of this host instead maps one sealed memory
// file (transport.Area) and runs every eligible Allreduce through it: a
// control page, then one 256 KiB slot per member and a result slot. The
// vector is walked in chunks of a slot; for each chunk
//
//  1. every rank copies the chunk, minus its own share, into its slot;
//  2. barrier;
//  3. every rank folds its share — its own part read straight from the
//     send buffer, the others' from their slots — into the result slot,
//     and copies it to the receive buffer;
//  4. barrier;
//  5. every rank copies the other shares out of the result slot.
//
// Nothing crosses a socket, and each byte is copied into shared memory once
// and out of it once.
//
// Same bits. Each element is combined in exactly the order the schedule
// the area replaces would combine it (iallreduceRing): the recursive
// halving tree on a power-of-two communicator, the ring's chain from the
// chunk's owner otherwise, under the schedule's own cuts of the vector. So
// a host-path Allreduce returns the bits Iallreduce returns on the same
// communicator, whatever the element type and op.
//
// Set-up and refusal. The first eligible Allreduce sets the area up,
// collectively: the lowest member creates the file and hands {pid, fd,
// token} to the others in a small Bcast, each maps it through the area's
// seal and token checks, and a MIN Allreduce agrees. Any refusal — no
// memory file on this system, no access to the creator's /proc entry, a
// seal or token mismatch — leaves the communicator on its schedules for
// good, on every member, and the status says why.
//
// Barriers. The control page holds one generation word that counts
// arrivals: barrier b is passed when it reads (b+1)·p. The last rank to
// arrive wakes the sleepers; the others spin briefly where the rings' gate
// is open (a CPU per rank), then sleep on the word's futex for at most
// hostNap at a time, and between sleeps look at what a socket would have
// told them: a member's death, a revocation, the communicator's Free or the
// device's end; and they drive the schedules in flight, as parkUntil does.
//
// Hostile bytes. Any member can write anything anywhere in the file. The
// arrival count is checked against the only values an honest member can
// leave there while this rank waits, and a count outside them — running
// backwards, past the members, jumping a barrier — breaks the area with a
// wire.ErrFrame; every slot offset is derived from this rank's own
// arguments, so garbage in a slot is at worst a wrong result, never a write
// outside the caller's buffers.
//
// Why 256 KiB. A prototype on a 2-CPU host (4 processes, 1 MiB of float64)
// took 990 µs folding the whole vector at once with 2.5 MiB of shared pages
// per rank, 1050 µs in 512 KiB chunks with 1.25 MiB, 1085 µs in 256 KiB
// chunks with 0.64 MiB: a quarter of the memory for a tenth of the time.

const (
	// hostChunk is the bytes of the vector one chunk covers: a slot.
	hostChunk = 256 << 10
	// hostCtl is the control page: the token (the area's word 0), the
	// generation word and the sleepers word, a cache line each.
	hostCtl         = 4096
	hostOffGen      = 64
	hostOffSleepers = 128
	// hostBlock is the piece of a share folded at a time, so that the
	// partials of the reduction tree stay in the first-level cache.
	hostBlock = 8 << 10
	// hostSpin bounds a barrier's spin where the rings' gate is open.
	hostSpin = 50 * time.Microsecond
	// hostNap bounds one futex sleep: how late a waiter notices a death,
	// a revocation or the end of the communicator, and how often it drives
	// the schedules in flight.
	hostNap = time.Millisecond
)

// errHostGone ends a host-path wait whose area is being unmapped: the
// communicator was freed or the device closed.
var errHostGone = fmt.Errorf("%w: host area released", ErrComm)

// hostOption is the test seam of the host area: it plans an area where the
// members are not processes of this host (a test's goroutine ranks); fault,
// when set, refuses a member's part of the set-up.
type hostOption struct {
	fault func(rank int) error
	// chunk, when set, runs after the first barrier of each chunk, and an
	// error it returns ends this rank's operation there: a death mid-chunk.
	chunk func(rank, chunk int) error
}

// hostArea is one communicator's mapping of its host area, and this
// rank's view of it. passed, err, sleeps and tmp belong to the goroutine
// running the communicator's collectives; gone is set by the release.
type hostArea struct {
	mem    *transport.Area
	np, me int
	passed uint64 // barriers this rank has passed
	err    error  // what broke the area; every later operation returns it
	sleeps int    // barriers of the current operation that slept
	tmp    []byte // the reduction tree's partials, hostBlock per level
	gone   atomic.Bool
}

// hostAreaSize is the file of an np-member area.
func hostAreaSize(np int) int { return hostCtl + (np+1)*hostChunk }

// slot returns member r's slot; slot np is the result slot.
func (a *hostArea) slot(r int) []byte {
	at := hostCtl + r*hostChunk
	return a.mem.Bytes()[at : at+hostChunk]
}

// hostPlanned reports whether the communicator's allreduces may go through
// a host area: every other member is another process of this host, or the
// test seam says so.
func (c *Comm) hostPlanned() bool {
	if c.proc.hostOpt != nil {
		return true
	}
	me := c.dev.Rank()
	for r := 0; r < c.Size(); r++ {
		if w := c.group.WorldRank(r); w != me && !c.dev.HostProcess(w) {
			return false
		}
	}
	return true
}

// hostEligible reports whether a blocking Allreduce of count elements of dt
// under op takes the host path: automatic selection, at least two members,
// a payload at or above the large-message threshold, a predefined op on a
// primitive datatype laid out in memory as on the wire, and a communicator
// the area is planned for that has not been refused. Every member decides
// alike, since they call with the same arguments on the same communicator.
func (c *Comm) hostEligible(count int, dt Datatype, op *Op) bool {
	sz := dt.ByteSize()
	if c.collAlgChoice() != CollAlgAuto || c.Size() < 2 || sz <= 0 || count*sz < c.largeMin() || op.user {
		return false
	}
	if _, ok := op.byType[dt]; !ok || dt.Base() != dt {
		return false
	}
	if _, ok := dt.(rawWindower); !ok {
		return false
	}
	c.hostMu.RLock()
	refused := c.hostSet && c.host == nil
	c.hostMu.RUnlock()
	return !refused && c.hostPlanned()
}

// hostAllreduce runs an eligible Allreduce through the communicator's host
// area, setting it up first when this is the first. It reports false when
// the operation must run its schedule instead: the area was refused, or a
// buffer is no raw window.
func (c *Comm) hostAllreduce(sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op) (bool, error) {
	c.hostMu.RLock()
	set := c.hostSet
	c.hostMu.RUnlock()
	if !set {
		if err := c.hostSetUp(); err != nil {
			return true, fmt.Errorf("allreduce: host area: %w", err)
		}
	}
	dst := vWindow(dt, rbuf, roff, count)
	src := dst
	if !isInPlace(sbuf) {
		src = vWindow(dt, sbuf, soff, count)
	}
	if dst == nil || src == nil {
		return false, nil
	}
	c.hostMu.RLock()
	defer c.hostMu.RUnlock()
	a := c.host
	if a == nil {
		return false, nil // refused, or released under us: the schedule says why
	}
	if err := c.hostRun(a, src, dst, dt.ByteSize(), op.byType[dt]); err != nil {
		return true, fmt.Errorf("allreduce: %w", err)
	}
	return true, nil
}

// hostSetUp sets the communicator's host area up, collectively (see the
// file comment). A refusal is no error: it leaves the communicator on its
// schedules. An error is a collective of the set-up failing.
func (c *Comm) hostSetUp() error {
	np, me := c.Size(), c.rank
	size := hostAreaSize(np)
	offer := make([]int64, 3) // pid, fd, token; pid 0: no area
	var mem *transport.Area
	var why error
	if me == 0 {
		if why = c.hostFault(); why == nil {
			mem, why = transport.NewArea(size)
		}
		if mem != nil {
			offer[0], offer[1], offer[2] = int64(os.Getpid()), int64(mem.Fd()), int64(mem.Token())
		}
	}
	err := runColl(c.ibcast("host-area", c.nextCollTag(), offer, 0, len(offer), Long, 0))
	if err == nil && me != 0 {
		if offer[0] == 0 {
			why = errors.New("the lowest member could not create it")
		} else if why = c.hostFault(); why == nil {
			mem, why = transport.MapArea(int(offer[0]), int(offer[1]), size, uint64(offer[2]))
		}
	}
	if err == nil {
		ok, agreed := []int32{1}, []int32{0}
		if mem == nil {
			ok[0] = 0
		}
		// Every member has tried to map the file once the agreement is
		// complete here, so the creator's descriptor may close.
		err = runColl(c.iallreduce("host-area", c.nextCollTag(), c.autoAllreduceAlg(1, Int), ok, 0, agreed, 0, 1, Int, MinOp))
		if err == nil && agreed[0] == 0 && why == nil {
			why = errors.New("another member refused")
		}
	}
	if mem != nil && (err != nil || why != nil) {
		mem.Unmap()
		mem = nil
	}
	c.hostMu.Lock()
	defer c.hostMu.Unlock()
	c.hostSet = true
	switch {
	case err != nil:
		c.hostWhy = "host refused: " + err.Error()
	case why != nil:
		c.hostWhy = "host refused: " + why.Error()
	default:
		mem.CloseFd()
		c.host = &hostArea{mem: mem, np: np, me: me, tmp: make([]byte, bits.Len(uint(np))*hostBlock)}
	}
	return err
}

// hostFault consults the test seam's fault for this rank's part of the
// set-up; nil outside tests.
func (c *Comm) hostFault() error {
	if o := c.proc.hostOpt; o != nil && o.fault != nil {
		return o.fault(c.rank)
	}
	return nil
}

// hostRelease unmaps the communicator's host area once no waiter is inside
// it: Free and the device's end call it. Waiters notice gone within a nap
// (the wake makes it sooner) and leave.
func (c *Comm) hostRelease() {
	c.hostMu.RLock()
	a := c.host
	c.hostMu.RUnlock()
	if a == nil {
		return
	}
	a.gone.Store(true)
	a.mem.Wake(hostOffGen)
	c.hostMu.Lock()
	defer c.hostMu.Unlock()
	if c.host == a {
		c.host = nil
		c.hostWhy = "released"
		a.mem.Unmap()
	}
}

// allreducePath names how the communicator's large allreduces run, for the
// /debug/vars status: "host", "schedule", "host refused: <why>", "host: not
// set up yet" before the first, or "released" after Free.
func (c *Comm) allreducePath() string {
	c.hostMu.RLock()
	defer c.hostMu.RUnlock()
	switch {
	case c.host != nil:
		return "host"
	case c.hostSet:
		return c.hostWhy
	case c.hostPlanned() && c.Size() > 1:
		return "host: not set up yet"
	}
	return "schedule"
}

// hostRun is the executor: the chunk walk of the file comment over the
// raw windows src (the contribution) and dst (the result). Callers hold
// c.hostMu's read side.
func (c *Comm) hostRun(a *hostArea, src, dst []byte, elem int, k kernel) error {
	if a.err != nil {
		return a.err
	}
	if overlaps(src, dst) && &src[0] != &dst[0] {
		// Shifted windows: copying a chunk's result out would overwrite
		// contribution bytes not yet read. One memmove makes it in place.
		copy(dst, src)
		src = dst
	}
	np, me, n := a.np, a.me, len(dst)/elem
	bound := func(i int) int { return i * n / np * elem } // the schedule's cuts
	step := hostChunk / elem * elem
	res := a.slot(np)
	mine := a.slot(me)
	a.sleeps = 0
	chunks, published := 0, 0
	for off := 0; off < len(dst); off += step {
		m := min(step, len(dst)-off)
		share := func(r int) int { return r * (m / elem) / np * elem }
		lo, hi := share(me), share(me+1)
		published += copy(mine[:lo], src[off:off+lo]) + copy(mine[hi:m], src[off+hi:off+m])
		if err := c.hostBarrier(a); err != nil {
			return a.fail(err)
		}
		if o := c.proc.hostOpt; o != nil && o.chunk != nil {
			if err := o.chunk(me, chunks); err != nil {
				return a.fail(err)
			}
		}
		if err := a.fold(src, res, off, lo, hi, bound, k); err != nil {
			return a.fail(err)
		}
		published += hi - lo
		copy(dst[off+lo:off+hi], res[lo:hi])
		if err := c.hostBarrier(a); err != nil {
			return a.fail(err)
		}
		copy(dst[off:off+lo], res[:lo])
		copy(dst[off+hi:off+m], res[hi:m])
		chunks++
	}
	if p := c.dev.Profiler(); p != nil {
		p.HostOp(c.coll, chunks, published, a.sleeps)
	}
	return nil
}

// fail breaks the area for good: the members are no longer at one barrier.
func (a *hostArea) fail(err error) error {
	a.err = err
	return err
}

// fold reduces the share [lo, hi) of the chunk at vector offset off into
// the same bytes of res, block by block, each block within one of the
// schedule's chunks (bound), in that chunk's order: member r's part is the
// slot's bytes, this rank's own the contribution's.
func (a *hostArea) fold(src, res []byte, off, lo, hi int, bound func(int) int, k kernel) error {
	np := a.np
	owner := 0 // the schedule chunk holding the block's first byte
	for x := lo; x < hi; {
		for bound(owner+1) <= off+x {
			owner++
		}
		y := min(hi, x+hostBlock, bound(owner+1)-off)
		in := func(r int) []byte {
			if r == a.me {
				return src[off+x : off+y]
			}
			return a.slot(r)[x:y]
		}
		out := res[x:y]
		var err error
		if np&(np-1) == 0 {
			err = a.halving(bits.Len(uint(np))-2, owner, out, in, k)
		} else {
			// The ring: the chunk starts at its owner, and each next member
			// folds its part in: part ⊕ partial.
			err = k.fuse(in((owner+1)%np), in(owner), out)
			for t := 2; t < np && err == nil; t++ {
				err = k.comb(in((owner+t)%np), out)
			}
		}
		if err != nil {
			return err
		}
		x = y
	}
	return nil
}

// halving writes into out the partial member r holds after step j of the
// recursive halving (halvingRounds): step 0, at distance p/2, combines the
// member's own part with its partner's (own ⊕ partner); step j at distance
// p>>(j+1) combines the partner's partial into the member's (partner ⊕
// own). The partials of the partners' subtrees live in a.tmp, one block per
// step.
func (a *hostArea) halving(j, r int, out []byte, in func(int) []byte, k kernel) error {
	if j == 0 {
		return k.fuse(in(r), in(r^a.np/2), out)
	}
	if err := a.halving(j-1, r, out, in, k); err != nil {
		return err
	}
	t := a.tmp[j*hostBlock : j*hostBlock+len(out)]
	if err := a.halving(j-1, r^(a.np>>(j+1)), t, in, k); err != nil {
		return err
	}
	return k.comb(t, out)
}

// hostBarrier is one barrier on the area's generation word (see the file
// comment).
func (c *Comm) hostBarrier(a *hostArea) error {
	np := uint64(a.np)
	gen := a.mem.Word(hostOffGen)
	base := a.passed * np
	a.passed++
	v := gen.Add(1)
	target := base + np
	if v <= base || v > target {
		return hostCorrupt(v, base, np)
	}
	if v == target {
		if a.mem.Word(hostOffSleepers).Load() != 0 {
			a.mem.Wake(hostOffGen)
		}
		return nil
	}
	// Honest members leave the word in [v, target+np): behind it they would
	// have gone back, past it someone passed the next barrier without this
	// rank.
	look := func(w uint64) (bool, error) {
		if w < v || w >= target+np {
			return false, hostCorrupt(w, base, np)
		}
		return w >= target, nil
	}
	if c.dev.Polls() {
		end := time.Now().Add(hostSpin)
		for i := 1; ; i++ {
			if done, err := look(gen.Load()); done || err != nil {
				return err
			}
			if i%64 == 0 && time.Now().After(end) {
				break
			}
		}
	}
	sleepers := a.mem.Word(hostOffSleepers)
	slept := false
	for {
		sleepers.Add(1)
		w := gen.Load()
		done, err := look(w)
		if !done && err == nil {
			a.mem.Sleep(hostOffGen, w, hostNap)
			slept = true
			done, err = look(gen.Load())
		}
		sleepers.Add(^uint64(0))
		if done || err != nil {
			if slept {
				a.sleeps++
			}
			return err
		}
		if err := c.hostInterrupted(a); err != nil {
			return err
		}
		if c.proc.collCount.Load() != 0 {
			c.progressSiblings(nil)
		}
	}
}

// hostInterrupted is what a socket would have told a waiter: a member
// died, the communicator was revoked, freed or released, the device ended.
func (c *Comm) hostInterrupted(a *hostArea) error {
	if a.gone.Load() {
		return errHostGone
	}
	if err := c.memberFailure(); err != nil {
		return err
	}
	return c.dev.Err()
}

// hostCorrupt types an arrival count no honest member leaves.
func hostCorrupt(w, base, np uint64) error {
	return fmt.Errorf("%w: host area: arrival count %d outside barrier [%d, %d]", wire.ErrFrame, w, base+1, base+np)
}

// hostPaths is the allreduce path of each registered communicator, keyed
// by its point-to-point context, for the /debug/vars status.
func (p *procState) hostPaths() any {
	comms := p.registered()
	out := make(map[string]string, len(comms))
	for _, c := range comms {
		out[fmt.Sprintf("context %d (%d members)", c.pt2pt, c.Size())] = c.allreducePath()
	}
	return out
}

// releaseHostAreas unmaps every registered communicator's host area: the
// device ended.
func (p *procState) releaseHostAreas() {
	for _, c := range p.registered() {
		c.hostRelease()
	}
}

// registered snapshots the registered communicators.
func (p *procState) registered() []*Comm {
	p.mu.Lock()
	defer p.mu.Unlock()
	comms := make([]*Comm, 0, len(p.comms))
	for _, c := range p.comms {
		comms = append(comms, c)
	}
	return comms
}

// hostState is the Comm's share of the host area, embedded there. hostMu's
// read side is held by an operation inside the area and by the status, its
// write side by set-up's publication and the release.
type hostState struct {
	hostMu  sync.RWMutex
	hostSet bool      // set-up ran: host is the area, or nil and hostWhy the path
	host    *hostArea // nil: not set up, refused or released
	hostWhy string    // "host refused: <why>" or "released
}
