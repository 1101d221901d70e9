package core

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/device"
	"mpj/internal/transport"
	"mpj/internal/wire"
)

// The host area: a large allreduce among processes of one host folds
// through shared memory, in rounds of the schedule engine. ARCHITECTURE.md
// ("The host area") has the whole design.
//
// A communicator whose members are all processes of this host maps one
// sealed memory file (transport.Area): a control page, then one 256 KiB
// slot per member and a result slot. iallreduce compiles an eligible
// allreduce (iallreduceHost) as a walk over the vector in chunks of a slot, two
// rounds per chunk: (1) copy the chunk, minus this rank's share, into its
// slot and arrive at a barrier; (2) fold this rank's share into the result
// slot, in the order the message schedule (iallreduceRing) combines it,
// copy it out and arrive again. A round whose barrier has not passed parks
// its waiter in parkUntil like any round in flight, and the area's helper
// goroutine wakes it; on an oversubscribed host the waiter yield-polls the
// area first (see device/polls.go). CommitAllreduce never walks: the Starts of distinct
// persistent requests may come in different orders on different members,
// which a barrier count cannot tell apart; tags keep message rounds apart.
// Any member may write anything into the file: a count
// no honest member leaves breaks the area with a wire.ErrFrame, and every
// slot offset derives from this rank's own arguments.

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
	// hostHelperSleep bounds one futex sleep of the helper: how long a
	// release waits for a helper that looked just before it marked the area
	// gone, and how late the helper sees a count changed without a wake or
	// a walk that stopped waiting.
	hostHelperSleep = 10 * time.Millisecond
)

// errHostGone ends a walk whose area was released: Free, the device's end.
var errHostGone = fmt.Errorf("%w: host area released", ErrComm)

// hostArea is one communicator's mapping of its host area, and this
// rank's view of it.
type hostArea struct {
	mem    *transport.Area
	np, me int
	gone   atomic.Bool   // set by the release
	ask    chan uint64   // to the helper: the count a waiter read at its park; closed by the release
	done   chan struct{} // closed by the helper as it ends

	// A walk waits for the count to reach target, and seen is the count
	// the last look read (see hostOver); waiting is set through
	// setWaiting, which keeps the process's count of waiting areas.
	waiting atomic.Bool
	seen    atomic.Uint64
	target  atomic.Uint64

	// mu guards the walks' order: the tickets handed out, the ticket whose
	// turn it is, and what broke the area (every later walk returns it).
	mu      sync.Mutex
	tickets uint64
	turn    uint64
	err     error

	// The walk whose turn it is owns these.
	passed uint64 // barriers this rank has arrived at
	tmp    []byte // the reduction tree's partials, hostBlock per level
}

// newHostArea is this rank's view of a mapped np-member area, no helper yet.
func newHostArea(mem *transport.Area, np, me int) *hostArea {
	return &hostArea{mem: mem, np: np, me: me, ask: make(chan uint64, 1), done: make(chan struct{}),
		tmp: make([]byte, bits.Len(uint(np))*hostBlock)}
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
	if c.proc.hostFault != nil {
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

// hostSetUp sets the communicator's host area up, collectively (see the
// file comment), starts its helper and returns it. A refusal is no error:
// it leaves the communicator on its schedules, and the area nil. An error
// is a collective of the set-up failing.
func (c *Comm) hostSetUp() (*hostArea, error) {
	np, me := c.Size(), c.rank
	size := hostAreaSize(np)
	offer := make([]int64, 3) // pid, fd, token; pid 0: no area
	fault := c.proc.hostFault // the test seam may refuse this rank's part
	if fault == nil {
		fault = func(int) error { return nil }
	}
	var mem *transport.Area
	var why error
	if me == 0 {
		if why = fault(me); why == nil {
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
		} else if why = fault(me); why == nil {
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
		err = runColl(c.iallreduce("host-area", c.nextCollTag(), c.autoAllreduceAlg(1, Int), formNonBlocking, ok, 0, agreed, 0, 1, Int, MinOp))
		if err == nil && agreed[0] == 0 && why == nil {
			why = errors.New("another member refused")
		}
	}
	if mem != nil && (err != nil || why != nil) {
		mem.Unmap()
		mem = nil
	}
	var a *hostArea
	if mem != nil {
		mem.CloseFd()
		a = newHostArea(mem, np, me)
		c.dev.SetLook(device.Look{Over: c.proc.hostOver, Waiting: c.proc.hostWaiting})
		go c.hostHelper(a)
	}
	c.hostMu.Lock()
	defer c.hostMu.Unlock()
	c.hostSet, c.host = true, a
	switch {
	case err != nil:
		c.hostWhy = "host refused: " + err.Error()
	case why != nil:
		c.hostWhy = "host refused: " + why.Error()
	}
	return a, err
}

// hostRelease unmaps the communicator's host area and ends its helper:
// Free and the device's end call it. It waits for a walk's step that is
// copying or folding (hostMu), never for a waiter: walks find the area gone
// at their next step.
func (c *Comm) hostRelease() {
	c.hostMu.RLock()
	a := c.host
	c.hostMu.RUnlock()
	if a == nil || a.gone.Swap(true) {
		return
	}
	a.mem.Wake(hostOffGen) // a helper asleep gives hostMu back
	c.hostMu.Lock()
	a.setWaiting(c.proc, false) // no walk's step runs now, and none will wait
	c.host = nil
	c.hostWhy = "released"
	close(a.ask) // its senders hold hostMu's read side
	a.mem.Unmap()
	c.hostMu.Unlock()
	<-a.done
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

// iallreduceHost compiles an allreduce called through form as a walk
// through the communicator's host area, or returns nil for its message
// schedule. Every member decides alike: automatic selection, two members or
// more, a large payload, a predefined op on a primitive type in raw windows,
// and an area planned and not refused, which the blocking form sets up if
// it is the first. The walk takes its ticket here, in call order.
func (c *Comm) iallreduceHost(name string, tag int, form collForm, sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op) (*CollRequest, error) {
	if sz := dt.ByteSize(); form == formPersistent || c.collAlg != CollAlgAuto || c.Size() < 2 || sz <= 0 || count*sz < c.largeMin() || op.user {
		return nil, nil
	}
	if _, predefined := op.byType[dt]; !predefined || dt.Base() != dt || !c.hostPlanned() {
		return nil, nil // a predefined op's types are all primitive: raw windows where the layout allows
	}
	c.hostMu.RLock()
	set, a := c.hostSet, c.host
	c.hostMu.RUnlock()
	if !set && form != formBlocking {
		return nil, nil
	} else if !set {
		var err error
		if a, err = c.hostSetUp(); err != nil {
			return nil, fmt.Errorf("%s: host area: %w", name, err)
		}
	}
	src, dst := vWindow(dt, sbuf, soff, count), vWindow(dt, rbuf, roff, count)
	if a == nil || src == nil || dst == nil {
		return nil, nil // refused or released, or a buffer is no raw window
	}
	if overlaps(src, dst) && &src[0] != &dst[0] {
		// Shifted windows: copying a chunk's result out would overwrite
		// contribution bytes not yet read. One memmove makes it in place.
		copy(dst, src)
		src = dst
	}
	a.mu.Lock()
	ticket, err := a.tickets, a.err
	a.tickets++
	a.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	sz := dt.ByteSize()
	step := hostChunk / sz * sz
	w := &hostWalk{c: c, a: a, ticket: ticket, src: src, dst: dst, elem: sz, k: op.byType[dt], step: step, chunks: (len(dst) + step - 1) / step}
	rounds := make([]round, 2*w.chunks)
	for n := range rounds {
		rounds[n] = round{walk: w, walkStep: n}
	}
	// A walk the registry refuses leaves its ticket unserved; so does every
	// later one, as the communicator is freed or revoked.
	return c.newCollRequestAlg(name, tag, "host", rounds, nil)
}

// hostWalk is one allreduce's walk through the host area; its rounds run
// under the request's lock.
type hostWalk struct {
	c        *Comm
	a        *hostArea
	ticket   uint64 // its place in the area's order
	src, dst []byte // raw windows: the contribution and the result
	elem     int
	k        kernel
	step     int // the vector bytes of a chunk: whole elements of a slot
	chunks   int

	next      int    // the next step to arrive at its barrier
	v, target uint64 // the last arrival's count and its barrier's
	published int    // bytes this rank copied into the area
}

// chunk returns chunk i's vector offset and length and this rank's share
// [lo, hi) of it.
func (w *hostWalk) chunk(i int) (off, m, lo, hi int) {
	off = i * w.step
	m = min(w.step, len(w.dst)-off)
	share := func(r int) int { return r * (m / w.elem) / w.a.np * w.elem }
	return off, m, share(w.a.me), share(w.a.me + 1)
}

// run is step n of the walk, on every pass of the engine over its round.
// The first pass that may — for step 0, once it is the walk's turn — does
// the step's copying (publishing chunk n/2 on an even step, folding this
// rank's share of it on an odd one) and arrives at its barrier; every pass
// reports whether the round is over: the barrier passed, or an error. While
// it is not, the area's look (hostOver) tells the device's waits.
func (w *hostWalk) run(n int) (bool, error) {
	c, a := w.c, w.a
	c.hostMu.RLock()
	defer c.hostMu.RUnlock()
	if a.gone.Load() {
		return true, errHostGone
	}
	if w.next == n {
		if n == 0 {
			a.mu.Lock()
			turn, err := a.turn, a.err
			a.mu.Unlock()
			if err != nil || turn != w.ticket {
				return err != nil, err // the walk before it wakes this rank at its finish
			}
		}
		w.next++
		i := n / 2
		off, m, lo, hi := w.chunk(i)
		if n%2 == 0 {
			if i > 0 {
				w.copyOut(i - 1)
			}
			mine := a.slot(a.me)
			w.published += copy(mine[:lo], w.src[off:off+lo]) + copy(mine[hi:m], w.src[off+hi:off+m])
		} else {
			res, count := a.slot(a.np), len(w.dst)/w.elem
			bound := func(j int) int { return j * count / a.np * w.elem } // the schedule's cuts
			if err := a.fold(w.src, res, off, lo, hi, bound, w.k); err != nil {
				return true, err
			}
			w.published += hi - lo
			copy(w.dst[off+lo:off+hi], res[lo:hi])
		}
		var err error
		if w.v, w.target, err = a.arrive(); err != nil {
			return true, err
		}
	}
	done, seen, err := a.look(w.v, w.target)
	a.target.Store(w.target)
	a.seen.Store(seen)
	a.setWaiting(c.proc, !done && err == nil)
	if last := 2*w.chunks - 1; done && err == nil && n == last {
		// The walk is over: copy the last chunk out, count it and hand the
		// area to the next ticket, waking a walk parked on its turn.
		w.copyOut(n / 2)
		if p := c.dev.Profiler(); p != nil {
			p.HostOp(c.coll, w.chunks, w.published)
		}
		a.mu.Lock()
		a.turn++
		a.mu.Unlock()
		c.dev.Wake()
	}
	return done || err != nil, err
}

// copyOut copies the shares of chunk i the other members folded out of the
// result slot.
func (w *hostWalk) copyOut(i int) {
	off, m, lo, hi := w.chunk(i)
	res := w.a.slot(w.a.np)
	copy(w.dst[off:off+lo], res[:lo])
	copy(w.dst[off+hi:off+m], res[hi:m])
}

// abandon breaks the area for good: a walk that ends early leaves the
// members at different barriers, or its ticket unserved. Walks parked on
// their turn are woken to find out.
func (w *hostWalk) abandon(err error) {
	w.a.setWaiting(w.c.proc, false)
	w.a.mu.Lock()
	if w.a.err == nil {
		w.a.err = err
	}
	w.a.mu.Unlock()
	w.c.dev.Wake()
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
// own). Step 1 folds its four parts in one pass where the kernel has the
// loop (fuser4), in that order. The partials of the partners' subtrees
// above it live in a.tmp, one block per step.
func (a *hostArea) halving(j, r int, out []byte, in func(int) []byte, k kernel) error {
	if j == 0 {
		return k.fuse(in(r), in(r^a.np/2), out)
	}
	if q, h := a.np/4, a.np/2; j == 1 && k.fuse4 != nil && k.fuse4(in(r), in(r^q), in(r^h), in(r^q^h), out) {
		return nil
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

// arrive counts this rank in at its next barrier on the generation word,
// which has passed when the word reads target, and returns the count v its
// arrival made. The last to arrive wakes the sleepers.
func (a *hostArea) arrive() (v, target uint64, err error) {
	np := uint64(a.np)
	base := a.passed * np
	a.passed++
	v, target = a.mem.Word(hostOffGen).Add(1), base+np
	if v <= base || v > target {
		return v, target, hostCorrupt(v, base, np)
	}
	if v == target && a.mem.Word(hostOffSleepers).Load() != 0 {
		a.mem.Wake(hostOffGen)
	}
	return v, target, nil
}

// look reports whether the barrier an arrival made v at has passed, with
// the count it read. Honest members leave the word in [v, target+np):
// behind it they would have gone back, past it someone passed the next
// barrier without this rank.
func (a *hostArea) look(v, target uint64) (bool, uint64, error) {
	np := uint64(a.np)
	w := a.mem.Word(hostOffGen).Load()
	if w < v || w >= target+np {
		return false, w, hostCorrupt(w, target-np, np)
	}
	return w >= target, w, nil
}

// hostCorrupt types an arrival count no honest member leaves.
func hostCorrupt(w, base, np uint64) error {
	return fmt.Errorf("%w: host area: arrival count %d outside barrier [%d, %d]", wire.ErrFrame, w, base+1, base+np)
}

// setWaiting records whether a walk of the area waits at its barrier, and
// keeps p's count of waiting areas with it.
func (a *hostArea) setWaiting(p *procState, on bool) {
	if a.waiting.Swap(on) == on {
		return
	}
	if on {
		p.hostWaits.Add(1)
	} else {
		p.hostWaits.Add(-1)
	}
}

// hostWaiting reports whether a walk of one of the process's areas waits
// at its barrier: the look's Waiting (Device.SetLook), one atomic load.
func (p *procState) hostWaiting() bool { return p.hostWaits.Load() != 0 }

// hostOver is the process's look for its device's waits (Device.SetLook),
// installed with its first host area. The wait of an area's waiting walk
// is over once the count reaches the walk's target — the barrier passed —
// or goes back below the count the last look read, which no honest member
// does (the walk's own look then names the corruption; past the target it
// does too). Any other move of a count only restarts a polling waiter's
// budget: arrivals before the last one end no wait. A waiter about to park
// asks the areas' helpers to wake it once the counts it read move. While
// no walk waits it costs one atomic load.
func (p *procState) hostOver(park bool) (over, moved bool) {
	if !p.hostWaiting() {
		return false, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.comms {
		c.hostMu.RLock()
		if a := c.host; a != nil && a.waiting.Load() {
			w := a.mem.Word(hostOffGen).Load()
			switch seen := a.seen.Swap(w); {
			case w >= a.target.Load() || w < seen:
				over = true
			case w != seen:
				moved = true
			}
			if park && !over {
				select {
				case a.ask <- w:
				default: // a request pending ends in a wake as well
				}
			}
		}
		c.hostMu.RUnlock()
	}
	return over, moved
}

// hostHelper is the area's wake, one goroutine for its life. Asked with the
// count a parking waiter read, it sleeps on the word's futex for as long as
// a walk waits and the count stays short of the walk's target without
// going back below it — arrivals before the last one wake the futex at
// most, not the waiter — then moves the device's wake generation — the
// waiter, parked in parkUntil, looks again — and parks on its channel until
// asked again, so no thread sits in the system call while the rank it woke
// is runnable. Raising the sleepers word first pairs with the last
// arrival's look at it.
func (c *Comm) hostHelper(a *hostArea) {
	defer close(a.done)
	for seen := range a.ask {
		c.hostMu.RLock()
		if !a.gone.Load() {
			gen, sleepers := a.mem.Word(hostOffGen), a.mem.Word(hostOffSleepers)
			sleepers.Add(1)
			for w := gen.Load(); w >= seen && w < a.target.Load() &&
				a.waiting.Load() && !a.gone.Load(); w = gen.Load() {
				a.mem.Sleep(hostOffGen, w, hostHelperSleep)
			}
			sleepers.Add(^uint64(0))
		}
		c.hostMu.RUnlock()
		c.dev.Wake()
	}
}

// hostPaths is the allreduce path of each registered communicator, keyed
// by its point-to-point context, for the /debug/vars status.
func (p *procState) hostPaths() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]string, len(p.comms))
	for _, c := range p.comms {
		out[fmt.Sprintf("context %d (%d members)", c.pt2pt, c.Size())] = c.allreducePath()
	}
	return out
}

// releaseHostAreas unmaps every registered communicator's host area: the
// device ended.
func (p *procState) releaseHostAreas() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.comms {
		c.hostRelease()
	}
}

// hostState is the Comm's share of the host area, embedded there. hostMu's
// read side is held by a walk's step while it touches the mapping, by the
// helper and by the status, its write side by set-up's publication and the
// release.
type hostState struct {
	hostMu  sync.RWMutex
	hostSet bool      // set-up ran: host is the area, or nil and hostWhy the path
	host    *hostArea // nil: not set up, refused or released
	hostWhy string    // "host refused: <why>" or "released"
}
