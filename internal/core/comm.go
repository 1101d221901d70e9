package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mpj/internal/device"
	"mpj/internal/prof"
	"mpj/internal/wire"
)

// procState is the per-process state shared by all communicators derived
// from one world: the context id allocator, the buffered-send pool, and
// the registry of in-flight collective schedules (process-wide, so a Wait
// parked on one communicator's collective can drive the rounds of
// collectives on every other communicator — see sched.go).
type procState struct {
	dev *device.Device

	mu      sync.Mutex
	nextCtx int
	bsend   *bsendPool

	// comms maps a communicator's point-to-point context id to the Comm,
	// so an inbound revoke frame (which carries only the context) finds
	// the communicator to revoke. Guarded by mu.
	comms map[int]*Comm

	// wins maps a one-sided window's dedicated context id to the Win, so
	// inbound RMA frames (dispatched by the device's RMA handler) find
	// their window. Guarded by mu.
	wins map[int]*Win

	// largeMin is the large-message threshold of collective selection,
	// largeCollMin — a field only so that tests can scale it down.
	largeMin int

	// Dynamic process creation (see spawn.go): the runtime's respawn
	// backend and whether this process was itself created by a Spawn.
	// Guarded by mu.
	respawner Respawner
	spawned   bool

	collMu   sync.Mutex
	inflight map[*CollRequest]struct{}

	// collCount mirrors len(inflight) so the point-to-point hot path can
	// skip the progress engine entirely (one atomic load) while no
	// collective is in flight.
	collCount atomic.Int64

	// parkHook, when set, runs in parkUntil between the look and the park:
	// the seam through which tests inject an event exactly there. Nil
	// outside tests.
	parkHook func()

	// hostFault, when set, plans host areas where the members are not
	// processes of this host, and refuses a member's part of their set-up
	// when it returns an error: the seam through which tests run the host
	// path on goroutine ranks (see hostarea.go). Nil outside tests.
	hostFault func(rank int) error

	// hostWaits counts the host areas whose walk waits at a barrier (see
	// hostArea.setWaiting), so the device's look costs one atomic load
	// while none does.
	hostWaits atomic.Int64
}

// Comm is an intra-communicator: a group of processes plus a private
// communication context — the central MPJ object. Each communicator owns
// two device contexts, one for point-to-point traffic and one for
// collectives, so user messages can never be intercepted by collective
// internals.
//
// All collective operations must be called by every member of the
// communicator, in the same order; a communicator must not be used by
// multiple goroutines concurrently for collectives (matching MPI's rules).
type Comm struct {
	dev   *device.Device
	proc  *procState
	group *Group
	rank  int // this process's rank within group
	pt2pt int // device context for point-to-point
	coll  int // device context for collectives

	topo any // *CartInfo or *GraphInfo when the comm carries a topology

	// Collective-schedule state (see sched.go): the per-call tag counter
	// that keeps concurrent collectives on this communicator apart and
	// the freed flag that fails further and in-flight collectives with
	// ErrComm. The in-flight registry itself lives on proc, shared by
	// every communicator of the process.
	collMu  sync.Mutex
	collSeq int
	ftSeq   int // agreement instance counter (Agree/Shrink; see ft.go)
	freed   bool

	// revoked marks the communicator revoked (see Revoke): pending and
	// future operations fail with ErrRevoked. Agree and Shrink stay
	// usable — they are the recovery path.
	revoked atomic.Bool

	// collAlg is the collective algorithm family, auto unless a test or a
	// sweep forced one (ForceCollAlg; see collalg.go).
	collAlg CollAlg

	// winCtxs lists the dedicated contexts of windows created over this
	// communicator, so ProfSnapshot covers one-sided traffic too. Guarded
	// by proc.mu.
	winCtxs []int

	// The host area of large allreduces (see hostarea.go).
	hostState
}

// NewWorld builds the world communicator over an opened device, taking
// the place of MPI_Init: ranks and job size come from the device's
// transport, and contexts 0/1 are reserved for the world.
func NewWorld(dev *device.Device) (*Comm, error) {
	ranks := make([]int, dev.Size())
	for i := range ranks {
		ranks[i] = i
	}
	g, err := NewGroup(ranks)
	if err != nil {
		return nil, err
	}
	proc := &procState{dev: dev, nextCtx: 2, bsend: &bsendPool{}, comms: make(map[int]*Comm), largeMin: largeCollMin}
	w := &Comm{
		dev:   dev,
		proc:  proc,
		group: g,
		rank:  dev.Rank(),
		pt2pt: 0,
		coll:  1,
	}
	proc.register(w)
	// Inbound revoke frames carry only a context id; route them to the
	// communicator they revoke (unknown ids are stale revokes of freed
	// communicators and are dropped).
	dev.SetRevokeHandler(func(ctx int) {
		if c := proc.lookup(ctx); c != nil {
			c.revokeLocal()
		}
	})
	// One-sided frames carry the window's dedicated context; route them to
	// the window (unknown ids are stale frames of freed windows).
	dev.SetRMAHandler(func(src int, h wire.Header, payload []byte) {
		if win := proc.lookupWin(int(h.Context)); win != nil {
			win.handleFrame(src, h, payload)
		}
	})
	// The device's end unmaps the host areas; the /debug/vars status names
	// each communicator's allreduce path.
	dev.AddCloseWatcher(proc.releaseHostAreas)
	if p := dev.Profiler(); p != nil {
		p.SetAllreducePaths(proc.hostPaths)
	}
	// Newly detected rank failures release the dead rank's locks at every
	// window (one process-wide watcher, not one per window).
	dev.AddFailureWatcher(func(rank int, err error) {
		for _, win := range proc.allWins() {
			win.onRankFailed(rank)
		}
	})
	return w, nil
}

// register records c in the process-wide context → communicator map.
func (p *procState) register(c *Comm) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.comms == nil {
		p.comms = make(map[int]*Comm)
	}
	p.comms[c.pt2pt] = c
}

// lookup resolves a point-to-point context id to its communicator.
func (p *procState) lookup(ctx int) *Comm {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.comms[ctx]
}

// unregister removes c from the context map.
func (p *procState) unregister(c *Comm) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.comms[c.pt2pt] == c {
		delete(p.comms, c.pt2pt)
	}
}

// registerWin records w in the process-wide context → window map.
func (p *procState) registerWin(w *Win) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.wins == nil {
		p.wins = make(map[int]*Win)
	}
	p.wins[w.ctx] = w
}

// lookupWin resolves a window context id to its window.
func (p *procState) lookupWin(ctx int) *Win {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wins[ctx]
}

// unregisterWin removes w from the window map.
func (p *procState) unregisterWin(w *Win) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.wins[w.ctx] == w {
		delete(p.wins, w.ctx)
	}
}

// allWins snapshots the registered windows (for failure fan-out).
func (p *procState) allWins() []*Win {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Win, 0, len(p.wins))
	for _, w := range p.wins {
		out = append(out, w)
	}
	return out
}

// Rank returns the calling process's rank in this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of processes in this communicator.
func (c *Comm) Size() int { return c.group.Size() }

// Group returns the communicator's process group.
func (c *Comm) Group() *Group { return c.group }

// Device exposes the underlying device (used by the runtime and
// benchmarks; applications should not need it).
func (c *Comm) Device() *device.Device { return c.dev }

// LocalityTable returns the locality keys of this communicator's members
// (entry i is member i's key), or nil when the device has no locality
// knowledge.
func (c *Comm) LocalityTable() []string {
	tab := c.dev.LocalityTable()
	if tab == nil {
		return nil
	}
	keys := make([]string, c.Size())
	for r := range keys {
		if w := c.group.WorldRank(r); w >= 0 && w < len(tab) {
			keys[r] = tab[w]
		}
	}
	return keys
}

// ProfSnapshot returns this communicator's profiling counters — the
// traffic on its two device contexts (point-to-point and collective)
// since profiling began. With profiling off (MPJ_PROF unset) it returns
// a zero snapshot; see ProfEnabled and README "Observability".
func (c *Comm) ProfSnapshot() prof.Snapshot {
	if p := c.dev.Profiler(); p != nil {
		c.proc.mu.Lock()
		ctxs := append([]int{c.pt2pt, c.coll}, c.winCtxs...)
		c.proc.mu.Unlock()
		return p.CtxSnapshot(ctxs...)
	}
	return prof.Snapshot{}
}

// addWinCtx records a window context for ProfSnapshot coverage.
func (c *Comm) addWinCtx(ctx int) {
	c.proc.mu.Lock()
	c.winCtxs = append(c.winCtxs, ctx)
	c.proc.mu.Unlock()
}

// ProfEnabled reports whether this rank records profiling counters (the
// MPJ_PROF environment variable, the mpjrun -prof flag).
func (c *Comm) ProfEnabled() bool { return c.dev.Profiler() != nil }

// Abort terminates the parallel job, the MPJ equivalent of MPI_Abort: the
// rank dies (Device.Die) with an error that names code, so its peers'
// pending and later operations with it fail with ErrRankFailed, as they do
// at any rank's death. In the distributed runtime the slave reports itself
// dead, which fails a job that is not elastic naming the code, and its
// daemon raises the MPJAbort event that destroys every slave of the job.
// Under RunLocal, whose jobs may survive a death, the job fails naming the
// code once a peer fails of it.
func (c *Comm) Abort(code int) {
	c.dev.Die(fmt.Errorf("mpj: rank %d aborted the job with code %d", c.dev.Rank(), code))
}

// worldRank translates a group rank to an absolute device rank.
func (c *Comm) worldRank(rank int) (int, error) {
	w := c.group.WorldRank(rank)
	if w == Undefined {
		return 0, fmt.Errorf("%w: rank %d of %d-process communicator", ErrRank, rank, c.Size())
	}
	return w, nil
}

// groupSource translates an absolute device rank in a status back to a
// group rank.
func (c *Comm) groupSource(world int) int { return c.group.Rank(world) }

// Compare compares two communicators: Ident if they are the same object,
// Congruent for equal groups with different contexts, Similar/Unequal per
// group comparison — MPI_Comm_compare.
func (c *Comm) Compare(other *Comm) int {
	if c == other {
		return Ident
	}
	switch c.group.Compare(other.group) {
	case Ident:
		if c.pt2pt == other.pt2pt {
			return Ident
		}
		return Congruent
	case Similar:
		return Similar
	default:
		return Unequal
	}
}

// allocContexts agrees on n fresh consecutive context ids across all
// members of c, returning the first. It is collective: an allreduce(MAX)
// over the members makes every process pick the same ids even if their
// local counters diverged.
func (c *Comm) allocContexts(n int) (int, error) {
	c.proc.mu.Lock()
	local := c.proc.nextCtx
	c.proc.mu.Unlock()

	in := []int{local}
	out := []int{0}
	if err := c.Allreduce(in, 0, out, 0, 1, GoInt, MaxOp); err != nil {
		return 0, err
	}
	agreed := out[0]

	c.proc.mu.Lock()
	if agreed+n > c.proc.nextCtx {
		c.proc.nextCtx = agreed + n
	}
	c.proc.mu.Unlock()
	return agreed, nil
}

// allocContextPair agrees on a fresh (pt2pt, coll) context pair across all
// members of c.
func (c *Comm) allocContextPair() (int, int, error) {
	base, err := c.allocContexts(2)
	if err != nil {
		return 0, 0, err
	}
	return base, base + 1, nil
}

// Dup duplicates the communicator with the same group but fresh contexts,
// so libraries can isolate their traffic — MPI_Comm_dup. Collective.
func (c *Comm) Dup() (*Comm, error) {
	p2p, coll, err := c.allocContextPair()
	if err != nil {
		return nil, err
	}
	nc := &Comm{
		dev: c.dev, proc: c.proc, group: c.group,
		rank: c.rank, pt2pt: p2p, coll: coll,
	}
	c.proc.register(nc)
	return nc, nil
}

// Create builds a communicator over a subgroup of c — MPI_Comm_create.
// Collective over c: every member must call it with the same group;
// processes outside the group receive nil.
func (c *Comm) Create(g *Group) (*Comm, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil group", ErrGroup)
	}
	p2p, coll, err := c.allocContextPair()
	if err != nil {
		return nil, err
	}
	myWorld := c.group.WorldRank(c.rank)
	newRank := g.Rank(myWorld)
	if newRank == Undefined {
		return nil, nil
	}
	nc := &Comm{
		dev: c.dev, proc: c.proc, group: g,
		rank: newRank, pt2pt: p2p, coll: coll,
	}
	c.proc.register(nc)
	return nc, nil
}

// Split partitions the communicator by color, ordering each new
// communicator by key (ties by old rank) — MPI_Comm_split. Collective.
// A process passing color Undefined receives nil.
func (c *Comm) Split(color, key int) (*Comm, error) {
	size := c.Size()
	// Exchange (color, key) with everyone.
	mine := []int32{int32(color), int32(key)}
	all := make([]int32, 2*size)
	if err := c.Allgather(mine, 0, 2, Int, all, 0, 2, Int); err != nil {
		return nil, err
	}

	p2p, coll, err := c.allocContextPair()
	if err != nil {
		return nil, err
	}
	if color == Undefined {
		return nil, nil
	}

	type member struct{ key, oldRank int }
	var members []member
	for r := 0; r < size; r++ {
		if int(all[2*r]) == color {
			members = append(members, member{key: int(all[2*r+1]), oldRank: r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].oldRank < members[j].oldRank
	})
	worldRanks := make([]int, len(members))
	newRank := Undefined
	for i, m := range members {
		worldRanks[i] = c.group.WorldRank(m.oldRank)
		if m.oldRank == c.rank {
			newRank = i
		}
	}
	g, err := NewGroup(worldRanks)
	if err != nil {
		return nil, err
	}
	nc := &Comm{
		dev: c.dev, proc: c.proc, group: g,
		rank: newRank, pt2pt: p2p, coll: coll,
	}
	c.proc.register(nc)
	return nc, nil
}

// Free releases the communicator — MPJ Comm.Free. Contexts are not
// recycled (the id space is effectively unbounded), but Free is not a
// no-op: any collective request still in flight on this communicator
// completes with ErrComm instead of hanging its waiters (the total-failure
// model extended to abandoned schedules), and starting new collectives on
// a freed communicator fails with ErrComm immediately.
func (c *Comm) Free() {
	c.collMu.Lock()
	c.freed = true
	c.collMu.Unlock()
	c.proc.collMu.Lock()
	reqs := make([]*CollRequest, 0, len(c.proc.inflight))
	for r := range c.proc.inflight {
		if r.c == c {
			reqs = append(reqs, r)
		}
	}
	c.proc.collMu.Unlock()
	for _, r := range reqs {
		r.fail(fmt.Errorf("%w: communicator freed with collective in flight", ErrComm))
		_, _ = r.Wait() // until the device lets go of the schedule's loans (failLocked)
	}
	c.proc.unregister(c)
	c.dev.FTForget(c.coll)
	c.hostRelease()
}
