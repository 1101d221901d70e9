package core

import (
	"fmt"
	"sync"

	"mpj/internal/device"
)

// Intercomm is an inter-communicator: point-to-point communication
// between two disjoint groups of processes, the MPJ Intercomm. Ranks in
// Send/Recv refer to the *remote* group, per MPI semantics.
type Intercomm struct {
	local  *Comm  // intra-communication among the local group
	remote *Group // the remote group, in its own rank order
	pt2pt  int    // context shared by both sides for inter-group traffic
	rcomm  *Comm  // remote-facing view: ranks/statuses translate against remote

	mu     sync.Mutex
	freed  bool
	merged bool // Merge consumed the reserved context pair
	live   map[*Request]struct{}
}

// interHello is the leader-to-leader exchange payload.
type interHello struct {
	Ranks []int32 // world ranks of the sending side's group
	Ctx   int32   // context proposal (max over the sending side)
}

// CreateIntercomm builds an inter-communicator — MPI_Intercomm_create.
//
// It is collective over both local communicators. localLeader is a rank
// in c; peer is a communicator containing both leaders (typically the
// world); remoteLeader is the remote side's leader rank in peer; tag
// keeps concurrent creations apart on the peer communicator.
func (c *Comm) CreateIntercomm(localLeader int, peer *Comm, remoteLeader, tag int) (*Intercomm, error) {
	if localLeader < 0 || localLeader >= c.Size() {
		return nil, fmt.Errorf("%w: local leader %d of %d", ErrRank, localLeader, c.Size())
	}
	// Agree on a context proposal within the local group.
	c.proc.mu.Lock()
	localNext := c.proc.nextCtx
	c.proc.mu.Unlock()
	prop := []int{localNext}
	agreed := []int{0}
	if err := c.Allreduce(prop, 0, agreed, 0, 1, GoInt, MaxOp); err != nil {
		return nil, err
	}

	// Leaders exchange group membership and context proposals over peer.
	myWorldRanks := c.group.Ranks()
	var remoteHello interHello
	if c.rank == localLeader {
		ranks32 := make([]int32, len(myWorldRanks))
		for i, r := range myWorldRanks {
			ranks32[i] = int32(r)
		}
		out := []any{interHello{Ranks: ranks32, Ctx: int32(agreed[0])}}
		in := make([]any, 1)
		st, err := peer.Sendrecv(
			out, 0, 1, Object, remoteLeader, tag,
			in, 0, 1, Object, remoteLeader, tag,
		)
		if err != nil {
			return nil, fmt.Errorf("intercomm leader exchange: %w", err)
		}
		_ = st
		hello, ok := in[0].(interHello)
		if !ok {
			return nil, fmt.Errorf("%w: unexpected leader payload %T", ErrOther, in[0])
		}
		remoteHello = hello
	}

	// Leaders broadcast the remote membership and the final context
	// (max of both sides' proposals) within their local groups.
	meta := make([]int32, 2)
	if c.rank == localLeader {
		final := int32(agreed[0])
		if remoteHello.Ctx > final {
			final = remoteHello.Ctx
		}
		meta[0] = final
		meta[1] = int32(len(remoteHello.Ranks))
	}
	if err := c.Bcast(meta, 0, 2, Int, localLeader); err != nil {
		return nil, err
	}
	finalCtx := int(meta[0])
	remoteN := int(meta[1])
	remoteRanks := make([]int32, remoteN)
	if c.rank == localLeader {
		copy(remoteRanks, remoteHello.Ranks)
	}
	if err := c.Bcast(remoteRanks, 0, remoteN, Int, localLeader); err != nil {
		return nil, err
	}

	worldRanks := make([]int, remoteN)
	for i, r := range remoteRanks {
		worldRanks[i] = int(r)
	}
	remoteGroup, err := NewGroup(worldRanks)
	if err != nil {
		return nil, fmt.Errorf("intercomm remote group: %w", err)
	}
	if remoteGroup.Intersection(c.group).Size() != 0 {
		return nil, fmt.Errorf("%w: intercomm groups overlap", ErrGroup)
	}

	// The intercomm consumes contexts [finalCtx, finalCtx+2]: one for
	// inter-group p2p, two reserved for a later Merge.
	c.proc.mu.Lock()
	if finalCtx+3 > c.proc.nextCtx {
		c.proc.nextCtx = finalCtx + 3
	}
	c.proc.mu.Unlock()

	return &Intercomm{
		local:  c,
		remote: remoteGroup,
		pt2pt:  finalCtx,
		// The remote-facing view routes sends/receives through the shared
		// Comm machinery (and hence its zero-copy fast paths): group ranks
		// and statuses translate against the remote group, traffic runs on
		// the inter-group context.
		rcomm: &Comm{dev: c.dev, proc: c.proc, group: remoteGroup, pt2pt: finalCtx},
	}, nil
}

// Rank returns the calling process's rank in the local group.
func (ic *Intercomm) Rank() int { return ic.local.Rank() }

// Size returns the local group size.
func (ic *Intercomm) Size() int { return ic.local.Size() }

// RemoteSize returns the remote group size — MPI_Comm_remote_size.
func (ic *Intercomm) RemoteSize() int { return ic.remote.Size() }

// RemoteGroup returns the remote group — MPI_Comm_remote_group.
func (ic *Intercomm) RemoteGroup() *Group { return ic.remote }

// LocalComm returns the local intra-communicator.
func (ic *Intercomm) LocalComm() *Comm { return ic.local }

// errFreed reports ErrComm when the inter-communicator has been freed.
func (ic *Intercomm) errFreed() error {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if ic.freed {
		return fmt.Errorf("%w: inter-communicator is freed", ErrComm)
	}
	return nil
}

// track registers an in-flight request so Free can fail it; the request
// deregisters itself when it reaches a terminal state. A Free racing the
// registration loses no request: if the intercomm was freed in between,
// the fresh request is failed here.
func (ic *Intercomm) track(r *Request) error {
	ic.mu.Lock()
	if ic.freed {
		ic.mu.Unlock()
		err := fmt.Errorf("%w: inter-communicator is freed", ErrComm)
		r.forceFail(err)
		return err
	}
	if ic.live == nil {
		ic.live = make(map[*Request]struct{})
	}
	ic.live[r] = struct{}{}
	r.onFinal = func() {
		ic.mu.Lock()
		delete(ic.live, r)
		ic.mu.Unlock()
	}
	ic.mu.Unlock()
	return nil
}

// Send sends to rank dst of the remote group.
func (ic *Intercomm) Send(buf any, off, count int, dt Datatype, dst, tag int) error {
	r, err := ic.Isend(buf, off, count, dt, dst, tag)
	if err != nil {
		return err
	}
	_, err = r.Wait()
	return err
}

// Isend starts a non-blocking send to rank dst of the remote group.
func (ic *Intercomm) Isend(buf any, off, count int, dt Datatype, dst, tag int) (*Request, error) {
	if err := ic.errFreed(); err != nil {
		return nil, err
	}
	// No borrowing, for the reason Irecv takes no window: Free force-fails
	// live requests, and the device must not still be reading a buffer whose
	// owner has seen the send fail.
	r, err := ic.rcomm.sendModeOpt(buf, off, count, dt, dst, tag, device.ModeStandard, false)
	if err != nil {
		return nil, err
	}
	if err := ic.track(r); err != nil {
		return nil, err
	}
	return r, nil
}

// Recv receives from rank src of the remote group (or AnySource).
func (ic *Intercomm) Recv(buf any, off, count int, dt Datatype, src, tag int) (*Status, error) {
	r, err := ic.Irecv(buf, off, count, dt, src, tag)
	if err != nil {
		return nil, err
	}
	return r.Wait()
}

// Irecv starts a non-blocking receive from the remote group.
func (ic *Intercomm) Irecv(buf any, off, count int, dt Datatype, src, tag int) (*Request, error) {
	if err := ic.errFreed(); err != nil {
		return nil, err
	}
	// Staged (no zero-copy window): Free may force-fail this request
	// while it is matched, and a late rendezvous DATA frame must not be
	// written into user memory after the owner saw the error.
	r, err := ic.rcomm.irecvOpt(buf, off, count, dt, src, tag, false)
	if err != nil {
		return nil, err
	}
	if err := ic.track(r); err != nil {
		return nil, err
	}
	return r, nil
}

// Merge combines both groups into one intra-communicator —
// MPI_Intercomm_merge. Processes passing high=false receive the lower
// ranks; both sides must pass complementary flags. Collective over both
// groups.
func (ic *Intercomm) Merge(high bool) (*Comm, error) {
	ic.mu.Lock()
	if ic.freed {
		ic.mu.Unlock()
		return nil, fmt.Errorf("%w: inter-communicator is freed", ErrComm)
	}
	ic.merged = true
	ic.mu.Unlock()
	lowRanks := ic.local.group.Ranks()
	highRanks := ic.remote.Ranks()
	if high {
		lowRanks, highRanks = highRanks, lowRanks
	}
	union, err := NewGroup(append(append([]int(nil), lowRanks...), highRanks...))
	if err != nil {
		return nil, fmt.Errorf("intercomm merge: %w", err)
	}
	myWorld := ic.local.group.WorldRank(ic.local.rank)
	newRank := union.Rank(myWorld)
	if newRank == Undefined {
		return nil, fmt.Errorf("%w: merge lost the calling process", ErrOther)
	}
	// The two contexts reserved by CreateIntercomm become the merged
	// communicator's pair; both sides derived the same finalCtx, so no
	// further agreement round is needed.
	return &Comm{
		dev:   ic.local.dev,
		proc:  ic.local.proc,
		group: union,
		rank:  newRank,
		pt2pt: ic.pt2pt + 1,
		coll:  ic.pt2pt + 2,
	}, nil
}

// Free releases the inter-communicator — the MPJ Intercomm.Free,
// mirroring Comm.Free's cleanup: any request still in flight on the
// inter-group context completes with ErrComm instead of hanging its waiter
// (the posted device operation is cancelled best-effort so a parked Wait
// unblocks; an operation that already completed at the device keeps its
// real outcome), and new Isend/Irecv/Send/Recv/Merge calls fail with
// ErrComm immediately. If the intercomm was never merged and its reserved
// context triple is still the newest allocation, the context ids are
// returned to the process allocator for reuse.
//
// Like MPI_Comm_free, Free is collective: every member of both groups
// must call it, and neither side may start new inter-group traffic
// afterwards. A rank that allocates new communicators while the remote
// side still sends on the released context risks stale inter-group
// messages matching the new communicator's traffic — the same hazard MPI
// programs face when they free a communicator one side still uses.
func (ic *Intercomm) Free() {
	ic.mu.Lock()
	if ic.freed {
		ic.mu.Unlock()
		return
	}
	ic.freed = true
	merged := ic.merged
	reqs := make([]*Request, 0, len(ic.live))
	for r := range ic.live {
		reqs = append(reqs, r)
	}
	ic.live = nil
	ic.mu.Unlock()

	for _, r := range reqs {
		r.forceFail(fmt.Errorf("%w: inter-communicator freed with request in flight", ErrComm))
	}

	// Best-effort context release: the intercomm reserved
	// [pt2pt, pt2pt+2]; if nothing allocated beyond it and Merge never
	// handed the pair to a merged communicator, roll the allocator back.
	if !merged {
		p := ic.local.proc
		p.mu.Lock()
		if p.nextCtx == ic.pt2pt+3 {
			p.nextCtx = ic.pt2pt
		}
		p.mu.Unlock()
	}
}

func init() {
	// The leader exchange ships interHello values inside OBJECT buffers.
	RegisterType(interHello{})
}
