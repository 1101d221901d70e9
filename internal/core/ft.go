package core

import (
	"encoding/binary"
	"fmt"

	"mpj/internal/device"
)

// This file implements the ULFM-style fault-tolerance surface of a
// communicator — the recovery path the paper's lease-based failure
// detection feeds into:
//
//   - Revoke marks the communicator unusable everywhere, best-effort, so
//     members that have not yet observed a failure stop waiting on it;
//   - Agree runs a fault-tolerant agreement on a flag word, completing
//     despite member deaths mid-protocol;
//   - Shrink agrees on the survivor set and derives a fresh, working
//     communicator with compacted ranks.
//
// Agree and Shrink share one consensus engine (ftAgree): a coordinator-
// pull protocol whose device half lives in internal/device/ft.go, chosen
// so that members which already decided — or already returned to
// application code — keep participating from their transport reader
// goroutines. See ARCHITECTURE.md, "Fault tolerance".

// memberFailure reports why collective operations on c cannot proceed:
// ErrRevoked when the communicator was revoked, or the RankFailedError of
// the first dead group member. It returns nil while all members are
// presumed alive.
func (c *Comm) memberFailure() error {
	if c.revoked.Load() {
		return ErrRevoked
	}
	size := c.group.Size()
	for r := 0; r < size; r++ {
		if err := c.dev.RankError(c.group.WorldRank(r)); err != nil {
			return err
		}
	}
	return nil
}

// checkRevoked fails point-to-point entry points on a revoked
// communicator.
func (c *Comm) checkRevoked() error {
	if c.revoked.Load() {
		return ErrRevoked
	}
	return nil
}

// Revoke marks the communicator revoked, locally and — best-effort — on
// every other member, the analogue of ULFM's MPI_Comm_revoke. It is NOT
// collective: any single member may call it after observing a failure.
// Pending operations on the communicator complete with ErrRevoked, and
// every later operation fails the same way, so members parked in
// operations that would otherwise never complete (their partner pattern
// broken by a death elsewhere) return promptly. Only Agree and Shrink
// remain usable: they are the recovery path.
//
// Propagation is a single best-effort fan-out over the full mesh. A
// member that misses the frame (its link broke at the wrong moment) still
// converges: its next operation either trips over the dead rank or the
// revoked peers' silence, and the member revokes or shrinks in turn.
func (c *Comm) Revoke() error {
	c.collMu.Lock()
	freed := c.freed
	c.collMu.Unlock()
	if freed {
		return fmt.Errorf("revoke: %w: communicator is freed", ErrComm)
	}
	c.revokeLocal()
	for r := 0; r < c.Size(); r++ {
		if r == c.rank {
			continue
		}
		w := c.group.WorldRank(r)
		if c.dev.RankFailed(w) {
			continue
		}
		_ = c.dev.SendRevoke(w, c.pt2pt)
	}
	return nil
}

// Revoked reports whether the communicator has been revoked (by this rank
// or by a propagated revocation).
func (c *Comm) Revoked() bool { return c.revoked.Load() }

// revokeLocal applies a revocation on this rank: in-flight collective
// schedules fail, pending point-to-point operations on both of the
// communicator's contexts complete with ErrRevoked, and new operations
// are rejected. Idempotent; also the landing point for inbound KindRevoke
// frames (see NewWorld's revoke handler).
func (c *Comm) revokeLocal() {
	if c.revoked.Swap(true) {
		return
	}
	c.proc.collMu.Lock()
	reqs := make([]*CollRequest, 0, len(c.proc.inflight))
	for r := range c.proc.inflight {
		if r.c == c {
			reqs = append(reqs, r)
		}
	}
	c.proc.collMu.Unlock()
	for _, r := range reqs {
		r.fail(ErrRevoked)
	}
	c.dev.FailContext(c.pt2pt, ErrRevoked)
	c.dev.FailContext(c.coll, ErrRevoked)
	for _, w := range c.proc.allWins() {
		if w.c == c {
			w.fail(ErrRevoked)
		}
	}
}

// Agree performs a fault-tolerant agreement on a flag word, the analogue
// of ULFM's MPIX_Comm_agree: every live member contributes flags, and all
// of them receive the same bitwise AND of the contributions that made it
// into the decision. Members that die mid-protocol are excluded; the call
// completes for the survivors regardless (it never hangs on a death) and
// works on a revoked communicator — it is part of the recovery path.
func (c *Comm) Agree(flags uint64) (uint64, error) {
	contrib := ftNewPayload(flags, 0, c.Size())
	c.ftMarkLocalDead(contrib)
	dec, err := c.ftAgree("agree", contrib)
	if err != nil {
		return 0, err
	}
	return ftFlags(dec), nil
}

// Shrink agrees on the survivor set of the communicator and builds a new
// communicator over exactly those members, with ranks compacted in the
// old group order and fresh contexts — the analogue of ULFM's
// MPI_Comm_shrink. It is collective over the survivors; dead members are
// excluded by the agreement itself, so it completes even while failures
// keep arriving (a member that dies mid-shrink is simply agreed dead or
// caught by the next shrink). Shrink works on a revoked communicator.
//
// The new contexts are agreed in-band (the maximum of the members'
// context counters rides in the consensus payload), because the usual
// context allocation is itself a collective that would fail on a
// communicator with dead members.
func (c *Comm) Shrink() (*Comm, error) {
	c.proc.mu.Lock()
	local := c.proc.nextCtx
	c.proc.mu.Unlock()
	contrib := ftNewPayload(^uint64(0), local, c.Size())
	c.ftMarkLocalDead(contrib)
	dec, err := c.ftAgree("shrink", contrib)
	if err != nil {
		return nil, err
	}

	agreed := ftMaxCtx(dec)
	var worldRanks []int
	newRank := Undefined
	for r := 0; r < c.Size(); r++ {
		if ftDead(dec, r) {
			continue
		}
		if r == c.rank {
			newRank = len(worldRanks)
		}
		worldRanks = append(worldRanks, c.group.WorldRank(r))
	}
	if newRank == Undefined {
		// Unreachable with an accurate detector: we are alive, so no
		// coordinator can have agreed us dead. Fail loudly if it happens.
		return nil, fmt.Errorf("shrink: %w: local rank agreed dead", ErrOther)
	}
	g, err := NewGroup(worldRanks)
	if err != nil {
		return nil, fmt.Errorf("shrink: %w", err)
	}
	c.proc.mu.Lock()
	if agreed+2 > c.proc.nextCtx {
		c.proc.nextCtx = agreed + 2
	}
	c.proc.mu.Unlock()
	nc := &Comm{
		dev: c.dev, proc: c.proc, group: g,
		rank: newRank, pt2pt: agreed, coll: agreed + 1,
	}
	c.proc.register(nc)
	return nc, nil
}

// ftAgree runs one instance of the coordinator-pull consensus over c's
// members and returns the uniformly agreed payload. The instance number
// comes from the communicator's agreement counter — agreement calls are
// collective and ordered like every other collective, so all members
// derive the same (context, seq) identity.
//
// Coordinator chain: group rank 0 first, then 1, and so on, each member
// skipping coordinators it knows dead. The coordinator pulls every live
// member's contribution, folds them (flags AND, context MAX, dead-set
// OR), marks members that die mid-pull dead in the payload, and
// broadcasts the decision. Members park on the decision and advance the
// chain when their current coordinator dies. Both waits park in the one
// park loop, driving in-flight schedules, and their looks ignore
// revocation: agreement is how a revoked communicator recovers.
// Uniformity: a takeover coordinator pulls every live member before
// deciding, so if any survivor already holds an earlier coordinator's
// decision, the pull returns that decision and the takeover adopts it
// instead of deciding differently.
func (c *Comm) ftAgree(name string, contrib []byte) ([]byte, error) {
	c.collMu.Lock()
	if c.freed {
		c.collMu.Unlock()
		return nil, fmt.Errorf("%s: %w: communicator is freed", name, ErrComm)
	}
	seq := c.ftSeq
	c.ftSeq++
	c.collMu.Unlock()

	dev := c.dev
	ctx := c.coll
	size := c.Size()
	me := c.group.WorldRank(c.rank)
	members := make([]int, size)
	for r := 0; r < size; r++ {
		members[r] = c.group.WorldRank(r)
	}

	dev.FTRegister(ctx, seq, contrib)

	// await parks until world rank from answers this rank's pull, some
	// decision arrives, or from dies (device.FTReply). A member awaiting
	// its coordinator never pulled it: only the last two end that wait.
	await := func(from int) (reply, decision []byte, err error) {
		c.parkUntil(ctx, nil, func() (ok bool) {
			reply, decision, ok, err = dev.FTReply(ctx, seq, from)
			return ok
		})
		return reply, decision, err
	}
	for attempt := 0; ; attempt++ {
		coord := members[attempt%size]
		if coord != me && dev.RankFailed(coord) {
			continue
		}
		if coord != me {
			_, decision, err := await(coord)
			if err == nil {
				return decision, nil
			}
			if fr, ok := device.FailedRank(err); ok && fr == coord {
				continue // coordinator died: advance the chain
			}
			return nil, fmt.Errorf("%s: %w", name, err)
		}

		// This rank coordinates. Pull every member; adopt any decision an
		// earlier (now dead) coordinator managed to place.
		acc := append([]byte(nil), contrib...)
		var adopted []byte
		for i, m := range members {
			if m == me {
				continue
			}
			if dev.RankFailed(m) {
				ftMarkDead(acc, i)
				continue
			}
			dev.FTPull(m, ctx, seq)
			reply, decision, err := await(m)
			switch {
			case err != nil:
				if fr, ok := device.FailedRank(err); ok && fr == m {
					ftMarkDead(acc, i)
					continue
				}
				return nil, fmt.Errorf("%s: %w", name, err)
			case decision != nil:
				adopted = decision
			default:
				ftFold(acc, reply)
			}
			if adopted != nil {
				break
			}
		}
		if adopted == nil {
			adopted = acc
		}
		return dev.FTDecide(ctx, seq, adopted, members), nil
	}
}

// ---------------------------------------------------------------------
// Agreement payload: a fixed header of two little-endian 64-bit words —
// the flag word (folded with AND) and the context counter (folded with
// MAX) — followed by a dead-member bitmap over group ranks (folded with
// OR). One layout serves both Agree and Shrink.
// ---------------------------------------------------------------------

// ftHdrLen is the byte length of the payload header.
const ftHdrLen = 16

// ftNewPayload builds a payload for a size-member communicator.
func ftNewPayload(flags uint64, maxCtx, size int) []byte {
	p := make([]byte, ftHdrLen+(size+7)/8)
	binary.LittleEndian.PutUint64(p[0:], flags)
	binary.LittleEndian.PutUint64(p[8:], uint64(maxCtx))
	return p
}

// ftFlags reads the flag word.
func ftFlags(p []byte) uint64 { return binary.LittleEndian.Uint64(p[0:]) }

// ftMaxCtx reads the context counter.
func ftMaxCtx(p []byte) int { return int(binary.LittleEndian.Uint64(p[8:])) }

// ftMarkDead sets group rank member's bit in the dead-member bitmap.
func ftMarkDead(p []byte, member int) { p[ftHdrLen+member/8] |= 1 << (member % 8) }

// ftDead reads group rank member's bit.
func ftDead(p []byte, member int) bool { return p[ftHdrLen+member/8]&(1<<(member%8)) != 0 }

// ftFold folds src into dst: flags AND, context MAX, dead-set OR.
func ftFold(dst, src []byte) {
	binary.LittleEndian.PutUint64(dst[0:], ftFlags(dst)&ftFlags(src))
	if m := ftMaxCtx(src); m > ftMaxCtx(dst) {
		binary.LittleEndian.PutUint64(dst[8:], uint64(m))
	}
	for i := ftHdrLen; i < len(dst) && i < len(src); i++ {
		dst[i] |= src[i]
	}
}

// ftMarkLocalDead folds this rank's current failure knowledge into a
// payload's dead-member bitmap.
func (c *Comm) ftMarkLocalDead(p []byte) {
	for r := 0; r < c.Size(); r++ {
		if c.dev.RankFailed(c.group.WorldRank(r)) {
			ftMarkDead(p, r)
		}
	}
}
