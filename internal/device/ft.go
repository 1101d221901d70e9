package device

import (
	"mpj/internal/wire"
)

// This file implements the device half of the fault-tolerant agreement
// protocol behind Comm.Agree and Comm.Shrink (see core's ft.go for the
// coordinator algorithm and ARCHITECTURE.md, "Fault tolerance").
//
// An agreement instance is identified by (ctx, seq): the communicator's
// collective context and a per-communicator sequence number every member
// derives identically (agreement calls are collective and ordered, like
// every other collective). The protocol is coordinator-pull:
//
//   - every member registers its contribution locally (FTRegister);
//   - the lowest-ranked live member coordinates: it pulls each member's
//     contribution (KindFTPull → KindFTReply), folds them, and broadcasts
//     the decision (KindFTDecide);
//   - members await the decision; if the coordinator dies first, the next
//     live member in group order takes over.
//
// The device side never blocks: FTReply is a look, and core waits on it in
// its one park loop (every change it looks at moves the wake generation).
//
// Uniformity leans on two properties. First, the failure detector is
// accurate (ranks are only marked dead when their process really died), so
// two live coordinators never run concurrently. Second, all pull traffic
// is answered here, in the frame handler, from the instance state — so a
// member that already adopted a decision (and whose application thread
// has long returned from Agree) still forwards that decision to a late
// coordinator's pull instead of contributing afresh. A takeover
// coordinator pulls every live member before deciding, so any surviving
// holder of an earlier decision forces adoption rather than a
// second, different decision.
//
// Instances are retained until the communicator layer calls FTForget (at
// Comm.Free): a decided member must keep answering stragglers' pulls for
// as long as the communicator lives.

// ftKey identifies an agreement instance.
type ftKey struct {
	ctx int // communicator collective context
	seq int // per-communicator agreement sequence number
}

// ftInst is the local state of one agreement instance.
type ftInst struct {
	registered bool
	contrib    []byte // local contribution (valid once registered)

	decided  bool
	decision []byte

	replies map[int][]byte // coordinator side: world rank → contribution
	pulls   []int          // pulls that arrived before registration
}

// ftInstLocked returns (creating if needed) the instance for key. Callers
// hold d.mu.
func (d *Device) ftInstLocked(key ftKey) *ftInst {
	inst := d.ft[key]
	if inst == nil {
		inst = &ftInst{}
		d.ft[key] = inst
	}
	return inst
}

// ftFrame composes one agreement frame into out; the caller sends it once
// it holds no lock (see outbox).
func (d *Device) ftFrame(out *outbox, dst int, kind wire.Kind, key ftKey, payload []byte) {
	h := wire.Header{
		Kind:    kind,
		Src:     int32(d.rank),
		Tag:     int32(key.seq),
		Context: int32(key.ctx),
		Len:     int32(len(payload)),
	}
	out.add(dst, &h, payload)
}

// handleFTLocked processes an inbound agreement frame, its answers into
// out. It runs in the frame handler under d.mu and never waits — which is
// what keeps decided or departed members responsive to takeover
// coordinators. The payload is copied out; the caller recycles the frame.
func (d *Device) handleFTLocked(src int, h wire.Header, payload []byte, out *outbox) {
	key := ftKey{ctx: int(h.Context), seq: int(h.Tag)}
	inst := d.ftInstLocked(key)
	switch h.Kind {
	case wire.KindFTPull:
		switch {
		case inst.decided:
			d.ftFrame(out, src, wire.KindFTDecide, key, inst.decision)
		case inst.registered:
			d.ftFrame(out, src, wire.KindFTReply, key, inst.contrib)
		default:
			inst.pulls = append(inst.pulls, src)
		}

	case wire.KindFTReply:
		if inst.replies == nil {
			inst.replies = make(map[int][]byte)
		}
		inst.replies[src] = append([]byte(nil), payload...)
		d.wakeLocked()

	case wire.KindFTDecide:
		if !inst.decided {
			inst.decided = true
			inst.decision = append([]byte(nil), payload...)
			for _, p := range inst.pulls {
				d.ftFrame(out, p, wire.KindFTDecide, key, inst.decision)
			}
			inst.pulls = nil
		}
		d.wakeLocked()
	}
}

// FTRegister records this rank's contribution to agreement instance
// (ctx, seq) and answers any pulls that arrived early. Idempotent: a
// second registration for the same instance is ignored.
func (d *Device) FTRegister(ctx, seq int, contrib []byte) {
	var out outbox
	defer func() { d.flush(out) }()
	d.mu.Lock()
	defer d.mu.Unlock()
	key := ftKey{ctx: ctx, seq: seq}
	inst := d.ftInstLocked(key)
	if inst.registered {
		return
	}
	inst.registered = true
	inst.contrib = append([]byte(nil), contrib...)
	for _, p := range inst.pulls {
		if inst.decided {
			d.ftFrame(&out, p, wire.KindFTDecide, key, inst.decision)
		} else {
			d.ftFrame(&out, p, wire.KindFTReply, key, inst.contrib)
		}
	}
	inst.pulls = nil
	d.wakeLocked()
}

// FTPull asks world rank from for its contribution to instance (ctx, seq).
// The coordinator calls it, then looks for the answer with FTReply.
func (d *Device) FTPull(from, ctx, seq int) {
	var out outbox
	d.ftFrame(&out, from, wire.KindFTPull, ftKey{ctx: ctx, seq: seq}, nil)
	d.flush(out)
}

// FTReply looks, without blocking, for the end of a wait on world rank
// from in instance (ctx, seq): the coordinator's wait for the answer to
// its pull, or a member's for the decision of from, its coordinator. ok
// reports that the wait is over, with exactly one outcome:
//
//   - reply:    from's contribution arrived (only ever to a pull);
//   - decision: some decision reached this rank — the caller adopts it;
//   - err:      from failed first (a RankFailedError: the caller counts it
//     dead and moves on) or the device terminated.
func (d *Device) FTReply(ctx, seq, from int) (reply, decision []byte, ok bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	inst := d.ftInstLocked(ftKey{ctx: ctx, seq: seq})
	if e := d.usable(); e != nil {
		return nil, nil, true, e
	}
	if inst.decided {
		return nil, append([]byte(nil), inst.decision...), true, nil
	}
	if b, ok := inst.replies[from]; ok {
		return append([]byte(nil), b...), nil, true, nil
	}
	if e, ok := d.dead[from]; ok {
		return nil, nil, true, e
	}
	return nil, nil, false, nil
}

// FTDecide records the decision of instance (ctx, seq) locally and
// broadcasts it to every live member (world ranks; self and dead ranks are
// skipped). If some decision already reached this rank, that earlier
// decision wins and is the one re-broadcast; the effective decision is
// returned either way.
func (d *Device) FTDecide(ctx, seq int, decision []byte, members []int) []byte {
	var out outbox
	defer func() { d.flush(out) }()
	d.mu.Lock()
	defer d.mu.Unlock()
	key := ftKey{ctx: ctx, seq: seq}
	inst := d.ftInstLocked(key)
	if !inst.decided {
		inst.decided = true
		inst.decision = append([]byte(nil), decision...)
		for _, p := range inst.pulls {
			d.ftFrame(&out, p, wire.KindFTDecide, key, inst.decision)
		}
		inst.pulls = nil
	}
	for _, m := range members {
		if m == d.rank {
			continue
		}
		if _, dead := d.dead[m]; dead {
			continue
		}
		d.ftFrame(&out, m, wire.KindFTDecide, key, inst.decision)
	}
	d.wakeLocked()
	return append([]byte(nil), inst.decision...)
}

// FTForget drops every agreement instance of collective context ctx. The
// communicator layer calls it when the communicator is freed; until then,
// decided instances keep answering stragglers' pulls.
func (d *Device) FTForget(ctx int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for key := range d.ft {
		if key.ctx == ctx {
			delete(d.ft, key)
		}
	}
}
