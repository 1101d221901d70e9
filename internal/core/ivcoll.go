package core

import (
	"fmt"

	"mpj/internal/wire"
)

// This file implements the varying-count (V family) collectives —
// Igatherv, Iscatterv, Iallgatherv, Ialltoallv, IreduceScatter — as
// schedule builders for the engine in sched.go, completing the move of
// every collective onto compiled per-rank round schedules. Each builder
// validates the per-peer counts/displacements up front (checkVSpec: typed
// ErrCount/ErrArg errors before anything is posted or written), packs
// sends straight into outgoing wire frames (vSendStep) and lands
// raw-layout receives in place at their displacements (vWindow), so V
// payloads never stage. The blocking forms in coll.go compile and Wait on
// exactly these schedules, the persistent Commit* forms (pcoll.go)
// activate them under one committed tag, and the fixed-count Allgather and
// Alltoall (icoll.go) compile through iallgatherv and ialltoallv as their
// uniform layouts.

// Igatherv starts a non-blocking varying-count gather — MPI_Igatherv:
// rank r contributes scount elements of sdt and the root places
// rcounts[r] elements at roff + displs[r]*extent(rdt). Linear schedule;
// raw-layout blocks land directly in the root's buffer. rcounts/displs
// are read on the root only. A rank whose block is empty (scount 0 on the
// sender, rcounts[r] 0 on the root) exchanges no message at all.
func (c *Comm) Igatherv(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff int, rcounts, displs []int, rdt Datatype, root int) (*CollRequest, error) {
	return c.igatherv("igatherv", c.nextCollTag(), sbuf, soff, scount, sdt, rbuf, roff, rcounts, displs, rdt, root)
}

func (c *Comm) igatherv(name string, tag int, sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff int, rcounts, displs []int, rdt Datatype, root int) (*CollRequest, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	size := c.Size()
	if c.rank != root {
		var rounds []round
		if scount != 0 {
			ss, err := vSendStep(root, sdt, sbuf, soff, scount)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			rounds = []round{{sends: []sendStep{ss}}}
		}
		return c.newCollRequestAlg(name, tag, "linear", rounds, nil)
	}
	ext := rdt.Extent()
	if err := checkVSpec(size, rcounts, displs, ext, roff, bufSlots(rbuf), true); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var rd round
	for r := 0; r < size; r++ {
		if r == root || rcounts[r] == 0 {
			continue
		}
		if win := vWindow(rdt, rbuf, roff+displs[r]*ext, rcounts[r]); win != nil {
			rd.recvs = append(rd.recvs, recvStep{from: r, buf: win})
			continue
		}
		rd.recvs = append(rd.recvs, recvStep{from: r, on: func(got []byte) error {
			_, err := rdt.Unpack(got, rbuf, roff+displs[r]*ext, rcounts[r])
			return err
		}})
	}
	// The root's own block packs at finish time, not build time, so a
	// reused (persistent) schedule re-reads the live send buffer.
	finish := func() error {
		own, err := packExact(sdt, sbuf, soff, scount)
		if err != nil {
			return err
		}
		if rcounts[root] == 0 {
			return nil // empty blocks are exempt from their displacements
		}
		_, err = rdt.Unpack(own, rbuf, roff+displs[root]*ext, rcounts[root])
		return err
	}
	var rounds []round
	if len(rd.recvs) > 0 {
		rounds = []round{rd}
	}
	return c.newCollRequestAlg(name, tag, "linear", rounds, finish)
}

// Iscatterv starts a non-blocking varying-count scatter — MPI_Iscatterv:
// rank r receives rcount elements of rdt taken from the root's sbuf at
// soff + displs[r]*extent(sdt). Linear schedule; the root packs each
// block straight into its outgoing frame and raw-layout receive buffers
// are filled in place. scounts/displs are read on the root only.
func (c *Comm) Iscatterv(sbuf any, soff int, scounts, displs []int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype, root int) (*CollRequest, error) {
	return c.iscatterv("iscatterv", c.nextCollTag(), sbuf, soff, scounts, displs, sdt, rbuf, roff, rcount, rdt, root)
}

func (c *Comm) iscatterv(name string, tag int, sbuf any, soff int, scounts, displs []int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype, root int) (*CollRequest, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	if rcount < 0 {
		return nil, fmt.Errorf("%s: %w: negative receive count %d", name, ErrCount, rcount)
	}
	size := c.Size()
	if c.rank != root {
		if rcount == 0 {
			return c.newCollRequestAlg(name, tag, "linear", nil, nil)
		}
		if win := vWindow(rdt, rbuf, roff, rcount); win != nil {
			rounds := []round{{recvs: []recvStep{{from: root, buf: win}}}}
			return c.newCollRequestAlg(name, tag, "linear", rounds, nil)
		}
		cl := &cell{}
		rounds := []round{{recvs: []recvStep{cl.recvFrom(root)}}}
		finish := func() error {
			_, err := rdt.Unpack(cl.b, rbuf, roff, rcount)
			return err
		}
		return c.newCollRequestAlg(name, tag, "linear", rounds, finish)
	}
	ext := sdt.Extent()
	if err := checkVSpec(size, scounts, displs, ext, soff, bufSlots(sbuf), false); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var rd round
	for r := 0; r < size; r++ {
		if r == root || scounts[r] == 0 {
			continue
		}
		ss, err := vSendStep(r, sdt, sbuf, soff+displs[r]*ext, scounts[r])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rd.sends = append(rd.sends, ss)
	}
	finish := func() error {
		if scounts[root] == 0 {
			return nil // empty blocks are exempt from their displacements
		}
		data, err := packExact(sdt, sbuf, soff+displs[root]*ext, scounts[root])
		if err != nil {
			return err
		}
		_, err = rdt.Unpack(data, rbuf, roff, rcount)
		return err
	}
	var rounds []round
	if len(rd.sends) > 0 {
		rounds = []round{rd}
	}
	return c.newCollRequestAlg(name, tag, "linear", rounds, finish)
}

// Iallgatherv starts a non-blocking varying-count allgather —
// MPI_Iallgatherv: every member's scount-element contribution lands at
// roff + displs[r]*extent(rdt) in every member's rbuf. Ring algorithm
// (p-1 rounds forwarding whole blocks); large raw-layout payloads take
// the zero-staging window ring, blocks circulating straight between the
// members' receive buffers (see collalg.go for the selection knobs). Equal
// blocks laid end to end in rank order are scheduled exactly like
// Iallgather's, two-level batching on comms spanning locality groups
// included.
func (c *Comm) Iallgatherv(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff int, rcounts, displs []int, rdt Datatype) (*CollRequest, error) {
	return c.iallgatherv("iallgatherv", c.nextCollTag(), sbuf, soff, scount, sdt, rbuf, roff, rcounts, displs, rdt)
}

func (c *Comm) iallgatherv(name string, tag int, sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff int, rcounts, displs []int, rdt Datatype) (*CollRequest, error) {
	size := c.Size()
	ext := rdt.Extent()
	if isInPlace(rbuf) {
		return nil, fmt.Errorf("%s: %w: InPlace is only valid as the send buffer", name, ErrBuffer)
	}
	if err := checkVSpec(size, rcounts, displs, ext, roff, bufSlots(rbuf), true); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if isInPlace(sbuf) {
		// MPI_IN_PLACE: the contribution already sits in this rank's slot
		// of the receive buffer; the send triple is ignored. The remapped
		// send is a plain alias, safe in both ring paths because each
		// either copies it out (packExact) or packs it onto itself
		// (PackInto over identical memory).
		sbuf, soff, scount, sdt = rbuf, roff+displs[c.rank]*ext, rcounts[c.rank], rdt
	}
	unpackSlot := func(owner int, got []byte) error {
		if rcounts[owner] == 0 {
			return nil // empty blocks are exempt from their displacements
		}
		_, err := rdt.Unpack(got, rbuf, roff+displs[owner]*ext, rcounts[owner])
		return err
	}
	// seed packs this rank's contribution, lands it in its own receive slot
	// and hands it to the cell that circulates blocks round the forwarding
	// ring; cached reactivations of either ring redo it as their reset.
	cur := &cell{}
	seed := func() error {
		b, err := packExact(sdt, sbuf, soff, scount)
		if err != nil {
			return err
		}
		cur.b = b
		return unpackSlot(c.rank, b)
	}
	if sz := rdt.ByteSize(); sz > 0 && size > 1 {
		total, uniform := 0, true
		for r, n := range rcounts {
			total += n
			uniform = uniform && n == rcounts[0] && displs[r] == r*n
		}
		// Equal blocks laid end to end in rank order — what the fixed-count
		// Allgather passes — form one contiguous vector, which a comm
		// spanning locality groups batches through its group leaders so
		// each block crosses the expensive links once (hier.go).
		if uniform && total > 0 && c.collHier() {
			return c.ihallgather(name, tag, sbuf, soff, scount, sdt, rbuf, roff, rcounts[0], rdt)
		}
		if total > 0 && c.collLarge(total*sz) {
			if rounds, finish, ok := c.ringWindowVRounds(sbuf, soff, scount, sdt, rbuf, roff, rcounts, displs, rdt); ok {
				req, err := c.newCollRequestAlg(name, tag, "ring-window", rounds, finish)
				if err == nil && finish == nil {
					// Cacheable unless pooled staging is handed back at
					// finish: blocks circulate straight between user
					// windows, reset re-seeds this rank's own slot.
					req.cacheable = true
					req.reset = seed
				}
				return req, err
			}
		}
	}
	// Forwarding ring: each hop re-sends the block bytes it received and
	// unpacks a copy into place — works for any datatype incl. Object and
	// for blocks whose layout refuses a raw window. Own block lands
	// immediately; the rest arrive over p-1 rounds.
	if err := seed(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	req, err := c.newCollRequestAlg(name, tag, "ring", ringRounds(c, cur, unpackSlot), nil)
	if err == nil {
		req.cacheable = true
		req.reset = seed
	}
	return req, err
}

// ringWindowVRounds compiles the zero-staging ring allgatherv: block r of
// the varying layout lives at displs[r] in every member's receive buffer,
// and in round s each rank forwards block (rank-s mod p) straight out of
// its buffer while block (rank-s-1 mod p) lands straight into its final
// slot, with no per-hop adopt-and-unpack copy, which is what large
// payloads need. Empty blocks still flow through the ring as empty
// messages, keeping every hop's rounds aligned with its neighbours'.
//
// A single non-empty slot that refuses a raw window (an offset stretching
// past the slice, say) does not force the whole exchange off the fast
// path: that one block circulates through a pooled staging buffer —
// received there, unpacked into its final slot, and forwarded from it the
// next round, which the engine's in-order round delivery guarantees is
// after the bytes landed. ok=false only when two or more slots refuse a
// window or the local contribution cannot pack in place, in which case
// the caller falls back to the forwarding ring. finish (possibly nil)
// must run at completion; it returns the staging buffer to the pool.
func (c *Comm) ringWindowVRounds(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff int, rcounts, displs []int, rdt Datatype) ([]round, func() error, bool) {
	size := c.Size()
	ext := rdt.Extent()
	slots := make([][]byte, size)
	staged := -1
	for r := 0; r < size; r++ {
		if rcounts[r] == 0 {
			continue
		}
		if win := vWindow(rdt, rbuf, roff+displs[r]*ext, rcounts[r]); win != nil {
			slots[r] = win
			continue
		}
		if staged >= 0 {
			return nil, nil, false // a second stubborn slot: forwarding ring
		}
		staged = r
	}
	var stage []byte
	release := func() {
		if stage != nil {
			wire.PutBuf(stage)
		}
	}
	if staged >= 0 {
		stage = wire.GetBuf(rcounts[staged] * rdt.ByteSize())
	}
	own := slots[c.rank]
	if c.rank == staged {
		own = stage
	}
	pi, ok := sdt.(packerInto)
	if !ok || sdt.ByteSize() < 0 || scount < 0 || scount*sdt.ByteSize() != len(own) {
		release()
		return nil, nil, false
	}
	if scount > 0 {
		if err := pi.PackInto(own, sbuf, soff, scount); err != nil {
			release()
			return nil, nil, false
		}
	}
	if c.rank == staged {
		// The staged slot is this rank's own: its bytes ride the ring from
		// the staging buffer, but the final slot still needs them.
		if _, err := rdt.Unpack(stage, rbuf, roff+displs[c.rank]*ext, rcounts[c.rank]); err != nil {
			release()
			return nil, nil, false
		}
	}
	right := (c.rank + 1) % size
	left := (c.rank - 1 + size) % size
	var rs []round
	for s := 0; s < size-1; s++ {
		var rd round
		if src := (c.rank - s + size) % size; src == staged {
			rd.sends = []sendStep{{to: right, data: func() []byte { return stage }}}
		} else {
			data := slots[src]
			rd.sends = []sendStep{{to: right, data: func() []byte { return data }}}
		}
		if dst := (c.rank - s - 1 + 2*size) % size; dst == staged {
			rd.recvs = []recvStep{{from: left, buf: stage, on: func(got []byte) error {
				_, err := rdt.Unpack(got, rbuf, roff+displs[staged]*ext, rcounts[staged])
				return err
			}}}
		} else if win := slots[dst]; len(win) > 0 {
			rd.recvs = []recvStep{{from: left, buf: win}}
		} else {
			rd.recvs = []recvStep{{from: left}}
		}
		rs = append(rs, rd)
	}
	var finish func() error
	if stage != nil {
		finish = func() error {
			release()
			return nil
		}
	}
	return rs, finish, true
}

// Ialltoallv starts a non-blocking varying-count all-to-all personalized
// exchange — MPI_Ialltoallv: the block for peer r is read from
// soff + sdispls[r]*extent(sdt) and peer r's block lands at
// roff + rdispls[r]*extent(rdt). All transfers run in a single schedule
// round; sends pack straight into outgoing frames, raw-layout receives
// land in place. Pairs whose block is empty on both sides (scounts on the
// sender, rcounts on the receiver) exchange no message.
func (c *Comm) Ialltoallv(sbuf any, soff int, scounts, sdispls []int, sdt Datatype,
	rbuf any, roff int, rcounts, rdispls []int, rdt Datatype) (*CollRequest, error) {
	return c.ialltoallv("ialltoallv", c.nextCollTag(), sbuf, soff, scounts, sdispls, sdt, rbuf, roff, rcounts, rdispls, rdt)
}

func (c *Comm) ialltoallv(name string, tag int, sbuf any, soff int, scounts, sdispls []int, sdt Datatype,
	rbuf any, roff int, rcounts, rdispls []int, rdt Datatype) (*CollRequest, error) {
	size := c.Size()
	sext, rext := sdt.Extent(), rdt.Extent()
	if err := checkVSpec(size, scounts, sdispls, sext, soff, bufSlots(sbuf), false); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := checkVSpec(size, rcounts, rdispls, rext, roff, bufSlots(rbuf), true); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var rd round
	for r := 0; r < size; r++ {
		if r == c.rank || rcounts[r] == 0 {
			continue
		}
		if win := vWindow(rdt, rbuf, roff+rdispls[r]*rext, rcounts[r]); win != nil {
			rd.recvs = append(rd.recvs, recvStep{from: r, buf: win})
			continue
		}
		rd.recvs = append(rd.recvs, recvStep{from: r, on: func(got []byte) error {
			_, err := rdt.Unpack(got, rbuf, roff+rdispls[r]*rext, rcounts[r])
			return err
		}})
	}
	for r := 0; r < size; r++ {
		if r == c.rank || scounts[r] == 0 {
			continue
		}
		ss, err := vSendStep(r, sdt, sbuf, soff+sdispls[r]*sext, scounts[r])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rd.sends = append(rd.sends, ss)
	}
	finish := func() error {
		// Empty blocks are exempt from their displacements, so the own
		// block only packs and unpacks when its side's count is non-zero.
		var data []byte
		if scounts[c.rank] > 0 {
			var err error
			if data, err = packExact(sdt, sbuf, soff+sdispls[c.rank]*sext, scounts[c.rank]); err != nil {
				return err
			}
		}
		if rcounts[c.rank] == 0 {
			return nil
		}
		_, err := rdt.Unpack(data, rbuf, roff+rdispls[c.rank]*rext, rcounts[c.rank])
		return err
	}
	var rounds []round
	if len(rd.recvs)+len(rd.sends) > 0 {
		rounds = []round{rd}
	}
	req, err := c.newCollRequestAlg(name, tag, "linear", rounds, finish)
	if err == nil {
		// Cacheable: every payload is produced at post or finish time.
		// (Variable-size blocks pack at build into snapshot steps, which
		// a persistent request refuses to reuse — see pcoll.go.)
		req.cacheable = true
	}
	return req, err
}

// IreduceScatter starts a non-blocking reduce-scatter —
// MPI_Ireduce_scatter: every member contributes sum(rcounts) elements,
// the element-wise combination is computed with op, and rank r receives
// elements [sum(rcounts[:r]), sum(rcounts[:r+1])) of the result in rbuf
// at roff. Large payloads run the large allreduce's reduce-scatter half
// with chunks cut on the rcounts boundaries — recursive halving on a
// power-of-two communicator, the ring otherwise, an empty chunk moving no
// message; small ones reduce to rank 0 and scatter linearly (see collalg.go
// for the selection knobs). Until the request completes sbuf must not be
// written — the large schedule lends it to the transport — and rbuf not
// touched.
func (c *Comm) IreduceScatter(sbuf any, soff int, rbuf any, roff int, rcounts []int, dt Datatype, op *Op) (*CollRequest, error) {
	return c.ireduceScatter("ireduce_scatter", c.nextCollTag(), sbuf, soff, rbuf, roff, rcounts, dt, op)
}

func (c *Comm) ireduceScatter(name string, tag int, sbuf any, soff int, rbuf any, roff int,
	rcounts []int, dt Datatype, op *Op) (*CollRequest, error) {
	size := c.Size()
	if isInPlace(rbuf) {
		return nil, fmt.Errorf("%s: %w: InPlace is only valid as the send buffer", name, ErrBuffer)
	}
	if isInPlace(sbuf) {
		// MPI_IN_PLACE: the full input vector is read from the receive
		// buffer and the rank's result chunk overwrites its head. Safe to
		// alias — the classic plan packs the input into a fresh accumulator,
		// the large one writes rbuf only at finish.
		sbuf, soff = rbuf, roff
	}
	if len(rcounts) != size {
		return nil, fmt.Errorf("%s: %w: need %d rcounts, got %d", name, ErrCount, size, len(rcounts))
	}
	elem := dt.ByteSize()
	if elem <= 0 {
		return nil, fmt.Errorf("%s: %w: reduce-scatter requires fixed-size elements, have %s", name, ErrType, dt.Name())
	}
	total := 0
	displs := make([]int, size+1) // and the end of the last block
	for i, n := range rcounts {
		if n < 0 {
			return nil, fmt.Errorf("%s: %w: negative count %d for rank %d", name, ErrCount, n, i)
		}
		displs[i] = total
		total += n
	}
	displs[size] = total
	comb, err := op.combinerFor(dt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if size > 1 && c.collLarge(total*elem) {
		// The large allreduce's fold half over the rcounts cuts, which leaves
		// rank r holding chunk r. The buffer plan: a raw window of the send
		// buffer is own — lent and folded, never written — and acc one pooled
		// vector; other datatypes pack into acc. rbuf is written only at
		// finish, so it may alias the send buffer (InPlace, or shifted).
		acc := wire.GetBuf(total * elem)
		own := vWindow(dt, sbuf, soff, total)
		if own == nil {
			if err := packIntoWindow(acc, dt, sbuf, soff, total); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			own = acc
		}
		bound := func(i int) int { return displs[i] * elem }
		var rounds []round
		var scratch []byte
		alg := "halving"
		if size&(size-1) == 0 {
			rounds, scratch = halvingRounds(c, bound, own, acc, comb)
		} else {
			alg = "ring"
			rounds, scratch = ringFoldRounds(c, bound, c.rank, own, acc, comb)
		}
		finish := func() (err error) {
			if rcounts[c.rank] > 0 { // empty blocks are exempt from their displacements
				_, err = dt.Unpack(span(acc, bound, c.rank, 1), rbuf, roff, rcounts[c.rank])
			}
			wire.PutBuf(scratch) // nil when nothing was staged: dropped
			wire.PutBuf(acc)
			return err
		}
		return c.newCollRequestAlg(name, tag, alg, rounds, finish)
	}

	// Classic: binomial-tree reduce to rank 0, then scatter the chunks of
	// the combined vector linearly.
	acc := &cell{}
	if acc.b, err = packExact(dt, sbuf, soff, total); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rounds := reduceRoundsIn(c, c.members(), acc, comb, 0)
	var finish func() error
	if c.rank == 0 {
		var rd round
		for r := 1; r < size; r++ {
			if rcounts[r] == 0 {
				continue
			}
			lo, hi := displs[r]*elem, (displs[r]+rcounts[r])*elem
			rd.sends = append(rd.sends, sendStep{to: r, data: func() []byte { return acc.b[lo:hi] }})
		}
		if len(rd.sends) > 0 {
			rounds = append(rounds, rd)
		}
		finish = func() error {
			if rcounts[0] == 0 {
				return nil
			}
			_, err := dt.Unpack(acc.b[:rcounts[0]*elem], rbuf, roff, rcounts[0])
			return err
		}
	} else if rcounts[c.rank] > 0 {
		if win := vWindow(dt, rbuf, roff, rcounts[c.rank]); win != nil {
			rounds = append(rounds, round{recvs: []recvStep{{from: 0, buf: win}}})
		} else {
			mine := &cell{}
			rounds = append(rounds, round{recvs: []recvStep{mine.recvFrom(0)}})
			finish = func() error {
				_, err := dt.Unpack(mine.b, rbuf, roff, rcounts[c.rank])
				return err
			}
		}
	}
	return c.newCollRequestAlg(name, tag, "reduce-linear", rounds, finish)
}
