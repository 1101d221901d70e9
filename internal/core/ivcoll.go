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
// fixed-size sends straight into outgoing wire frames (vSendStep; a
// variable-size block packs into a cell that a cached schedule re-packs)
// and lands raw-layout receives in place at their displacements (vWindow),
// so raw-layout V payloads never stage. The blocking forms in coll.go
// compile and Wait on exactly these schedules, the persistent Commit*
// forms (pcoll.go) activate them under one committed tag, and the
// fixed-count Scatter, Allgather and Alltoall and Gather's variable-size
// blocks (icoll.go) compile through iscatterv, iallgatherv, ialltoallv and
// igatherv as their uniform layouts.

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
		var repack func() error
		if scount != 0 {
			ss, rp, err := vSendStep(root, sdt, sbuf, soff, scount)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			rounds, repack = []round{{sends: []sendStep{ss}}}, rp
		}
		req, err := c.newCollRequestAlg(name, tag, "linear", rounds, nil)
		return cacheable(req, err, repack)
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
	return cacheable(c.newCollRequestAlg(name, tag, "linear", rounds, finish))
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
		var rounds []round
		var finish func() error
		if win := vWindow(rdt, rbuf, roff, rcount); win != nil {
			rounds = []round{{recvs: []recvStep{{from: root, buf: win}}}}
		} else if rcount > 0 {
			cl := &cell{}
			rounds = []round{{recvs: []recvStep{cl.recvFrom(root)}}}
			finish = func() error {
				_, err := rdt.Unpack(cl.b, rbuf, roff, rcount)
				return err
			}
		}
		return cacheable(c.newCollRequestAlg(name, tag, "linear", rounds, finish))
	}
	ext := sdt.Extent()
	if err := checkVSpec(size, scounts, displs, ext, soff, bufSlots(sbuf), false); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var rd round
	var repacks []func() error
	for r := 0; r < size; r++ {
		if r == root || scounts[r] == 0 {
			continue
		}
		ss, repack, err := vSendStep(r, sdt, sbuf, soff+displs[r]*ext, scounts[r])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rd.sends = append(rd.sends, ss)
		repacks = append(repacks, repack)
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
	req, err := c.newCollRequestAlg(name, tag, "linear", rounds, finish)
	return cacheable(req, err, repacks...)
}

// Iallgatherv starts a non-blocking varying-count allgather —
// MPI_Iallgatherv: every member's scount-element contribution lands at
// roff + displs[r]*extent(rdt) in every member's rbuf. Fixed-size blocks
// run the large vector family's allgather half over the blocks: recursive
// doubling on a power-of-two communicator, the ring otherwise, an empty
// block moving no message; the members' displs may differ. Variable-size
// blocks take one linear exchange. Equal non-empty fixed-size blocks are
// scheduled exactly like Iallgather's wherever they lie, two-level
// batching on comms spanning locality groups included. Until the request
// completes rbuf must not be touched: its blocks are lent to the
// transport.
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
		// send is a plain alias: the linear exchange copies it out
		// (packExact), the gather half packs it onto itself (PackInto over
		// identical memory).
		sbuf, soff, scount, sdt = rbuf, roff+displs[c.rank]*ext, rcounts[c.rank], rdt
	}
	sz := rdt.ByteSize()
	if sz < 0 {
		return c.iallgathervLinear(name, tag, sbuf, soff, scount, sdt, rbuf, roff, rcounts, displs, rdt)
	}
	// The blocks' geometry: at[r] is where block r starts when the blocks
	// lie end to end in rank order, and e2e whether this rank's receive
	// layout is such a vector (empty blocks fit anywhere), starting at
	// displacement start. Each member passes its own displs, so e2e shapes
	// only this rank's buffer plan, never the schedule.
	at := make([]int, size+1)
	e2e, equal, start, next := true, true, 0, -1
	for r, n := range rcounts {
		at[r+1] = at[r] + n*sz
		equal = equal && n == rcounts[0]
		if n > 0 {
			if next < 0 {
				start = displs[r]
			}
			e2e = e2e && (next < 0 || displs[r] == next)
			next = displs[r] + n
		}
	}
	total := at[size]
	// Equal non-empty blocks — what the fixed-count Allgather passes — a
	// comm spanning locality groups batches through its group leaders so
	// each block crosses the expensive links once (hier.go). The counts
	// decide, which every member agrees on; displs shape only the buffer.
	if equal && total > 0 && c.collHier() {
		return c.ihallgather(name, tag, sbuf, soff, scount, sdt, rbuf, roff, rcounts[0], displs, rdt)
	}
	// The schedule follows from what every member agrees on, the size and
	// the blocks' byte lengths: recursive doubling on a power-of-two
	// communicator, the ring otherwise.
	doubling := size&(size-1) == 0
	// The buffer plan. A raw receive layout is the working vector itself:
	// every block lands in place at its displacement and this rank's
	// contribution packs into its own slot — end to end through one window
	// of rbuf, else, on the ring, through one window per block. Doubling
	// moves runs of adjacent blocks, so a scattered layout stages for it, as
	// does a layout that refuses a window or a datatype that has none: the
	// blocks lie end to end in one vector, unpacked into rbuf at finish.
	bound := func(i int) int { return at[i] }
	slots := make([][]byte, size)
	var acc []byte
	raw := total > 0
	switch {
	case !raw:
	case e2e:
		acc = vWindow(rdt, rbuf, roff+start*ext, total/sz)
		raw = acc != nil
	case doubling:
		raw = false
	default:
		for r, n := range rcounts {
			if n > 0 {
				slots[r] = vWindow(rdt, rbuf, roff+displs[r]*ext, n)
				raw = raw && slots[r] != nil
			}
		}
	}
	var finish func() error
	if !raw {
		acc = make([]byte, total)
		finish = func() error {
			for r, n := range rcounts {
				if n == 0 {
					continue // empty blocks are exempt from their displacements
				}
				if _, err := rdt.Unpack(slots[r], rbuf, roff+displs[r]*ext, n); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if acc != nil {
		for r := range slots {
			slots[r] = span(acc, bound, r, 1)
		}
	}
	own := slots[c.rank]
	repack := func() error {
		if scount == 0 && len(own) == 0 {
			return nil // an empty block is exempt from its offset
		}
		return packIntoWindow(own, sdt, sbuf, soff, scount)
	}
	if err := repack(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	alg := "ring"
	var rounds []round
	if doubling {
		alg = "recursive-doubling"
		rounds = doublingRounds(c, bound, acc)
	} else {
		rounds = ringGatherRounds(c, c.rank, func(r int) []byte { return slots[r] })
	}
	req, err := c.newCollRequestAlg(name, tag, alg, rounds, finish)
	if err == nil {
		// Cacheable: the rounds hold the receive buffer's windows or the
		// staging vector, which every run refills; reset re-packs this
		// rank's block.
		req.cacheable = true
		req.reset = repack
	}
	return req, err
}

// iallgathervLinear compiles the allgather of variable-size blocks: one
// linear exchange, every transfer in one round. This rank's block packs into
// a cell — at build and, on a cached reactivation, in reset — goes to every
// peer and unpacks into its own slot at finish; both ends skip an empty block
// from the shared counts.
func (c *Comm) iallgathervLinear(name string, tag int, sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff int, rcounts, displs []int, rdt Datatype) (*CollRequest, error) {
	mine := &cell{}
	pack := func() (err error) {
		mine.b, err = packExact(sdt, sbuf, soff, scount)
		return err
	}
	if err := pack(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	unpack := func(r int, got []byte) error {
		if rcounts[r] == 0 {
			return nil // empty blocks are exempt from their displacements
		}
		_, err := rdt.Unpack(got, rbuf, roff+displs[r]*rdt.Extent(), rcounts[r])
		return err
	}
	var rd round
	for r := range rcounts {
		if r == c.rank {
			continue
		}
		if rcounts[r] > 0 {
			rd.recvs = append(rd.recvs, recvStep{from: r, on: func(got []byte) error { return unpack(r, got) }})
		}
		if rcounts[c.rank] > 0 {
			rd.sends = append(rd.sends, sendStep{to: r, data: func() []byte { return mine.b }})
		}
	}
	var rounds []round
	if len(rd.recvs)+len(rd.sends) > 0 {
		rounds = []round{rd}
	}
	req, err := c.newCollRequestAlg(name, tag, "linear", rounds, func() error { return unpack(c.rank, mine.b) })
	if err == nil {
		// Cacheable: the sends read the cell at post time and reset repacks
		// it into a fresh slice, so bytes still in flight are never
		// rewritten.
		req.cacheable = true
		req.reset = pack
	}
	return req, err
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
	var repacks []func() error
	for r := 0; r < size; r++ {
		if r == c.rank || scounts[r] == 0 {
			continue
		}
		ss, repack, err := vSendStep(r, sdt, sbuf, soff+sdispls[r]*sext, scounts[r])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rd.sends = append(rd.sends, ss)
		repacks = append(repacks, repack)
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
	return cacheable(req, err, repacks...)
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
