package core

import (
	"fmt"

	"mpj/internal/wire"
)

// This file implements the non-blocking fixed-count collectives —
// Ibarrier, Ibcast, Igather, Iscatter, Iallgather, Ireduce, Iallreduce,
// Ialltoall, Iscan — as schedule builders for the engine in sched.go (the
// varying-count family lives in ivcoll.go, the persistent Commit* forms
// in pcoll.go). Each builder compiles the same algorithm the blocking
// form uses (dissemination barrier, binomial trees, recursive doubling;
// the reduce-scatter + allgather halves of the large vector family — see
// collalg.go for how the algorithm is chosen; Iscatter, Iallgather,
// Ialltoall and Igather's variable-size blocks compile as their V forms
// over the uniform layout) into per-rank rounds; the blocking collectives
// in coll.go call the same builders and Wait immediately, so there is
// exactly one algorithm source. Builders take their schedule tag as a parameter: the I* entry
// points draw a fresh one per call, the persistent forms re-use the tag
// reserved at Commit time.

// ---------------------------------------------------------------------
// Round builders, one per algorithm. The tree and dissemination
// primitives (*RoundsIn) compile over a member list in comm-rank space,
// identical on every participating rank;
// ranks outside it compile zero rounds, rootIdx indexes the list. The
// whole communicator is the identity list (Comm.members); the two-level
// schedules of hier.go pass a locality group or the group leaders.
// ---------------------------------------------------------------------

// memberIdx returns rank's position in members, or -1.
func memberIdx(members []int, rank int) int {
	if rank < len(members) && members[rank] == rank {
		return rank // the identity list, without the scan
	}
	for i, r := range members {
		if r == rank {
			return i
		}
	}
	return -1
}

// binomialEdges returns this rank's edges in the binomial broadcast tree
// over members rooted at members[rootIdx]: its parent (-1 on the root and
// on ranks outside members) and its children, farthest subtree first.
func binomialEdges(c *Comm, members []int, rootIdx int) (parent int, children []int) {
	n := len(members)
	me := memberIdx(members, c.rank)
	if me < 0 {
		return -1, nil
	}
	vrank := (me - rootIdx + n) % n
	parent = -1
	lb := pow2ceil(n)
	if vrank != 0 {
		lb = lowbit(vrank)
		parent = members[(vrank-lb+rootIdx)%n]
	}
	for m := lb >> 1; m > 0; m >>= 1 {
		if vrank+m < n {
			children = append(children, members[(vrank+m+rootIdx)%n])
		}
	}
	return parent, children
}

// barrierRoundsIn compiles the dissemination barrier over members:
// ceil(log2 n) rounds of pairwise empty-message exchange.
func barrierRoundsIn(c *Comm, members []int) []round {
	n := len(members)
	me := memberIdx(members, c.rank)
	if me < 0 {
		return nil
	}
	var rs []round
	for k := 1; k < n; k <<= 1 {
		dst := members[(me+k)%n]
		src := members[(me-k+n)%n]
		rs = append(rs, round{
			recvs: []recvStep{{from: src}},
			sends: []sendStep{{to: dst, data: func() []byte { return nil }}},
		})
	}
	return rs
}

// bcastRoundsIn compiles the binomial-tree broadcast of cl over members.
// On the root, cl must already hold the packed payload; on every other
// rank the first round brings it in from the tree parent — adopted by a
// plain cell, landing in place in a fixed one, whose length every member
// must agree on — and one further round forwards it to all binomial
// children at once. The sends of a fixed cell lend it: nothing writes it
// after its receive lands (the root only sends, a forwarder sends only
// after its one receive).
func bcastRoundsIn(c *Comm, members []int, cl *cell, rootIdx int) []round {
	parent, children := binomialEdges(c, members, rootIdx)
	var rs []round
	if parent >= 0 {
		rs = append(rs, round{recvs: []recvStep{cl.recvFrom(parent)}})
	}
	if len(children) > 0 {
		var rd round
		for _, ch := range children {
			rd.sends = append(rd.sends, sendStep{to: ch, data: func() []byte { return cl.b }, lend: cl.fixed})
		}
		rs = append(rs, rd)
	}
	return rs
}

// gatherRounds compiles the binomial-tree gather for fixed-size blocks of
// bs bytes. acc starts as this rank's own block and accumulates the
// blocks of vranks [vrank, vrank+2^k) round by round; a non-zero vrank
// finishes by sending its accumulated range to the tree parent, the root
// ends up holding all size blocks in vrank order.
func gatherRounds(c *Comm, acc *cell, bs, root int) []round {
	size := c.Size()
	vrank := (c.rank - root + size) % size
	var rs []round
	for mask := 1; mask < size; mask <<= 1 {
		if vrank&mask != 0 {
			parent := (vrank - mask + root) % size
			rs = append(rs, round{sends: []sendStep{{to: parent, data: func() []byte { return acc.b }}}})
			return rs
		}
		srcV := vrank | mask
		if srcV >= size {
			continue
		}
		wantBlocks := min(srcV+mask, size) - srcV
		rs = append(rs, round{recvs: []recvStep{{
			from: (srcV + root) % size,
			on: func(got []byte) error {
				if len(got) != wantBlocks*bs {
					return fmt.Errorf("%w: got %d bytes from vrank %d, want %d",
						ErrOther, len(got), srcV, wantBlocks*bs)
				}
				need := (srcV - vrank + wantBlocks) * bs
				for len(acc.b) < need {
					acc.b = append(acc.b, make([]byte, need-len(acc.b))...)
				}
				copy(acc.b[(srcV-vrank)*bs:], got)
				return nil
			},
		}}})
	}
	return rs
}

// The large vector family is a reduce-scatter half and an allgather half over
// the working vector acc, cut into one chunk per rank at the byte offsets
// bound(0) … bound(p), each half compiled in one of two exchange patterns:
// recursive halving (halvingRounds) and doubling (doublingRounds) when the
// communicator size is a power of two, the ring (ringFoldRounds,
// ringGatherRounds) for every other size. Three callers: the large allreduce
// (iallreduceRing) runs both halves of one pattern over even cuts,
// 2·len(acc)·(p-1)/p bytes through every rank whatever p is; the large
// ReduceScatter (ireduceScatter) runs the fold half alone over the cuts of
// its receive counts; every fixed-size flat allgather (iallgatherv) runs the
// gather half alone over its blocks — doubling at a power-of-two size, the
// ring over the blocks wherever they lie otherwise.
//
// own is where the rank's contribution lives, acc the working vector the
// result assembles in; own is either acc itself (the contribution was copied
// or packed into it) or memory disjoint from it (a raw window of the caller's
// send buffer). A fold arrival is the peers' partial for a range the rank
// reduces further. While the rank's share of that range is still pristine in
// own, outside acc, the arrival lands directly in acc and own's range folds
// into it (ops are commutative, op.go); once the rank's partial lives in acc
// the arrival is staged through scratch and folds into acc. A fold half takes
// scratch from the wire pool when, and as large as, its staging needs and
// returns it for the caller to recycle at finish. Nothing ever writes own.
//
// Every step is one round moving its range whole: a round ends only when its
// send and its folded receive are both done, so pieces of a step could not
// overlap and would each pay the handshake again. Every send lends its range
// (sendStep.lend); each half says why its rounds write none of what they
// lend, and lendCheck (schedshape_test.go) checks it.

// span returns chunks [lo, lo+n) of vec under the cuts bound.
func span(vec []byte, bound func(int) int, lo, n int) []byte { return vec[bound(lo):bound(lo+n)] }

// ringChunk returns chunk i of vec under the cuts bound, i taken mod size.
func ringChunk(vec []byte, bound func(int) int, size, i int) []byte {
	return span(vec, bound, (i%size+size)%size, 1)
}

// exchange appends one step of a half: send goes to the rank `to`, lent, and
// the range arriving from the rank `from` lands in land, then fold (if any)
// runs. An empty range is no message on either side — both ends derive it
// from the same cuts — and a step left with nothing to move is no round.
func exchange(rs []round, from, to int, send, land []byte, fold func([]byte) error) []round {
	var rd round
	if len(land) > 0 {
		rd.recvs = []recvStep{{from: from, buf: land, on: fold}}
	}
	if len(send) > 0 {
		rd.sends = []sendStep{{to: to, data: func() []byte { return send }, lend: true}}
	}
	if len(rd.recvs)+len(rd.sends) == 0 {
		return rs
	}
	return append(rs, rd)
}

// foldStep appends one reduce-scatter step: the partial arriving for the
// range dst of acc is combined with this rank's share of it — mine, which is
// dst itself once the rank's partial lives in acc.
func foldStep(rs []round, from, to int, send, mine, dst []byte, stage func(n int) []byte, comb combiner) []round {
	land, in := dst, mine // the arrival lands in place, my share folds into it
	if overlaps(mine, dst) {
		land = stage(len(dst)) // my partial is in place, the arrival folds into it
		in = land
	}
	return exchange(rs, from, to, send, land, func([]byte) error { return comb(in, dst) })
}

// ringFoldRounds compiles the ring's reduce-scatter half: p-1 steps; in step
// s every rank sends its partial of chunk held-1-s right and combines the
// arriving partial of chunk held-2-s with its own, which leaves it holding
// the complete reduction of chunk held. Every arriving partial is for a chunk
// the rank has not touched yet, so with own outside acc no step stages.
//
// Lend proof: step s lends chunk held-1-s — of own in step 0, of acc after —
// while the round writes only scratch and chunk held-2-s of acc (p ≥ 2).
func ringFoldRounds(c *Comm, bound func(int) int, held int, own, acc []byte, comb combiner) (rs []round, scratch []byte) {
	size := c.Size()
	stage := func(n int) []byte {
		if scratch == nil {
			big := 0 // the largest chunk
			for i := 0; i < size; i++ {
				big = max(big, bound(i+1)-bound(i))
			}
			scratch = wire.GetBuf(big)
		}
		return scratch[:n]
	}
	right := (c.rank + 1) % size
	left := (c.rank - 1 + size) % size
	partial := own // where the chunk a step sends lives: pristine in step 0
	for s := 0; s < size-1; s++ {
		rs = foldStep(rs, left, right, ringChunk(partial, bound, size, held-1-s),
			ringChunk(own, bound, size, held-2-s), ringChunk(acc, bound, size, held-2-s), stage, comb)
		partial = acc
	}
	return rs, scratch
}

// ringGatherRounds compiles the ring's allgather half over the chunks
// chunk(0) … chunk(p-1), indices taken mod p, which need not be adjacent
// but must be disjoint: the rank enters holding chunk held, and in step s
// sends chunk held-s right while chunk held-s-1 lands from the left in its
// final place — a different chunk, so nothing lent is written.
func ringGatherRounds(c *Comm, held int, chunk func(int) []byte) (rs []round) {
	size := c.Size()
	at := func(i int) []byte { return chunk((i%size + size) % size) }
	for s := 0; s < size-1; s++ {
		rs = exchange(rs, (c.rank-1+size)%size, (c.rank+1)%size, at(held-s), at(held-s-1), nil)
	}
	return rs
}

// halvingRounds compiles the power-of-two reduce-scatter half: recursive
// halving, distance p/2 … 1 — of the chunk range it still reduces a rank
// keeps the half whose index bit matches its own, sends the partner its
// partial of the other half and combines the partner's partial of the kept
// half with its own — leaves rank r holding the complete reduction of chunk
// r in log₂p rounds and messages, for the ring's bytes. Only the first step
// meets a range the rank has not touched: with own outside acc it folds in
// place and the scratch holds the second step's arrival, a quarter of the
// vector, instead of the first's half.
//
// Lend proof: a step lends the half it gives away — of own in the first
// step, of acc after — while the round writes only scratch and the kept half
// of acc.
func halvingRounds(c *Comm, bound func(int) int, own, acc []byte, comb combiner) (rs []round, scratch []byte) {
	stage := func(n int) []byte {
		if scratch == nil {
			scratch = wire.GetBuf(n) // the first staged range; the later ones are parts of it
		}
		return scratch[:n]
	}
	lo := 0        // the rank holds chunks [lo, lo+d) after the step at distance d
	partial := own // where the rank's partial of those chunks lives
	for d := c.Size() / 2; d >= 1; d >>= 1 {
		keep, give := lo, lo+d
		if c.rank&d != 0 {
			keep, give = give, keep
		}
		peer := c.rank ^ d
		rs = foldStep(rs, peer, peer, span(partial, bound, give, d),
			span(partial, bound, keep, d), span(acc, bound, keep, d), stage, comb)
		lo, partial = keep, acc
	}
	return rs, scratch
}

// doublingRounds compiles the power-of-two allgather half: the rank enters
// holding chunk rank, and recursive doubling, distance 1 … p/2, hands the
// reduced ranges back in log₂p rounds and messages, each step lending the
// range the rank holds and landing the partner's beside it.
func doublingRounds(c *Comm, bound func(int) int, acc []byte) (rs []round) {
	lo := c.rank // the rank holds chunks [lo, lo+d) before the step at distance d
	for d := 1; d < c.Size(); d <<= 1 {
		rs = exchange(rs, c.rank^d, c.rank^d, span(acc, bound, lo, d), span(acc, bound, lo^d, d), nil)
		lo &^= d
	}
	return rs
}

// reduceRoundsIn compiles the binomial-tree reduction over members toward
// members[rootIdx]: acc starts as this rank's packed contribution; child
// contributions are folded in with comb round by round, and a non-zero
// vrank finishes by sending its partial result to the tree parent.
// Afterwards the root's acc holds the full reduction.
func reduceRoundsIn(c *Comm, members []int, acc *cell, comb combiner, rootIdx int) []round {
	n := len(members)
	me := memberIdx(members, c.rank)
	if me < 0 {
		return nil
	}
	vrank := (me - rootIdx + n) % n
	var rs []round
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			parent := members[(vrank-mask+rootIdx)%n]
			rs = append(rs, round{sends: []sendStep{{to: parent, data: func() []byte { return acc.b }}}})
			return rs
		}
		srcV := vrank | mask
		if srcV >= n {
			continue
		}
		rs = append(rs, round{recvs: []recvStep{{
			from: members[(srcV+rootIdx)%n],
			on:   func(got []byte) error { return comb(got, acc.b) },
		}}})
	}
	return rs
}

// rdRoundsIn compiles recursive-doubling allreduce over members
// (power-of-two member counts only): log2 n rounds of pairwise
// exchange-and-combine on acc.
func rdRoundsIn(c *Comm, members []int, acc *cell, comb combiner) []round {
	n := len(members)
	me := memberIdx(members, c.rank)
	if me < 0 {
		return nil
	}
	var rs []round
	for mask := 1; mask < n; mask <<= 1 {
		partner := members[me^mask]
		rs = append(rs, round{
			// The send snapshots acc at post time, before this round's
			// combine mutates it.
			recvs: []recvStep{{from: partner, on: func(got []byte) error { return comb(got, acc.b) }}},
			sends: []sendStep{{to: partner, data: func() []byte { return acc.b }}},
		})
	}
	return rs
}

// ---------------------------------------------------------------------
// The non-blocking collective API. Each I* operation compiles a schedule,
// posts its first round immediately (so communication overlaps the
// caller's compute) and returns a *CollRequest to Wait/Test on. The usual
// collective rules apply: every member must start the same collectives in
// the same order and eventually complete them.
// ---------------------------------------------------------------------

// packedCell packs count elements of dt from buf into a fresh cell — a
// rank's contribution to a gather or a reduction — and returns it with the
// hook that re-packs it from the live buffer: the reset of cached
// persistent schedules, which run it before every reactivation.
func packedCell(dt Datatype, buf any, off, count int) (*cell, func() error, error) {
	cl := &cell{}
	repack := func() (err error) {
		cl.b, err = packExact(dt, buf, off, count)
		return err
	}
	return cl, repack, repack()
}

// uniformLayout returns the counts and displacements of the fixed-count
// layout in varying-count terms: size blocks of count elements laid end to
// end in rank order.
func uniformLayout(size, count int) (counts, displs []int) {
	counts, displs = make([]int, size), make([]int, size)
	for r := range counts {
		counts[r], displs[r] = count, r*count
	}
	return counts, displs
}

// Ibarrier starts a non-blocking barrier — MPI_Ibarrier. The request
// completes once every member has entered the barrier.
func (c *Comm) Ibarrier() (*CollRequest, error) {
	return c.ibarrier("ibarrier", c.nextCollTag())
}

func (c *Comm) ibarrier(name string, tag int) (*CollRequest, error) {
	// On a comm spanning locality groups the two-level barrier crosses
	// the expensive links twice per leader instead of every dissemination
	// round (hier.go).
	if c.collHier() {
		return cacheable(c.newCollRequestAlg(name, tag, "hier", c.ihbarrierRounds(), nil))
	}
	return cacheable(c.newCollRequestAlg(name, tag, "dissemination", barrierRoundsIn(c, c.members()), nil))
}

// Ibcast starts a non-blocking broadcast of count elements of dt from the
// root's buf to every member — MPI_Ibcast: the binomial tree, a fixed-size
// payload landing in place at every size. The buffer must not be touched
// until the request completes: a raw-layout one is lent to the transport.
func (c *Comm) Ibcast(buf any, off, count int, dt Datatype, root int) (*CollRequest, error) {
	return c.ibcast("ibcast", c.nextCollTag(), buf, off, count, dt, root)
}

func (c *Comm) ibcast(name string, tag int, buf any, off, count int, dt Datatype, root int) (*CollRequest, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	// One schedule at every size: the binomial tree, one whole-payload
	// message per edge (ARCHITECTURE "Why broadcast is a tree").
	total := count * dt.ByteSize()
	sized := dt.ByteSize() > 0 && count > 0
	two := sized && c.collHier()
	alg := "binomial"
	if two {
		alg = "hier"
	}
	// The buffer plan. A sized payload lands in a fixed cell every member
	// sizes alike: the user buffer itself for raw-layout datatypes — the
	// root sends straight out of it and every other rank receives straight
	// into it, no packing or staging at all — else one packed buffer the
	// root fills and the others unpack at the end. A variable-size (Object)
	// payload has no length the members agree on: each child adopts the
	// packed message and unpacks it at the end.
	cl := &cell{fixed: sized}
	var finish, reset func() error
	if cl.fixed {
		cl.b = vWindow(dt, buf, off, count)
	}
	if cl.b == nil {
		if cl.fixed {
			cl.b = make([]byte, total)
		}
		if c.rank == root {
			// Cached reactivations re-pack through the same closure.
			reset = func() (err error) {
				if !cl.fixed {
					cl.b, err = packExact(dt, buf, off, count)
					return err
				}
				// In place — cl.b has room for exactly the payload —
				// because a fixed cell's compiled steps may hold it.
				b, err := dt.Pack(cl.b[:0], buf, off, count)
				if err == nil && len(b) != total {
					err = fmt.Errorf("%w: packed %d of %d bytes", ErrCount, len(b), total)
				}
				return err
			}
			if err := reset(); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		} else {
			finish = func() error {
				_, err := dt.Unpack(cl.b, buf, off, count)
				return err
			}
		}
	}
	// The trees compose over the two-level layout: across the effective
	// group leaders, then inside each group (hier.go). A comm that does
	// not span locality groups is one group led by the root, and the
	// first tree is empty.
	h := c.hierFor(c.schedView(two), root)
	rounds := append(bcastRoundsIn(c, h.leaders, cl, h.rootG), bcastRoundsIn(c, h.mine, cl, h.ldrInG)...)
	req, err := c.newCollRequestAlg(name, tag, alg, rounds, finish)
	if err == nil {
		// Cacheable: every send reads cl at post time and every receive
		// refills it; the only build-time state is the root's packed
		// payload, which reset re-derives.
		req.cacheable = true
		req.reset = reset
	}
	return req, err
}

// Igather starts a non-blocking gather of scount elements from every
// member into the root's rbuf — MPI_Igather. Fixed-size blocks ride the
// binomial tree; variable-size (Object) blocks compile as Igatherv's
// uniform layout.
func (c *Comm) Igather(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype, root int) (*CollRequest, error) {
	return c.igather("igather", c.nextCollTag(), sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt, root)
}

func (c *Comm) igather(name string, tag int, sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype, root int) (*CollRequest, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	size := c.Size()
	if sdt.ByteSize() < 0 {
		// Variable-size blocks compile as Igatherv's uniform layout.
		rcounts, displs := uniformLayout(size, rcount)
		return c.igatherv(name, tag, sbuf, soff, scount, sdt, rbuf, roff, rcounts, displs, rdt, root)
	}
	acc, repack, err := packedCell(sdt, sbuf, soff, scount)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	// Fixed-size blocks: binomial tree over vranks.
	bs := len(acc.b)
	var finish func() error
	if c.rank == root {
		finish = func() error {
			if len(acc.b) != size*bs {
				return fmt.Errorf("%w: root assembled %d of %d bytes", ErrOther, len(acc.b), size*bs)
			}
			for v := 0; v < size; v++ {
				r := (v + root) % size
				if _, err := rdt.Unpack(acc.b[v*bs:(v+1)*bs], rbuf, roff+r*rcount*rdt.Extent(), rcount); err != nil {
					return err
				}
			}
			return nil
		}
	}
	req, err := c.newCollRequestAlg(name, tag, "binomial", gatherRounds(c, acc, bs, root), finish)
	if err == nil {
		// Cacheable: the accumulator is the only build-time state; reset
		// restarts it from this rank's freshly packed contribution (the
		// block size bs is invariant for a fixed-size datatype, so the
		// compiled tree geometry stays valid).
		req.cacheable = true
		req.reset = repack
	}
	return req, err
}

// Iscatter starts a non-blocking scatter of scount elements per rank from
// the root's sbuf — MPI_Iscatter. It compiles as Iscatterv's uniform
// layout: one linear round, the root packing each block straight into its
// outgoing frame and raw-layout receive buffers filled in place.
func (c *Comm) Iscatter(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype, root int) (*CollRequest, error) {
	return c.iscatter("iscatter", c.nextCollTag(), sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt, root)
}

func (c *Comm) iscatter(name string, tag int, sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype, root int) (*CollRequest, error) {
	scounts, displs := uniformLayout(c.Size(), scount)
	return c.iscatterv(name, tag, sbuf, soff, scounts, displs, sdt, rbuf, roff, rcount, rdt, root)
}

// Iallgather starts a non-blocking allgather: every member's block ends up
// on every member — MPI_Iallgather. It compiles as Iallgatherv's uniform
// layout: recursive doubling on a power-of-two communicator, the ring
// otherwise, the two-level batch on a comm spanning locality groups, and
// one linear exchange for variable-size blocks.
func (c *Comm) Iallgather(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype) (*CollRequest, error) {
	return c.iallgather("iallgather", c.nextCollTag(), sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt)
}

func (c *Comm) iallgather(name string, tag int, sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype) (*CollRequest, error) {
	rcounts, displs := uniformLayout(c.Size(), rcount)
	return c.iallgatherv(name, tag, sbuf, soff, scount, sdt, rbuf, roff, rcounts, displs, rdt)
}

// Ireduce starts a non-blocking reduction of count elements with op,
// leaving the result in the root's rbuf — MPI_Ireduce.
func (c *Comm) Ireduce(sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op, root int) (*CollRequest, error) {
	return c.ireduce("ireduce", c.nextCollTag(), sbuf, soff, rbuf, roff, count, dt, op, root)
}

func (c *Comm) ireduce(name string, tag int, sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op, root int) (*CollRequest, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	comb, err := op.combinerFor(dt)
	if err != nil {
		return nil, err
	}
	acc, repack, err := packedCell(dt, sbuf, soff, count)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var finish func() error
	if c.rank == root {
		finish = func() error {
			_, err := dt.Unpack(acc.b, rbuf, roff, count)
			return err
		}
	}
	// Binomial reduce inside each locality group toward its effective
	// leader, then across the leaders toward the root, so only one partial
	// per group crosses the expensive links (hier.go). A comm that does
	// not span groups is one group led by the root: the second phase is
	// empty and the first is the classic tree.
	algName := "binomial"
	two := c.collHier()
	if two {
		algName = "hier"
	}
	h := c.hierFor(c.schedView(two), root)
	rounds := append(reduceRoundsIn(c, h.mine, acc, comb, h.ldrInG), reduceRoundsIn(c, h.leaders, acc, comb, h.rootG)...)
	req, err := c.newCollRequestAlg(name, tag, algName, rounds, finish)
	if err == nil {
		// Cacheable: reset restarts the accumulator from this rank's
		// freshly packed contribution before child partials fold in.
		req.cacheable = true
		req.reset = repack
	}
	return req, err
}

// Iallreduce starts a non-blocking allreduce: the combined result lands on
// every member — MPI_Iallreduce. Large fixed-size vectors take the
// bandwidth-optimal family (recursive halving/doubling on a power-of-two
// communicator, the ring otherwise); below the threshold power-of-two sizes
// use recursive doubling and others reduce to rank 0 and broadcast (the same
// automatic choice Allreduce makes; see collalg.go). Large vectors walk
// through the communicator's host area once a blocking Allreduce has set it
// up (hostarea.go). Until the request completes sbuf must not be written —
// the large family lends it to the transport — and rbuf not touched.
func (c *Comm) Iallreduce(sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op) (*CollRequest, error) {
	return c.iallreduce("iallreduce", c.nextCollTag(), c.autoAllreduceAlg(count, dt), formNonBlocking, sbuf, soff, rbuf, roff, count, dt, op)
}

// iallreduce compiles every entry form's allreduce: a walk through the host
// area where form and the arguments let it (iallreduceHost), else alg's
// schedule.
func (c *Comm) iallreduce(name string, tag int, alg allreduceAlg, form collForm, sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op) (*CollRequest, error) {
	size := c.Size()
	if isInPlace(rbuf) {
		return nil, fmt.Errorf("%s: %w: InPlace is only valid as the send buffer", name, ErrBuffer)
	}
	if isInPlace(sbuf) {
		sbuf, soff = rbuf, roff // the contribution is the receive buffer
	}
	comb, err := op.combinerFor(dt)
	if err != nil {
		return nil, err
	}
	if r, err := c.iallreduceHost(name, tag, form, sbuf, soff, rbuf, roff, count, dt, op); r != nil || err != nil {
		return r, err
	}
	if alg == allreduceRing {
		return c.iallreduceRing(name, tag, sbuf, soff, rbuf, roff, count, dt, comb)
	}
	acc, repack, err := packedCell(dt, sbuf, soff, count)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var rounds []round
	var algName string
	switch alg {
	case allreduceRecursiveDoubling:
		if size&(size-1) != 0 {
			return nil, fmt.Errorf("%w: recursive doubling requires power-of-two size, have %d", ErrComm, size)
		}
		rounds = rdRoundsIn(c, c.members(), acc, comb)
		algName = "recursive-doubling"
	case allreduceTreeBcast:
		// Reduce to rank 0, then broadcast: the bcast phase reuses acc —
		// rank 0 enters it holding the full reduction, every other rank's
		// acc is overwritten by its tree parent before it forwards.
		rounds = append(reduceRoundsIn(c, c.members(), acc, comb, 0), bcastRoundsIn(c, c.members(), acc, 0)...)
		algName = "reduce-bcast"
	case allreduceHier:
		if !c.localityView().multi() {
			return nil, fmt.Errorf("%w: hierarchical allreduce requires a comm spanning locality groups", ErrComm)
		}
		rounds = c.ihallreduceRounds(acc, comb)
		algName = "hier"
	default:
		return nil, fmt.Errorf("%w: unknown allreduce algorithm %d", ErrOther, alg)
	}
	finish := func() error {
		_, err := dt.Unpack(acc.b, rbuf, roff, count)
		return err
	}
	req, err := c.newCollRequestAlg(name, tag, algName, rounds, finish)
	if err == nil {
		// Cacheable (the large family is not: its rounds hold windows of
		// the caller's send buffer or of a vector packed from it, and its
		// scratch goes back to the wire pool at finish): reset restarts
		// the accumulator from the current send buffer.
		req.cacheable = true
		req.reset = repack
	}
	return req, err
}

// iallreduceRing compiles the large allreduce (allreduceRing): recursive halving/doubling on a power-of-two communicator, the ring
// on every other size — same bytes, 2·log₂p messages instead of 2(p-1).
//
// The buffer plan. For raw-layout datatypes the receive buffer itself is the
// working vector: the schedule reduces in place in user memory and the final
// unpack disappears. When the send buffer is a raw window too and shares no
// byte with the receive window, it is where the contribution stays — lent to
// the device and folded into the arrivals, never copied (see the builders'
// own/acc contract). Any overlap of the two windows — Allreduce(x, x), or
// buffers shifted against each other — would fold half-reduced data, so the
// contribution is first moved into the working vector with one memmove;
// other fixed-size datatypes pack into a staging vector and unpack at the
// end. Either way own is then acc.
func (c *Comm) iallreduceRing(name string, tag int, sbuf any, soff int, rbuf any, roff, count int, dt Datatype, comb combiner) (*CollRequest, error) {
	elem := dt.Base().ByteSize()
	if elem <= 0 {
		return nil, fmt.Errorf("%s: %w: ring allreduce requires fixed-size elements, have %s", name, ErrType, dt.Name())
	}
	var own, acc []byte
	if win := vWindow(dt, rbuf, roff, count); win != nil {
		own, acc = win, win
		if src := vWindow(dt, sbuf, soff, count); src != nil && !overlaps(src, win) {
			own = src
		} else if err := packIntoWindow(win, dt, sbuf, soff, count); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	packed := acc == nil
	if packed {
		data, err := packExact(dt, sbuf, soff, count)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		own, acc = data, data
	}
	// The two halves of one pattern. The ring's fold half leaves rank r
	// holding chunk r+1, so that step 0 sends the rank's own chunk.
	size, n := c.Size(), len(acc)/elem
	bound := func(i int) int { return i * n / size * elem } // as even as the count allows
	var rounds []round
	var scratch []byte
	alg := "halving-doubling"
	if size&(size-1) == 0 {
		rounds, scratch = halvingRounds(c, bound, own, acc, comb)
		rounds = append(rounds, doublingRounds(c, bound, acc)...)
	} else {
		alg = "ring"
		rounds, scratch = ringFoldRounds(c, bound, c.rank+1, own, acc, comb)
		rounds = append(rounds, ringGatherRounds(c, c.rank+1, func(i int) []byte { return span(acc, bound, i, 1) })...)
	}
	if len(rounds) == 0 {
		copy(acc, own) // no round, no fold: the result is the contribution
	}
	finish := func() (err error) {
		wire.PutBuf(scratch) // nil when nothing was staged: dropped
		if packed {
			_, err = dt.Unpack(acc, rbuf, roff, count)
		}
		return err
	}
	return c.newCollRequestAlg(name, tag, alg, rounds, finish)
}

// Ialltoall starts a non-blocking all-to-all personalized exchange: a
// distinct scount-element block travels between every pair of members —
// MPI_Ialltoall. All transfers run in a single round.
func (c *Comm) Ialltoall(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype) (*CollRequest, error) {
	return c.ialltoall("ialltoall", c.nextCollTag(), sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt)
}

func (c *Comm) ialltoall(name string, tag int, sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype) (*CollRequest, error) {
	// Fixed-size blocks are the uniform layout of the varying-count form
	// and compile through it.
	scounts, sdispls := uniformLayout(c.Size(), scount)
	rcounts, rdispls := uniformLayout(c.Size(), rcount)
	return c.ialltoallv(name, tag, sbuf, soff, scounts, sdispls, sdt, rbuf, roff, rcounts, rdispls, rdt)
}

// Iscan starts a non-blocking inclusive prefix reduction: rank r receives
// the combination of the contributions of ranks 0..r — MPI_Iscan.
// Simultaneous binomial algorithm, ceil(log2 p) rounds.
func (c *Comm) Iscan(sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op) (*CollRequest, error) {
	return c.iscan("iscan", c.nextCollTag(), sbuf, soff, rbuf, roff, count, dt, op)
}

func (c *Comm) iscan(name string, tag int, sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op) (*CollRequest, error) {
	comb, err := op.combinerFor(dt)
	if err != nil {
		return nil, err
	}
	// result accumulates this rank's prefix; partial is the running
	// combination forwarded to higher ranks. Sends snapshot partial at
	// post time — before the same round's receive folds into it — which
	// preserves the simultaneous-binomial invariant that rank r forwards
	// the combination of ranks (r-mask, r].
	result, repack, err := packedCell(dt, sbuf, soff, count)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	partial := &cell{b: append([]byte(nil), result.b...)}
	size := c.Size()
	var rs []round
	for mask := 1; mask < size; mask <<= 1 {
		var rd round
		if src := c.rank - mask; src >= 0 {
			rd.recvs = []recvStep{{from: src, on: func(got []byte) error {
				// Everything received comes from lower ranks: fold it
				// into both the running result and the forwarded partial.
				if err := comb(got, result.b); err != nil {
					return err
				}
				return comb(got, partial.b)
			}}}
		}
		if dst := c.rank + mask; dst < size {
			rd.sends = []sendStep{{to: dst, data: func() []byte { return partial.b }}}
		}
		rs = append(rs, rd)
	}
	finish := func() error {
		_, err := dt.Unpack(result.b, rbuf, roff, count)
		return err
	}
	req, err := c.newCollRequestAlg(name, tag, "simultaneous-binomial", rs, finish)
	if err == nil {
		// Cacheable: reset restarts both running vectors — two distinct
		// buffers, as at build time, since the schedule mutates them
		// independently — from the current send buffer.
		req.cacheable = true
		req.reset = func() error {
			if err := repack(); err != nil {
				return err
			}
			partial.b = append([]byte(nil), result.b...)
			return nil
		}
	}
	return req, err
}
