package core

import (
	"fmt"

	"mpj/internal/device"
)

// allreduceAlg names one allreduce schedule: autoAllreduceAlg picks it for
// Allreduce, Iallreduce and CommitAllreduce, and iallreduce compiles it.
type allreduceAlg int

const (
	// allreduceTreeBcast reduces to rank 0 then broadcasts.
	allreduceTreeBcast allreduceAlg = iota
	// allreduceRecursiveDoubling exchanges whole vectors by recursive
	// doubling (power-of-two communicator sizes only).
	allreduceRecursiveDoubling
	// allreduceRing is the bandwidth-optimal family for large vectors: a
	// reduce-scatter and an allgather of the reduced chunks, ~2·n bytes
	// through each rank regardless of size. It is correct for any
	// communicator size; the size picks the exchange pattern — recursive
	// halving/doubling (2·log₂p messages per rank) on a power of two, the
	// ring the family is named after (2(p-1)) on every other size — and
	// the schedule says which it compiled ("halving-doubling" | "ring").
	// The send buffer is lent to the transport, never copied, unless it
	// overlaps the receive buffer (icoll.go, iallreduceRing).
	allreduceRing
	// allreduceHier reduces inside each locality group, allreduces among
	// the group leaders and broadcasts back — only one partial and one
	// result per group cross the expensive inter-group links (hier.go).
	// Requires a comm spanning ≥2 locality groups.
	allreduceHier
)

// collIsend starts a raw byte send on the collective context. dst is a
// group rank. data is copied before collIsend returns, whichever protocol
// carries it (see collIsendFill) — unless lent (sendStep.lend): then a
// rendezvous send leaves from data itself, the device's to read until the
// request completes.
func (c *Comm) collIsend(data []byte, dst, tag int, lend bool) (*device.Request, error) {
	if !lend {
		return c.collIsendFill(len(data), func(p []byte) error { copy(p, data); return nil }, dst, tag)
	}
	w, err := c.worldRank(dst)
	if err != nil {
		return nil, err
	}
	return c.dev.Isend(data, w, tag, c.coll, device.ModeStandard)
}

// collIsendFill starts a raw byte send on the collective context whose
// n-byte payload is packed directly into the outgoing frame by fill —
// the schedule engine's entry to the frame-filling fast path. It is also
// what makes a schedule send copy-at-post: the device runs fill before
// returning and sends a large payload from its own pooled stash, never
// from the schedule's buffers, so a round's scratch may be rewritten while
// its sends are in flight. Every step but the large vector family's and the
// broadcast tree's takes it: pack-at-post steps have no source buffer, and
// plain cells and raw Alltoallv blocks have no lend proof yet (lendCheck).
func (c *Comm) collIsendFill(n int, fill func([]byte) error, dst, tag int) (*device.Request, error) {
	w, err := c.worldRank(dst)
	if err != nil {
		return nil, err
	}
	return c.dev.IsendFill(n, fill, w, tag, c.coll, device.ModeStandard)
}

// collIrecvInto posts a receive landing directly in buf on the collective
// context (nil buf: allocate on arrival) — the zero-staging entry the
// fixed cells and the large-vector schedules use. src is a group rank.
func (c *Comm) collIrecvInto(buf []byte, src, tag int) (*device.Request, error) {
	w, err := c.worldRank(src)
	if err != nil {
		return nil, err
	}
	return c.dev.Irecv(buf, w, tag, c.coll)
}

// collForm is the entry form a collective was called through; only the
// host area tells the forms apart (iallreduceHost).
type collForm int

const (
	formBlocking    collForm = iota // Allreduce: may set the host area up
	formNonBlocking                 // Iallreduce: rides an area already set up
	formPersistent                  // CommitAllreduce: never rides one (hostarea.go)
)

// runColl completes a compiled collective schedule synchronously — the
// shared tail of every blocking collective: compile the same schedule the
// I* form uses, then Wait.
func runColl(r *CollRequest, err error) error {
	if err != nil {
		return err
	}
	_, err = r.Wait()
	return err
}

// checkRoot validates a root rank argument.
func (c *Comm) checkRoot(root int) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("%w: root %d of %d-process communicator", ErrRank, root, c.Size())
	}
	return nil
}

// Barrier blocks until every member of the communicator has entered it —
// MPI_Barrier. The implementation is the dissemination algorithm:
// ceil(log2 p) rounds of pairwise signalling (the same schedule Ibarrier
// compiles).
func (c *Comm) Barrier() error {
	return runColl(c.ibarrier("barrier", c.nextCollTag()))
}

// lowbit returns the lowest set bit of v (v > 0).
func lowbit(v int) int { return v & (-v) }

// pow2ceil returns the smallest power of two >= n.
func pow2ceil(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Bcast broadcasts count elements of dt from buf at off on the root to the
// same position on every member — MPI_Bcast. Binomial tree: latency grows
// as ceil(log2 p). A fixed-size payload lands in place at every size — in
// the user buffer itself for a raw-layout datatype — and variable-size
// (Object) data is adopted and unpacked by each child (the same schedule
// Ibcast compiles).
func (c *Comm) Bcast(buf any, off, count int, dt Datatype, root int) error {
	return runColl(c.ibcast("bcast", c.nextCollTag(), buf, off, count, dt, root))
}

// Gather collects scount elements of sdt from every member into rbuf on
// the root, rank r's block landing at roff + r*rcount*extent(rdt) —
// MPI_Gather. Fixed-size datatypes ride a binomial tree; variable-size
// (Object) data takes Gatherv's linear schedule over the uniform layout.
func (c *Comm) Gather(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype, root int) error {
	return runColl(c.igather("gather", c.nextCollTag(), sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt, root))
}

// Gatherv collects varying counts: rank r contributes scount elements and
// the root places rcounts[r] elements at roff + displs[r]*extent(rdt) —
// MPI_Gatherv. Linear schedule; raw-layout blocks land in place in the
// root's buffer (the same schedule Igatherv compiles).
func (c *Comm) Gatherv(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff int, rcounts, displs []int, rdt Datatype, root int) error {
	return runColl(c.igatherv("gatherv", c.nextCollTag(), sbuf, soff, scount, sdt, rbuf, roff, rcounts, displs, rdt, root))
}

// Scatter distributes scount elements of sdt per rank from the root's sbuf
// (rank r's block at soff + r*scount*extent) into every member's rbuf —
// MPI_Scatter. It is Scatterv over the uniform layout: one linear round,
// the root packing each block straight into its outgoing frame (the same
// schedule Iscatter compiles).
func (c *Comm) Scatter(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype, root int) error {
	return runColl(c.iscatter("scatter", c.nextCollTag(), sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt, root))
}

// Scatterv distributes varying counts from the root: rank r receives
// scounts[r] elements taken from soff + displs[r]*extent(sdt) —
// MPI_Scatterv. Linear schedule; the root packs each block straight into
// its outgoing frame (the same schedule Iscatterv compiles).
func (c *Comm) Scatterv(sbuf any, soff int, scounts, displs []int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype, root int) error {
	return runColl(c.iscatterv("scatterv", c.nextCollTag(), sbuf, soff, scounts, displs, sdt, rbuf, roff, rcount, rdt, root))
}

// Allgather gathers every member's block to every member — MPI_Allgather.
// Fixed-size datatypes move the blocks in place: recursive doubling on a
// power-of-two communicator (log₂p steps), the ring otherwise (p-1 steps),
// the same bytes either way; Object data uses a linear exchange (the same
// schedule Iallgather compiles).
func (c *Comm) Allgather(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype) error {
	return runColl(c.iallgather("allgather", c.nextCollTag(), sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt))
}

// Allgatherv gathers varying counts to every member — MPI_Allgatherv.
// Fixed-size blocks move between the members' receive buffers by recursive
// doubling on a power-of-two communicator, around the ring otherwise;
// Object data uses a linear exchange (the same schedule Iallgatherv
// compiles).
func (c *Comm) Allgatherv(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff int, rcounts, displs []int, rdt Datatype) error {
	return runColl(c.iallgatherv("allgatherv", c.nextCollTag(), sbuf, soff, scount, sdt, rbuf, roff, rcounts, displs, rdt))
}

// Alltoall exchanges a distinct scount-element block between every pair of
// members — MPI_Alltoall. All sends and receives run in a single schedule
// round (the same schedule Ialltoall compiles).
func (c *Comm) Alltoall(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype) error {
	return runColl(c.ialltoall("alltoall", c.nextCollTag(), sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt))
}

// Alltoallv exchanges varying counts between every pair — MPI_Alltoallv.
// All transfers run in a single schedule round: sends pack straight into
// outgoing frames, raw-layout receives land in place at their
// displacements (the same schedule Ialltoallv compiles).
func (c *Comm) Alltoallv(sbuf any, soff int, scounts, sdispls []int, sdt Datatype,
	rbuf any, roff int, rcounts, rdispls []int, rdt Datatype) error {
	return runColl(c.ialltoallv("alltoallv", c.nextCollTag(), sbuf, soff, scounts, sdispls, sdt, rbuf, roff, rcounts, rdispls, rdt))
}

// Reduce combines count elements of dt from every member's sbuf with op,
// leaving the result in the root's rbuf — MPI_Reduce. Binomial tree; ops
// are assumed commutative and associative, as for predefined MPI ops.
func (c *Comm) Reduce(sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op, root int) error {
	return runColl(c.ireduce("reduce", c.nextCollTag(), sbuf, soff, rbuf, roff, count, dt, op, root))
}

// Allreduce combines every member's data and leaves the result on all
// members — MPI_Allreduce. Large fixed-size vectors take the
// bandwidth-optimal family (reduce-scatter + allgather: recursive
// halving/doubling on a power-of-two communicator, the ring otherwise);
// below the large-message threshold power-of-two sizes use recursive
// doubling and other sizes reduce to rank 0 and broadcast (see collalg.go
// for the selection); among processes of one host they walk through a host
// area the first such call sets up (hostarea.go). sbuf is only read, and
// for the duration of the call it may be lent to the transport; sbuf and
// rbuf may overlap, at the price of one copy of the vector.
func (c *Comm) Allreduce(sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op) error {
	return runColl(c.iallreduce("allreduce", c.nextCollTag(), c.autoAllreduceAlg(count, dt), formBlocking, sbuf, soff, rbuf, roff, count, dt, op))
}

// autoAllreduceAlg is the algorithm selection behind Allreduce, Iallreduce
// and CommitAllreduce: the reduce-scatter + allgather family
// (allreduceRing) for large fixed-size payloads, the two-level
// hierarchical schedule below that on comms spanning locality groups (at
// every size when CollAlgHier is forced), recursive doubling for small
// power-of-two communicators, reduce+broadcast otherwise.
func (c *Comm) autoAllreduceAlg(count int, dt Datatype) allreduceAlg {
	sz := dt.ByteSize()
	sized := sz > 0 && count > 0
	large := sized && c.collLarge(count*sz)
	// Auto keeps large vectors off the two-level schedule: it moves whole
	// vectors through each group's leader while the flat family keeps
	// every rank busy, and on a 2×4 hyb layout it took ×2.96 the flat
	// family's time at 1 MiB and ×4.6 at 4 MiB.
	if sized && c.Size() > 1 && c.collHier() && (!large || c.collAlgChoice() == CollAlgHier) {
		return allreduceHier
	}
	if large {
		return allreduceRing
	}
	if size := c.Size(); size&(size-1) == 0 {
		return allreduceRecursiveDoubling
	}
	return allreduceTreeBcast
}

// ReduceScatter combines every member's data and scatters the result:
// rank r receives rcounts[r] elements of the combined vector —
// MPI_Reduce_scatter. Large payloads run the large allreduce's
// reduce-scatter half with chunks cut on the rcounts boundaries: each rank
// sends n·(p-1)/p bytes, in log₂p messages by recursive halving on a
// power-of-two size and p-1 around the ring otherwise, folding straight out
// of a raw-layout send buffer; small ones reduce to rank 0 and scatter
// linearly (the same schedules IreduceScatter compiles; see collalg.go for
// the selection knobs).
func (c *Comm) ReduceScatter(sbuf any, soff int, rbuf any, roff int, rcounts []int, dt Datatype, op *Op) error {
	return runColl(c.ireduceScatter("reduce_scatter", c.nextCollTag(), sbuf, soff, rbuf, roff, rcounts, dt, op))
}

// Scan computes the inclusive prefix reduction: rank r receives the
// combination of the contributions from ranks 0..r — MPI_Scan.
// Simultaneous binomial algorithm, ceil(log2 p) rounds (the same schedule
// Iscan compiles).
func (c *Comm) Scan(sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op) error {
	return runColl(c.iscan("scan", c.nextCollTag(), sbuf, soff, rbuf, roff, count, dt, op))
}
