package mpj

// The typed API: generic free functions over *Comm, the recommended way to
// write new MPJ programs. Where the classic (Java-shaped) surface takes a
// `(buf any, off, count int, dt Datatype, ...)` tuple, the typed surface
// takes a plain Go slice:
//
//	// classic                                       // typed
//	w.Send(buf, 0, len(buf), mpj.DOUBLE, dst, tag)   mpj.Send(w, buf, dst, tag)
//	w.Allreduce(in, 0, out, 0, n, mpj.LONG, mpj.SUM) mpj.Allreduce(w, in, out, mpj.Sum[int64]())
//
// The element type selects the datatype at compile time (see Scalar), so a
// mismatched buffer/datatype pair — a runtime error on the classic surface
// — cannot be written, and reduction operations are checked against the
// element type too (mpj.Sum[bool] does not compile). Offsets are expressed
// by slicing: `mpj.Irecv(w, cur[:n], up, tag)` receives into the first n
// elements. Both surfaces are interoperable — they share the datatype
// layer, the wire encoding and the communicator — and the typed functions
// additionally skip the per-call interface boxing and, for raw-layout
// element types, move slices with single memmoves straight into (out of)
// pooled wire frames.
//
// These are free functions because Go methods cannot take type parameters.

import (
	"fmt"

	"mpj/internal/core"
)

// Constraints, re-exported from the implementation.
type (
	// Scalar is the constraint satisfied by element types the typed API
	// can transmit: bool, byte, int16, int32 (rune), int64, int, float32,
	// float64, and the MaxLoc/MinLoc pair types DoubleInt/IntInt/FloatInt.
	Scalar = core.Scalar
	// Number constrains the arithmetic reductions (Sum, Prod, Max, Min).
	Number = core.Number
	// Integer constrains the bitwise reductions (BAnd, BOr, BXor).
	Integer = core.Integer
	// Pair constrains the MaxLoc/MinLoc reductions.
	Pair = core.Pair
)

// DatatypeOf returns the Datatype describing []T buffers, for mixing the
// typed API with the classic surface (e.g. a typed send matched by a
// classic receive, or the persistent Commit* collectives, which take the
// classic argument shape).
func DatatypeOf[T Scalar]() Datatype { return core.DatatypeFor[T]() }

// ---------------------------------------------------------------------
// Point-to-point.
// ---------------------------------------------------------------------

// Send performs a blocking standard-mode send of buf to rank dst — the
// typed MPI_Send. The whole slice is sent; use a subslice for offsets.
func Send[T Scalar](c *Comm, buf []T, dst, tag int) error {
	return core.TypedSend(c, buf, dst, tag)
}

// Recv performs a blocking receive of up to len(buf) elements from rank
// src (or AnySource) — the typed MPI_Recv.
func Recv[T Scalar](c *Comm, buf []T, src, tag int) (*Status, error) {
	return core.TypedRecv(c, buf, src, tag)
}

// Isend starts a standard-mode non-blocking send of buf — the typed
// MPI_Isend. The returned Request completes once buf is reusable.
func Isend[T Scalar](c *Comm, buf []T, dst, tag int) (*Request, error) {
	return core.TypedIsend(c, buf, dst, tag)
}

// Irecv starts a non-blocking receive into buf — the typed MPI_Irecv. buf
// must not be read until the request completes.
func Irecv[T Scalar](c *Comm, buf []T, src, tag int) (*Request, error) {
	return core.TypedIrecv(c, buf, src, tag)
}

// Sendrecv sends sbuf to dst and concurrently receives into rbuf from src
// (or AnySource) — the typed MPI_Sendrecv, safe against the exchange
// deadlock of two blocking sends meeting head-on. The send and receive
// element types may differ; the returned status describes the receive.
// The ring schedules use the same paired Isend/Irecv internally;
// this is the surface form for halo exchanges and neighbour shifts.
func Sendrecv[S, R Scalar](c *Comm, sbuf []S, dst, stag int, rbuf []R, src, rtag int) (*Status, error) {
	return core.TypedSendrecv(c, sbuf, dst, stag, rbuf, src, rtag)
}

// SendInit creates a persistent standard-mode send request over buf — the
// typed MPI_Send_init. Each Start sends the slice's current contents.
func SendInit[T Scalar](c *Comm, buf []T, dst, tag int) (*Prequest, error) {
	return c.SendInit(buf, 0, len(buf), DatatypeOf[T](), dst, tag)
}

// RecvInit creates a persistent receive request over buf — the typed
// MPI_Recv_init.
func RecvInit[T Scalar](c *Comm, buf []T, src, tag int) (*Prequest, error) {
	return c.RecvInit(buf, 0, len(buf), DatatypeOf[T](), src, tag)
}

// ---------------------------------------------------------------------
// Collectives. All are collective over c: every member must call them
// with consistent lengths, in the same order.
// ---------------------------------------------------------------------

// Bcast broadcasts buf from the root to the same slice on every member —
// the typed MPI_Bcast.
func Bcast[T Scalar](c *Comm, buf []T, root int) error {
	return c.Bcast(buf, 0, len(buf), DatatypeOf[T](), root)
}

// Ibcast starts a non-blocking Bcast.
func Ibcast[T Scalar](c *Comm, buf []T, root int) (*CollRequest, error) {
	return c.Ibcast(buf, 0, len(buf), DatatypeOf[T](), root)
}

// Gather collects every member's sbuf into the root's rbuf, rank r's block
// landing at rbuf[r*len(sbuf):] — the typed MPI_Gather. rbuf must hold
// Size()*len(sbuf) elements on the root and may be nil elsewhere.
func Gather[T Scalar](c *Comm, sbuf, rbuf []T, root int) error {
	dt := DatatypeOf[T]()
	return c.Gather(sbuf, 0, len(sbuf), dt, rbuf, 0, len(sbuf), dt, root)
}

// Igather starts a non-blocking Gather.
func Igather[T Scalar](c *Comm, sbuf, rbuf []T, root int) (*CollRequest, error) {
	dt := DatatypeOf[T]()
	return c.Igather(sbuf, 0, len(sbuf), dt, rbuf, 0, len(sbuf), dt, root)
}

// Scatter distributes len(rbuf) elements per rank from the root's sbuf
// (rank r's block at sbuf[r*len(rbuf):]) into every member's rbuf — the
// typed MPI_Scatter. sbuf must hold Size()*len(rbuf) elements on the root
// and may be nil elsewhere.
func Scatter[T Scalar](c *Comm, sbuf, rbuf []T, root int) error {
	dt := DatatypeOf[T]()
	return c.Scatter(sbuf, 0, len(rbuf), dt, rbuf, 0, len(rbuf), dt, root)
}

// Iscatter starts a non-blocking Scatter.
func Iscatter[T Scalar](c *Comm, sbuf, rbuf []T, root int) (*CollRequest, error) {
	dt := DatatypeOf[T]()
	return c.Iscatter(sbuf, 0, len(rbuf), dt, rbuf, 0, len(rbuf), dt, root)
}

// Allgather gathers every member's sbuf to every member's rbuf — the typed
// MPI_Allgather. rbuf must hold Size()*len(sbuf) elements.
func Allgather[T Scalar](c *Comm, sbuf, rbuf []T) error {
	dt := DatatypeOf[T]()
	return c.Allgather(sbuf, 0, len(sbuf), dt, rbuf, 0, len(sbuf), dt)
}

// Iallgather starts a non-blocking Allgather.
func Iallgather[T Scalar](c *Comm, sbuf, rbuf []T) (*CollRequest, error) {
	dt := DatatypeOf[T]()
	return c.Iallgather(sbuf, 0, len(sbuf), dt, rbuf, 0, len(sbuf), dt)
}

// Alltoall exchanges a distinct len(sbuf)/Size()-element block between
// every pair of members — the typed MPI_Alltoall. len(sbuf) must be a
// multiple of Size(); rbuf must be at least as long as sbuf.
func Alltoall[T Scalar](c *Comm, sbuf, rbuf []T) error {
	bs, err := alltoallBlock(c, len(sbuf))
	if err != nil {
		return err
	}
	dt := DatatypeOf[T]()
	return c.Alltoall(sbuf, 0, bs, dt, rbuf, 0, bs, dt)
}

// Ialltoall starts a non-blocking Alltoall.
func Ialltoall[T Scalar](c *Comm, sbuf, rbuf []T) (*CollRequest, error) {
	bs, err := alltoallBlock(c, len(sbuf))
	if err != nil {
		return nil, err
	}
	dt := DatatypeOf[T]()
	return c.Ialltoall(sbuf, 0, bs, dt, rbuf, 0, bs, dt)
}

// alltoallBlock derives the per-peer block size of an Alltoall from the
// send buffer length.
func alltoallBlock(c *Comm, n int) (int, error) {
	size := c.Size()
	if n%size != 0 {
		return 0, fmt.Errorf("%w: alltoall buffer of %d elements does not divide into %d blocks",
			ErrCount, n, size)
	}
	return n / size, nil
}

// ---------------------------------------------------------------------
// Varying-count (V family) collectives. Per-rank block layouts are
// expressed as count/displacement int slices — the count-slice surface:
// rank r's block holds counts[r] elements and starts at element displs[r]
// of the gathered buffer. A rank's own contribution length comes from its
// slice (len(sbuf) for Gatherv, len(rbuf) for Scatterv), so it cannot
// disagree with the buffer holding it. Layouts are validated before any
// communication: malformed counts report ErrCount, negative, out-of-range
// or overlapping receive displacements report ErrArg.
// ---------------------------------------------------------------------

// Gatherv collects every member's sbuf into the root's rbuf, rank r's
// len(sbuf) elements landing at rbuf[displs[r]:][:rcounts[r]] — the typed
// MPI_Gatherv. rcounts/displs are read on the root only; rbuf may be nil
// elsewhere.
func Gatherv[T Scalar](c *Comm, sbuf, rbuf []T, rcounts, displs []int, root int) error {
	dt := DatatypeOf[T]()
	return c.Gatherv(sbuf, 0, len(sbuf), dt, rbuf, 0, rcounts, displs, dt, root)
}

// Igatherv starts a non-blocking Gatherv.
func Igatherv[T Scalar](c *Comm, sbuf, rbuf []T, rcounts, displs []int, root int) (*CollRequest, error) {
	dt := DatatypeOf[T]()
	return c.Igatherv(sbuf, 0, len(sbuf), dt, rbuf, 0, rcounts, displs, dt, root)
}

// Scatterv distributes varying counts from the root: rank r's rbuf is
// filled from sbuf[displs[r]:][:scounts[r]] — the typed MPI_Scatterv.
// scounts/displs are read on the root only; sbuf may be nil elsewhere.
func Scatterv[T Scalar](c *Comm, sbuf []T, scounts, displs []int, rbuf []T, root int) error {
	dt := DatatypeOf[T]()
	return c.Scatterv(sbuf, 0, scounts, displs, dt, rbuf, 0, len(rbuf), dt, root)
}

// Iscatterv starts a non-blocking Scatterv.
func Iscatterv[T Scalar](c *Comm, sbuf []T, scounts, displs []int, rbuf []T, root int) (*CollRequest, error) {
	dt := DatatypeOf[T]()
	return c.Iscatterv(sbuf, 0, scounts, displs, dt, rbuf, 0, len(rbuf), dt, root)
}

// Allgatherv gathers varying counts to every member: rank r's whole sbuf
// lands at rbuf[displs[r]:][:rcounts[r]] on every member — the typed
// MPI_Allgatherv.
func Allgatherv[T Scalar](c *Comm, sbuf, rbuf []T, rcounts, displs []int) error {
	dt := DatatypeOf[T]()
	return c.Allgatherv(sbuf, 0, len(sbuf), dt, rbuf, 0, rcounts, displs, dt)
}

// Iallgatherv starts a non-blocking Allgatherv.
func Iallgatherv[T Scalar](c *Comm, sbuf, rbuf []T, rcounts, displs []int) (*CollRequest, error) {
	dt := DatatypeOf[T]()
	return c.Iallgatherv(sbuf, 0, len(sbuf), dt, rbuf, 0, rcounts, displs, dt)
}

// Alltoallv exchanges varying counts between every pair of members: the
// block for peer r is sbuf[sdispls[r]:][:scounts[r]], and peer r's block
// lands at rbuf[rdispls[r]:][:rcounts[r]] — the typed MPI_Alltoallv.
func Alltoallv[T Scalar](c *Comm, sbuf []T, scounts, sdispls []int, rbuf []T, rcounts, rdispls []int) error {
	dt := DatatypeOf[T]()
	return c.Alltoallv(sbuf, 0, scounts, sdispls, dt, rbuf, 0, rcounts, rdispls, dt)
}

// Ialltoallv starts a non-blocking Alltoallv.
func Ialltoallv[T Scalar](c *Comm, sbuf []T, scounts, sdispls []int, rbuf []T, rcounts, rdispls []int) (*CollRequest, error) {
	dt := DatatypeOf[T]()
	return c.Ialltoallv(sbuf, 0, scounts, sdispls, dt, rbuf, 0, rcounts, rdispls, dt)
}

// ReduceScatter combines every member's sbuf element-wise with op and
// scatters the result: rank r's rbuf receives the rcounts[r] elements
// starting at element sum(rcounts[:r]) of the combination — the typed
// MPI_Reduce_scatter. len(sbuf) must equal sum(rcounts) and len(rbuf)
// must hold rcounts[r] elements.
func ReduceScatter[T Scalar](c *Comm, sbuf, rbuf []T, rcounts []int, op ReduceOp[T]) error {
	return c.ReduceScatter(sbuf, 0, rbuf, 0, rcounts, DatatypeOf[T](), op.op)
}

// IreduceScatter starts a non-blocking ReduceScatter.
func IreduceScatter[T Scalar](c *Comm, sbuf, rbuf []T, rcounts []int, op ReduceOp[T]) (*CollRequest, error) {
	return c.IreduceScatter(sbuf, 0, rbuf, 0, rcounts, DatatypeOf[T](), op.op)
}

// Reduce combines every member's sbuf element-wise with op, leaving the
// result in the root's rbuf — the typed MPI_Reduce. rbuf must be as long
// as sbuf on the root and may be nil elsewhere.
func Reduce[T Scalar](c *Comm, sbuf, rbuf []T, op ReduceOp[T], root int) error {
	return c.Reduce(sbuf, 0, rbuf, 0, len(sbuf), DatatypeOf[T](), op.op, root)
}

// Ireduce starts a non-blocking Reduce.
func Ireduce[T Scalar](c *Comm, sbuf, rbuf []T, op ReduceOp[T], root int) (*CollRequest, error) {
	return c.Ireduce(sbuf, 0, rbuf, 0, len(sbuf), DatatypeOf[T](), op.op, root)
}

// Allreduce combines every member's sbuf element-wise with op, leaving the
// result in every member's rbuf — the typed MPI_Allreduce. sbuf is only
// read, and lent to the transport for the duration of the call; the two
// slices may overlap, which costs a copy of the vector.
func Allreduce[T Scalar](c *Comm, sbuf, rbuf []T, op ReduceOp[T]) error {
	return c.Allreduce(sbuf, 0, rbuf, 0, len(sbuf), DatatypeOf[T](), op.op)
}

// Iallreduce starts a non-blocking Allreduce.
func Iallreduce[T Scalar](c *Comm, sbuf, rbuf []T, op ReduceOp[T]) (*CollRequest, error) {
	return c.Iallreduce(sbuf, 0, rbuf, 0, len(sbuf), DatatypeOf[T](), op.op)
}

// Scan computes the inclusive prefix reduction: rank r's rbuf receives the
// combination of the sbuf contributions of ranks 0..r — the typed
// MPI_Scan.
func Scan[T Scalar](c *Comm, sbuf, rbuf []T, op ReduceOp[T]) error {
	return c.Scan(sbuf, 0, rbuf, 0, len(sbuf), DatatypeOf[T](), op.op)
}

// Iscan starts a non-blocking Scan.
func Iscan[T Scalar](c *Comm, sbuf, rbuf []T, op ReduceOp[T]) (*CollRequest, error) {
	return c.Iscan(sbuf, 0, rbuf, 0, len(sbuf), DatatypeOf[T](), op.op)
}

// ---------------------------------------------------------------------
// One-sided communication. The window element type is fixed at WinCreate
// (from the registered slice); these wrappers transmit whole slices with
// the matching datatype inferred from T.
// ---------------------------------------------------------------------

// PutT writes buf into target's window at element displacement tdisp —
// the typed Win.Put. A primitive slice is copied straight out of its own
// memory: no boxing, no allocation.
func PutT[T Scalar](w *Win, buf []T, target, tdisp int) error {
	return core.TypedPut(w, buf, target, tdisp)
}

// GetT reads len(buf) elements from target's window at element
// displacement tdisp into buf — the typed Win.Get. For remote targets the
// data is valid after the epoch closes (Fence, or Unlock of a lock on
// target).
func GetT[T Scalar](w *Win, buf []T, target, tdisp int) error {
	return w.Get(buf, 0, len(buf), DatatypeOf[T](), target, tdisp)
}

// AccumulateT combines buf element-wise into target's window at element
// displacement tdisp with the predefined reduction op — the typed
// Win.Accumulate.
func AccumulateT[T Scalar](w *Win, buf []T, target, tdisp int, op ReduceOp[T]) error {
	return w.Accumulate(buf, 0, len(buf), DatatypeOf[T](), target, tdisp, op.op)
}

// FetchAndOpT atomically combines origin into target's window element at
// displacement tdisp with op and returns the element's prior value — the
// typed Win.FetchAndOp. For remote targets the returned pointer's value
// is valid after the epoch closes (Fence, or Unlock of a lock on target).
func FetchAndOpT[T Scalar](w *Win, origin T, target, tdisp int, op ReduceOp[T]) (*T, error) {
	result := make([]T, 1)
	if err := w.FetchAndOp([]T{origin}, 0, result, 0, DatatypeOf[T](), target, tdisp, op.op); err != nil {
		return nil, err
	}
	return &result[0], nil
}

// CompareAndSwapT atomically compares target's window element at
// displacement tdisp with compare, stores origin there on a match, and
// returns the element's prior value — the typed Win.CompareAndSwap. The
// swap happened iff the returned prior value equals compare; for remote
// targets the value is valid after the epoch closes.
func CompareAndSwapT[T Scalar](w *Win, origin, compare T, target, tdisp int) (*T, error) {
	result := make([]T, 1)
	if err := w.CompareAndSwap([]T{origin}, 0, []T{compare}, 0, result, 0, DatatypeOf[T](), target, tdisp); err != nil {
		return nil, err
	}
	return &result[0], nil
}

// ---------------------------------------------------------------------
// Reduction operations. A ReduceOp[T] carries both the operation and the
// element type it applies to, so an op/buffer mismatch cannot compile.
// ---------------------------------------------------------------------

// ReduceOp is a reduction operation bound to element type T.
type ReduceOp[T Scalar] struct{ op *Op }

// Op exposes the untyped operation, for mixing with the classic surface.
func (o ReduceOp[T]) Op() *Op { return o.op }

// OpFor wraps an untyped operation (a predefined one or a NewOp result)
// for use with []T buffers. Type compatibility is checked at run time, as
// on the classic surface.
func OpFor[T Scalar](op *Op) ReduceOp[T] { return ReduceOp[T]{op} }

// Sum is the element-wise sum reduction — MPJ.SUM.
func Sum[T Number]() ReduceOp[T] { return ReduceOp[T]{core.SumOp} }

// Prod is the element-wise product reduction — MPJ.PROD.
func Prod[T Number]() ReduceOp[T] { return ReduceOp[T]{core.ProdOp} }

// Max is the element-wise maximum reduction — MPJ.MAX.
func Max[T Number]() ReduceOp[T] { return ReduceOp[T]{core.MaxOp} }

// Min is the element-wise minimum reduction — MPJ.MIN.
func Min[T Number]() ReduceOp[T] { return ReduceOp[T]{core.MinOp} }

// LAnd is the element-wise logical AND — MPJ.LAND.
func LAnd() ReduceOp[bool] { return ReduceOp[bool]{core.LAndOp} }

// LOr is the element-wise logical OR — MPJ.LOR.
func LOr() ReduceOp[bool] { return ReduceOp[bool]{core.LOrOp} }

// LXor is the element-wise logical XOR — MPJ.LXOR.
func LXor() ReduceOp[bool] { return ReduceOp[bool]{core.LXorOp} }

// BAnd is the element-wise bitwise AND — MPJ.BAND.
func BAnd[T Integer]() ReduceOp[T] { return ReduceOp[T]{core.BAndOp} }

// BOr is the element-wise bitwise OR — MPJ.BOR.
func BOr[T Integer]() ReduceOp[T] { return ReduceOp[T]{core.BOrOp} }

// BXor is the element-wise bitwise XOR — MPJ.BXOR.
func BXor[T Integer]() ReduceOp[T] { return ReduceOp[T]{core.BXorOp} }

// MaxLoc is the maximum-with-index reduction over pair data — MPJ.MAXLOC.
func MaxLoc[T Pair]() ReduceOp[T] { return ReduceOp[T]{core.MaxLocOp} }

// MinLoc is the minimum-with-index reduction over pair data — MPJ.MINLOC.
func MinLoc[T Pair]() ReduceOp[T] { return ReduceOp[T]{core.MinLocOp} }

// OpOf builds a reduction from a typed binary function, usable with []T
// buffers — the typed MPI_Op_create. f must be associative; the library
// additionally assumes commutativity when shaping reduction trees.
func OpOf[T Scalar](f func(a, b T) T) ReduceOp[T] {
	return ReduceOp[T]{core.OpFromFunc("mpj.typed.user", f)}
}
