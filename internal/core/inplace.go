package core

// inPlaceMark is the unexported type behind the InPlace sentinel; the
// pointer identity (not the type) is what the collectives test for, so a
// user cannot forge the sentinel by constructing a value of some other
// type.
type inPlaceMark struct{}

// InPlace is the MPI_IN_PLACE sentinel. Passed as the SEND buffer of a
// collective that supports it, the rank's contribution is taken from the
// place in the receive buffer where its result belongs, and no separate
// send buffer is touched:
//
//   - Allgather / Iallgather / CommitAllgather: the contribution is the
//     rank's own block, rcount elements at roff+rank*rcount*extent of
//     rbuf, and the soff, scount and sdt arguments are ignored;
//   - Allgatherv / Iallgatherv / CommitAllgatherv: likewise, the block
//     being rcounts[rank] elements at roff+displs[rank]*extent;
//   - Allreduce / Iallreduce / CommitAllreduce: the contribution is the
//     count elements at roff of rbuf, which the result overwrites;
//   - ReduceScatter / IreduceScatter: the full sum(rcounts)-element input
//     vector is read from rbuf at roff, and the rank's result chunk
//     overwrites the head of that region, as in MPI.
//
// Passing InPlace as a RECEIVE buffer is an ErrBuffer error.
var InPlace any = &inPlaceMark{}

// isInPlace reports whether buf is the InPlace sentinel.
func isInPlace(buf any) bool {
	p, ok := buf.(*inPlaceMark)
	return ok && p == InPlace
}
