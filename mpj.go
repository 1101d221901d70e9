// Package mpj is a pure-Go reference implementation of MPJ, the MPI-like
// message-passing API proposed by the Message-Passing Working Group of the
// Java Grande Forum and sketched in Baker & Carpenter, "MPJ: A Proposed
// Java Message Passing API and Environment for High Performance
// Computing" (2000).
//
// The package offers three ways to run a parallel program:
//
//   - RunLocal executes np ranks as goroutines inside the calling process,
//     connected by an in-memory transport — ideal for development, tests
//     and benchmarks;
//   - Run launches a distributed job through MPJ daemons discovered via
//     the lookup service, with slave processes wired into an all-to-all
//     TCP mesh (the paper's mpjrun);
//   - SlaveMain is the entry point a spawned slave process calls (the
//     paper's MPJSlave).
//
// Applications are functions from a world communicator to an error,
// registered by name (the analogue of the user class extending
// MPJApplication):
//
//	func main() {
//	    mpj.Register("hello", func(w *mpj.Comm) error {
//	        fmt.Printf("hello from %d of %d\n", w.Rank(), w.Size())
//	        return nil
//	    })
//	    mpj.Main() // dispatches to SlaveMain in slave processes
//	}
//
// See ARCHITECTURE.md at the repository root for where this package sits in
// the layer stack.
package mpj

import (
	"mpj/internal/core"
	"mpj/internal/device"
	"mpj/internal/prof"
)

// Core communication types, re-exported from the implementation.
type (
	// Comm is an intra-communicator; see the methods on core.Comm.
	Comm = core.Comm
	// CartComm is a communicator with a Cartesian topology.
	CartComm = core.CartComm
	// GraphComm is a communicator with a graph topology.
	GraphComm = core.GraphComm
	// Intercomm is an inter-communicator between two disjoint groups.
	Intercomm = core.Intercomm
	// Group is an ordered set of processes.
	Group = core.Group
	// Datatype describes buffer element encoding.
	Datatype = core.Datatype
	// Op is a reduction operation.
	Op = core.Op
	// Request is a non-blocking operation handle.
	Request = core.Request
	// CollRequest is a non-blocking collective handle returned by the I*
	// family (Ibarrier, Ibcast, Iallreduce, ...); it is driven by a
	// compiled communication schedule and completes through Wait/Test.
	CollRequest = core.CollRequest
	// AnyRequest is the completion surface shared by Request, Prequest,
	// CollRequest and PcollRequest; WaitAllRequests drains mixed batches.
	AnyRequest = core.AnyRequest
	// Prequest is a persistent communication request.
	Prequest = core.Prequest
	// PcollRequest is a persistent collective request created by the
	// Commit* methods (CommitBcast, CommitAllreduce, CommitAlltoallv,
	// ...): the schedule is committed once and Start/Wait activate it any
	// number of times, re-reading the user buffers each activation.
	PcollRequest = core.PcollRequest
	// Status reports a receive/probe outcome.
	Status = core.Status
	// DoubleInt pairs a float64 with an index for MaxLoc/MinLoc.
	DoubleInt = core.DoubleInt
	// IntInt pairs an int32 with an index for MaxLoc/MinLoc.
	IntInt = core.IntInt
	// FloatInt pairs a float32 with an index for MaxLoc/MinLoc.
	FloatInt = core.FloatInt
	// CollAlg selects the collective algorithm family (classic trees, the
	// ring large-message schedules or the hierarchical ones); see
	// Comm.SetCollAlg, the MPJ_COLL_ALG environment variable and README
	// "Tuning".
	CollAlg = core.CollAlg
	// ProfSnapshot is a point-in-time copy of a communicator's profiling
	// counters, returned by Comm.ProfSnapshot when profiling is enabled
	// (the MPJ_PROF environment variable, the mpjrun -prof flag); see
	// README "Observability".
	ProfSnapshot = prof.Snapshot
	// Win is a one-sided communication window created by Comm.WinCreate:
	// Put/Get/Accumulate move data into any member's registered buffer
	// without a matching receive, under Fence or Lock/Unlock epochs; see
	// README "One-sided communication".
	Win = core.Win
)

// One-sided lock modes (Win.Lock).
const (
	// LockShared admits any number of concurrent shared lock holders.
	LockShared = core.LockShared
	// LockExclusive admits a single lock holder.
	LockExclusive = core.LockExclusive
)

// InPlace is the MPI_IN_PLACE sentinel: passed as the send buffer of
// Allgather or Allgatherv (blocking, I* and Commit* forms) or of
// ReduceScatter / IreduceScatter, the rank's contribution is taken from
// the place in the receive buffer where its result belongs — its own block
// for the Allgather family, the whole input vector at roff for
// ReduceScatter — and no separate send buffer is touched. As a receive
// buffer it is an ErrBuffer error.
var InPlace = core.InPlace

// Collective algorithm selectors (see CollAlg and Comm.SetCollAlg).
const (
	// CollAlgAuto switches algorithms by payload and communicator size.
	CollAlgAuto = core.CollAlgAuto
	// CollAlgClassic forces the latency-optimised Allreduce and
	// ReduceScatter (recursive doubling, or a tree reduce followed by a
	// broadcast or a linear scatter) and keeps every collective off the
	// two-level schedules. The other collectives compile one flat schedule
	// whatever the family.
	CollAlgClassic = core.CollAlgClassic
	// CollAlgRing forces the large-message Allreduce and ReduceScatter:
	// whole-chunk reduce-scatter + allgather exchanges for allreduce
	// (halving/doubling on a power-of-two size, the ring otherwise), the
	// same reduce-scatter half alone for ReduceScatter. Like classic it
	// keeps every collective off the two-level schedules and changes no
	// other collective.
	CollAlgRing = core.CollAlgRing
	// CollAlgHier prefers the two-level locality-aware schedules: an
	// intra-group phase over co-located peers and an inter-group exchange
	// between per-group leaders (falls back to auto on comms that do not
	// span locality groups, the layout the job bootstrap gathered: see
	// Comm.LocalityTable and README "Tuning").
	CollAlgHier = core.CollAlgHier
)

// Base datatypes (MPJ.BYTE, MPJ.INT, ...).
var (
	BYTE       = core.Byte
	BOOLEAN    = core.Boolean
	CHAR       = core.Char
	SHORT      = core.Short
	INT        = core.Int
	LONG       = core.Long
	GOINT      = core.GoInt
	FLOAT      = core.Float
	DOUBLE     = core.Double
	OBJECT     = core.Object
	DOUBLE_INT = core.DoubleInt2
	INT_INT    = core.IntInt2
	FLOAT_INT  = core.FloatInt2
)

// Predefined reduction operations (MPJ.SUM, MPJ.MAX, ...).
var (
	MAX    = core.MaxOp
	MIN    = core.MinOp
	SUM    = core.SumOp
	PROD   = core.ProdOp
	LAND   = core.LAndOp
	LOR    = core.LOrOp
	LXOR   = core.LXorOp
	BAND   = core.BAndOp
	BOR    = core.BOrOp
	BXOR   = core.BXorOp
	MAXLOC = core.MaxLocOp
	MINLOC = core.MinLocOp
)

// Error classes raised by the API; match with errors.Is. The operations
// wrap them with context.
var (
	// ErrBuffer reports an invalid buffer argument.
	ErrBuffer = core.ErrBuffer
	// ErrCount reports an invalid count argument (or slice length).
	ErrCount = core.ErrCount
	// ErrType reports an invalid or mismatched datatype argument.
	ErrType = core.ErrType
	// ErrTag reports an invalid tag argument.
	ErrTag = core.ErrTag
	// ErrRank reports a rank outside the communicator's group.
	ErrRank = core.ErrRank
	// ErrComm reports an invalid (e.g. freed) communicator.
	ErrComm = core.ErrComm
	// ErrGroup reports an invalid group argument.
	ErrGroup = core.ErrGroup
	// ErrOp reports a reduction op applied to an unsupported datatype.
	ErrOp = core.ErrOp
	// ErrDims reports invalid topology dimensions.
	ErrDims = core.ErrDims
	// ErrTopology reports an invalid topology argument.
	ErrTopology = core.ErrTopology
	// ErrTruncate reports a received message longer than the receive
	// buffer, as in MPI_ERR_TRUNCATE.
	ErrTruncate = core.ErrTruncate
	// ErrArg reports an invalid argument that fits no more specific
	// class — negative, out-of-range or overlapping displacements in
	// the varying-count collectives, as in MPI_ERR_ARG.
	ErrArg = core.ErrArg
	// ErrRankFailed reports that a member process of the communicator
	// failed, as in ULFM's MPI_ERR_PROC_FAILED: the operation will not
	// complete, but surviving members remain usable — recover with
	// Comm.Revoke, Comm.Shrink and Comm.Agree. The failed process's world
	// rank travels in the error; retrieve it with FailedRank.
	ErrRankFailed = core.ErrRankFailed
	// ErrRevoked reports an operation on a revoked communicator, as in
	// ULFM's MPI_ERR_REVOKED: after some member calls Revoke, every
	// pending and future operation fails until the survivors Shrink.
	ErrRevoked = core.ErrRevoked
	// ErrSpawn reports a failed Comm.Spawn: replacements could not be
	// launched or the rebuilt mesh could not be bootstrapped. Spawn is
	// bounded in time — it fails with this rather than hanging — and the
	// survivors' communicator remains usable for a retry.
	ErrSpawn = core.ErrSpawn
)

// RankFailedError is the typed error behind every ErrRankFailed failure;
// Rank is the world rank of the dead process.
type RankFailedError = core.RankFailedError

// FailedRank extracts the world rank of the dead process from an
// ErrRankFailed error chain; ok is false when err carries none.
func FailedRank(err error) (rank int, ok bool) { return core.FailedRank(err) }

// Wildcards and special values.
const (
	// AnySource matches any source rank in receives and probes.
	AnySource = core.AnySource
	// AnyTag matches any tag in receives and probes.
	AnyTag = core.AnyTag
	// Undefined marks out-of-group ranks, null processes and unknown counts.
	Undefined = core.Undefined
)

// Group/communicator comparison results.
const (
	Ident     = core.Ident
	Congruent = core.Congruent
	Similar   = core.Similar
	Unequal   = core.Unequal
)

// Derived datatype constructors.
var (
	// Contiguous builds count consecutive elements as one element.
	Contiguous = core.Contiguous
	// Vector builds a strided block pattern.
	Vector = core.Vector
	// Indexed builds an irregular block pattern.
	Indexed = core.Indexed
)

// Environment management.
var (
	// Wtime returns wall-clock seconds from a fixed origin.
	Wtime = core.Wtime
	// Wtick returns the Wtime resolution.
	Wtick = core.Wtick
	// ProcessorName returns the host name.
	ProcessorName = core.ProcessorName
	// NewGroup builds a group from world ranks.
	NewGroup = core.NewGroup
	// NewOp creates a user-defined reduction operation.
	NewOp = core.NewOp
	// RegisterType records a concrete type for OBJECT transmission.
	RegisterType = core.RegisterType
	// DimsCreate factors a process count into balanced grid dimensions.
	DimsCreate = core.DimsCreate
	// Pack serializes elements for BYTE transmission.
	Pack = core.Pack
	// Unpack deserializes elements packed by Pack.
	Unpack = core.Unpack
	// PackSize returns the packed size of count elements.
	PackSize = core.PackSize
	// WaitAny waits for one of several requests.
	WaitAny = core.WaitAny
	// TestAny tests several requests without blocking.
	TestAny = core.TestAny
	// WaitAll waits for all requests.
	WaitAll = core.WaitAll
	// WaitAllRequests waits for a mixed batch of point-to-point,
	// persistent and collective requests.
	WaitAllRequests = core.WaitAllRequests
	// StartAll starts a set of persistent requests.
	StartAll = core.StartAll
)

// DefaultEagerLimit is the standard-mode eager/rendezvous threshold.
const DefaultEagerLimit = device.DefaultEagerLimit
