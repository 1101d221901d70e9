package core

import "fmt"

// This file is the collective algorithm-selection layer. The schedule
// builders in icoll.go and ivcoll.go compile one of several algorithms
// per collective; which one runs is decided here, per operation, from
// what every member observes alike: the packed payload size and the
// number of ranks, against the built-in constants below. A large
// Allreduce or ReduceScatter switches from the latency-optimised classic
// schedules to the bandwidth-optimised large-vector ones. Every other
// collective compiles one schedule: Barrier, Bcast, Gather, Scatter,
// Allgather, Alltoall, Reduce, Scan and the V forms. Selection reads no
// locality: no launcher puts some ranks of a job in one process and the
// rest elsewhere, so there are no groups to build on. No job setting or
// API call chooses a family; ForceCollAlg is the seam through which tests
// and the benchmark sweeps compile a family auto would not pick.

// CollAlg is a collective algorithm family; ForceCollAlg pins one.
type CollAlg int

const (
	// CollAlgAuto, the zero value, is the selection this file makes.
	CollAlgAuto CollAlg = iota
	// CollAlgClassic keeps Allreduce and ReduceScatter on the
	// latency-optimised schedules (recursive doubling, or a binomial
	// reduce then a broadcast or a linear scatter).
	CollAlgClassic
	// CollAlgRing keeps Allreduce and ReduceScatter on the large-message
	// reduce-scatter + allgather schedules (halving/doubling on a power
	// of two, the ring otherwise).
	CollAlgRing
)

// String names the family, as the sweeps and test names print it.
func (a CollAlg) String() string {
	switch a {
	case CollAlgAuto:
		return "auto"
	case CollAlgClassic:
		return "classic"
	case CollAlgRing:
		return "ring"
	}
	return fmt.Sprintf("CollAlg(%d)", int(a))
}

const (
	// largeCollMin is the packed payload size (bytes) at which
	// CollAlgAuto switches an Allreduce or ReduceScatter from the classic
	// schedules to the large-message ones. Below it the extra per-chunk
	// messages cost more than the store-and-forward they avoid; the COLL
	// benchmark sweep puts the crossover between 32 KiB and 128 KiB on
	// the chan device.
	largeCollMin = 64 << 10

	// largeCollMinNP is the smallest communicator where the large-message
	// schedules pay off. On two ranks the ring degenerates to the same
	// single edge the classic trees use, plus per-chunk overhead.
	largeCollMinNP = 3
)

// ForceCollAlg makes c compile family a where auto would pick another: the
// seam through which tests pin a schedule and mpjbench's coll and vcoll
// sweeps price the families. It states a preference, not a schedule: where
// a's would degenerate (ring below three ranks) the classic schedule runs.
// Every member must force the same family before its collectives. Panics
// on a value that is not a CollAlg constant.
func ForceCollAlg(c *Comm, a CollAlg) {
	if a < CollAlgAuto || a > CollAlgRing {
		panic(fmt.Sprintf("mpj: ForceCollAlg(%v): not a collective algorithm family", a))
	}
	c.collAlg = a
}

// largeMin is the payload threshold (bytes) of the large-message path:
// largeCollMin, unless a test scaled it down (procState.largeMin).
func (c *Comm) largeMin() int { return c.proc.largeMin }

// collLarge reports whether an Allreduce or ReduceScatter moving total
// packed bytes should take the large-message path. Auto requires at least largeCollMinNP
// members — on two ranks the classic algorithms move the same bytes over
// the same single edge without the per-chunk overhead — and a forced ring
// respects the same floor: force means family preference, not schedule
// identity.
func (c *Comm) collLarge(total int) bool {
	switch c.collAlg {
	case CollAlgClassic:
		return false
	case CollAlgRing:
		return c.Size() >= largeCollMinNP
	}
	return c.Size() >= largeCollMinNP && total >= c.largeMin()
}
