package core

import "fmt"

// This file is the collective algorithm-selection layer. The schedule
// builders in icoll.go, ivcoll.go and hier.go compile one of several
// algorithms per collective; which one runs is decided here, per
// operation, from two inputs only: the family forced on the communicator
// (SetCollAlg, else the job's Tuning.CollAlg) and the built-in
// constants below. Under automatic selection large payloads switch from
// the latency-optimised classic trees to the bandwidth-optimised
// large-vector schedules (and a broadcast to landing in place), and comms
// spanning several locality groups switch to the two-level hierarchical
// schedules.

// CollAlg selects the collective algorithm family.
type CollAlg int

const (
	// CollAlgAuto switches algorithms by payload, communicator size and
	// locality: classic trees below the large-message threshold, the
	// large-message schedules above it, and the two-level hierarchical
	// schedules when the communicator spans several locality groups.
	CollAlgAuto CollAlg = iota
	// CollAlgClassic always uses the latency-optimised algorithms
	// (binomial trees, recursive doubling) moving whole payloads per
	// tree edge.
	CollAlgClassic
	// CollAlgRing always uses the large-message path: the broadcast's
	// binomial tree landing in place in the user buffer, and the
	// bandwidth-optimal reduce-scatter + allgather schedules for
	// allreduce/allgather, which move whole chunks (a step forwards
	// nothing it receives in the same round). For allreduce that family
	// exchanges by recursive halving/doubling when the communicator size is
	// a power of two and around the ring otherwise.
	CollAlgRing
	// CollAlgHier prefers the two-level hierarchical schedules: an
	// intra-group phase over co-located (chan-routed) peers and an
	// inter-group exchange between per-group leaders. It applies whenever
	// the communicator actually spans at least two locality groups with
	// some co-location to exploit; otherwise selection falls back to
	// auto.
	CollAlgHier
)

// String returns the canonical spelling accepted by ParseCollAlg.
func (a CollAlg) String() string {
	switch a {
	case CollAlgAuto:
		return "auto"
	case CollAlgClassic:
		return "classic"
	case CollAlgRing:
		return "ring"
	case CollAlgHier:
		return "hier"
	}
	return fmt.Sprintf("CollAlg(%d)", int(a))
}

const (
	// largeCollMin is the packed payload size (bytes) at which
	// CollAlgAuto switches a collective from the classic trees to the
	// large-message schedules. Below it the extra per-chunk messages cost
	// more than the store-and-forward they avoid; the COLL benchmark sweep
	// puts the crossover between 32 KiB and 128 KiB on the hyb device.
	largeCollMin = 64 << 10

	// largeCollMinNP is the smallest communicator where the large-message
	// schedules pay off. On two ranks the ring degenerates to the same
	// single edge the classic trees use, plus per-chunk overhead.
	largeCollMinNP = 3
)

// ParseCollAlg parses the string form of the algorithm selector (the
// client's MPJ_COLL_ALG, mpjrun -coll-alg, JobConfig.CollAlg). Empty means
// auto.
func ParseCollAlg(raw string) (CollAlg, error) {
	switch raw {
	case "", "auto":
		return CollAlgAuto, nil
	case "classic":
		return CollAlgClassic, nil
	case "ring":
		return CollAlgRing, nil
	case "hier":
		return CollAlgHier, nil
	}
	return CollAlgAuto, fmt.Errorf("collective algorithm %q: want auto, classic, ring or hier", raw)
}

// SetCollAlg forces the collective algorithm family for this communicator,
// overriding the job's default (Tuning.CollAlg) and the automatic
// size-based selection; SetCollAlg(CollAlgAuto) restores automatic
// selection even when the job forces a family. Forcing a family
// states a *preference*, not a schedule identity: where the family's
// schedule would degenerate (ring on fewer than three ranks, hier on a
// comm that does not span locality groups) the classic or auto schedule
// runs instead, so a forced family is always safe to request. Call it
// before starting collectives; like the collectives themselves it must be
// applied consistently on every member, or their schedules will not
// match. Panics on a value that is not one of the CollAlg constants.
func (c *Comm) SetCollAlg(a CollAlg) {
	if a < CollAlgAuto || a > CollAlgHier {
		panic(fmt.Sprintf("mpj: SetCollAlg(%v): not a collective algorithm family", a))
	}
	c.collAlg = a
	c.algSet = true
}

// collAlgChoice resolves the algorithm family: an explicit per-communicator
// SetCollAlg wins, then the job's default.
func (c *Comm) collAlgChoice() CollAlg {
	if c.algSet {
		return c.collAlg
	}
	return c.proc.tuning.CollAlg
}

// largeMin is the payload threshold (bytes) of the large-message path:
// largeCollMin, unless a test scaled it down (procState.largeMin).
func (c *Comm) largeMin() int { return c.proc.largeMin }

// collLarge reports whether a collective moving total packed bytes should
// take the large-message path. Auto requires at least largeCollMinNP
// members — on two ranks the classic algorithms move the same bytes over
// the same single edge without the per-chunk overhead — and a forced ring
// respects the same floor: force means family preference, not schedule
// identity.
func (c *Comm) collLarge(total int) bool {
	switch c.collAlgChoice() {
	case CollAlgClassic:
		return false
	case CollAlgRing:
		return c.Size() >= largeCollMinNP
	}
	// Auto, and hier's single-level fallback when the comm does not span
	// locality groups (collHier already dispatched the spanning case).
	return c.Size() >= largeCollMinNP && total >= c.largeMin()
}

// collHier reports whether a collective should compile the two-level
// hierarchical schedule: under auto or a forced CollAlgHier, whenever the
// locality layout is worth exploiting — at least two groups, with
// co-location somewhere (hier.go, locView.multi). On a flat comm the hier
// family falls back to auto selection.
func (c *Comm) collHier() bool {
	switch c.collAlgChoice() {
	case CollAlgAuto, CollAlgHier:
		return c.localityView().multi()
	}
	return false
}
