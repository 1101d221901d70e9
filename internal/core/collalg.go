package core

import "fmt"

// This file is the collective algorithm-selection layer. The schedule
// builders in icoll.go, ivcoll.go and hier.go compile one of several
// algorithms per collective; which one runs is decided here, per
// operation, from the payload size, communicator size and locality layout
// — large payloads switch from the latency-optimised classic trees to the
// bandwidth-optimised large-vector schedules (and a broadcast to landing
// in place), and comms spanning several locality groups switch to the
// two-level hierarchical schedules. The family can be forced per
// communicator (SetCollAlg) or per process (MPJ_COLL_ALG); the thresholds
// come from the measured per-device crossover table written by `mpjbench
// -tune` (MPJ_COLL_TABLE / ~/.mpj/colltab.json, see colltab.go), else
// from the built-in default constants below.

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
	// CollAlgSegmented always uses the large-message path: the broadcast's
	// binomial tree landing in place in the user buffer, and the
	// bandwidth-optimal reduce-scatter + allgather schedules for
	// allreduce/allgather, which move whole chunks (a step forwards
	// nothing it receives in the same round).
	CollAlgSegmented
	// CollAlgRing is CollAlgSegmented under the name the bandwidth-optimal
	// collectives (allreduce, allgather) are usually discussed by; the
	// two constants force the same large-message schedules. For allreduce
	// that family exchanges by recursive halving/doubling when the
	// communicator size is a power of two and around the ring otherwise
	// (AllreduceRing).
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
	case CollAlgSegmented:
		return "segmented"
	case CollAlgRing:
		return "ring"
	case CollAlgHier:
		return "hier"
	}
	return fmt.Sprintf("CollAlg(%d)", int(a))
}

// Built-in selection defaults. Each one is only the fallback behind the
// measured table; a table generated by `mpjbench -tune` (colltab.go) can
// override every one of them per device.
const (
	// defLargeCollMin is the packed payload size (bytes) at which
	// CollAlgAuto switches a collective from the classic trees to the
	// large-message schedules. Below it the extra per-chunk messages cost
	// more than the store-and-forward they avoid; the COLL benchmark sweep
	// puts the crossover between 32 KiB and 128 KiB on the hyb device.
	defLargeCollMin = 64 << 10

	// defLargeCollMinNP is the smallest communicator where the
	// large-message schedules pay off. On two ranks the ring degenerates
	// to the same single edge the classic trees use, plus per-chunk
	// overhead.
	defLargeCollMinNP = 3
)

// ParseCollAlg parses the string form of the algorithm selector (the
// MPJ_COLL_ALG environment variable). Empty means auto.
func ParseCollAlg(raw string) (CollAlg, error) {
	switch raw {
	case "", "auto":
		return CollAlgAuto, nil
	case "classic":
		return CollAlgClassic, nil
	case "segmented":
		return CollAlgSegmented, nil
	case "ring":
		return CollAlgRing, nil
	case "hier", "hierarchical":
		return CollAlgHier, nil
	}
	return CollAlgAuto, fmt.Errorf("collective algorithm %q: want auto, classic, segmented, ring or hier", raw)
}

// SetCollAlg forces the collective algorithm family for this communicator,
// overriding the process-wide default (MPJ_COLL_ALG) and the automatic
// size-based selection; SetCollAlg(CollAlgAuto) restores automatic
// selection even when the environment forces a family. Forcing a family
// states a *preference*, not a schedule identity: where the family's
// schedule would degenerate (segmented/ring on fewer than three ranks,
// hier on a comm that does not span locality groups) the classic or auto
// schedule runs instead, so a forced family is always safe to request.
// Call it before starting collectives; like the collectives themselves it
// must be applied consistently on every member, or their schedules will
// not match. Panics on a value that is not one of the CollAlg constants.
func (c *Comm) SetCollAlg(a CollAlg) {
	if a < CollAlgAuto || a > CollAlgHier {
		panic(fmt.Sprintf("mpj: SetCollAlg(%v): not a collective algorithm family", a))
	}
	c.collAlg = a
	c.algSet = true
}

// collAlgChoice resolves the algorithm family: an explicit per-communicator
// SetCollAlg wins, then the process-wide default from MPJ_COLL_ALG.
func (c *Comm) collAlgChoice() CollAlg {
	if c.algSet {
		return c.collAlg
	}
	return c.proc.collAlg
}

// resolve returns a selection threshold: the knob's field of this
// device's measured table entry when it is set (positive), else the
// built-in constant.
func (c *Comm) resolve(table func(*DeviceCrossovers) int, def int) int {
	if d := c.proc.collDev; d != nil {
		if n := table(d); n > 0 {
			return n
		}
	}
	return def
}

// largeMin resolves the payload threshold (bytes) of the large-message
// path (large_min: the exact-np entry first, then the device-wide one).
func (c *Comm) largeMin() int {
	return c.resolve(func(d *DeviceCrossovers) int { return d.largeMinAt(c.Size()) }, defLargeCollMin)
}

// largeMinNP resolves the smallest communicator size where the
// large-message schedules pay off (large_min_np).
func (c *Comm) largeMinNP() int {
	return c.resolve(func(d *DeviceCrossovers) int { return d.LargeMinNP }, defLargeCollMinNP)
}

// hierMin resolves the payload size (bytes) from which automatic selection
// takes the two-level schedules on a comm spanning locality groups
// (hier_min; by default always).
func (c *Comm) hierMin() int {
	return c.resolve(func(d *DeviceCrossovers) int { return d.HierMin }, 0)
}

// collLarge reports whether a collective moving total packed bytes should
// take the large-message path. Auto requires the measured (or default,
// ≥3) member floor — on two ranks the classic algorithms move the same
// bytes over the same single edge without the per-chunk overhead — and
// forced families respect the same floor: force means
// family preference, not schedule identity.
func (c *Comm) collLarge(total int) bool {
	switch c.collAlgChoice() {
	case CollAlgClassic:
		return false
	case CollAlgSegmented, CollAlgRing:
		return c.Size() >= c.largeMinNP()
	}
	// Auto, and hier's single-level fallback when the comm does not span
	// locality groups (collHier already dispatched the spanning case).
	return c.Size() >= c.largeMinNP() && total >= c.largeMin()
}

// collHier reports whether a collective moving total packed bytes should
// compile the two-level hierarchical schedule. It requires a locality
// layout worth exploiting — at least two groups, with co-location
// somewhere (hier.go, locView.multi) — and is then auto-chosen from the
// hier_min threshold (default: whenever the comm spans groups, i.e.
// zero). Forcing CollAlgHier skips the threshold but still requires the
// layout; on a flat comm the family falls back to auto selection.
func (c *Comm) collHier(total int) bool {
	switch c.collAlgChoice() {
	case CollAlgHier:
		return c.localityView().multi()
	case CollAlgAuto:
		return c.localityView().multi() && total >= c.hierMin()
	}
	return false
}
