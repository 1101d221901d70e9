package core

import (
	"fmt"
	"strconv"
)

// This file is the collective algorithm-selection layer. The schedule
// builders in icoll.go, ivcoll.go and hier.go compile one of several
// algorithms per collective; which one runs is decided here, per
// operation, from the payload size, communicator size and locality layout
// — large payloads switch from the latency-optimised classic trees to the
// bandwidth-optimised segmented/ring schedules, and comms spanning
// several locality groups switch to the two-level hierarchical schedules.
// The thresholds come, in order of precedence, from per-communicator
// setters (SetCollAlg/SetCollSegSize), the MPJ_COLL_ALG/MPJ_COLL_SEG
// environment variables, the measured per-device crossover table written
// by `mpjbench -tune` (MPJ_COLL_TABLE / ~/.mpj/colltab.json, see
// colltab.go), and finally the built-in default constants below. Every
// built-in crossover can be overridden by a generated table.

// CollAlg selects the collective algorithm family.
type CollAlg int

const (
	// CollAlgAuto switches algorithms by payload, communicator size and
	// locality: classic trees below the large-message threshold, segmented
	// pipelines and rings above it, and the two-level hierarchical
	// schedules when the communicator spans several locality groups.
	CollAlgAuto CollAlg = iota
	// CollAlgClassic always uses the latency-optimised algorithms
	// (binomial trees, recursive doubling) moving whole payloads per
	// tree edge.
	CollAlgClassic
	// CollAlgSegmented always uses the large-message path: the pipelined
	// chain broadcast streaming fixed-size segments, and the
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

// Built-in selection defaults. Each one is only the fallback at the end of
// the consultation order per-comm > env > measured table > constants; a
// table generated by `mpjbench -tune` (colltab.go) can override every one
// of them per device.
const (
	// DefaultCollSegSize is the default segment size (bytes) of the
	// pipelined broadcast schedules; MPJ_COLL_SEG, SetCollSegSize and the table's
	// seg_size override it.
	DefaultCollSegSize = 32 << 10

	// defLargeCollMin is the packed payload size (bytes) at which
	// CollAlgAuto switches a collective from the classic trees to the
	// segmented/ring schedules. Below it the extra per-segment messages
	// cost more than the store-and-forward they avoid; the COLL benchmark
	// sweep puts the crossover between 32 KiB and 128 KiB on the hyb
	// device.
	defLargeCollMin = 64 << 10

	// defLargeCollMinNP is the smallest communicator where the
	// large-message schedules pay off. On two ranks the chain and ring
	// degenerate to the same single edge the classic trees use, plus
	// per-segment overhead.
	defLargeCollMinNP = 3

	// defBinPipeMax is the upper edge (bytes, exclusive) of the payload
	// band where broadcast uses the pipelined *binomial* tree: above the
	// large-message threshold the chain's p-1 hop fill dominates mid-size
	// payloads (the 64–256 KiB dip in BENCH_coll.json), while the
	// binomial pipeline fills in log2(p) hops; past this edge the chain's
	// lower per-node send multiplicity wins back.
	defBinPipeMax = 256 << 10
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

// ParseCollSegSize parses the string form of the pipeline segment size
// (the MPJ_COLL_SEG environment variable). Empty means unset and returns
// 0; any other value must be a positive integer byte count.
func ParseCollSegSize(raw string) (int, error) {
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("collective segment size %q: must be a positive byte count", raw)
	}
	return n, nil
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

// SetCollSegSize sets the segment size (bytes) of the pipelined
// broadcast schedules (chain and binomial) on this communicator, overriding MPJ_COLL_SEG,
// the measured table and the 32 KiB default. Every member must use the
// same value. Zero restores the default resolution chain; negative sizes
// panic, matching ParseCollSegSize's rejection of non-positive counts.
func (c *Comm) SetCollSegSize(n int) {
	if n < 0 {
		panic(fmt.Sprintf("mpj: SetCollSegSize(%d): segment size must be a positive byte count (or 0 to unset)", n))
	}
	c.segSize = n
}

// collAlgChoice resolves the algorithm family: an explicit per-communicator
// SetCollAlg wins, then the process-wide default from MPJ_COLL_ALG.
func (c *Comm) collAlgChoice() CollAlg {
	if c.algSet {
		return c.collAlg
	}
	return c.proc.collAlg
}

// resolve walks the consult order every selection knob shares — per-comm
// setter, environment, measured table, built-in constant — and returns the
// first source that is set (positive). Knobs without a setter or an
// environment variable pass 0 there; table reads the knob's field of this
// device's table entry.
func (c *Comm) resolve(comm, env int, table func(*DeviceCrossovers) int, def int) int {
	if comm > 0 {
		return comm
	}
	if env > 0 {
		return env
	}
	if d := c.proc.collDev; d != nil {
		if n := table(d); n > 0 {
			return n
		}
	}
	return def
}

// collSegSize resolves the pipeline segment size (SetCollSegSize,
// MPJ_COLL_SEG, seg_size).
func (c *Comm) collSegSize() int {
	return c.resolve(c.segSize, c.proc.collSeg, func(d *DeviceCrossovers) int { return d.SegSize }, DefaultCollSegSize)
}

// largeMin resolves the payload threshold (bytes) of the large-message
// path (large_min: the exact-np entry first, then the device-wide one).
func (c *Comm) largeMin() int {
	return c.resolve(0, 0, func(d *DeviceCrossovers) int { return d.largeMinAt(c.Size()) }, defLargeCollMin)
}

// largeMinNP resolves the smallest communicator size where the
// large-message schedules pay off (large_min_np).
func (c *Comm) largeMinNP() int {
	return c.resolve(0, 0, func(d *DeviceCrossovers) int { return d.LargeMinNP }, defLargeCollMinNP)
}

// binPipeBand resolves the [lo, hi) payload band where broadcast prefers
// the pipelined binomial tree over the pipelined chain (bin_pipe_min,
// defaulting to the large-message threshold, and bin_pipe_max).
func (c *Comm) binPipeBand() (lo, hi int) {
	lo = c.resolve(0, 0, func(d *DeviceCrossovers) int { return d.BinPipeMin }, c.largeMin())
	hi = c.resolve(0, 0, func(d *DeviceCrossovers) int { return d.BinPipeMax }, defBinPipeMax)
	return lo, hi
}

// hierMin resolves the payload size (bytes) from which automatic selection
// takes the two-level schedules on a comm spanning locality groups
// (hier_min; by default always).
func (c *Comm) hierMin() int {
	return c.resolve(0, 0, func(d *DeviceCrossovers) int { return d.HierMin }, 0)
}

// collLarge reports whether a collective moving total packed bytes should
// take the segmented/ring large-message path. Auto requires the measured
// (or default, ≥3) member floor — on two ranks the classic algorithms
// move the same bytes over the same single edge without the per-segment
// overhead — and forced families respect the same floor: force means
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

// collBinPipe reports whether a large broadcast of total packed bytes
// should use the pipelined binomial tree instead of the pipelined chain.
// Only automatic selection lands in the band; forcing CollAlgSegmented or
// CollAlgRing names the chain/ring schedules explicitly.
func (c *Comm) collBinPipe(total int) bool {
	switch c.collAlgChoice() {
	case CollAlgSegmented, CollAlgRing:
		return false
	}
	lo, hi := c.binPipeBand()
	return total >= lo && total < hi
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
