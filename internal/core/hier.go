package core

import (
	"fmt"
	"strconv"
)

// Topology-aware hierarchical collectives.
//
// The job bootstrap distributes per-rank locality keys (ProcessLocality:
// ranks with equal keys share an OS process and exchange frames over the
// in-process channel mesh; unequal keys mean TCP), and the transport's
// description carries them to the device. This file exposes that table
// through Comm and compiles two-level schedules that exploit it:
// an intra-group phase over the cheap chan-routed peers and an
// inter-group exchange between one elected leader per group over the
// expensive links. On a layout where comm ranks interleave across groups
// the single-level trees and rings cross the expensive links once per
// edge; the two-level schedules cross them O(groups) times total, which
// is the classic path to scaling collectives past one box.
//
// Leader election is deterministic and local — the leader of a locality
// group is its lowest comm rank — so every member compiles the same
// schedule from the same table with no extra communication. For rooted
// operations the root replaces its own group's leader (the "effective
// leader"), removing a root-to-leader hop. Applications that want real
// sub-communicators for their own phases build them from the same
// exposure via the existing Group/Create machinery: Create(LocalityGroup())
// is the intra-group comm, Create(LocalityLeaders()) the leader comm. The
// compiled schedules below deliberately do NOT create sub-communicators:
// both phases concatenate into one schedule on one tag, driven by one
// CollRequest, exactly like iallreduce's reduce+bcast concatenation.
//
// Selection: auto chooses the family whenever the communicator actually
// spans ≥2 locality groups with some co-location (see collalg.go
// collHier). A test installs a synthetic layout where production gets the
// real one: in the transport's description.

// ---------------------------------------------------------------------
// The locality view.
// ---------------------------------------------------------------------

// locView is a communicator's locality structure: its members partitioned
// into co-location groups, in comm-rank space.
type locView struct {
	groups  [][]int  // comm ranks per group, each ascending; ordered by lowest member
	groupOf []int    // comm rank -> index into groups
	all     []int    // every comm rank, ascending: the member list of the whole communicator
	flat    *locView // the same members as one group (the view itself when it has one)
}

// multi reports whether the layout is worth a two-level schedule: at
// least two groups, and co-location somewhere (with only singleton
// groups every link is equally expensive and hierarchy buys nothing).
func (v *locView) multi() bool {
	if len(v.groups) < 2 {
		return false
	}
	for _, g := range v.groups {
		if len(g) >= 2 {
			return true
		}
	}
	return false
}

// buildLocView partitions size comm ranks by locality key. A nil or
// short table means "no locality knowledge": one flat group. An empty
// key means "this rank's locality is unknown": it gets a singleton group
// (always safe — unknown ranks are treated as remote, matching the hyb
// transport's routing rule).
func buildLocView(size int, keys []string) *locView {
	v := &locView{groupOf: make([]int, size), all: make([]int, size)}
	for r := range v.all {
		v.all[r] = r
	}
	v.flat = v
	if len(keys) != size {
		v.groups = [][]int{v.all}
		return v
	}
	byKey := make(map[string]int)
	for r := 0; r < size; r++ {
		k := keys[r]
		if k == "" {
			// Unknown locality: private singleton group. The sentinel key
			// cannot collide with real keys, which never start with "\x00".
			k = "\x00unknown-" + strconv.Itoa(r)
		}
		gi, seen := byKey[k]
		if !seen {
			gi = len(v.groups)
			byKey[k] = gi
			v.groups = append(v.groups, nil)
		}
		v.groups[gi] = append(v.groups[gi], r)
		v.groupOf[r] = gi
	}
	if len(v.groups) > 1 {
		v.flat = &locView{groups: [][]int{v.all}, groupOf: make([]int, size), all: v.all}
	}
	return v
}

// localityView returns the cached locality structure, computing it on
// first use from the device's table mapped through the group.
func (c *Comm) localityView() *locView {
	c.locMu.Lock()
	defer c.locMu.Unlock()
	if c.locView == nil {
		c.locView = buildLocView(c.Size(), c.LocalityTable())
	}
	return c.locView
}

// members returns the identity member list — every comm rank, ascending —
// that the whole-communicator schedules hand to the round builders.
func (c *Comm) members() []int { return c.localityView().all }

// schedView returns the layout a schedule compiles against: the locality
// view when the two-level schedule was selected, else one group holding
// every member — the single-level schedule is the two-level one with no
// expensive link to cross.
func (c *Comm) schedView(two bool) *locView {
	v := c.localityView()
	if two {
		return v
	}
	return v.flat
}

// LocalityTable returns the locality keys of this communicator's members
// (entry i is member i's key), or nil when the device has no locality
// knowledge.
func (c *Comm) LocalityTable() []string {
	tab := c.dev.LocalityTable()
	if tab == nil {
		return nil
	}
	keys := make([]string, c.Size())
	for r := range keys {
		if w := c.group.WorldRank(r); w >= 0 && w < len(tab) {
			keys[r] = tab[w]
		}
	}
	return keys
}

// LocalityGroup returns the group of members co-located with this rank,
// as a Group over world ranks — feed it to Create for an intra-locality
// sub-communicator.
func (c *Comm) LocalityGroup() (*Group, error) {
	v := c.localityView()
	members := v.groups[v.groupOf[c.rank]]
	world := make([]int, len(members))
	for i, r := range members {
		world[i] = c.group.WorldRank(r)
	}
	return NewGroup(world)
}

// LocalityLeaders returns the elected leaders — the lowest comm rank of
// every locality group — as a Group over world ranks, in group order.
// Create(LocalityLeaders()) builds the inter-group communicator (ranks
// that are not leaders receive nil from Create, per its contract).
func (c *Comm) LocalityLeaders() (*Group, error) {
	v := c.localityView()
	world := make([]int, len(v.groups))
	for i, g := range v.groups {
		world[i] = c.group.WorldRank(g[0])
	}
	return NewGroup(world)
}

// ---------------------------------------------------------------------
// The two-level schedules: compositions of the member-list round builders
// of icoll.go and sched.go over a locality group and the group leaders.
// Each compiles intra- and inter-group phases into ONE schedule on one
// tag; ranks without steps in a phase simply have no rounds for it, and
// per-(src,dst) FIFO matching keeps the concatenation correct (the same
// property iallreduce's reduce+bcast concatenation relies on). Broadcast
// and Reduce have no builder here: ibcast and ireduce compose their phases
// over hierFor directly, for one group (schedView) as for several.
// ---------------------------------------------------------------------

// hierInfo is the layout one two-level schedule compiles against.
type hierInfo struct {
	mine    []int // my locality group's members, ascending comm ranks
	meIdx   int   // my index in mine
	leaders []int // effective leader of each group, in group order
	rootG   int   // index (into leaders) of the root's group; 0 for leaderless ops
	leadIdx int   // my index in leaders, -1 when not a leader
	ldrInG  int   // index (into mine) of my group's effective leader
}

// hierFor elects the effective leaders: the lowest comm rank per group,
// except that a rooted operation's root replaces its own group's leader
// (removing the root-to-leader hop). root < 0 means leaderless.
func (c *Comm) hierFor(v *locView, root int) hierInfo {
	h := hierInfo{mine: v.groups[v.groupOf[c.rank]], leadIdx: -1}
	h.meIdx = memberIdx(h.mine, c.rank)
	h.leaders = make([]int, len(v.groups))
	for i, g := range v.groups {
		h.leaders[i] = g[0]
	}
	if root >= 0 {
		h.rootG = v.groupOf[root]
		h.leaders[h.rootG] = root
	}
	h.leadIdx = memberIdx(h.leaders, c.rank)
	h.ldrInG = memberIdx(h.mine, h.leaders[v.groupOf[c.rank]])
	return h
}

// ihallreduceRounds compiles the hierarchical allreduce on acc: reduce to
// the group leaders, allreduce among the leaders (recursive doubling on a
// power-of-two leader count, reduce+bcast otherwise), then broadcast the
// result back inside each group.
func (c *Comm) ihallreduceRounds(acc *cell, comb combiner) []round {
	v := c.localityView()
	h := c.hierFor(v, -1)
	rounds := reduceRoundsIn(c, h.mine, acc, comb, h.ldrInG)
	if nl := len(h.leaders); nl&(nl-1) == 0 {
		rounds = append(rounds, rdRoundsIn(c, h.leaders, acc, comb)...)
	} else {
		rounds = append(rounds, reduceRoundsIn(c, h.leaders, acc, comb, 0)...)
		rounds = append(rounds, bcastRoundsIn(c, h.leaders, acc, 0)...)
	}
	return append(rounds, bcastRoundsIn(c, h.mine, acc, h.ldrInG)...)
}

// ihbarrierRounds compiles the hierarchical barrier: members check in
// with their group leader, the leaders run a dissemination barrier over
// the expensive links, and the leaders release their groups. Exactly two
// inter-group crossings per leader pair instead of the flat
// dissemination's per-round crossings.
func (c *Comm) ihbarrierRounds() []round {
	v := c.localityView()
	h := c.hierFor(v, -1)
	var rounds []round
	leader := h.mine[h.ldrInG]
	if c.rank != leader {
		rounds = append(rounds,
			round{sends: []sendStep{{to: leader, data: func() []byte { return nil }}}})
	} else if len(h.mine) > 1 {
		var rd round
		for _, m := range h.mine {
			if m != leader {
				rd.recvs = append(rd.recvs, recvStep{from: m})
			}
		}
		rounds = append(rounds, rd)
	}
	rounds = append(rounds, barrierRoundsIn(c, h.leaders)...)
	if c.rank != leader {
		rounds = append(rounds, round{recvs: []recvStep{{from: leader}}})
	} else if len(h.mine) > 1 {
		var rd round
		for _, m := range h.mine {
			if m != leader {
				m := m
				rd.sends = append(rd.sends, sendStep{to: m, data: func() []byte { return nil }})
			}
		}
		rounds = append(rounds, rd)
	}
	return rounds
}

// ihallgather compiles the hierarchical allgather of fixed bs-byte
// blocks, block r landing at roff + displs[r]*extent(rdt): members hand
// their block to the group leader, the leaders exchange whole per-group
// batches (each group's blocks cross each inter-group link exactly once),
// and each leader broadcasts the assembled vector inside its group.
func (c *Comm) ihallgather(name string, tag int, sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, displs []int, rdt Datatype) (*CollRequest, error) {
	size := c.Size()
	bs := rcount * rdt.ByteSize()
	v := c.localityView()
	h := c.hierFor(v, -1)
	leader := h.mine[h.ldrInG]

	// Assembly: size slots of bs bytes in comm-rank order — a raw window
	// of rbuf when this rank's blocks lie there end to end from roff, else
	// staging unpacked at finish.
	var asm []byte
	e2e := true
	for r, d := range displs {
		e2e = e2e && d == r*rcount
	}
	if e2e {
		asm = vWindow(rdt, rbuf, roff, size*rcount)
	}
	slot := func(r int) []byte { return asm[r*bs : (r+1)*bs] }
	var finish func() error
	if asm == nil {
		asm = make([]byte, size*bs)
		finish = func() error {
			for r := 0; r < size; r++ {
				if _, err := rdt.Unpack(slot(r), rbuf, roff+displs[r]*rdt.Extent(), rcount); err != nil {
					return err
				}
			}
			return nil
		}
	}

	// Own block lands in its slot at build time.
	if pi, ok := sdt.(packerInto); ok && scount*sdt.ByteSize() == bs {
		if err := pi.PackInto(slot(c.rank), sbuf, soff, scount); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	} else {
		packed, err := packExact(sdt, sbuf, soff, scount)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if len(packed) != bs {
			return nil, fmt.Errorf("%s: %w: packed %d bytes into %d-byte slots", name, ErrCount, len(packed), bs)
		}
		copy(slot(c.rank), packed)
	}

	var rounds []round
	// Phase 1: blocks to the leader, straight into their final slots.
	if c.rank != leader {
		own := slot(c.rank)
		rounds = append(rounds,
			round{sends: []sendStep{{to: leader, data: func() []byte { return own }}}})
	} else if len(h.mine) > 1 {
		var rd round
		for _, m := range h.mine {
			if m != leader {
				rd.recvs = append(rd.recvs, recvStep{from: m, buf: slot(m)})
			}
		}
		rounds = append(rounds, rd)
	}
	// Phase 2: leaders exchange per-group batches, one linear round. The
	// batch is packed into the outgoing frame (fill) because a group's
	// slots need not be contiguous in asm; arrivals scatter likewise.
	if h.leadIdx >= 0 && len(h.leaders) > 1 {
		var rd round
		for gi, l := range h.leaders {
			if l == c.rank {
				continue
			}
			them := v.groups[gi]
			rd.recvs = append(rd.recvs, recvStep{from: l, on: func(got []byte) error {
				if len(got) != len(them)*bs {
					return fmt.Errorf("%w: got %d bytes for a %d-block group", ErrOther, len(got), len(them))
				}
				for i, m := range them {
					copy(slot(m), got[i*bs:(i+1)*bs])
				}
				return nil
			}})
			rd.sends = append(rd.sends, sendStep{to: l, n: len(h.mine) * bs, fill: func(p []byte) error {
				for i, m := range h.mine {
					copy(p[i*bs:(i+1)*bs], slot(m))
				}
				return nil
			}})
		}
		rounds = append(rounds, rd)
	}
	// Phase 3: the assembled vector fans out inside each group.
	rounds = append(rounds, bcastRoundsIn(c, h.mine, &cell{b: asm, fixed: true}, h.ldrInG)...)
	return c.newCollRequestAlg(name, tag, "hier", rounds, finish)
}
