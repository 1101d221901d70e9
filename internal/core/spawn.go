package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"mpj/internal/device"
)

// This file implements dynamic process creation — Comm.Spawn, the MPJ
// analogue of MPI_Comm_spawn — completing the recovery cycle the paper's
// lease-based failure detection begins: detect (ErrRankFailed), Shrink to
// the survivors, Spawn replacements, Merge into a rebuilt full-size world,
// resume. The heavy lifting of launching processes and re-bootstrapping a
// mesh belongs to the runtime (it owns daemons, specs and transports), so
// the communicator layer talks to it through the Respawner seam installed
// by SetRespawner.

// ErrSpawn is the typed failure of Comm.Spawn: launching replacements or
// rebuilding the mesh failed (or timed out — Spawn is bounded, it fails
// rather than hangs). The survivors' communicator remains usable; the
// caller may retry Spawn or continue at reduced size.
var ErrSpawn = errors.New("mpj: spawn failed")

// spawnTag keeps Spawn's intercomm creation apart from application traffic
// on the rebuilt world.
const spawnTag = 0x5A

// spawnAddrSlot is the fixed per-rank slot for a daemon address in Spawn's
// allgather (addresses are host:port strings, far below this bound).
const spawnAddrSlot = 128

// Respawner is the runtime seam Comm.Spawn drives. The runtime installs an
// implementation via SetRespawner on each world it builds; the local
// (in-process) and distributed (daemon-backed) runtimes differ only here.
//
// The protocol: the spawn leader calls NewEpoch to stand up a bootstrap
// master for the rebuilt mesh of `total` ranks under a fresh epoch id,
// then Launch to start the `n` replacement processes (ranks base..total-1)
// against it; every survivor then calls Rejoin to re-bootstrap its own
// rank into the new mesh. Rejoin must be bounded in time — it fails, never
// hangs, when members are missing.
type Respawner interface {
	// DaemonAddr returns the address of the daemon hosting this rank, or
	// "" when the rank is not daemon-hosted (local runtime). Spawn gathers
	// these from all survivors to place replacements.
	DaemonAddr() string

	// NewEpoch creates a bootstrap master expecting `total` members under
	// a fresh epoch id, returning the epoch, the master's address and a
	// cancel function releasing it (used on Launch failure; a successful
	// spawn lets the master retire on its own once the mesh is gathered).
	NewEpoch(total int) (epoch uint64, masterAddr string, cancel func(), err error)

	// Launch starts n replacement processes with ranks base..total-1,
	// bootstrapping against masterAddr under epoch. daemons lists the
	// survivors' daemon addresses for placement (may be empty for the
	// local runtime).
	Launch(daemons []string, n, base, total int, epoch uint64, masterAddr string) error

	// Rejoin re-bootstraps the calling survivor as `rank` of the `total`-
	// rank mesh under epoch, returning the opened device of the rebuilt
	// mesh. Bounded by the bootstrap timeout.
	Rejoin(epoch uint64, masterAddr string, rank, total int) (*device.Device, error)
}

// SetRespawner installs the runtime's process-creation backend, enabling
// Spawn on every communicator of this process. The runtime calls it on
// each world it builds; applications normally never need to.
func (c *Comm) SetRespawner(r Respawner) {
	c.proc.mu.Lock()
	c.proc.respawner = r
	c.proc.mu.Unlock()
}

// Spawned reports whether this process was created by a Comm.Spawn (true
// in replacement processes, false in original job members). Replacements
// enter the application afresh and use it to branch into recovery code.
func (c *Comm) Spawned() bool {
	c.proc.mu.Lock()
	defer c.proc.mu.Unlock()
	return c.proc.spawned
}

// Spawn launches n new processes and connects them to the members of c —
// the MPJ analogue of MPI_Comm_spawn, and the second half of the elastic
// recovery cycle (Shrink supplies the first). Collective over c.
//
// The n children start the application afresh with Spawned() reporting
// true; their world is the merged communicator their runtime hands them.
// On the parents' side Spawn returns an intercomm whose remote group is
// the children; Merge(false) on it yields the rebuilt intra-communicator
// with the survivors first (ranks 0..Size-1) and the children after. Every
// phase is bounded in time: on unreachable daemons or children that fail
// to start, Spawn fails with an error wrapping ErrSpawn rather than
// hanging.
//
// The processes of c must all still be alive; Spawn after a failure
// belongs *after* Shrink. Communicators other than c (including c's
// ancestors) remain over the old mesh and stay usable among survivors.
func (c *Comm) Spawn(n int) (*Intercomm, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d processes requested", ErrSpawn, n)
	}
	c.proc.mu.Lock()
	r := c.proc.respawner
	c.proc.mu.Unlock()
	if r == nil {
		return nil, fmt.Errorf("%w: no respawner installed (runtime does not support dynamic processes)", ErrSpawn)
	}
	s := c.Size()
	total := s + n

	// Gather every survivor's daemon address so the leader can place the
	// replacements on live daemons only.
	addr := r.DaemonAddr()
	if len(addr) > spawnAddrSlot {
		return nil, fmt.Errorf("%w: daemon address %q exceeds %d bytes", ErrSpawn, addr, spawnAddrSlot)
	}
	mine := make([]byte, spawnAddrSlot)
	copy(mine, addr)
	all := make([]byte, s*spawnAddrSlot)
	if err := c.Allgather(mine, 0, spawnAddrSlot, Byte, all, 0, spawnAddrSlot, Byte); err != nil {
		return nil, fmt.Errorf("%w: gathering daemon addresses: %v", ErrSpawn, err)
	}
	var daemons []string
	seen := make(map[string]bool)
	for i := 0; i < s; i++ {
		slot := all[i*spawnAddrSlot : (i+1)*spawnAddrSlot]
		da := string(bytes.TrimRight(slot, "\x00"))
		if da != "" && !seen[da] {
			seen[da] = true
			daemons = append(daemons, da)
		}
	}

	// The leader stands up the spawn master and launches the children; the
	// outcome (or failure) is broadcast so every member takes the same
	// branch.
	meta := make([]byte, 1+8+spawnAddrSlot)
	var leaderErr error
	if c.rank == 0 {
		epoch, maddr, cancel, err := r.NewEpoch(total)
		switch {
		case err != nil:
			leaderErr = fmt.Errorf("%w: creating spawn epoch: %v", ErrSpawn, err)
			meta[0] = 1
		case len(maddr) > spawnAddrSlot:
			cancel()
			leaderErr = fmt.Errorf("%w: spawn master address %q exceeds %d bytes", ErrSpawn, maddr, spawnAddrSlot)
			meta[0] = 1
		default:
			if err := r.Launch(daemons, n, s, total, epoch, maddr); err != nil {
				cancel()
				leaderErr = fmt.Errorf("%w: launching %d replacements: %v", ErrSpawn, n, err)
				meta[0] = 1
			} else {
				binary.BigEndian.PutUint64(meta[1:9], epoch)
				copy(meta[9:], maddr)
			}
		}
	}
	if err := c.Bcast(meta, 0, len(meta), Byte, 0); err != nil {
		return nil, fmt.Errorf("%w: broadcasting spawn outcome: %v", ErrSpawn, err)
	}
	if meta[0] != 0 {
		if leaderErr != nil {
			return nil, leaderErr
		}
		return nil, fmt.Errorf("%w: leader failed to launch replacements", ErrSpawn)
	}
	epoch := binary.BigEndian.Uint64(meta[1:9])
	maddr := string(bytes.TrimRight(meta[9:], "\x00"))

	// Every survivor re-bootstraps into the new mesh. Rejoin is bounded by
	// the bootstrap timeout, so a replacement that dies before reporting
	// in fails the spawn instead of wedging it.
	dev2, err := r.Rejoin(epoch, maddr, c.rank, total)
	if err != nil {
		return nil, fmt.Errorf("%w: rejoining as rank %d of %d: %v", ErrSpawn, c.rank, total, err)
	}
	world2, err := NewWorld(dev2)
	if err != nil {
		dev2.Close()
		return nil, fmt.Errorf("%w: building world over rebuilt mesh: %v", ErrSpawn, err)
	}
	world2.proc.mu.Lock()
	world2.proc.respawner = r
	world2.proc.mu.Unlock()

	ic, err := spawnIntercomm(world2, s, false)
	if err != nil {
		dev2.Close()
		return nil, err
	}
	return ic, nil
}

// JoinSpawned is the child-side counterpart of Comm.Spawn, called by the
// runtime in each replacement process after it bootstrapped into the
// rebuilt mesh: dev is the opened device of the full `total`-rank mesh and
// base the number of surviving parents (ranks 0..base-1). It completes the
// spawn choreography — intercomm to the parents, then Merge — and returns
// the merged full-size world the application resumes on, with Spawned()
// reporting true.
func JoinSpawned(dev *device.Device, base int) (*Comm, error) {
	world, err := NewWorld(dev)
	if err != nil {
		return nil, fmt.Errorf("%w: building world in spawned process: %v", ErrSpawn, err)
	}
	world.proc.mu.Lock()
	world.proc.spawned = true
	world.proc.mu.Unlock()
	ic, err := spawnIntercomm(world, base, true)
	if err != nil {
		return nil, err
	}
	merged, err := ic.Merge(true)
	if err != nil {
		return nil, fmt.Errorf("%w: merging with parents: %v", ErrSpawn, err)
	}
	return merged, nil
}

// spawnIntercomm runs the symmetric half of the spawn choreography over
// the rebuilt world: split off the local side's group (parents are world
// ranks 0..base-1, children base..Size-1), then build the intercomm
// between the two sides. Both sides call Create and CreateIntercomm
// exactly once each, so the collective context allocations over world
// match; the groups are disjoint, so sharing the allocated context pair is
// safe.
func spawnIntercomm(world *Comm, base int, child bool) (*Intercomm, error) {
	lo, hi := 0, base // parents
	remoteLeader := base
	if child {
		lo, hi = base, world.Size()
		remoteLeader = 0
	}
	ranks := make([]int, hi-lo)
	for i := range ranks {
		ranks[i] = lo + i
	}
	g, err := NewGroup(ranks)
	if err != nil {
		return nil, fmt.Errorf("%w: spawn group: %v", ErrSpawn, err)
	}
	side, err := world.Create(g)
	if err != nil {
		return nil, fmt.Errorf("%w: creating side communicator: %v", ErrSpawn, err)
	}
	ic, err := side.CreateIntercomm(0, world, remoteLeader, spawnTag)
	if err != nil {
		return nil, fmt.Errorf("%w: creating spawn intercomm: %v", ErrSpawn, err)
	}
	return ic, nil
}
