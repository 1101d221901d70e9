package mpj

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mpj/internal/core"
	"mpj/internal/daemon"
	"mpj/internal/device"
	"mpj/internal/job"
	"mpj/internal/transport"
)

// This file is the runtime half of the elastic-jobs machinery (the
// communicator half lives in internal/core/spawn.go): the per-process
// record of the meshes this process belongs to, whose liveness leases its
// watchdog renews, the Respawner implementations behind Comm.Spawn —
// daemon-backed for distributed jobs, goroutine-backed for RunLocal — and
// the scoped re-bootstrap (joinMesh) both use to wire a rank into a mesh
// epoch.

// liveMember is one mesh membership this process holds: its rank in one
// epoch (the original JobID mesh, or a Comm.Spawn generation) and the
// device carrying that mesh's traffic (nil for the membership the slave
// was created with, whose device its life cycle owns).
type liveMember struct {
	epoch uint64
	rank  int
	dev   *device.Device
}

// liveTracker records the meshes one slave belongs to. Its watchdog
// renews a liveness lease at the daemon for each; a rank whose lease
// lapses is destroyed by its daemon, and its peers' transports report the
// break. The devices of spawned meshes are ended through it.
type liveTracker struct {
	mu      sync.Mutex
	members []liveMember
}

// register records this process as rank of the epoch's mesh, served by dev.
func (lt *liveTracker) register(epoch uint64, rank int, dev *device.Device) {
	lt.mu.Lock()
	lt.members = append(lt.members, liveMember{epoch: epoch, rank: rank, dev: dev})
	lt.mu.Unlock()
}

// memberships snapshots the liveness leases this slave must renew.
func (lt *liveTracker) memberships() []daemon.Membership {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	out := make([]daemon.Membership, 0, len(lt.members))
	for _, m := range lt.members {
		out = append(out, daemon.Membership{Epoch: m.epoch, Rank: m.rank})
	}
	return out
}

// devices snapshots the registered devices.
func (lt *liveTracker) devices() []*device.Device {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	var out []*device.Device
	for _, m := range lt.members {
		if m.dev != nil {
			out = append(out, m.dev)
		}
	}
	return out
}

// closeSpawned tears down every registered device: orderly close for
// healthy meshes, abort for meshes with recorded failures.
func (lt *liveTracker) closeSpawned() {
	for _, dev := range lt.devices() {
		if dev.FailEpoch() > 0 {
			dev.Abort()
		} else {
			dev.Close()
		}
	}
}

// heartbeat is the watchdog probe of an elastic slave: one Heartbeat
// call renews this slave's liveness leases.
func (lt *liveTracker) heartbeat(jobID uint64) func(*daemon.Client) error {
	return func(c *daemon.Client) error {
		_, err := c.Heartbeat(jobID, lt.memberships())
		return err
	}
}

// spawnEpoch generates a fresh non-zero mesh-generation id. Only the spawn
// leader mints epochs, so nanosecond time salted with the pid is unique in
// practice across a cluster (the same scheme job ids use).
func spawnEpoch() uint64 {
	return epochNow() | 1
}

// epochNow is split out for substitutability; see job id generation.
var epochNow = func() uint64 {
	return uint64(time.Now().UnixNano())
}

// joinMesh bootstraps this process as spec.Rank into spec's mesh epoch:
// the Hello/Table exchange against spec.MasterAddr, the hybrid transport
// over the table (which picks each pair's medium from the locality
// table), and the device open with the job's tuning. It is the one way
// into a mesh — first bootstrap, replacement slave and re-joining
// survivor alike. A non-zero spec.Epoch keys the mesh (transports of a
// spawn generation must not collide with the original JobID mesh); zero
// falls back to the JobID. Every phase is bounded by the bootstrap
// timeout — joinMesh fails rather than hangs when members are missing —
// and a failure after the table is reported down the bootstrap
// connection (a job master fails the job on it; a spawn master, which
// only gathers, never reads it).
func joinMesh(spec daemon.SlaveSpec) (*device.Device, *job.SlaveConn, error) {
	epoch := spec.MeshEpoch()
	sc, table, meshLn, err := job.SlaveBootstrap(spec.MasterAddr, epoch, spec.Rank)
	if err != nil {
		return nil, nil, err
	}
	defer meshLn.Close() // once the transport is up the mesh is fully connected; no more peers will dial
	// The table is the one place that knows how many ranks share this
	// host, so a process slave takes its share of the CPUs here — before
	// the device starts the goroutines that would run on them, once per
	// mesh generation. Anything but a SlaveMain process is left alone.
	device.SizeScheduler(table.Locs, transport.ProcessLocality())
	tr, err := transport.NewHybTransport(transport.HybConfig{
		Rank:     spec.Rank,
		JobID:    epoch,
		Locs:     table.Locs,
		Addrs:    table.Addrs,
		Listener: meshLn,
	})
	var dev *device.Device
	if err == nil {
		dev, err = openDevice(tr, spec.Rank, spec.Tuning)
	}
	if err != nil {
		_ = sc.ReportDone(err)
		sc.Close()
		return nil, nil, err
	}
	return dev, sc, nil
}

// spawnDialTimeout bounds each daemon dial made while launching
// replacements (exponential backoff with jitter underneath; see
// daemon.DialDaemonRetry).
const spawnDialTimeout = 5 * time.Second

// distRespawner is the daemon-backed Respawner of distributed slaves:
// NewEpoch stands up a scoped bootstrap master in this (leader) process,
// Launch places replacement slaves round-robin on the survivors' daemons,
// and Rejoin re-bootstraps this rank into the spawn generation's mesh.
type distRespawner struct {
	spec       daemon.SlaveSpec // this rank's spec, the template for replacements
	daemonAddr string
	live       *liveTracker

	mu      sync.Mutex
	masters []*job.SpawnMaster
}

func (r *distRespawner) DaemonAddr() string { return r.daemonAddr }

func (r *distRespawner) NewEpoch(total int) (uint64, string, func(), error) {
	epoch := spawnEpoch()
	sm, err := job.NewSpawnMaster(epoch, total)
	if err != nil {
		return 0, "", nil, err
	}
	r.mu.Lock()
	r.masters = append(r.masters, sm)
	r.mu.Unlock()
	return epoch, sm.Addr(), func() { sm.Close() }, nil
}

func (r *distRespawner) Launch(daemons []string, n, base, total int, epoch uint64, masterAddr string) error {
	if len(daemons) == 0 {
		return errors.New("mpj: no live daemon addresses to place replacements on")
	}
	clients := make(map[string]*daemon.Client)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		addr := daemons[i%len(daemons)]
		client, ok := clients[addr]
		if !ok {
			var err error
			client, err = daemon.DialDaemonRetry(addr, spawnDialTimeout)
			if err != nil {
				return fmt.Errorf("mpj: dialing daemon %s: %w", addr, err)
			}
			clients[addr] = client
		}
		spec := r.spec
		spec.Rank = base + i
		spec.Size = total
		spec.Epoch = epoch
		spec.SpawnBase = base
		spec.MasterAddr = masterAddr
		if _, err := client.CreateSlave(spec); err != nil {
			return fmt.Errorf("mpj: creating replacement rank %d on %s: %w", base+i, addr, err)
		}
	}
	return nil
}

func (r *distRespawner) Rejoin(epoch uint64, masterAddr string, rank, total int) (*device.Device, error) {
	spec := r.spec
	spec.Rank = rank
	spec.Size = total
	spec.Epoch = epoch
	spec.MasterAddr = masterAddr
	dev, sc, err := joinMesh(spec)
	if err != nil {
		return nil, err
	}
	// The scoped bootstrap connection has no further role on the survivor
	// side: deaths in the new epoch reach it through its transport.
	sc.Close()
	r.live.register(epoch, rank, dev)
	return dev, nil
}

// close retires the spawn masters this leader stood up (their gathers
// completed when Rejoin returned on every member).
func (r *distRespawner) close() {
	r.mu.Lock()
	masters := r.masters
	r.masters = nil
	r.mu.Unlock()
	for _, sm := range masters {
		sm.Close()
	}
}

// localRespawner backs Comm.Spawn under RunLocal: replacements are fresh
// goroutines in this same process, connected through the in-process hub
// of a scoped mesh epoch, re-entering the same App with Spawned() true —
// the full elastic recovery cycle without a daemon in sight.
type localRespawner struct {
	app    App
	tuning core.Tuning // the job's, handed to every world it builds
	live   *liveTracker

	mu      sync.Mutex
	masters []*job.SpawnMaster
	errs    []error
	wg      sync.WaitGroup
}

func newLocalRespawner(app App, t core.Tuning) *localRespawner {
	return &localRespawner{app: app, tuning: t, live: &liveTracker{}}
}

func (lr *localRespawner) DaemonAddr() string { return "" }

func (lr *localRespawner) NewEpoch(total int) (uint64, string, func(), error) {
	epoch := spawnEpoch()
	sm, err := job.NewSpawnMaster(epoch, total)
	if err != nil {
		return 0, "", nil, err
	}
	lr.mu.Lock()
	lr.masters = append(lr.masters, sm)
	lr.mu.Unlock()
	return epoch, sm.Addr(), func() { sm.Close() }, nil
}

func (lr *localRespawner) Launch(daemons []string, n, base, total int, epoch uint64, masterAddr string) error {
	for i := 0; i < n; i++ {
		rank := base + i
		lr.wg.Add(1)
		go func() {
			defer lr.wg.Done()
			if err := lr.runSpawned(epoch, masterAddr, rank, base, total); err != nil {
				lr.mu.Lock()
				lr.errs = append(lr.errs, fmt.Errorf("mpj: spawned rank %d: %w", rank, err))
				lr.mu.Unlock()
			}
		}()
	}
	return nil
}

// runSpawned is one replacement rank's life cycle under RunLocal: join
// the spawn mesh, complete the intercomm/merge choreography, run the
// application afresh on the merged world.
func (lr *localRespawner) runSpawned(epoch uint64, masterAddr string, rank, base, total int) error {
	spec := daemon.SlaveSpec{
		JobID:      epoch,
		Rank:       rank,
		Size:       total,
		Tuning:     lr.tuning,
		MasterAddr: masterAddr,
		Epoch:      epoch,
		SpawnBase:  base,
	}
	dev, sc, err := joinMesh(spec)
	if err != nil {
		return err
	}
	sc.Close()
	merged, err := core.JoinSpawned(dev, base, lr.tuning)
	if err != nil {
		dev.Abort()
		return err
	}
	merged.SetRespawner(lr)
	appErr := lr.app(merged)
	if dev.FailEpoch() > 0 {
		dev.Abort()
	} else {
		dev.Close()
	}
	return appErr
}

func (lr *localRespawner) Rejoin(epoch uint64, masterAddr string, rank, total int) (*device.Device, error) {
	spec := daemon.SlaveSpec{
		JobID:      epoch,
		Rank:       rank,
		Size:       total,
		Tuning:     lr.tuning,
		MasterAddr: masterAddr,
		Epoch:      epoch,
	}
	dev, sc, err := joinMesh(spec)
	if err != nil {
		return nil, err
	}
	sc.Close()
	lr.live.register(epoch, rank, dev)
	return dev, nil
}

// wait blocks until every spawned rank's application returned, retires
// the spawn masters, closes the survivors' spawn-mesh devices, and
// returns the first replacement error.
func (lr *localRespawner) wait() error {
	lr.wg.Wait()
	lr.mu.Lock()
	masters := lr.masters
	lr.masters = nil
	errs := lr.errs
	lr.mu.Unlock()
	for _, sm := range masters {
		sm.Close()
	}
	lr.live.closeSpawned()
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// abort unwinds in-flight spawns after a failed run: masters close (so
// joining replacements fail their bootstrap within its timeout) and
// spawn-mesh devices abort (so replacements blocked in operations error
// out).
func (lr *localRespawner) abort() {
	lr.mu.Lock()
	masters := lr.masters
	lr.masters = nil
	lr.mu.Unlock()
	for _, sm := range masters {
		sm.Close()
	}
	for _, dev := range lr.live.devices() {
		dev.Abort()
	}
}
