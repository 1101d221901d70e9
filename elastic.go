package mpj

import (
	"errors"
	"fmt"
	"os"
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
// liveness tracker that fans daemon death verdicts into mesh devices, the
// Respawner implementations behind Comm.Spawn — daemon-backed for
// distributed jobs, goroutine-backed for RunLocal — and the scoped
// re-bootstrap (joinMesh) both use to wire a rank into a mesh epoch.

// obitKey identifies one death verdict: a rank within one mesh epoch.
type obitKey struct {
	epoch uint64
	rank  int
}

// liveMember is one mesh membership this process holds: its rank in one
// epoch (the original JobID mesh, or a Comm.Spawn generation) and the
// device carrying that mesh's traffic.
type liveMember struct {
	epoch uint64
	rank  int
	dev   *device.Device
}

// liveTracker is the per-slave bridge between the control plane's failure
// detection and the data plane's failure registries. The slave registers
// every mesh it joins; death verdicts — pushed by the job master down the
// bootstrap connection, or returned in heartbeat replies — are routed to
// the device of the matching epoch via BroadcastObit, which marks the rank
// failed locally (typed ErrRankFailed for pending operations) and gossips
// the obit across the mesh. Verdict delivery is deduplicated per (epoch,
// rank): the device layer absorbs duplicates anyway, but not re-gossiping
// a known death keeps the obit traffic linear.
type liveTracker struct {
	mu        sync.Mutex
	members   []liveMember
	delivered map[obitKey]bool
}

func newLiveTracker() *liveTracker {
	return &liveTracker{delivered: make(map[obitKey]bool)}
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

// obit routes one death verdict into the device(s) of its epoch. An obit
// for this process's own rank is a control-plane declaration that *we* are
// dead (a partitioned lease expired): BroadcastObit then puts the device
// into total local failure, so the false survivor unwinds instead of
// diverging from the verdict.
func (lt *liveTracker) obit(epoch uint64, rank int, cause string) {
	key := obitKey{epoch: epoch, rank: rank}
	lt.mu.Lock()
	if lt.delivered[key] {
		lt.mu.Unlock()
		return
	}
	lt.delivered[key] = true
	var devs []*device.Device
	for _, m := range lt.members {
		if m.epoch == epoch {
			devs = append(devs, m.dev)
		}
	}
	lt.mu.Unlock()
	for _, d := range devs {
		d.BroadcastObit(rank, cause)
	}
}

// applyDead routes a batch of verdicts (a heartbeat reply's dead set).
func (lt *liveTracker) applyDead(dead []daemon.DeadRank) {
	for _, dr := range dead {
		lt.obit(dr.Epoch, dr.Rank, dr.Cause)
	}
}

// closeSpawned tears down every registered mesh device except primary
// (finalized by the caller): orderly close for healthy meshes, abort for
// meshes with recorded failures.
func (lt *liveTracker) closeSpawned(primary *device.Device) {
	lt.mu.Lock()
	members := append([]liveMember(nil), lt.members...)
	lt.mu.Unlock()
	for _, m := range members {
		if m.dev == primary {
			continue
		}
		if m.dev.FailEpoch() > 0 {
			m.dev.Abort()
		} else {
			m.dev.Close()
		}
	}
}

// obitReader pumps death verdicts pushed down a bootstrap connection into
// the tracker until the connection closes. After the address table, obits
// are the only master-to-slave traffic, so the decoder owns the stream.
func obitReader(sc *job.SlaveConn, live *liveTracker) {
	for {
		ob, err := sc.ReadObit()
		if err != nil {
			return
		}
		live.obit(ob.Epoch, ob.Rank, ob.Cause)
	}
}

// elasticWatchdog is the elastic replacement of the slave ping watchdog:
// every tick it renews this slave's liveness leases with one Heartbeat
// call and fans the reply's death verdicts into the tracker. Three
// consecutive failures mean the daemon is gone and the slave must
// self-destruct (the paper's daemon-leases-its-own-slaves rule, §3.4).
func elasticWatchdog(daemonAddr string, jobID uint64, live *liveTracker, stop <-chan struct{}, selfDestruct func()) {
	failures := 0
	tick := time.NewTicker(watchdogInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			client, err := daemon.DialDaemon(daemonAddr)
			var reply daemon.HeartbeatReply
			if err == nil {
				reply, err = client.Heartbeat(jobID, live.memberships())
				client.Close()
			}
			if err != nil {
				failures++
				if failures >= 3 {
					selfDestruct()
					return
				}
			} else {
				failures = 0
				live.applyDead(reply.Dead)
			}
		}
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
// the Hello/Table exchange against spec.MasterAddr, the transport build,
// and the device open (with spec's tuning plus any extra options). It is
// the one way into a mesh — first bootstrap, replacement slave and
// re-joining survivor alike. A non-zero spec.Epoch keys the mesh
// (transports of a spawn generation must not collide with the original
// JobID mesh); zero falls back to the JobID. Every phase is bounded by the
// bootstrap timeout — joinMesh fails rather than hangs when members are
// missing — and a failure after the table is reported down the bootstrap
// connection (a job master fails the job on it; a spawn master, which
// only gathers, never reads it).
func joinMesh(spec daemon.SlaveSpec, extra ...device.Option) (*device.Device, *job.SlaveConn, error) {
	epoch := spec.Epoch
	if epoch == 0 {
		epoch = spec.JobID
	}
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
	fail := func(err error) (*device.Device, *job.SlaveConn, error) {
		_ = sc.ReportDone(err)
		sc.Close()
		return nil, nil, err
	}
	devOpts, err := deviceOptions(spec)
	if err != nil {
		return fail(err)
	}
	mspec := spec
	mspec.JobID = epoch
	tr, err := openTransport(mspec, table, meshLn)
	if err != nil {
		return fail(err)
	}
	dev, err := device.Open(tr, append(devOpts, extra...)...)
	if err != nil {
		return fail(err)
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
	// A process slave's spec is rebuilt from its environment, which does
	// not carry the binary path — but this process IS that binary, so
	// replacements spawn from the same executable.
	binary := r.spec.Binary
	if binary == "" {
		if bin, err := os.Executable(); err == nil {
			binary = bin
		}
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
		spec.Binary = binary
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
	// side: verdicts for the new epoch arrive via heartbeat replies and
	// the original master's pushes.
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
	app  App
	live *liveTracker

	mu      sync.Mutex
	masters []*job.SpawnMaster
	errs    []error
	wg      sync.WaitGroup
}

func newLocalRespawner(app App) *localRespawner {
	return &localRespawner{app: app, live: newLiveTracker()}
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
		Device:     "chan",
		MasterAddr: masterAddr,
		Epoch:      epoch,
		SpawnBase:  base,
	}
	dev, sc, err := joinMesh(spec)
	if err != nil {
		return err
	}
	sc.Close()
	merged, err := core.JoinSpawned(dev, base)
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
		Device:     "chan",
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
	lr.live.closeSpawned(nil)
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
	lr.live.mu.Lock()
	members := append([]liveMember(nil), lr.live.members...)
	lr.live.mu.Unlock()
	for _, m := range members {
		m.dev.Abort()
	}
}
