// Package daemon implements the MPJ service daemon of the paper's §3.2 —
// the MPJService: a per-host process that spawns slaves on behalf of
// remote clients, monitors them, forwards their output, raises MPJAbort
// events when they die (§3.3) and reclaims them when job leases expire
// (§3.4).
//
// The paper realizes the daemon as an RMI activatable object registered
// with rmid and published through Jini lookup; here it is a long-lived
// internal/rpc server registered with the lookup.Registrar.
//
// See ARCHITECTURE.md at the repository root for where this package sits in
// the layer stack.
package daemon

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"mpj/internal/lease"
	"mpj/internal/lookup"
	"mpj/internal/rpc"
)

// ServiceType is the lookup service type daemons register under.
const ServiceType = "MPJService"

// slaveRec tracks one running slave.
type slaveRec struct {
	spec  SlaveSpec
	slave Slave
}

// jobState tracks all local slaves of one job.
type jobState struct {
	id        uint64
	eventAddr string
	leaseID   string
	slaves    map[string]*slaveRec
	aborted   bool // an abort has been raised or the job destroyed
	seq       uint64

	// Elastic jobs keep a failure registry per mesh epoch (the original
	// JobID mesh plus every Comm.Spawn generation): slaves heartbeat
	// their (epoch, rank) memberships and a lapsed lease or an observed
	// process exit declares the rank dead. A verdict destroys the slave
	// it names, whose peers' transports then report it; RenewJob replies
	// carry the dead sets to the client, never MPJAbort.
	elastic    bool
	livenessMs int64
	regs       map[uint64]*FailureRegistry
}

// DefaultLivenessMs is the per-rank liveness lease for elastic jobs when
// the spec does not choose one.
const DefaultLivenessMs = 10_000

// livenessDur resolves a job's liveness lease duration.
func livenessDur(ms int64) time.Duration {
	if ms <= 0 {
		ms = DefaultLivenessMs
	}
	return time.Duration(ms) * time.Millisecond
}

// Daemon is an MPJService instance.
type Daemon struct {
	spawner Spawner
	ln      net.Listener
	leases  *lease.Table
	logger  *log.Logger

	mu   sync.Mutex
	jobs map[uint64]*jobState

	registrations []registration
	closed        bool
}

// registration records one lookup-service registration kept alive by a
// renewer.
type registration struct {
	client  *lookup.Client
	leaseID string
	renewer *lease.Renewer
}

// Option configures a Daemon.
type Option func(*Daemon)

// WithSpawner overrides the slave spawner (default: ProcSpawner).
func WithSpawner(s Spawner) Option {
	return func(d *Daemon) { d.spawner = s }
}

// WithLogger directs daemon logging (default: log to stderr).
func WithLogger(l *log.Logger) Option {
	return func(d *Daemon) { d.logger = l }
}

// New starts a daemon on an ephemeral localhost port.
func New(opts ...Option) (*Daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	d := &Daemon{
		spawner: ProcSpawner{},
		ln:      ln,
		jobs:    make(map[uint64]*jobState),
		logger:  log.New(os.Stderr, "mpjd ", log.LstdFlags),
	}
	for _, opt := range opts {
		opt(d)
	}
	d.leases = lease.NewTable(d.onLeaseExpired)

	svc := &service{d: d}
	srv := rpc.NewServer()
	rpc.Handle(srv, ServiceType+".CreateSlave", svc.CreateSlave)
	rpc.Handle(srv, ServiceType+".DestroyJob", svc.DestroyJob)
	rpc.Handle(srv, ServiceType+".RenewJob", svc.RenewJob)
	rpc.Handle(srv, ServiceType+".Heartbeat", svc.Heartbeat)
	rpc.Handle(srv, ServiceType+".Ping", svc.Ping)
	go srv.Serve(ln)
	return d, nil
}

// Addr returns the daemon's RPC endpoint.
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// Announce registers the daemon with the given lookup registrars under
// leased registrations that are renewed until Close.
func (d *Daemon) Announce(registrars []string, leaseDur time.Duration) error {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	item := lookup.ServiceItem{
		Type: ServiceType,
		Addr: d.Addr(),
		Host: host,
	}
	for _, addr := range registrars {
		client, err := lookup.Dial(addr)
		if err != nil {
			return fmt.Errorf("daemon: announcing to %s: %w", addr, err)
		}
		resp, err := client.Register(item, leaseDur)
		if err != nil {
			client.Close()
			return fmt.Errorf("daemon: registering with %s: %w", addr, err)
		}
		leaseID := resp.LeaseID
		renewer := lease.NewRenewer(leaseDur, func(dur time.Duration) error {
			return client.Renew(leaseID, dur)
		}, func(err error) {
			d.logger.Printf("lookup registration lapsed: %v", err)
		})
		d.mu.Lock()
		d.registrations = append(d.registrations, registration{client: client, leaseID: leaseID, renewer: renewer})
		d.mu.Unlock()
	}
	return nil
}

// JobCount reports how many jobs have live slaves on this daemon.
func (d *Daemon) JobCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.jobs)
}

// SlaveCount reports the number of live slaves across all jobs.
func (d *Daemon) SlaveCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, j := range d.jobs {
		n += len(j.slaves)
	}
	return n
}

// Vars returns a JSON-marshalable snapshot of the daemon's state — jobs,
// their local ranks, lease count — for the /debug/vars endpoint mpjd serves
// under -prof-addr (see internal/prof and README "Observability").
func (d *Daemon) Vars() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	jobs := make(map[string]any, len(d.jobs))
	for id, job := range d.jobs {
		ranks := make([]int, 0, len(job.slaves))
		for _, rec := range job.slaves {
			ranks = append(ranks, rec.spec.Rank)
		}
		sort.Ints(ranks)
		jobs[strconv.FormatUint(id, 10)] = map[string]any{
			"ranks":   ranks,
			"aborted": job.aborted,
		}
	}
	return map[string]any{
		"addr":   d.ln.Addr().String(),
		"jobs":   jobs,
		"leases": d.leases.Len(),
	}
}

// Close destroys all slaves and shuts the daemon down.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	regs := d.registrations
	d.registrations = nil
	var all []*slaveRec
	var fregs []*FailureRegistry
	for _, j := range d.jobs {
		j.aborted = true
		for _, rec := range j.slaves {
			all = append(all, rec)
		}
		for _, reg := range j.regs {
			fregs = append(fregs, reg)
		}
		j.regs = nil
	}
	d.jobs = make(map[uint64]*jobState)
	d.mu.Unlock()

	for _, reg := range regs {
		reg.renewer.Stop()
		_ = reg.client.Cancel(reg.leaseID)
		reg.client.Close()
	}
	for _, rec := range all {
		rec.slave.Destroy()
	}
	for _, reg := range fregs {
		reg.Close()
	}
	d.ln.Close()
	d.leases.Close()
}

// createSlave spawns one slave and begins monitoring it.
func (d *Daemon) createSlave(spec SlaveSpec) (Slave, error) {
	if spec.Epoch != 0 && !spec.Elastic {
		// Only Comm.Spawn makes spawn epochs, and only in elastic jobs.
		return nil, fmt.Errorf("daemon: job %d: spawn epoch %d in a non-elastic job", spec.JobID, spec.Epoch)
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, fmt.Errorf("daemon: closed")
	}
	job, ok := d.jobs[spec.JobID]
	if !ok {
		job = &jobState{
			id:         spec.JobID,
			eventAddr:  spec.EventAddr,
			slaves:     make(map[string]*slaveRec),
			elastic:    spec.Elastic,
			livenessMs: spec.LivenessMs,
			regs:       make(map[uint64]*FailureRegistry),
		}
		if spec.LeaseMs > 0 {
			info := d.leases.Grant(spec.JobID, time.Duration(spec.LeaseMs)*time.Millisecond)
			job.leaseID = info.ID
		}
		d.jobs[spec.JobID] = job
	}
	if job.aborted {
		d.mu.Unlock()
		return nil, fmt.Errorf("daemon: job %d already aborted", spec.JobID)
	}
	d.mu.Unlock()

	slave, err := d.spawner.Spawn(spec, d.Addr())
	if err != nil {
		return nil, err
	}

	d.mu.Lock()
	if d.jobs[spec.JobID] != job || job.aborted {
		// The job was destroyed (or the daemon closed) while the slave
		// started: nothing will ever reap it, so it dies here.
		d.mu.Unlock()
		slave.Destroy()
		return nil, fmt.Errorf("daemon: job %d destroyed while its slave started", spec.JobID)
	}
	job.slaves[slave.ID()] = &slaveRec{spec: spec, slave: slave}
	var reg *FailureRegistry
	if job.elastic {
		reg = d.regLocked(job, spec.MeshEpoch())
	}
	d.mu.Unlock()
	if reg != nil {
		// The slave's liveness lease runs from its creation: its beats
		// start before its bootstrap, so a slave that hangs at any point
		// is condemned.
		reg.Track(spec.Rank, spec.Liveness())
	}

	go d.monitor(spec.JobID, slave)
	return slave, nil
}

// regLocked returns the job's failure registry for one mesh epoch,
// creating it on first use. Callers hold d.mu. The registry's expiry
// verdicts destroy the local slave they name (a rank whose lease lapsed
// while its process lives is a false survivor — partitioned or hung — and
// must die before the job rebuilds around its absence).
func (d *Daemon) regLocked(job *jobState, epoch uint64) *FailureRegistry {
	if reg, ok := job.regs[epoch]; ok {
		return reg
	}
	reg := NewFailureRegistry()
	job.regs[epoch] = reg
	jobID := job.id
	reg.Subscribe(func(rank int, err error) {
		d.logger.Printf("job %d epoch %d: rank %d declared dead: %v", jobID, epoch, rank, err)
		d.destroySlaveOf(jobID, epoch, rank)
	})
	return reg
}

// destroySlaveOf kills the local slave holding (epoch, rank) of a job, if
// any. Used when a liveness verdict names a rank whose process still runs.
func (d *Daemon) destroySlaveOf(jobID uint64, epoch uint64, rank int) {
	d.mu.Lock()
	var victim Slave
	if job, ok := d.jobs[jobID]; ok {
		for _, rec := range job.slaves {
			if rec.spec.Rank == rank && rec.spec.MeshEpoch() == epoch {
				victim = rec.slave
				break
			}
		}
	}
	d.mu.Unlock()
	if victim != nil {
		victim.Destroy()
	}
}

// monitor waits for a slave to exit and applies the paper's §3.3 rule: an
// unexpected death raises MPJAbort at the client and destroys the job's
// remaining local slaves. Elastic jobs instead record the dead rank in the
// epoch's failure registry — siblings keep running; their transports
// already saw the process go, and RenewJob replies carry the verdict to the
// client.
func (d *Daemon) monitor(jobID uint64, slave Slave) {
	err := slave.Wait()

	d.mu.Lock()
	job, ok := d.jobs[jobID]
	if !ok {
		d.mu.Unlock()
		return
	}
	rec := job.slaves[slave.ID()]
	delete(job.slaves, slave.ID())
	if job.elastic {
		var reg *FailureRegistry
		var spec SlaveSpec
		if rec != nil && err != nil && !job.aborted {
			spec = rec.spec
			reg = d.regLocked(job, spec.MeshEpoch())
		}
		d.mu.Unlock()
		if reg != nil {
			d.logger.Printf("job %d: slave %s (rank %d) died: %v — recording for elastic recovery",
				jobID, slave.ID(), spec.Rank, err)
			reg.Kill(spec.Rank, fmt.Errorf("daemon: slave process exited: %v", err))
		}
		return
	}
	crashed := err != nil && !job.aborted
	var toDestroy []*slaveRec
	var eventAddr string
	var seq uint64
	if crashed {
		job.aborted = true
		eventAddr = job.eventAddr
		job.seq++
		seq = job.seq
		for _, rec := range job.slaves {
			toDestroy = append(toDestroy, rec)
		}
		job.slaves = make(map[string]*slaveRec)
	}
	d.reapJobLocked(job)
	d.mu.Unlock()

	if crashed {
		d.logger.Printf("job %d: slave %s died: %v — destroying %d local slaves",
			jobID, slave.ID(), err, len(toDestroy))
		for _, rec := range toDestroy {
			rec.slave.Destroy()
		}
		if eventAddr != "" {
			ev := Event{
				Type:    TypeAbort,
				JobID:   jobID,
				Source:  "daemon " + d.Addr(),
				Seq:     seq,
				Message: fmt.Sprintf("slave %s died: %v", slave.ID(), err),
			}
			if nerr := Notify(eventAddr, ev); nerr != nil {
				d.logger.Printf("job %d: abort notification failed: %v", jobID, nerr)
			}
		}
	}
}

// reapJobLocked drops a job with no remaining slaves. Callers hold d.mu.
// Elastic jobs are never reaped here: their dead sets must stay servable
// through RenewJob even when every local slave has died (a daemon whose
// only rank is the dead one still owes the verdict to the client's
// renewer). They are dropped by DestroyJob or lease expiry.
func (d *Daemon) reapJobLocked(job *jobState) {
	if len(job.slaves) != 0 || job.elastic {
		return
	}
	delete(d.jobs, job.id)
	if job.leaseID != "" {
		_ = d.leases.Cancel(job.leaseID)
	}
}

// destroyJob forcibly removes all local slaves of a job. Used for client
// aborts, lease expiry, and orderly job teardown.
func (d *Daemon) destroyJob(jobID uint64, reason string) {
	d.mu.Lock()
	job, ok := d.jobs[jobID]
	if !ok {
		d.mu.Unlock()
		return
	}
	job.aborted = true
	var toDestroy []*slaveRec
	for _, rec := range job.slaves {
		toDestroy = append(toDestroy, rec)
	}
	job.slaves = make(map[string]*slaveRec)
	regs := job.regs
	job.regs = nil
	delete(d.jobs, job.id)
	if job.leaseID != "" {
		_ = d.leases.Cancel(job.leaseID)
	}
	d.mu.Unlock()

	if len(toDestroy) > 0 {
		d.logger.Printf("job %d: destroying %d slaves (%s)", jobID, len(toDestroy), reason)
	}
	for _, rec := range toDestroy {
		rec.slave.Destroy()
	}
	for _, reg := range regs {
		reg.Close()
	}
}

// onLeaseExpired implements §3.4: if the client stops renewing (killed,
// partitioned), its job's slaves are orphans and must be destroyed.
func (d *Daemon) onLeaseExpired(id string, payload any) {
	jobID, ok := payload.(uint64)
	if !ok {
		return
	}
	d.destroyJob(jobID, "job lease expired")
}

// renewJob extends a job's lease and returns the job's dead set, which
// excuses the dead ranks' missing reports at the client.
func (d *Daemon) renewJob(jobID uint64, dur time.Duration) ([]DeadRank, error) {
	d.mu.Lock()
	job, ok := d.jobs[jobID]
	var leaseID string
	var regs map[uint64]*FailureRegistry
	if ok {
		leaseID = job.leaseID
		regs = snapshotRegs(job)
	}
	d.mu.Unlock()
	if !ok || leaseID == "" {
		return nil, fmt.Errorf("daemon: no leased job %d", jobID)
	}
	if _, err := d.leases.Renew(leaseID, dur); err != nil {
		return nil, err
	}
	return collectDead(regs), nil
}

// snapshotRegs copies a job's epoch→registry map. Callers hold d.mu.
func snapshotRegs(job *jobState) map[uint64]*FailureRegistry {
	if len(job.regs) == 0 {
		return nil
	}
	out := make(map[uint64]*FailureRegistry, len(job.regs))
	for epoch, reg := range job.regs {
		out[epoch] = reg
	}
	return out
}

// collectDead flattens the per-epoch dead sets into reply rows.
func collectDead(regs map[uint64]*FailureRegistry) []DeadRank {
	var dead []DeadRank
	for epoch, reg := range regs {
		for rank, err := range reg.DeadSet() {
			dead = append(dead, DeadRank{Epoch: epoch, Rank: rank, Cause: err.Error()})
		}
	}
	return dead
}

// heartbeat renews the liveness leases of one slave's memberships. The
// first heartbeat of a membership starts its tracking (createSlave starts
// a slave's own); dead ranks are never re-tracked, death is final.
func (d *Daemon) heartbeat(req HeartbeatReq) (HeartbeatReply, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return HeartbeatReply{}, fmt.Errorf("daemon: closed")
	}
	job, ok := d.jobs[req.JobID]
	if !ok {
		d.mu.Unlock()
		return HeartbeatReply{}, fmt.Errorf("daemon: no job %d", req.JobID)
	}
	dur := livenessDur(job.livenessMs)
	regs := make([]*FailureRegistry, len(req.Memberships))
	for i, mb := range req.Memberships {
		regs[i] = d.regLocked(job, mb.Epoch)
	}
	d.mu.Unlock()

	for i, reg := range regs {
		// A renew fails for an untracked rank, which this beat starts to
		// track, and for a dead one, which Track leaves dead.
		if rank := req.Memberships[i].Rank; reg.Heartbeat(rank, dur) != nil {
			reg.Track(rank, dur)
		}
	}
	return HeartbeatReply{Addr: d.Addr()}, nil
}

// RPC surface.

// JobRef names a job in RPC calls.
type JobRef struct {
	JobID  uint64
	Reason string
}

// RenewJobReq extends a job lease.
type RenewJobReq struct {
	JobID   uint64
	LeaseMs int64
}

// RenewJobReply answers a lease renewal; Dead carries the job's death
// verdicts, which excuse the dead ranks' missing reports at the client.
type RenewJobReply struct {
	Dead []DeadRank
}

// Membership names one liveness lease a slave holds: its rank within one
// mesh epoch (the original JobID mesh or a Comm.Spawn generation).
type Membership struct {
	Epoch uint64
	Rank  int
}

// DeadRank is one death verdict of an elastic job.
type DeadRank struct {
	Epoch uint64
	Rank  int
	Cause string
}

// HeartbeatReq renews a slave's liveness leases.
type HeartbeatReq struct {
	JobID       uint64
	Memberships []Membership
}

// HeartbeatReply answers a heartbeat. A verdict reaches no slave this
// way: the daemon destroys the slave it names, and the peers' transports
// report the break.
type HeartbeatReply struct {
	Addr string
}

// SlaveInfo describes a created slave.
type SlaveInfo struct {
	SlaveID string
	// Forwarded: the slave's output reaches the spec's OutputAddr over a
	// connection of its own, which closes once the slave's streams end.
	Forwarded bool
}

// PingReply answers a liveness probe.
type PingReply struct {
	Addr   string
	Jobs   int
	Slaves int
}

type service struct{ d *Daemon }

// CreateSlave spawns a slave for the given spec.
func (s *service) CreateSlave(spec SlaveSpec, reply *SlaveInfo) error {
	slave, err := s.d.createSlave(spec)
	if err != nil {
		return err
	}
	reply.SlaveID, reply.Forwarded = slave.ID(), slave.Forwarded()
	return nil
}

// DestroyJob destroys all local slaves of the job.
func (s *service) DestroyJob(req JobRef, _ *struct{}) error {
	s.d.destroyJob(req.JobID, req.Reason)
	return nil
}

// RenewJob extends the job's lease and reports the job's dead set.
func (s *service) RenewJob(req RenewJobReq, reply *RenewJobReply) error {
	dead, err := s.d.renewJob(req.JobID, time.Duration(req.LeaseMs)*time.Millisecond)
	if err != nil {
		return err
	}
	reply.Dead = dead
	return nil
}

// Heartbeat renews a slave's liveness leases.
func (s *service) Heartbeat(req HeartbeatReq, reply *HeartbeatReply) error {
	r, err := s.d.heartbeat(req)
	if err != nil {
		return err
	}
	*reply = r
	return nil
}

// Ping reports daemon liveness; slaves also use it as their watchdog
// probe (a slave whose daemon stops answering destroys itself, closing
// the daemon-death hole in §3.4).
func (s *service) Ping(_ struct{}, reply *PingReply) error {
	reply.Addr = s.d.Addr()
	reply.Jobs = s.d.JobCount()
	reply.Slaves = s.d.SlaveCount()
	return nil
}

// Client is an RPC connection to a remote daemon.
type Client struct {
	addr string
	rpc  *rpc.Client
}

// DialDaemon connects to a daemon's RPC endpoint.
func DialDaemon(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("daemon: dialing %s: %w", addr, err)
	}
	return &Client{addr: addr, rpc: rpc.NewClient(conn)}, nil
}

// DialDaemonRetry dials a daemon with exponential backoff and jitter
// until it connects or timeout elapses. A daemon restarting, a host
// briefly partitioned, or a spawn racing the daemon's listener are all
// transient; retrying with backoff keeps connect storms off a recovering
// daemon while still bounding the caller's wait. A non-positive timeout
// degrades to a single DialDaemon attempt.
func DialDaemonRetry(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		return DialDaemon(addr)
	}
	deadline := time.Now().Add(timeout)
	backoff := 50 * time.Millisecond
	const maxBackoff = 2 * time.Second
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("daemon: dialing %s: gave up after %s: %w", addr, timeout, lastErr)
		}
		dialTO := 5 * time.Second
		if dialTO > remain {
			dialTO = remain
		}
		conn, err := net.DialTimeout("tcp", addr, dialTO)
		if err == nil {
			return &Client{addr: addr, rpc: rpc.NewClient(conn)}, nil
		}
		lastErr = err
		// Full jitter over [backoff/2, backoff): concurrent retriers
		// (every survivor of a spawn, say) decorrelate instead of
		// hammering the endpoint in lockstep.
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)))
		if sleep > remain {
			sleep = remain
		}
		time.Sleep(sleep)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// Addr returns the daemon address this client talks to.
func (c *Client) Addr() string { return c.addr }

// Close releases the connection.
func (c *Client) Close() { c.rpc.Close() }

// CreateSlave asks the daemon to spawn a slave.
func (c *Client) CreateSlave(spec SlaveSpec) (SlaveInfo, error) {
	var info SlaveInfo
	err := c.rpc.Call(ServiceType+".CreateSlave", spec, &info)
	return info, err
}

// DestroyJob tears down the job's local slaves.
func (c *Client) DestroyJob(jobID uint64, reason string) error {
	return c.rpc.Call(ServiceType+".DestroyJob", JobRef{JobID: jobID, Reason: reason}, &struct{}{})
}

// RenewJob extends the job lease and returns the daemon's death verdicts
// for the job (always empty for non-elastic jobs).
func (c *Client) RenewJob(jobID uint64, dur time.Duration) ([]DeadRank, error) {
	var reply RenewJobReply
	err := c.rpc.Call(ServiceType+".RenewJob", RenewJobReq{JobID: jobID, LeaseMs: dur.Milliseconds()}, &reply)
	return reply.Dead, err
}

// Heartbeat renews the given liveness memberships.
func (c *Client) Heartbeat(jobID uint64, memberships []Membership) (HeartbeatReply, error) {
	var reply HeartbeatReply
	err := c.rpc.Call(ServiceType+".Heartbeat", HeartbeatReq{JobID: jobID, Memberships: memberships}, &reply)
	return reply, err
}

// Ping probes daemon liveness.
func (c *Client) Ping() (PingReply, error) {
	var reply PingReply
	err := c.rpc.Call(ServiceType+".Ping", struct{}{}, &reply)
	return reply, err
}
