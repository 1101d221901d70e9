package transport

import (
	"fmt"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/wire"
)

// HybTransport is the hybrid device ("hyb"), the analogue of MPJ Express's
// hybdev: one Transport composed of two meshes, routed per destination.
// Ranks co-located with this one — same locality key, meaning same OS
// process — are reached over a shared in-process channel mesh (zero
// syscalls on the data path); remote ranks over a TCP mesh that skips the
// co-located pairs entirely, so a job mixes intra-node and inter-node
// ranks transparently behind the one Transport interface.
//
// Co-located endpoints find each other through a process-local hub keyed
// by job id. Because each destination is permanently assigned to exactly
// one of the two meshes, the per-(src,dst) FIFO ordering guarantee of the
// Transport contract is preserved.
type HybTransport struct {
	rank  int
	size  int
	jobID uint64
	peers Peers // Local[i]: rank i shares this process, route via ch

	ch  *ChanTransport // shared-process mesh endpoint (always present; carries loopback)
	tcp *TCPTransport  // nil when every rank is co-located

	mu      sync.Mutex
	handler Handler
	errh    ErrorHandler
	closed  bool
}

var _ Transport = (*HybTransport)(nil)

// ProcessLocality returns this process's locality key: ranks whose keys
// compare equal share an OS process and can exchange frames over channels.
// The key is host-qualified so two slaves on different machines can never
// collide, and pid-qualified because Go channels do not cross process
// boundaries even on one machine.
func ProcessLocality() string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown-host"
	}
	return fmt.Sprintf("%s#%d", host, os.Getpid())
}

// HostOf returns the host part of a locality key — ranks whose host parts
// compare equal share a machine, whether or not they share a process — or
// "" for a key ProcessLocality did not produce (an old slave's empty
// entry), which callers must treat as "unknown", never as a host.
func HostOf(key string) string {
	i := strings.LastIndexByte(key, '#')
	if i <= 0 {
		return ""
	}
	return key[:i]
}

// DescribePeers describes rank's peers from the locality table the
// bootstrap distributed and the ranks that share rank's address space
// (local, nil for none). A rank on rank's host that does not share its
// address space is another process of the host: its key ends in its pid
// (see ProcessLocality), which Pids records.
func DescribePeers(dev DeviceName, rank int, locs []string, local []bool) Peers {
	p := Peers{Device: dev, Locs: locs, Local: local}
	if rank >= len(locs) {
		return p
	}
	host := HostOf(locs[rank])
	if host == "" {
		return p
	}
	for r, key := range locs {
		if r == rank || HostOf(key) != host || (r < len(local) && local[r]) {
			continue
		}
		pid, err := strconv.Atoi(key[len(host)+1:]) // past the '#' HostOf cut at
		if err != nil || pid <= 0 {
			continue
		}
		if p.Pids == nil {
			p.Pids = make([]int, len(locs))
		}
		p.Pids[r] = pid
	}
	return p
}

// HybConfig configures one endpoint of a hybrid mesh.
type HybConfig struct {
	// Rank is this endpoint's absolute rank; JobID namespaces the job in
	// the process-local hub and the TCP handshake.
	Rank  int
	JobID uint64

	// Locs[i] is rank i's locality key (ProcessLocality), distributed to
	// every rank through the job bootstrap. Ranks whose key equals
	// Locs[Rank] are routed over the channel mesh. A nil or short table
	// marks the unknown ranks remote, which is always safe.
	Locs []string

	// Addrs[i] is rank i's TCP mesh listener address and Listener this
	// rank's own listener; both are required only when a remote rank
	// exists (they are what NewTCPTransport takes).
	Addrs    []string
	Listener net.Listener
}

// NewHybTransport builds one endpoint of a hybrid mesh. Like
// NewTCPTransport it returns only once connections to all remote peers are
// established; the co-located half needs no handshake. The caller keeps
// ownership of cfg.Listener.
func NewHybTransport(cfg HybConfig) (*HybTransport, error) {
	size := len(cfg.Locs)
	if len(cfg.Addrs) > size {
		size = len(cfg.Addrs)
	}
	if cfg.Rank < 0 || cfg.Rank >= size {
		return nil, fmt.Errorf("transport: hyb rank %d out of range for %d ranks", cfg.Rank, size)
	}
	loc := ""
	if cfg.Rank < len(cfg.Locs) {
		loc = cfg.Locs[cfg.Rank]
	}
	if loc == "" {
		loc = ProcessLocality()
	}
	local := make([]bool, size)
	remote := 0
	for i := 0; i < size; i++ {
		local[i] = i == cfg.Rank || (i < len(cfg.Locs) && cfg.Locs[i] != "" && cfg.Locs[i] == loc)
		if !local[i] {
			remote++
		}
	}

	locs := make([]string, size)
	copy(locs, cfg.Locs)
	locs[cfg.Rank] = loc
	t := &HybTransport{
		rank:  cfg.Rank,
		size:  size,
		jobID: cfg.JobID,
		peers: DescribePeers(DeviceHyb, cfg.Rank, locs, local),
	}
	ch, err := processHub.join(cfg.JobID, size, cfg.Rank, local)
	if err != nil {
		return nil, err
	}
	ch.SetErrorHandler(t.peerAborted)
	t.ch = ch
	if remote > 0 {
		if cfg.Listener == nil {
			processHub.leave(cfg.JobID, cfg.Rank)
			return nil, fmt.Errorf("transport: hyb rank %d has %d remote peers but no listener", cfg.Rank, remote)
		}
		tcp, err := NewTCPMesh(cfg.Rank, cfg.JobID, cfg.Addrs, cfg.Listener, local)
		if err != nil {
			processHub.leave(cfg.JobID, cfg.Rank)
			return nil, err
		}
		t.tcp = tcp
	}
	return t, nil
}

// Rank returns this endpoint's rank.
func (t *HybTransport) Rank() int { return t.rank }

// Size returns the number of ranks in the job.
func (t *HybTransport) Size() int { return t.size }

// Peers describes the job as the bootstrap did: every rank's locality key
// ("" for ranks whose key never reached us), the co-located ranks the
// channel mesh carries, and the other processes of this host.
func (t *HybTransport) Peers() Peers { return t.peers }

// SetHandler installs the inbound frame handler on both halves; frames
// arrive with their sender's absolute rank regardless of the path taken.
func (t *HybTransport) SetHandler(h Handler) {
	t.mu.Lock()
	t.handler = h
	t.mu.Unlock()
	t.ch.SetHandler(h)
	if t.tcp != nil {
		t.tcp.SetHandler(h)
	}
}

// SetLander installs the landing hook on both halves.
func (t *HybTransport) SetLander(l Lander) {
	t.ch.SetLander(l)
	if t.tcp != nil {
		t.tcp.SetLander(l)
	}
}

// SetErrorHandler installs the peer-failure handler. TCP-side connection
// failures and the channel mesh's reports of co-located peers' aborts both
// arrive here.
func (t *HybTransport) SetErrorHandler(h ErrorHandler) {
	t.mu.Lock()
	t.errh = h
	t.mu.Unlock()
	if t.tcp != nil {
		t.tcp.SetErrorHandler(h)
	}
}

// Send routes frame to dst: channel mesh for co-located ranks (including
// self), TCP mesh otherwise.
func (t *HybTransport) Send(dst int, frame []byte) error {
	if dst < 0 || dst >= t.size {
		return ErrBadRank
	}
	if t.peers.Local[dst] {
		return t.ch.Send(dst, frame)
	}
	return t.tcp.Send(dst, frame)
}

// SendData routes a by-reference payload like Send routes a frame.
func (t *HybTransport) SendData(dst int, h wire.Header, payload []byte, done func(error)) error {
	if dst < 0 || dst >= t.size {
		return ErrBadRank
	}
	if t.peers.Local[dst] {
		return t.ch.SendData(dst, h, payload, done)
	}
	return t.tcp.SendData(dst, h, payload, done)
}

// Start launches both halves' reader and writer goroutines.
func (t *HybTransport) Start() error {
	t.mu.Lock()
	h := t.handler
	t.mu.Unlock()
	if h == nil {
		return ErrNoHandler
	}
	if err := t.ch.Start(); err != nil {
		return err
	}
	if t.tcp != nil {
		return t.tcp.Start()
	}
	return nil
}

// Rings plans the TCP half's rings (see TCPTransport.Rings); co-located
// ranks need none.
func (t *HybTransport) Rings(plan RingPlan) {
	if t.tcp != nil {
		t.tcp.Rings(plan)
	}
}

// Poll polls the TCP half's rings.
func (t *HybTransport) Poll(budget time.Duration) bool {
	return t.tcp != nil && t.tcp.Poll(budget)
}

// StreamOpen claims a stream area of the TCP half's ring to dst.
func (t *HybTransport) StreamOpen(dst int) (uint32, StreamMiss) {
	if t.tcp == nil {
		return 0, StreamNoRing
	}
	return t.tcp.StreamOpen(dst)
}

// Stream streams through the TCP half's ring to dst.
func (t *HybTransport) Stream(dst int, id uint32, payload []byte, hook func(off int) bool) bool {
	return t.tcp.Stream(dst, id, payload, hook)
}

// Unstream copies a stream out of the TCP half's ring from src.
func (t *HybTransport) Unstream(src int, id uint32, total int, dst []byte, quit *atomic.Bool) (int, error) {
	if t.tcp == nil {
		return 0, nil
	}
	return t.tcp.Unstream(src, id, total, dst, quit)
}

// Drain blocks until both halves have handed every accepted frame to their
// medium.
func (t *HybTransport) Drain() {
	t.ch.Drain()
	if t.tcp != nil {
		t.tcp.Drain()
	}
}

// Close performs an orderly shutdown of both halves and leaves the hub.
func (t *HybTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()

	err := t.ch.Close()
	if t.tcp != nil {
		if e := t.tcp.Close(); err == nil {
			err = e
		}
	}
	processHub.leave(t.jobID, t.rank)
	return err
}

// Abort tears both halves down abruptly. Remote peers observe their TCP
// connections breaking, exactly as with the plain TCP transport; peers
// co-located in this process hear of it from the channel mesh, which also
// tells those that start later. Either way the paper's
// partial-failure-becomes-total-failure model holds across a mixed job.
func (t *HybTransport) Abort() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.mu.Unlock()

	t.ch.Abort()
	if t.tcp != nil {
		t.tcp.Abort()
	}
	processHub.leave(t.jobID, t.rank)
}

// peerAborted forwards the channel mesh's report of an aborted endpoint to
// this endpoint's error handler, when the rank shares this process and the
// endpoint still runs. A rank that only shares the hub (a test lays out
// several hosts in one process) is a TCP peer: its socket reports it.
func (t *HybTransport) peerAborted(peer int, err error) {
	if !t.peers.Local[peer] {
		return
	}
	t.mu.Lock()
	h := t.errh
	closed := t.closed
	t.mu.Unlock()
	if closed || h == nil {
		return
	}
	h(peer, err)
}

// hub is the process-local rendezvous through which co-located ranks of a
// job find their shared channel mesh. (Ranks in other processes of the
// host share memory through the TCP half's rings instead, see ring.go.)
type hub struct {
	mu   sync.Mutex
	jobs map[uint64]*hubJob
	keep time.Duration // how long a memberless job keeps an owed report
}

// hubJob is one job's shared state in the hub: a full-width channel mesh
// (endpoints of remote ranks simply stay unused) and the ranks that have
// joined it. The job outlives its members while an abort is on record and
// a rank that shares a member's process has yet to join: the mesh tells
// that rank of the abort when it starts. A rank that dies before it joins
// never comes, so the report is kept for the hub's keep only.
type hubJob struct {
	np      int
	eps     []*ChanTransport
	members map[int]bool
	joined  []bool // ever joined
	owed    []bool // shares a joiner's process, not joined yet
}

// processHub keeps an owed report for as long as a mesh may take to form.
var processHub = hub{jobs: make(map[uint64]*hubJob), keep: BootstrapTimeout}

// join registers rank under jobID and returns its channel-mesh endpoint;
// local marks the ranks that share its process. The first rank of a job
// to arrive creates the mesh; every rank leaves again through leave.
func (h *hub) join(jobID uint64, np, rank int, local []bool) (*ChanTransport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	j := h.jobs[jobID]
	if j == nil {
		j = &hubJob{np: np, eps: NewChanMesh(np), members: make(map[int]bool), joined: make([]bool, np), owed: make([]bool, np)}
		h.jobs[jobID] = j
	}
	if j.np != np {
		return nil, fmt.Errorf("transport: hub job %d spans %d ranks, rank %d expects %d", jobID, j.np, rank, np)
	}
	if j.members[rank] {
		return nil, fmt.Errorf("transport: rank %d joined hub job %d twice", rank, jobID)
	}
	j.members[rank] = true
	j.joined[rank] = true
	j.owed[rank] = false
	for r, l := range local {
		if l && !j.joined[r] {
			j.owed[r] = true
		}
	}
	return j.eps[rank], nil
}

// leave deregisters rank from jobID. The job entry dies with its last
// member, or, when it owes an abort report to a rank yet to join, h.keep
// later unless a rank has joined by then.
func (h *hub) leave(jobID uint64, rank int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	j := h.jobs[jobID]
	if j == nil {
		return
	}
	delete(j.members, rank)
	if len(j.members) > 0 {
		return
	}
	if !slices.Contains(j.owed, true) || !j.eps[0].mesh.anyAborted() {
		delete(h.jobs, jobID)
		return
	}
	time.AfterFunc(h.keep, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.jobs[jobID] == j && len(j.members) == 0 {
			delete(h.jobs, jobID)
		}
	})
}
