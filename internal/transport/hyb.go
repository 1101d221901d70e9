package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"

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
	loc   string
	local []bool   // local[i]: rank i shares this process, route via ch
	locs  []string // per-rank locality keys from the bootstrap (LocalityTable)

	ch  *ChanTransport // shared-process mesh endpoint (always present; carries loopback)
	tcp *TCPTransport  // nil when every rank is co-located

	mu      sync.Mutex
	handler Handler
	errh    ErrorHandler
	closed  bool
}

var _ Transport = (*HybTransport)(nil)

// ErrPeerAborted is reported through the error handler of co-located
// endpoints when a peer in the same process aborts: in-process peers have
// no connection to observe breaking, so the hub propagates the failure
// explicitly.
var ErrPeerAborted = errors.New("transport: co-located peer aborted")

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
		loc:   loc,
		local: local,
		locs:  locs,
	}
	ch, err := processHub.join(cfg.JobID, size, cfg.Rank, t)
	if err != nil {
		return nil, err
	}
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

// Local reports whether dst is routed over the in-process channel mesh.
func (t *HybTransport) Local(dst int) bool {
	return dst >= 0 && dst < t.size && t.local[dst]
}

// LocalityTable returns the per-rank locality keys the bootstrap
// distributed to this endpoint (a copy; entry i is rank i's key, "" for
// ranks whose key never reached us). Ranks with equal non-empty keys are
// co-located; the topology-aware collectives group by it.
func (t *HybTransport) LocalityTable() []string {
	out := make([]string, len(t.locs))
	copy(out, t.locs)
	return out
}

// DeviceName names the transport flavor; it only labels reports (the
// benchmark's device field, test output).
func (t *HybTransport) DeviceName() string { return "hyb" }

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
// failures and hub-propagated aborts of co-located peers both arrive here.
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
	if t.local[dst] {
		return t.ch.Send(dst, frame)
	}
	return t.tcp.Send(dst, frame)
}

// SendData routes a by-reference payload like Send routes a frame.
func (t *HybTransport) SendData(dst int, h wire.Header, payload []byte, done func(error)) error {
	if dst < 0 || dst >= t.size {
		return ErrBadRank
	}
	if t.local[dst] {
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
// co-located in this process have no connection to observe, so the hub
// notifies their error handlers directly. Either way the paper's
// partial-failure-becomes-total-failure model holds across a mixed job.
func (t *HybTransport) Abort() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.mu.Unlock()

	siblings := processHub.coLocated(t.jobID, t.rank, t.loc)
	t.ch.Abort()
	if t.tcp != nil {
		t.tcp.Abort()
	}
	processHub.leave(t.jobID, t.rank)
	for _, s := range siblings {
		s.peerAborted(t.rank)
	}
}

// peerAborted forwards a co-located peer's abort to this endpoint's error
// handler, unless this endpoint is already shut down.
func (t *HybTransport) peerAborted(peer int) {
	t.mu.Lock()
	h := t.errh
	closed := t.closed
	t.mu.Unlock()
	if closed || h == nil {
		return
	}
	h(peer, ErrPeerAborted)
}

// hub is the process-local rendezvous through which co-located ranks of a
// job find their shared channel mesh — the stand-in for the shared-memory
// segment a multicore MPI device would map.
type hub struct {
	mu   sync.Mutex
	jobs map[uint64]*hubJob
}

// hubJob is one job's shared state in the hub: a full-width channel mesh
// (endpoints of remote ranks simply stay unused) and the locally joined
// endpoints, kept for abort propagation.
type hubJob struct {
	np      int
	eps     []*ChanTransport
	members map[int]*HybTransport
}

var processHub = hub{jobs: make(map[uint64]*hubJob)}

// join registers rank under jobID and returns its channel-mesh endpoint.
// The first rank of a job to arrive creates the mesh; every rank leaves
// again through leave, and the job entry dies with its last member.
func (h *hub) join(jobID uint64, np, rank int, m *HybTransport) (*ChanTransport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	j := h.jobs[jobID]
	if j == nil {
		j = &hubJob{np: np, eps: NewChanMesh(np), members: make(map[int]*HybTransport)}
		h.jobs[jobID] = j
	}
	if j.np != np {
		return nil, fmt.Errorf("transport: hub job %d spans %d ranks, rank %d expects %d", jobID, j.np, rank, np)
	}
	if _, dup := j.members[rank]; dup {
		return nil, fmt.Errorf("transport: rank %d joined hub job %d twice", rank, jobID)
	}
	j.members[rank] = m
	return j.eps[rank], nil
}

// leave deregisters rank from jobID, dropping the job when empty.
func (h *hub) leave(jobID uint64, rank int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	j := h.jobs[jobID]
	if j == nil {
		return
	}
	delete(j.members, rank)
	if len(j.members) == 0 {
		delete(h.jobs, jobID)
	}
}

// coLocated snapshots the currently joined endpoints sharing loc, rank's
// own excluded. Callers use the snapshot outside the hub lock.
func (h *hub) coLocated(jobID uint64, rank int, loc string) []*HybTransport {
	h.mu.Lock()
	defer h.mu.Unlock()
	j := h.jobs[jobID]
	if j == nil {
		return nil
	}
	var out []*HybTransport
	for r, m := range j.members {
		if r != rank && m.loc == loc {
			out = append(out, m)
		}
	}
	return out
}
