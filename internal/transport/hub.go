package transport

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ProcessLocality returns this process's locality key: ranks whose keys
// compare equal share an OS process and hand frames to each other's
// handlers. The key is host-qualified so two slaves on different machines
// can never collide, and pid-qualified because a handler cannot be called
// across process boundaries even on one machine.
func ProcessLocality() string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown-host"
	}
	return fmt.Sprintf("%s#%d", host, os.Getpid())
}

// HostOf returns the host part of a locality key — ranks whose host parts
// compare equal share a machine, whether or not they share a process — or
// "" for a key ProcessLocality did not produce, which callers must treat
// as "unknown", never as a host.
func HostOf(key string) string {
	i := strings.LastIndexByte(key, '#')
	if i <= 0 {
		return ""
	}
	return key[:i]
}

// DescribePeers describes rank's peers, none of which shares rank's
// address space, from the locality table the bootstrap distributed. A rank
// on rank's host is another process of the host: its key ends in its pid
// (see ProcessLocality), which Pids records.
func DescribePeers(dev DeviceName, rank int, locs []string) Peers {
	p := Peers{Device: dev, Locs: locs}
	if rank >= len(locs) {
		return p
	}
	host := HostOf(locs[rank])
	if host == "" {
		return p
	}
	for r, key := range locs {
		if r == rank || HostOf(key) != host {
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

// JoinHub returns rank's endpoint of job jobID's channel mesh in this
// process, for slaves that all run here: locs is the job's locality table,
// one key per rank, which the endpoint's Peers carry. The first rank of a
// job to arrive creates the mesh; the endpoint leaves it again when it
// closes or aborts. An endpoint that aborts before a rank of the job has
// joined is reported to that rank when it starts.
func JoinHub(jobID uint64, rank int, locs []string) (*ChanTransport, error) {
	if rank < 0 || rank >= len(locs) {
		return nil, fmt.Errorf("transport: hub rank %d out of range for %d ranks", rank, len(locs))
	}
	ep, err := processHub.join(jobID, len(locs), rank)
	if err != nil {
		return nil, err
	}
	ep.peers.Locs = locs
	return ep, nil
}

// hub is the process-local rendezvous through which the slaves of a job
// that share this process find their channel mesh.
type hub struct {
	mu   sync.Mutex
	jobs map[uint64]*hubJob
	keep time.Duration // how long a memberless job keeps an abort report
}

// hubJob is one job's shared state in the hub: its channel mesh and the
// ranks that have joined it. The job outlives its members while an abort
// is on record and a rank has yet to join: the mesh tells that rank of the
// abort when it starts. A rank that dies before it joins never comes, so
// the report is kept for the hub's keep only.
type hubJob struct {
	np      int
	eps     []*ChanTransport
	members map[int]bool
	joined  []bool // ever joined
}

// processHub keeps an abort report for as long as a mesh may take to form.
var processHub = hub{jobs: make(map[uint64]*hubJob), keep: BootstrapTimeout}

// join registers rank under jobID and returns its channel-mesh endpoint.
// The first rank of a job to arrive creates the mesh; every endpoint
// leaves again through leave once it has shut down.
func (h *hub) join(jobID uint64, np, rank int) (*ChanTransport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	j := h.jobs[jobID]
	if j == nil {
		j = &hubJob{np: np, eps: NewChanMesh(np), members: make(map[int]bool), joined: make([]bool, np)}
		j.eps[0].mesh.onLeave = func(rank int) { h.leave(jobID, j, rank) }
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
	return j.eps[rank], nil
}

// leave deregisters rank from job j, kept under jobID. The job entry dies
// with its last member, or, when it owes an abort report to a rank yet to
// join, h.keep later unless a rank has joined by then.
func (h *hub) leave(jobID uint64, j *hubJob, rank int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.jobs[jobID] != j {
		return
	}
	delete(j.members, rank)
	if len(j.members) > 0 {
		return
	}
	if !slices.Contains(j.joined, false) || !j.eps[0].mesh.anyAborted() {
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
