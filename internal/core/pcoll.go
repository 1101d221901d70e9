package core

import (
	"fmt"
	"sync"
)

// This file implements persistent collectives — the MPI_Bcast_init family
// of MPI 4.0, and the natural completion of the schedule engine's
// separation of setup from communication (compile once, Start many). A
// Commit* call fixes the operation's arguments, validates them, resolves
// the algorithm route and reserves one schedule tag from the
// communicator's collective counter; each Start then activates a fresh
// run of the schedule under that committed tag, re-reading the user
// buffers (so iteration loops may mutate them between activations)
// without re-agreeing on a tag. Start compiles through the shared
// builders, so argument validation runs again per activation — the
// Commit-time checks exist to surface argument errors eagerly, before
// the first Start, as MPI's *_init calls may.
//
// Because the tag is fixed at Commit time, Start calls of distinct
// persistent requests never contend for tag agreement: only the Commit*
// calls must be made in the same order by every member (like every other
// collective call), after which each request's activations match purely
// by its own tag — FIFO matching per (src, dst, tag) keeps successive
// activations apart, since a new Start is only legal once the previous
// activation completed locally and sends post in schedule order.
//
// Because each Start compiles onto the shared schedule engine, persistent
// activations need no instrumentation of their own: they appear in the
// prof counters and trace timelines exactly like their one-shot forms
// (see internal/prof and sched.go).

// PcollRequest is a persistent collective request — the collective
// analogue of Prequest. It is created by the Commit* methods, activated
// by Start and completed by Wait/Test (it satisfies AnyRequest, so mixed
// batches drain through WaitAllRequests). The buffers captured at Commit
// time are re-read on every Start; they must not be touched while an
// activation is in flight.
type PcollRequest struct {
	c    *Comm
	name string
	tag  int
	make func(tag int) (*CollRequest, error)

	mu     sync.Mutex
	active *CollRequest
	skel   *collSkeleton
}

// collSkeleton is a compiled schedule cached across activations of a
// persistent collective: the rounds and finish hook of the first
// activation, reused verbatim by every later Start. Reuse is sound only
// when the schedule re-reads the user buffers each time it runs — send
// steps that fill frames at post time, receives landing in user windows
// or cells that a receive overwrites before anything reads them, finish
// hooks that pack at finish time. Builders whose schedules do capture
// build-time state (packed cells, reduction accumulators) may still opt
// in by supplying a reset hook (CollRequest.cacheable/reset) that
// re-derives that state from the user buffers; Start runs it before each
// reactivation. Schedules holding pooled scratch released at finish are
// never cacheable and recompile on every Start.
type collSkeleton struct {
	alg    string
	rounds []round
	finish func() error
	reset  func() error
}

// cacheable marks a schedule as cacheable: every payload it sends is
// produced at post or finish time, or re-derived from the user buffers by
// hooks, which run in order before each reactivation; nil hooks (steps with
// nothing to re-derive) are dropped.
func cacheable(r *CollRequest, err error, hooks ...func() error) (*CollRequest, error) {
	if err != nil {
		return r, err
	}
	r.cacheable = true
	var live []func() error
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	if len(live) > 0 {
		r.reset = func() error {
			for _, h := range live {
				if err := h(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return r, nil
}

// commitColl reserves a schedule tag and wraps a builder closure into a
// persistent request. Builders opt in to skeleton caching per compiled
// schedule by setting CollRequest.cacheable, with a reset hook when the
// schedule holds build-time data. Committing on a freed communicator fails
// with ErrComm, like starting any other collective.
func (c *Comm) commitColl(name string, mk func(tag int) (*CollRequest, error)) (*PcollRequest, error) {
	c.collMu.Lock()
	freed := c.freed
	c.collMu.Unlock()
	if freed {
		return nil, fmt.Errorf("%s: %w: communicator is freed", name, ErrComm)
	}
	return &PcollRequest{c: c, name: name, tag: c.nextCollTag(), make: mk}, nil
}

// Start activates the persistent collective: the schedule runs against
// the current buffer contents and its first round posts immediately. The
// previous activation must have completed (Wait or Test returned done)
// first. Every member of the communicator must start its matching
// persistent request; activations of one request complete in Start order.
//
// The first Start of a cacheable schedule — one whose builder set
// CollRequest.cacheable — caches the compiled rounds; later Starts
// reactivate the cached skeleton, running the reset hook first so packed
// cells and accumulators are re-derived from the current buffer contents
// before round 0 posts. Other schedules recompile per activation.
//
// Starting over a communicator with a failed member or a revocation fails
// immediately with ErrRankFailed/ErrRevoked — the schedule could never
// complete, so no activation is created.
func (p *PcollRequest) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active != nil && !p.active.Done() {
		return fmt.Errorf("%s: %w: persistent collective started while still active", p.name, ErrOther)
	}
	if err := p.c.memberFailure(); err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	if p.skel != nil {
		// Reset must complete before the request is created: round 0 posts
		// inside the constructor, and round-0 sends may read the very state
		// reset re-derives.
		if p.skel.reset != nil {
			if err := p.skel.reset(); err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
		}
		r, err := p.c.newCollRequestAlg(p.name, p.tag, p.skel.alg, p.skel.rounds, p.skel.finish)
		if err != nil {
			return err
		}
		p.active = r
		return nil
	}
	r, err := p.make(p.tag)
	if err != nil {
		return err
	}
	if r.cacheable {
		p.skel = &collSkeleton{alg: r.alg, rounds: r.rounds, finish: r.finish, reset: r.reset}
	}
	p.active = r
	return nil
}

// current returns the active CollRequest, or an error when Start has not
// been called.
func (p *PcollRequest) current() (*CollRequest, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active == nil {
		return nil, fmt.Errorf("%s: %w: persistent collective not started", p.name, ErrOther)
	}
	return p.active, nil
}

// Wait blocks until the current activation completes. The request stays
// valid: a subsequent Start runs the schedule again.
func (p *PcollRequest) Wait() (*Status, error) {
	r, err := p.current()
	if err != nil {
		return nil, err
	}
	return r.Wait()
}

// Test advances the current activation without blocking and reports
// whether it has completed.
func (p *PcollRequest) Test() (*Status, bool, error) {
	r, err := p.current()
	if err != nil {
		return nil, false, err
	}
	return r.Test()
}

// String renders the request for diagnostics.
func (p *PcollRequest) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	state := "inactive"
	if p.active != nil {
		state = p.active.String()
	}
	return fmt.Sprintf("PcollRequest{%s tag=%d %s}", p.name, p.tag, state)
}

// ---------------------------------------------------------------------
// The Commit* surface: one constructor per collective, capturing the
// operation's arguments. Cheap argument errors (bad root, malformed
// count/displacement layouts) surface at Commit time; buffer-content
// errors surface from Start, which compiles against the live buffers.
// ---------------------------------------------------------------------

// CommitBarrier creates a persistent barrier — MPI_Barrier_init.
func (c *Comm) CommitBarrier() (*PcollRequest, error) {
	return c.commitColl("pbarrier", func(tag int) (*CollRequest, error) {
		return c.ibarrier("pbarrier", tag)
	})
}

// CommitBcast creates a persistent broadcast over buf — MPI_Bcast_init.
// Each Start broadcasts the root buffer's current contents.
func (c *Comm) CommitBcast(buf any, off, count int, dt Datatype, root int) (*PcollRequest, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	return c.commitColl("pbcast", func(tag int) (*CollRequest, error) {
		return c.ibcast("pbcast", tag, buf, off, count, dt, root)
	})
}

// CommitGather creates a persistent gather — MPI_Gather_init.
func (c *Comm) CommitGather(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype, root int) (*PcollRequest, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	return c.commitColl("pgather", func(tag int) (*CollRequest, error) {
		return c.igather("pgather", tag, sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt, root)
	})
}

// CommitScatter creates a persistent scatter — MPI_Scatter_init.
func (c *Comm) CommitScatter(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype, root int) (*PcollRequest, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	return c.commitColl("pscatter", func(tag int) (*CollRequest, error) {
		return c.iscatter("pscatter", tag, sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt, root)
	})
}

// CommitAllgather creates a persistent allgather — MPI_Allgather_init.
func (c *Comm) CommitAllgather(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype) (*PcollRequest, error) {
	return c.commitColl("pallgather", func(tag int) (*CollRequest, error) {
		return c.iallgather("pallgather", tag, sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt)
	})
}

// CommitAlltoall creates a persistent all-to-all — MPI_Alltoall_init.
func (c *Comm) CommitAlltoall(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype) (*PcollRequest, error) {
	return c.commitColl("palltoall", func(tag int) (*CollRequest, error) {
		return c.ialltoall("palltoall", tag, sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt)
	})
}

// CommitReduce creates a persistent reduction — MPI_Reduce_init.
func (c *Comm) CommitReduce(sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op, root int) (*PcollRequest, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	return c.commitColl("preduce", func(tag int) (*CollRequest, error) {
		return c.ireduce("preduce", tag, sbuf, soff, rbuf, roff, count, dt, op, root)
	})
}

// CommitAllreduce creates a persistent allreduce — MPI_Allreduce_init.
// The algorithm route is resolved once, at Commit time; its activations
// keep their message rounds (see formPersistent).
func (c *Comm) CommitAllreduce(sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op) (*PcollRequest, error) {
	alg := c.autoAllreduceAlg(count, dt)
	return c.commitColl("pallreduce", func(tag int) (*CollRequest, error) {
		return c.iallreduce("pallreduce", tag, alg, formPersistent, sbuf, soff, rbuf, roff, count, dt, op)
	})
}

// CommitScan creates a persistent inclusive prefix reduction —
// MPI_Scan_init.
func (c *Comm) CommitScan(sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op) (*PcollRequest, error) {
	return c.commitColl("pscan", func(tag int) (*CollRequest, error) {
		return c.iscan("pscan", tag, sbuf, soff, rbuf, roff, count, dt, op)
	})
}

// CommitGatherv creates a persistent varying-count gather —
// MPI_Gatherv_init. The count/displacement layout is validated once,
// here.
func (c *Comm) CommitGatherv(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff int, rcounts, displs []int, rdt Datatype, root int) (*PcollRequest, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	if c.rank == root {
		if err := checkVSpec(c.Size(), rcounts, displs, rdt.Extent(), roff, bufSlots(rbuf), true); err != nil {
			return nil, fmt.Errorf("pgatherv: %w", err)
		}
	}
	return c.commitColl("pgatherv", func(tag int) (*CollRequest, error) {
		return c.igatherv("pgatherv", tag, sbuf, soff, scount, sdt, rbuf, roff, rcounts, displs, rdt, root)
	})
}

// CommitScatterv creates a persistent varying-count scatter —
// MPI_Scatterv_init.
func (c *Comm) CommitScatterv(sbuf any, soff int, scounts, displs []int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype, root int) (*PcollRequest, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	if c.rank == root {
		if err := checkVSpec(c.Size(), scounts, displs, sdt.Extent(), soff, bufSlots(sbuf), false); err != nil {
			return nil, fmt.Errorf("pscatterv: %w", err)
		}
	}
	return c.commitColl("pscatterv", func(tag int) (*CollRequest, error) {
		return c.iscatterv("pscatterv", tag, sbuf, soff, scounts, displs, sdt, rbuf, roff, rcount, rdt, root)
	})
}

// CommitAllgatherv creates a persistent varying-count allgather —
// MPI_Allgatherv_init.
func (c *Comm) CommitAllgatherv(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff int, rcounts, displs []int, rdt Datatype) (*PcollRequest, error) {
	if err := checkVSpec(c.Size(), rcounts, displs, rdt.Extent(), roff, bufSlots(rbuf), true); err != nil {
		return nil, fmt.Errorf("pallgatherv: %w", err)
	}
	return c.commitColl("pallgatherv", func(tag int) (*CollRequest, error) {
		return c.iallgatherv("pallgatherv", tag, sbuf, soff, scount, sdt, rbuf, roff, rcounts, displs, rdt)
	})
}

// CommitAlltoallv creates a persistent varying-count all-to-all —
// MPI_Alltoallv_init.
func (c *Comm) CommitAlltoallv(sbuf any, soff int, scounts, sdispls []int, sdt Datatype,
	rbuf any, roff int, rcounts, rdispls []int, rdt Datatype) (*PcollRequest, error) {
	if err := checkVSpec(c.Size(), scounts, sdispls, sdt.Extent(), soff, bufSlots(sbuf), false); err != nil {
		return nil, fmt.Errorf("palltoallv: %w", err)
	}
	if err := checkVSpec(c.Size(), rcounts, rdispls, rdt.Extent(), roff, bufSlots(rbuf), true); err != nil {
		return nil, fmt.Errorf("palltoallv: %w", err)
	}
	return c.commitColl("palltoallv", func(tag int) (*CollRequest, error) {
		return c.ialltoallv("palltoallv", tag, sbuf, soff, scounts, sdispls, sdt, rbuf, roff, rcounts, rdispls, rdt)
	})
}

// CommitReduceScatter creates a persistent reduce-scatter —
// MPI_Reduce_scatter_init.
func (c *Comm) CommitReduceScatter(sbuf any, soff int, rbuf any, roff int, rcounts []int, dt Datatype, op *Op) (*PcollRequest, error) {
	if len(rcounts) != c.Size() {
		return nil, fmt.Errorf("preduce_scatter: %w: need %d rcounts, got %d", ErrCount, c.Size(), len(rcounts))
	}
	for i, n := range rcounts {
		if n < 0 {
			return nil, fmt.Errorf("preduce_scatter: %w: negative count %d for rank %d", ErrCount, n, i)
		}
	}
	if dt.ByteSize() <= 0 {
		return nil, fmt.Errorf("preduce_scatter: %w: reduce-scatter requires fixed-size elements, have %s", ErrType, dt.Name())
	}
	return c.commitColl("preduce_scatter", func(tag int) (*CollRequest, error) {
		return c.ireduceScatter("preduce_scatter", tag, sbuf, soff, rbuf, roff, rcounts, dt, op)
	})
}
