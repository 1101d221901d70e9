package core

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"
	"unsafe"

	"mpj/internal/device"
	"mpj/internal/prof"
)

// This file implements the collective schedule engine. A collective call
// is compiled into a per-rank schedule — an ordered list of rounds, each a
// set of independent isend/irecv steps against the device, with local
// reduce/copy work attached as receive completion actions, or one step of
// a walk through the host area (hostarea.go) — and a
// CollRequest drives the schedule forward on every Wait/Test entry.
// Progress therefore needs no background goroutine, exactly like the
// device layer: whatever goroutine observes the request advances it, and
// the device's frame handler completes the underlying device requests in
// the meantime. Blocking collectives compile the very same schedules and
// simply Wait immediately, so both families share one algorithm source
// (see coll.go and icoll.go for the builders).
//
// The round loop is the second instrumentation seam: when the device
// carries a prof.Recorder, every schedule reports its start (operation,
// chosen algorithm and round count), each round's posting and
// completion, its end, and time parked in parkUntil — the data behind
// Comm.ProfSnapshot and the MPJ_PROF=trace timelines (see internal/prof).

// cell is a byte-buffer slot shared between schedule steps: a receive
// fills it, later sends and the finish hook read it. A plain cell adopts
// whatever buffer arrives; a fixed cell is an assembly space of known
// length — often a raw window of user memory — that payloads land in
// directly, so steps may hold slices of it.
type cell struct {
	b     []byte
	fixed bool
}

// recvFrom is the receive that brings the cell's payload in from a peer.
func (cl *cell) recvFrom(from int) recvStep {
	if cl.fixed {
		return recvStep{from: from, buf: cl.b}
	}
	return recvStep{from: from, on: func(got []byte) error { cl.b = got; return nil }}
}

// sendStep emits one message when its round starts. The payload supplier
// runs at post time, so it sees every buffer mutation made by earlier
// rounds; unless the step lends them, the bytes are copied at post
// (collIsend/collIsendFill), so later mutation of the buffer is safe.
//
// A step carries either data (a byte supplier, for payloads that already
// exist as packed bytes) or fill with its exact length n (a packer that
// writes the n-byte payload directly into the outgoing wire frame,
// skipping the intermediate buffer — used by builders whose first-round
// sends carry freshly packed user data).
type sendStep struct {
	to   int // group rank
	data func() []byte
	n    int                // fill only: exact payload length
	fill func([]byte) error // fill the frame payload in place

	// lend marks a data step whose payload the device reads in place until
	// the send completes (device.Isend) instead of copying it at post. The
	// builder vouches that nothing in the step's round — which outlasts the
	// send — writes those bytes; schedshape_test.go's lendCheck checks it.
	lend bool
}

// recvStep posts one receive when its round starts. With a nil buf the
// receive is dynamic (the device allocates on arrival); a non-nil buf makes
// the payload land directly in it — fixed cells and the large-vector
// schedules point buf into their assembly buffers (often raw windows of
// user memory), so payloads arrive with no staging copy. The completion
// action runs when the round finishes, with the received bytes (store into
// a cell, fold into an accumulator, unpack into user data); buffered
// receives see buf.
type recvStep struct {
	from int    // group rank
	buf  []byte // nil: allocate on arrival; else receive in place
	on   func(got []byte) error
}

// round is one layer of the schedule DAG: steps within a round are
// independent and run concurrently; a round starts only after every step
// of the previous round has completed. Receives are posted before sends —
// the deadlock-safe pairwise ordering used throughout the blocking
// collectives. Local work lives in recv completion actions and the
// schedule's finish hook; composed schedules bridge data through shared
// cells (see iallreduce's reduce+bcast concatenation).
type round struct {
	recvs []recvStep
	sends []sendStep

	// walk, when set, makes the round step walkStep of a walk through the
	// host area (hostarea.go): no messages, done when its barrier passed.
	walk     *hostWalk
	walkStep int
}

// tagSchedBase is the first tag used by schedule-compiled collectives.
// Every compiled collective gets a fresh tag from the communicator's
// counter, so several collectives can be in flight on one communicator
// without their traffic cross-matching; the hand-rolled collectives keep
// their fixed tags below this base (see coll.go).
const tagSchedBase = 1 << 10

// nextCollTag allocates the tag for the next compiled collective. All
// members start collectives on a communicator in the same order (the MPI
// rule), so the counters — and hence the tags — agree across ranks.
func (c *Comm) nextCollTag() int {
	c.collMu.Lock()
	defer c.collMu.Unlock()
	tag := tagSchedBase + c.collSeq&0x3fffffff
	c.collSeq++
	return tag
}

// registerColl records an in-flight collective in the process-wide
// registry so Free can fail it and parked waiters can drive it; it
// rejects new collectives on a freed communicator. The c.collMu section
// encloses the insert so a concurrent Free either sees the request in the
// registry or rejects it here.
func (c *Comm) registerColl(r *CollRequest) error {
	c.collMu.Lock()
	defer c.collMu.Unlock()
	if c.freed {
		return fmt.Errorf("%w: communicator is freed", ErrComm)
	}
	if c.revoked.Load() {
		return ErrRevoked
	}
	c.proc.collMu.Lock()
	if c.proc.inflight == nil {
		c.proc.inflight = make(map[*CollRequest]struct{})
	}
	c.proc.inflight[r] = struct{}{}
	c.proc.collCount.Store(int64(len(c.proc.inflight)))
	c.proc.collMu.Unlock()
	return nil
}

// unregisterColl drops a completed collective from the registry.
func (c *Comm) unregisterColl(r *CollRequest) {
	c.proc.collMu.Lock()
	delete(c.proc.inflight, r)
	c.proc.collCount.Store(int64(len(c.proc.inflight)))
	c.proc.collMu.Unlock()
}

// progressSiblings advances every other in-flight collective schedule of
// the process — on this and every other communicator sharing the device.
// MPI lets a program complete outstanding collectives in any order;
// because schedules progress only on entry, a wait parked on one operation
// must keep driving the rounds of its siblings, or ranks waiting in
// different orders would deadlock.
func (c *Comm) progressSiblings(except *CollRequest) {
	var few [8]*CollRequest // the usual handful needs no allocation per park
	c.proc.collMu.Lock()
	sibs := few[:0]
	for s := range c.proc.inflight {
		if s != except {
			sibs = append(sibs, s)
		}
	}
	c.proc.collMu.Unlock()
	for _, s := range sibs {
		s.mu.Lock()
		s.progressLocked()
		s.mu.Unlock()
	}
}

// parkUntil is the one park loop of the library's blocking waits:
// Request.Wait and the blocking point-to-point forms while collective
// schedules are in flight (waitDevice), Probe, WaitAny, WaitAllRequests,
// CollRequest.Wait, the window's epoch waits (Win.waitEpoch) and
// agreement (ftAgree). Each pass reads the device's wake generation, then
// looks (look reports whether the wait is over), drives the in-flight
// schedules except one, and parks until the generation moves. Because the
// read comes before the look, whatever happens after the look — a
// completion, an arrival, a death, a revocation, a window's state change
// or a host-area barrier passing (both Device.Wake), Close — has moved the
// generation and the park returns at once: no wakeup is lost. Time parked
// is the profile's wait span, charged to device context ctx.
func (c *Comm) parkUntil(ctx int, except *CollRequest, look func() bool) {
	for {
		gen := c.dev.Gen()
		if look() {
			return
		}
		if c.proc.collCount.Load() != 0 {
			c.progressSiblings(except)
		}
		if h := c.proc.parkHook; h != nil {
			h()
		}
		var t0 time.Time
		p := c.dev.Profiler()
		if p != nil {
			t0 = time.Now()
		}
		c.dev.WaitProgress(gen)
		if p != nil {
			p.WaitSpan(ctx, t0)
		}
	}
}

// collDone is the terminal status of a completed collective: collectives
// have no single source or tag, so both report Undefined.
func collDone() *Status {
	return &Status{Source: Undefined, Tag: Undefined, elements: -1}
}

// CollRequest is a handle on an in-flight non-blocking collective — the
// analogue of the MPI_Request returned by MPI_Ibcast and friends. It
// satisfies the same Wait/Test surface as point-to-point Requests (both
// implement AnyRequest), so mixed batches complete through
// WaitAllRequests.
//
// A CollRequest makes progress only inside Wait and Test (progress on
// entry): each call posts any rounds whose dependencies are met and reaps
// completed device requests. All members of the communicator must
// eventually complete the collective, in the same order relative to other
// collectives on that communicator, as for the blocking forms.
type CollRequest struct {
	c    *Comm
	name string // operation name for error wrapping ("ibcast", ...)
	tag  int

	// Instrumentation (see internal/prof): prof caches the device's
	// recorder at creation (nil when profiling is off), alg names the
	// algorithm this schedule compiles. Set once before the first round
	// posts, read-only after.
	prof *prof.Recorder
	alg  string

	// Persistent-collective cache opt-in (see pcoll.go). A builder that
	// compiles a reactivation-safe schedule sets cacheable before
	// returning; reset, when non-nil, re-derives the schedule's build-time
	// state (packed cells and accumulators) from the user buffers and runs
	// before every reactivation of the cached rounds. Both fields are
	// written once by the builder and read only by PcollRequest.Start.
	cacheable bool
	reset     func() error

	mu      sync.Mutex
	rounds  []round
	finish  func() error // runs once after the last round
	cur     int          // index of the current round
	posted  bool         // current round's requests are in flight
	pending []*device.Request
	actions []func([]byte) error // recv completion actions, parallel to pending
	loans   []*device.Request    // of pending: lent sends and in-place receives (see failLocked)
	ftEpoch uint64               // failure epoch at the last membership check
	done    bool
	status  *Status
	err     error
}

// newCollRequestAlg compiles a schedule into a request, registers it with
// the communicator and posts the first round so communication overlaps
// whatever the caller does before Wait. Every builder names the algorithm
// it compiled (alg), so profiles, traces and String can say which schedule
// actually ran.
func (c *Comm) newCollRequestAlg(name string, tag int, alg string, rounds []round, finish func() error) (*CollRequest, error) {
	r := &CollRequest{c: c, name: name, tag: tag, alg: alg, rounds: rounds, finish: finish, prof: c.dev.Profiler()}
	// Once registerColl publishes r, a sibling's park loop may post its
	// rounds: r.mu, held from before, keeps it out until CollStart is
	// recorded and the first round posted here.
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := c.registerColl(r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if r.prof != nil {
		r.prof.CollStart(c.coll, tag, name, alg, len(rounds))
	}
	r.progressLocked()
	return r, nil
}

// postLocked starts the current round: receives are posted, then sends.
// Callers hold r.mu.
func (r *CollRequest) postLocked() error {
	// Fault-injection seam: a test harness may kill, drop or delay this
	// rank right here, at a deterministic round boundary.
	r.c.dev.CallRoundHook(r.c.coll, r.tag, r.cur)
	if r.prof != nil {
		r.prof.RoundStart(r.c.coll, r.tag, r.cur)
	}
	rd := &r.rounds[r.cur]
	r.pending = make([]*device.Request, 0, len(rd.recvs)+len(rd.sends))
	r.actions = make([]func([]byte) error, 0, len(rd.recvs))
	for _, rs := range rd.recvs {
		dr, err := r.c.collIrecvInto(rs.buf, rs.from, r.tag)
		if err != nil {
			return err
		}
		act := rs.on
		if rs.buf != nil && act != nil {
			// The device leaves Data nil for in-place receives; hand the
			// action its landing buffer instead.
			buf, on := rs.buf, rs.on
			act = func([]byte) error { return on(buf) }
		}
		r.pending = append(r.pending, dr)
		r.actions = append(r.actions, act)
		if rs.buf != nil {
			r.loans = append(r.loans, dr)
		}
	}
	for _, ss := range rd.sends {
		var dr *device.Request
		var err error
		if ss.fill != nil {
			dr, err = r.c.collIsendFill(ss.n, ss.fill, ss.to, r.tag)
		} else {
			dr, err = r.c.collIsend(ss.data(), ss.to, r.tag, ss.lend)
		}
		if err != nil {
			return err
		}
		r.pending = append(r.pending, dr)
		r.actions = append(r.actions, nil)
		if ss.lend {
			r.loans = append(r.loans, dr)
		}
	}
	r.posted = true
	return nil
}

// progressLocked drives the schedule as far as it can without blocking:
// it posts rounds whose dependencies are met, reaps completed rounds, runs
// receive actions and, after the last round, the finish hook. Callers
// hold r.mu.
func (r *CollRequest) progressLocked() {
	for !r.done {
		if r.err != nil {
			r.settleLocked()
			return
		}
		if r.cur == len(r.rounds) {
			if r.finish != nil {
				if err := r.finish(); err != nil {
					r.failLocked(err)
					return
				}
			}
			r.finishLocked()
			return
		}
		// Membership check, re-run whenever the failure epoch moved: a
		// member death can doom this schedule without completing any of
		// its in-flight requests (the dead rank sat upstream of a live
		// neighbour that will now never forward), so waiting on request
		// completion alone could hang. Detection is complete — every
		// rank learns of every death — so failing the whole collective
		// here guarantees no survivor parks forever.
		if ep := r.c.dev.FailEpoch(); ep != r.ftEpoch {
			r.ftEpoch = ep
			if err := r.c.memberFailure(); err != nil {
				r.failLocked(err)
				return
			}
		}
		if !r.posted {
			if err := r.postLocked(); err != nil {
				r.failLocked(err)
				return
			}
		}
		var ok bool
		var err error
		if rd := &r.rounds[r.cur]; rd.walk != nil {
			ok, err = rd.walk.run(rd.walkStep) // a barrier, not messages: nothing pending
		} else {
			_, ok, err = r.c.dev.TestAll(r.pending)
		}
		if !ok {
			return // round still in flight; a later entry will reap it
		}
		if err != nil {
			r.failLocked(err)
			return
		}
		for i, act := range r.actions {
			if act == nil {
				continue
			}
			if err := act(r.pending[i].Data()); err != nil {
				r.failLocked(err)
				return
			}
		}
		if r.prof != nil {
			r.prof.RoundEnd(r.c.coll, r.tag, r.cur)
		}
		r.cur++
		r.posted = false
		r.pending, r.actions, r.loans = nil, nil, r.loans[:0]
	}
}

// finishLocked reports the request done — successfully, or with the error
// failLocked recorded — and unregisters it. Callers hold r.mu.
func (r *CollRequest) finishLocked() {
	r.done = true
	r.status = collDone()
	if r.prof != nil {
		r.prof.CollEnd(r.c.coll, r.tag, r.err != nil)
	}
	r.c.unregisterColl(r)
}

// failLocked fails the request with an error, cancelling whatever is still
// in flight. What stays pending is the round's loans — memory the device
// reads (a lent send) or writes (a matched in-place receive) until those
// requests complete: only then does the request report done (settleLocked),
// so a caller handed the error owns its buffers again; a walk breaks its
// host area. Callers hold r.mu.
func (r *CollRequest) failLocked(err error) {
	r.err = fmt.Errorf("%s: %w", r.name, err)
	if len(r.rounds) > 0 && r.rounds[0].walk != nil {
		r.rounds[0].walk.abandon(err)
	}
	for _, dr := range r.pending {
		_ = dr.Cancel() // best effort: unmatched operations complete as cancelled
	}
	r.pending, r.actions = r.loans, nil
	r.settleLocked()
}

// settleLocked reports a failed request done once every loan is back. The
// wait is bounded: a cancelled rendezvous is withdrawn or delivered, and a
// peer's death, Close and Abort complete every rendezvous request.
func (r *CollRequest) settleLocked() {
	if _, ok, _ := r.c.dev.TestAll(r.pending); ok {
		r.finishLocked()
	}
}

// fail aborts the request from outside the progress loop (Comm.Free,
// revocation) and wakes any goroutine blocked in Wait. It never blocks — it
// runs in the device's frame handler too; loans settle in Wait or Test.
func (r *CollRequest) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done || r.err != nil {
		return
	}
	r.failLocked(err)
}

// Wait blocks until the collective completes on this rank and returns its
// status. It drives the whole engine: rounds of this schedule — and of
// every sibling schedule in flight on the communicator — are posted and
// reaped here, so outstanding collectives may be completed in any order,
// as MPI allows. The park sits outside r.mu, so fail can interrupt it;
// errors are re-observed by the next progressLocked pass.
func (r *CollRequest) Wait() (st *Status, err error) {
	r.c.parkUntil(r.c.coll, r, func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.progressLocked()
		st, err = r.status, r.err
		return r.done
	})
	return st, err
}

// Test advances the schedule (and, while it is incomplete, its in-flight
// siblings) without blocking and reports whether the collective has
// completed. Once done, Test is a cheap status read: siblings are driven
// by their own waiters.
func (r *CollRequest) Test() (*Status, bool, error) {
	st, ok, err := r.test()
	if !ok {
		device.PollMiss()
	}
	return st, ok, err
}

// test is Test without the polling-application signal; see Request.test.
func (r *CollRequest) test() (*Status, bool, error) {
	r.mu.Lock()
	if !r.done {
		r.progressLocked()
	}
	done, st, err := r.done, r.status, r.err
	r.mu.Unlock()
	if !done {
		r.c.progressSiblings(r)
		return nil, false, nil
	}
	return st, true, err
}

// Done reports whether the collective has completed, advancing it first.
func (r *CollRequest) Done() bool {
	_, done, _ := r.Test()
	return done
}

// String renders the request for diagnostics.
func (r *CollRequest) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("CollRequest{%s alg=%s round=%d/%d done=%v}", r.name, r.alg, r.cur, len(r.rounds), r.done)
}

// ---------------------------------------------------------------------
// Per-peer-count (V family) schedule support. The varying-count
// collectives compile schedules whose steps carry a different count and
// displacement per peer; the helpers below validate such layouts up front
// — before any round is posted or any buffer written, so argument errors
// never leave a partial result — and build the per-block send/receive
// steps the builders in ivcoll.go share.
// ---------------------------------------------------------------------

// bufSlots returns the base-slot length of a slice buffer, or -1 when buf
// is not a slice (nil on ranks that do not touch the buffer, or an opaque
// third-party buffer type) — unknown lengths skip the up-front range
// check and surface in Pack/Unpack if the buffer is actually touched.
func bufSlots(buf any) int {
	if buf == nil {
		return -1
	}
	v := reflect.ValueOf(buf)
	if v.Kind() != reflect.Slice {
		return -1
	}
	return v.Len()
}

// checkVSpec validates the counts/displacements of one side of a
// varying-count collective: slice lengths and negative counts report
// ErrCount; negative, out-of-range or (on receive sides) overlapping
// displacements report ErrArg. ext is the datatype extent, off the buffer
// offset in base slots, limit the buffer length from bufSlots (negative:
// unknown, range unchecked). Blocks with zero counts are never accessed
// and are exempt from the displacement checks, matching MPI. Send-side
// blocks may overlap (they are only read); receive-side blocks must be
// disjoint, or two messages would land on the same memory.
func checkVSpec(size int, counts, displs []int, ext, off, limit int, recvSide bool) error {
	if len(counts) != size || len(displs) != size {
		return fmt.Errorf("%w: need %d counts/displacements, got %d/%d",
			ErrCount, size, len(counts), len(displs))
	}
	type span struct{ lo, hi int }
	spans := make([]span, 0, size)
	for r := 0; r < size; r++ {
		if counts[r] < 0 {
			return fmt.Errorf("%w: negative count %d for rank %d", ErrCount, counts[r], r)
		}
		if counts[r] == 0 {
			continue
		}
		if displs[r] < 0 {
			return fmt.Errorf("%w: negative displacement %d for rank %d", ErrArg, displs[r], r)
		}
		lo := off + displs[r]*ext
		hi := lo + counts[r]*ext
		if limit >= 0 && (lo < 0 || hi > limit) {
			return fmt.Errorf("%w: rank %d block [%d:%d) outside %d-slot buffer", ErrArg, r, lo, hi, limit)
		}
		if recvSide {
			spans = append(spans, span{lo, hi})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return fmt.Errorf("%w: receive blocks [%d:%d) and [%d:%d) overlap",
				ErrArg, spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
	return nil
}

// vWindow returns the raw memory window of count elements of dt at slot
// off of buf — where a receive can land in place and a send can leave from
// — or nil when the datatype layout or the buffer rules direct access out
// (the caller stages and packs or unpacks instead).
func vWindow(dt Datatype, buf any, off, count int) []byte {
	if rw, ok := dt.(rawWindower); ok && count > 0 {
		if win, ok := rw.window(buf, off, count); ok {
			return win
		}
	}
	return nil
}

// overlaps reports whether two byte slices share memory.
func overlaps(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}

// vSendStep builds the send step for count elements of dt from buf at
// off: a frame-filling step for fixed-size datatypes (the payload packs
// straight into the outgoing wire frame), else a step sending a cell packed
// at build, with the hook that re-packs it from the live buffer — the step's
// share of a cached schedule's reset (nil for a frame-filling step).
func vSendStep(to int, dt Datatype, buf any, off, count int) (sendStep, func() error, error) {
	if pi, ok := dt.(packerInto); ok && count >= 0 {
		if sz := dt.ByteSize(); sz >= 0 {
			return sendStep{to: to, n: count * sz, fill: func(p []byte) error {
				return pi.PackInto(p, buf, off, count)
			}}, nil, nil
		}
	}
	cl, repack, err := packedCell(dt, buf, off, count)
	return sendStep{to: to, data: func() []byte { return cl.b }}, repack, err
}
