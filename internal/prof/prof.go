// Package prof is the PMPI-style interposition layer of the runtime: an
// always-compiled instrumentation substrate that counts and times every
// message without touching user code, hooked at the two natural seams of
// the stack — the device boundary (op counts, bytes, eager-vs-rendezvous
// split; see device.WithProfiler) and the collective schedule engine's
// round loop (per-collective timelines with the algorithm collalg.go
// chose, per-round spans and time parked in WaitProgress; see
// core/sched.go).
//
// The layer is near-zero-cost when off: every hook site branches on a nil
// *Recorder, and with MPJ_PROF unset the recorder is never created. When
// on, counters are lock-free atomics; only the optional Chrome-trace
// timeline takes a mutex per event.
//
// Three surfaces expose the data:
//
//   - Comm.ProfSnapshot() — per-communicator counter snapshots (core);
//   - a JSON endpoint (MPJ_PROF_ADDR, mpjd -prof-addr) serving
//     /debug/vars with the per-rank counter block plus daemon job/lease
//     state (see vars.go);
//   - per-rank Chrome trace_event JSON files (MPJ_PROF=trace:<prefix>),
//     loadable in chrome://tracing or Perfetto (see trace.go).
//
// See the "Instrumentation seams" section of ARCHITECTURE.md for where
// the hooks sit in the layer stack.
package prof

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spec is the parsed form of the MPJ_PROF environment variable (and the
// mpjrun -prof flag): what instrumentation a rank should record.
type Spec struct {
	// Counters enables the atomic op/byte counters.
	Counters bool
	// TracePrefix, when non-empty, additionally enables the Chrome-trace
	// timeline: each rank writes <TracePrefix>.rank<N>.trace.json at
	// device close.
	TracePrefix string
}

// ParseSpec parses the string form of the profiling knob. Accepted
// values: "" (off), "counters" / "on" / "1" (counters only), and
// "trace:<path-prefix>" (counters plus per-rank Chrome trace files).
func ParseSpec(raw string) (Spec, error) {
	switch {
	case raw == "":
		return Spec{}, nil
	case raw == "counters" || raw == "on" || raw == "1":
		return Spec{Counters: true}, nil
	case strings.HasPrefix(raw, "trace:"):
		prefix := strings.TrimPrefix(raw, "trace:")
		if prefix == "" {
			return Spec{}, fmt.Errorf("prof spec %q: trace needs a path prefix", raw)
		}
		return Spec{Counters: true, TracePrefix: prefix}, nil
	}
	return Spec{}, fmt.Errorf("prof spec %q: want \"counters\" or \"trace:<path-prefix>\"", raw)
}

// Enabled reports whether the spec asks for any instrumentation.
func (s Spec) Enabled() bool { return s.Counters || s.TracePrefix != "" }

// String renders the spec back to its environment-variable form, so the
// job layer can ship it to slaves verbatim.
func (s Spec) String() string {
	switch {
	case s.TracePrefix != "":
		return "trace:" + s.TracePrefix
	case s.Counters:
		return "counters"
	}
	return ""
}

// counters is one set of atomic event counters; the recorder keeps a
// device-wide set plus one per device context, so the communicator layer
// can slice totals per-comm.
type counters struct {
	ctx     int // the device context of a per-context set
	sendOps atomic.Int64
	recvOps atomic.Int64

	eagerSent      atomic.Int64
	eagerSentBytes atomic.Int64
	rdvSent        atomic.Int64
	rdvSentBytes   atomic.Int64

	eagerRecv      atomic.Int64
	eagerRecvBytes atomic.Int64
	rdvRecv        atomic.Int64
	rdvRecvBytes   atomic.Int64

	collStarted atomic.Int64
	collDone    atomic.Int64
	collFailed  atomic.Int64
	collRounds  atomic.Int64
	waitNs      atomic.Int64

	rmaPuts       atomic.Int64
	rmaPutBytes   atomic.Int64
	rmaGets       atomic.Int64
	rmaGetBytes   atomic.Int64
	rmaAccs       atomic.Int64
	rmaAccBytes   atomic.Int64
	rmaLocalBytes atomic.Int64
	rmaWireBytes  atomic.Int64
	rmaFences     atomic.Int64
	rmaSyncFrames atomic.Int64
	rmaSyncDirect atomic.Int64
	rmaLocks      atomic.Int64

	hostOps     atomic.Int64
	hostChunks  atomic.Int64
	hostBytes   atomic.Int64
	hostWaits   atomic.Int64
	hostYielded atomic.Int64
	hostSlept   atomic.Int64
}

// addTo folds the current counter values into s.
func (c *counters) addTo(s *Snapshot) {
	s.SendOps += c.sendOps.Load()
	s.RecvOps += c.recvOps.Load()
	s.EagerSent += c.eagerSent.Load()
	s.EagerSentBytes += c.eagerSentBytes.Load()
	s.RdvSent += c.rdvSent.Load()
	s.RdvSentBytes += c.rdvSentBytes.Load()
	s.EagerRecv += c.eagerRecv.Load()
	s.EagerRecvBytes += c.eagerRecvBytes.Load()
	s.RdvRecv += c.rdvRecv.Load()
	s.RdvRecvBytes += c.rdvRecvBytes.Load()
	s.CollStarted += c.collStarted.Load()
	s.CollDone += c.collDone.Load()
	s.CollFailed += c.collFailed.Load()
	s.CollRounds += c.collRounds.Load()
	s.WaitNs += c.waitNs.Load()
	s.RmaPuts += c.rmaPuts.Load()
	s.RmaPutBytes += c.rmaPutBytes.Load()
	s.RmaGets += c.rmaGets.Load()
	s.RmaGetBytes += c.rmaGetBytes.Load()
	s.RmaAccs += c.rmaAccs.Load()
	s.RmaAccBytes += c.rmaAccBytes.Load()
	s.RmaLocalBytes += c.rmaLocalBytes.Load()
	s.RmaWireBytes += c.rmaWireBytes.Load()
	s.RmaFences += c.rmaFences.Load()
	s.RmaSyncFrames += c.rmaSyncFrames.Load()
	s.RmaSyncDirect += c.rmaSyncDirect.Load()
	s.RmaLocks += c.rmaLocks.Load()
	s.HostOps += c.hostOps.Load()
	s.HostChunks += c.hostChunks.Load()
	s.HostBytes += c.hostBytes.Load()
	s.HostWaits += c.hostWaits.Load()
	s.HostYielded += c.hostYielded.Load()
	s.HostSlept += c.hostSlept.Load()
}

// Snapshot is a plain-integer copy of the counters at one instant, the
// value Comm.ProfSnapshot returns and the /debug/vars endpoint serves. Sends
// are counted on the sender at post time, receives on the receiver at
// payload arrival; for deterministic traffic the sent and received byte
// totals across ranks agree exactly.
type Snapshot struct {
	// SendOps and RecvOps count Isend/Irecv posts at the device boundary.
	SendOps int64 `json:"sendOps"`
	RecvOps int64 `json:"recvOps"`

	// Eager*/Rdv* split messages and payload bytes by wire protocol:
	// eager payloads travel with the envelope, rendezvous payloads move
	// only after a clear-to-send.
	EagerSent      int64 `json:"eagerSent"`
	EagerSentBytes int64 `json:"eagerSentBytes"`
	RdvSent        int64 `json:"rdvSent"`
	RdvSentBytes   int64 `json:"rdvSentBytes"`

	EagerRecv      int64 `json:"eagerRecv"`
	EagerRecvBytes int64 `json:"eagerRecvBytes"`
	RdvRecv        int64 `json:"rdvRecv"`
	RdvRecvBytes   int64 `json:"rdvRecvBytes"`

	// Collective schedule engine events: schedules started, completed,
	// failed, rounds posted, and nanoseconds parked in WaitProgress.
	CollStarted int64 `json:"collStarted"`
	CollDone    int64 `json:"collDone"`
	CollFailed  int64 `json:"collFailed"`
	CollRounds  int64 `json:"collRounds"`
	WaitNs      int64 `json:"waitNs"`

	// One-sided (RMA) events, counted at the origin. The Local/Wire byte
	// split records how each operation moved: co-located targets are
	// direct memory copies (no wire serialization), remote targets ride
	// the RMA frame family. RmaSyncFrames/RmaSyncDirect split the fence
	// announcements a rank made the same way: frames sent to remote
	// members, stores into co-located members' windows (per fence, members
	// − 1 in all on a window whose members are all co-located, twice that
	// on one with a remote member).
	RmaPuts       int64 `json:"rmaPuts"`
	RmaPutBytes   int64 `json:"rmaPutBytes"`
	RmaGets       int64 `json:"rmaGets"`
	RmaGetBytes   int64 `json:"rmaGetBytes"`
	RmaAccs       int64 `json:"rmaAccs"`
	RmaAccBytes   int64 `json:"rmaAccBytes"`
	RmaLocalBytes int64 `json:"rmaLocalBytes"`
	RmaWireBytes  int64 `json:"rmaWireBytes"`
	RmaFences     int64 `json:"rmaFences"`
	RmaSyncFrames int64 `json:"rmaSyncFrames"`
	RmaSyncDirect int64 `json:"rmaSyncDirect"`
	RmaLocks      int64 `json:"rmaLocks"`

	// Host-area allreduces (core's hostarea.go), counted on the collective
	// context: operations, the chunks they walked and the bytes this rank
	// copied into the shared area. Their waits are the wait span's, like
	// every schedule's.
	HostOps    int64 `json:"hostOps"`
	HostChunks int64 `json:"hostChunks"`
	HostBytes  int64 `json:"hostBytes"`

	// The device's waits while a host-area walk waits at a barrier, counted
	// device-wide only (a wait looks at every area of the process, so no
	// context owns it; CtxSnapshot reads them as 0): all of them, those the
	// oversubscribed host's yield-poll ended, and those that went on to ask
	// the areas' helpers to futex-sleep and park. Where neither rings nor
	// yield-polls are, HostWaits == HostSlept; on an oversubscribed host
	// HostWaits == HostYielded + HostSlept; where the rings' gate is open
	// the spin ends the rest.
	HostWaits   int64 `json:"hostWaits"`
	HostYielded int64 `json:"hostYielded"`
	HostSlept   int64 `json:"hostSlept"`
}

// SentBytes returns the total payload bytes sent, both protocols.
func (s Snapshot) SentBytes() int64 { return s.EagerSentBytes + s.RdvSentBytes }

// RecvBytes returns the total payload bytes received, both protocols.
func (s Snapshot) RecvBytes() int64 { return s.EagerRecvBytes + s.RdvRecvBytes }

// SentMsgs returns the total messages sent, both protocols.
func (s Snapshot) SentMsgs() int64 { return s.EagerSent + s.RdvSent }

// RecvMsgs returns the total messages received, both protocols.
func (s Snapshot) RecvMsgs() int64 { return s.EagerRecv + s.RdvRecv }

// add folds o into s field by field.
func (s *Snapshot) add(o Snapshot) {
	s.SendOps += o.SendOps
	s.RecvOps += o.RecvOps
	s.EagerSent += o.EagerSent
	s.EagerSentBytes += o.EagerSentBytes
	s.RdvSent += o.RdvSent
	s.RdvSentBytes += o.RdvSentBytes
	s.EagerRecv += o.EagerRecv
	s.EagerRecvBytes += o.EagerRecvBytes
	s.RdvRecv += o.RdvRecv
	s.RdvRecvBytes += o.RdvRecvBytes
	s.CollStarted += o.CollStarted
	s.CollDone += o.CollDone
	s.CollFailed += o.CollFailed
	s.CollRounds += o.CollRounds
	s.WaitNs += o.WaitNs
	s.RmaPuts += o.RmaPuts
	s.RmaPutBytes += o.RmaPutBytes
	s.RmaGets += o.RmaGets
	s.RmaGetBytes += o.RmaGetBytes
	s.RmaAccs += o.RmaAccs
	s.RmaAccBytes += o.RmaAccBytes
	s.RmaLocalBytes += o.RmaLocalBytes
	s.RmaWireBytes += o.RmaWireBytes
	s.RmaFences += o.RmaFences
	s.RmaSyncFrames += o.RmaSyncFrames
	s.RmaSyncDirect += o.RmaSyncDirect
	s.RmaLocks += o.RmaLocks
	s.HostOps += o.HostOps
	s.HostChunks += o.HostChunks
	s.HostBytes += o.HostBytes
	s.HostWaits += o.HostWaits
	s.HostYielded += o.HostYielded
	s.HostSlept += o.HostSlept
}

// RmaOps returns the total one-sided operations recorded, all kinds.
func (s Snapshot) RmaOps() int64 { return s.RmaPuts + s.RmaGets + s.RmaAccs }

// RmaBytes returns the total one-sided payload bytes, all kinds.
func (s Snapshot) RmaBytes() int64 { return s.RmaPutBytes + s.RmaGetBytes + s.RmaAccBytes }

// Recorder is one rank's instrumentation sink. The device calls the
// send/receive hooks, the collective schedule engine the Coll*/Round*
// hooks; all counter updates are atomic and safe from any goroutine.
// A nil *Recorder at the hook sites means profiling is off — callers
// branch on nil and pay nothing else.
type Recorder struct {
	rank int
	spec Spec

	global counters
	perCtx sync.Map                 // device context (int) → *counters
	last   atomic.Pointer[counters] // the per-context set forCtx returned last

	tr *tracer // nil unless spec.TracePrefix is set

	statusMu sync.Mutex
	status   func() any // extra endpoint state (failed ranks, epoch, ...)
	paths    func() any // each communicator's allreduce path (core)

	closeOnce sync.Once
	closeErr  error
}

// New creates a recorder for rank under spec, or nil when the spec asks
// for no instrumentation — the nil is what keeps the disabled hook sites
// to a single branch.
func New(rank int, spec Spec) *Recorder {
	if !spec.Enabled() {
		return nil
	}
	r := &Recorder{rank: rank, spec: spec}
	if spec.TracePrefix != "" {
		r.tr = newTracer(rank, spec.TracePrefix)
	}
	return r
}

// Rank returns the world rank this recorder observes.
func (r *Recorder) Rank() int { return r.rank }

// Spec returns the spec the recorder was created with.
func (r *Recorder) Spec() Spec { return r.spec }

// forCtx returns the per-context counter set, creating it on first use.
// A hop's Send, RecvPost and Arrive name one context, so the set returned
// last answers most calls with one atomic load, before the map.
func (r *Recorder) forCtx(ctx int) *counters {
	if c := r.last.Load(); c != nil && c.ctx == ctx {
		return c
	}
	v, ok := r.perCtx.Load(ctx)
	if !ok {
		v, _ = r.perCtx.LoadOrStore(ctx, &counters{ctx: ctx})
	}
	c := v.(*counters)
	r.last.Store(c)
	return c
}

// Send records one message of n payload bytes posted on ctx; eager
// selects the protocol bucket. The device calls it from Isend/IsendFill.
func (r *Recorder) Send(ctx, n int, eager bool) {
	c := r.forCtx(ctx)
	r.global.sendOps.Add(1)
	c.sendOps.Add(1)
	if eager {
		r.global.eagerSent.Add(1)
		r.global.eagerSentBytes.Add(int64(n))
		c.eagerSent.Add(1)
		c.eagerSentBytes.Add(int64(n))
	} else {
		r.global.rdvSent.Add(1)
		r.global.rdvSentBytes.Add(int64(n))
		c.rdvSent.Add(1)
		c.rdvSentBytes.Add(int64(n))
	}
}

// RecvPost records one receive posted on ctx (an Irecv call).
func (r *Recorder) RecvPost(ctx int) {
	r.global.recvOps.Add(1)
	r.forCtx(ctx).recvOps.Add(1)
}

// Arrive records one inbound payload of n bytes on ctx; eager selects
// the protocol bucket. The device calls it from the frame handler when
// an eager or rendezvous-data frame lands.
func (r *Recorder) Arrive(ctx, n int, eager bool) {
	c := r.forCtx(ctx)
	if eager {
		r.global.eagerRecv.Add(1)
		r.global.eagerRecvBytes.Add(int64(n))
		c.eagerRecv.Add(1)
		c.eagerRecvBytes.Add(int64(n))
	} else {
		r.global.rdvRecv.Add(1)
		r.global.rdvRecvBytes.Add(int64(n))
		c.rdvRecv.Add(1)
		c.rdvRecvBytes.Add(int64(n))
	}
}

// CollStart records a collective schedule starting on (ctx, tag): name
// is the operation ("ibcast", ...), alg the algorithm the selection
// layer chose ("" for the classic builders) and rounds the schedule length.
func (r *Recorder) CollStart(ctx, tag int, name, alg string, rounds int) {
	r.global.collStarted.Add(1)
	r.forCtx(ctx).collStarted.Add(1)
	if r.tr != nil {
		r.tr.collStart(ctx, tag, name, alg, rounds)
	}
}

// RoundStart records round round of the (ctx, tag) schedule being posted.
func (r *Recorder) RoundStart(ctx, tag, round int) {
	r.global.collRounds.Add(1)
	r.forCtx(ctx).collRounds.Add(1)
	if r.tr != nil {
		r.tr.roundStart(ctx, tag, round)
	}
}

// RoundEnd records round round of the (ctx, tag) schedule completing —
// every step of the round done and its receive actions run.
func (r *Recorder) RoundEnd(ctx, tag, round int) {
	if r.tr != nil {
		r.tr.roundEnd(ctx, tag, round)
	}
}

// CollEnd records the (ctx, tag) schedule finishing; failed marks an
// error completion (a member death, a revoke, an argument error).
func (r *Recorder) CollEnd(ctx, tag int, failed bool) {
	if failed {
		r.global.collFailed.Add(1)
		r.forCtx(ctx).collFailed.Add(1)
	} else {
		r.global.collDone.Add(1)
		r.forCtx(ctx).collDone.Add(1)
	}
	if r.tr != nil {
		r.tr.collEnd(ctx, tag, failed)
	}
}

// WaitSpan records time parked in the schedule engine's park loop (core's
// parkUntil, on device.WaitProgress) by a wait on the ctx-homed
// communicator while schedules were in flight, from start to now.
func (r *Recorder) WaitSpan(ctx int, start time.Time) {
	d := time.Since(start)
	r.global.waitNs.Add(int64(d))
	r.forCtx(ctx).waitNs.Add(int64(d))
	if r.tr != nil {
		r.tr.waitSpan(start, d)
	}
}

// RmaOp records one one-sided operation of n payload bytes on the window
// context ctx, counted at the origin: kind is 'p' (Put), 'g' (Get) or 'a'
// (Accumulate); local marks a co-located target reached by direct memory
// copy rather than an RMA frame, set by the branch of the operation that
// moved the bytes.
func (r *Recorder) RmaOp(ctx int, kind byte, n int, local bool) {
	c := r.forCtx(ctx)
	switch kind {
	case 'p':
		r.global.rmaPuts.Add(1)
		r.global.rmaPutBytes.Add(int64(n))
		c.rmaPuts.Add(1)
		c.rmaPutBytes.Add(int64(n))
	case 'g':
		r.global.rmaGets.Add(1)
		r.global.rmaGetBytes.Add(int64(n))
		c.rmaGets.Add(1)
		c.rmaGetBytes.Add(int64(n))
	case 'a':
		r.global.rmaAccs.Add(1)
		r.global.rmaAccBytes.Add(int64(n))
		c.rmaAccs.Add(1)
		c.rmaAccBytes.Add(int64(n))
	}
	if local {
		r.global.rmaLocalBytes.Add(int64(n))
		c.rmaLocalBytes.Add(int64(n))
	} else {
		r.global.rmaWireBytes.Add(int64(n))
		c.rmaWireBytes.Add(int64(n))
	}
}

// RmaFence records one completed fence on the window context ctx.
func (r *Recorder) RmaFence(ctx int) {
	r.global.rmaFences.Add(1)
	r.forCtx(ctx).rmaFences.Add(1)
}

// RmaSync records one fence phase's announcements on the window context
// ctx: frames sent to remote members, direct stores to co-located ones.
func (r *Recorder) RmaSync(ctx, frames, direct int) {
	c := r.forCtx(ctx)
	r.global.rmaSyncFrames.Add(int64(frames))
	r.global.rmaSyncDirect.Add(int64(direct))
	c.rmaSyncFrames.Add(int64(frames))
	c.rmaSyncDirect.Add(int64(direct))
}

// RmaLock records one completed passive-target lock acquisition on the
// window context ctx.
func (r *Recorder) RmaLock(ctx int) {
	r.global.rmaLocks.Add(1)
	r.forCtx(ctx).rmaLocks.Add(1)
}

// HostOp records one allreduce through a host area on the collective
// context ctx: the chunks it walked and the bytes this rank copied into the
// area.
func (r *Recorder) HostOp(ctx, chunks, bytes int) {
	c := r.forCtx(ctx)
	for _, set := range []*counters{&r.global, c} {
		set.hostOps.Add(1)
		set.hostChunks.Add(int64(chunks))
		set.hostBytes.Add(int64(bytes))
	}
}

// HostWait records one device wait while a host-area walk waits (see
// Snapshot.HostWaits): yielded if the yield-poll ended it, slept if it went
// on to the helpers and the park. Device-wide: no context owns it.
func (r *Recorder) HostWait(yielded, slept bool) {
	r.global.hostWaits.Add(1)
	if yielded {
		r.global.hostYielded.Add(1)
	}
	if slept {
		r.global.hostSlept.Add(1)
	}
}

// RmaEpoch records a closed epoch span [start, now] on the window context
// ctx in the trace timeline: name is the epoch flavor ("fence" or
// "lock:<target>"). No-op unless tracing is on.
func (r *Recorder) RmaEpoch(ctx int, name string, start time.Time) {
	if r.tr != nil {
		r.tr.rmaEpoch(ctx, name, start, time.Since(start))
	}
}

// Snapshot returns the device-wide counter totals.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	r.global.addTo(&s)
	return s
}

// CtxSnapshot returns the summed counters of the given device contexts —
// the per-communicator slice (each Comm owns a point-to-point and a
// collective context).
func (r *Recorder) CtxSnapshot(ctxs ...int) Snapshot {
	var s Snapshot
	for _, ctx := range ctxs {
		if v, ok := r.perCtx.Load(ctx); ok {
			v.(*counters).addTo(&s)
		}
	}
	return s
}

// SetStatus installs a callback whose value is served alongside the
// counters on the /debug/vars endpoint — the runtime points it at the
// device's failure registry (failed ranks, failure epoch).
func (r *Recorder) SetStatus(f func() any) {
	r.statusMu.Lock()
	r.status = f
	r.statusMu.Unlock()
}

// Status returns the installed status value, or nil.
func (r *Recorder) Status() any {
	r.statusMu.Lock()
	f := r.status
	r.statusMu.Unlock()
	if f == nil {
		return nil
	}
	return f()
}

// SetAllreducePaths installs the callback that names each communicator's
// allreduce path; core installs it with the world.
func (r *Recorder) SetAllreducePaths(f func() any) {
	r.statusMu.Lock()
	r.paths = f
	r.statusMu.Unlock()
}

// AllreducePaths returns what the installed callback says, or nil.
func (r *Recorder) AllreducePaths() any {
	r.statusMu.Lock()
	f := r.paths
	r.statusMu.Unlock()
	if f == nil {
		return nil
	}
	return f()
}

// Close flushes the trace file, if any, and retires the recorder from
// the endpoint registry (its totals keep counting toward the endpoint's
// cumulative block). Idempotent; the device calls it at Close/Abort.
func (r *Recorder) Close() error {
	r.closeOnce.Do(func() {
		if r.tr != nil {
			r.closeErr = r.tr.flush()
		}
		untrack(r)
	})
	return r.closeErr
}
