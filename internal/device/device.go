// Package device implements the "MPJ device level" of the paper — the
// analogue of MPICH's abstract device interface (MPID).
//
// Per §3.5 of the paper, the device deals only in:
//
//   - absolute (world) process ids — groups and communicators live above;
//   - integer contexts and tags — the full communicator abstraction lives
//     above;
//   - byte vectors — datatype handling lives above.
//
// The basic operations are Isend, Irecv and the wait/test family
// (WaitAny/TestAny et al.), which "suffice to build legal implementations
// of all the MPI communication modes". Two wire protocols are provided:
//
//   - eager: the payload travels with the envelope; unmatched messages are
//     buffered without limit on the receiver (paper §3.5 3a);
//   - rendezvous: a ready-to-send header is queued until a matching receive
//     is posted, the receiver answers clear-to-send, and only then does the
//     payload move (paper §3.5 3b) — receiver buffering is bounded by
//     queued headers.
//
// Standard-mode sends pick eager below EagerLimit and rendezvous above;
// synchronous sends always use rendezvous (the CTS proves a matching
// receive was posted); ready sends always use eager.
//
// The device is the terminal owner of every frame it touches (see the
// transport.Handler contract): outbound frames pass to the transport with
// Send, and inbound frames are released to the wire frame pool as soon as
// their bytes are copied out — except frames adopted whole by an
// allocate-on-arrival receive, whose payload the caller keeps (see
// Request.Data), and which are therefore never recycled.
//
// A rendezvous payload is never a frame. The sender lends its bytes to the
// transport (transport.SendData) — the caller's own buffer for Isend, a
// pooled stash for IsendFill — and the send request completes when the
// transport gives them back. The receiver's transport asks the device
// where the payload lands (transport.Lander, see land) and moves it there
// outside the device lock; from that moment until the transport reports
// the landing finished, the receive request belongs to the transport and
// no failure path completes it, so nobody reuses a buffer that is still
// being written.
//
// When the sender is another process on the receiver's host the payload
// does not cross the socket at all: the RTS carries an offer, the receiver
// copies the bytes out of the sender's memory with one system call — or,
// after a blocking Send to a peer whose ring is live, out of the ring's
// stream area while the sender copies them in — and answers KindPulled
// instead of CTS (see pull.go). Everything above holds with "the
// transport" read as "this device's own copy".
//
// The device boundary is one of the two instrumentation seams: an
// optional prof.Recorder (WithProfiler) observes every send and receive
// post and every payload arrival, split by wire protocol — see
// internal/prof and the "Instrumentation seams" section of
// ARCHITECTURE.md.
//
// See ARCHITECTURE.md at the repository root for where this package sits in
// the layer stack.
package device

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/prof"
	"mpj/internal/transport"
	"mpj/internal/wire"
)

// Wildcards accepted by Irecv and Probe.
const (
	// AnySource matches messages from every source rank.
	AnySource = -1
	// AnyTag matches messages with any tag.
	AnyTag = -1
)

// DefaultEagerLimit is the payload size (bytes) up to which standard-mode
// sends use the eager protocol. Chosen near the classic MPICH default; the
// A2 ablation benchmark sweeps it.
const DefaultEagerLimit = 16 << 10

// Mode selects the send protocol semantics.
type Mode uint8

const (
	// ModeStandard uses eager for payloads up to the eager limit and
	// rendezvous beyond it.
	ModeStandard Mode = iota
	// ModeSync always uses rendezvous; completion implies a matching
	// receive was posted (MPI_Ssend semantics).
	ModeSync
	// ModeReady always uses eager: the caller asserts the receive is
	// already posted (MPI_Rsend semantics).
	ModeReady
)

// Errors reported by the device.
var (
	// ErrTruncate reports a message longer than the posted receive buffer.
	ErrTruncate = errors.New("device: message truncated")
	// ErrClosed reports use of a closed device.
	ErrClosed = errors.New("device: closed")
	// ErrPeerFailure reports that a peer process failed. Kept as a match
	// target for errors.Is alongside ErrRankFailed: RankFailedError
	// matches both, so callers written against the original total-failure
	// model keep working.
	ErrPeerFailure = errors.New("device: peer failure")
	// ErrRankFailed reports that a specific peer rank failed; operations
	// touching that rank complete with a RankFailedError instead of
	// hanging, and the rest of the device stays usable (ULFM-style
	// per-rank failure semantics).
	ErrRankFailed = errors.New("device: rank failed")
)

// RankFailedError is the typed error completing every operation that
// touches a failed rank: Rank is the absolute (world) rank of the dead
// process and Cause the detection-level error (a broken connection, an
// expired lease, an injected fault). It matches both ErrRankFailed and the
// legacy ErrPeerFailure sentinel under errors.Is.
type RankFailedError struct {
	Rank  int
	Cause error
}

// Error renders the failure.
func (e *RankFailedError) Error() string {
	if e.Cause == nil {
		return fmt.Sprintf("rank %d failed", e.Rank)
	}
	return fmt.Sprintf("rank %d failed: %v", e.Rank, e.Cause)
}

// Unwrap exposes the detection-level cause.
func (e *RankFailedError) Unwrap() error { return e.Cause }

// Is matches the ErrRankFailed and ErrPeerFailure sentinels.
func (e *RankFailedError) Is(target error) bool {
	return target == ErrRankFailed || target == ErrPeerFailure
}

// FailedRank extracts the world rank carried by a RankFailedError anywhere
// in err's chain; ok is false when err carries none.
func FailedRank(err error) (rank int, ok bool) {
	var rf *RankFailedError
	if errors.As(err, &rf) {
		return rf.Rank, true
	}
	return 0, false
}

// Stats counts protocol events; the protocol benchmarks and tests read it.
type Stats struct {
	EagerSent       atomic.Int64
	EagerRecv       atomic.Int64
	RTSSent         atomic.Int64
	RTSRecv         atomic.Int64
	CTSSent         atomic.Int64
	DataSent        atomic.Int64
	DataRecv        atomic.Int64
	Unexpected      atomic.Int64    // messages queued before a matching receive
	PostedDirect    atomic.Int64    // messages that met an already-posted receive
	Pulled          atomic.Int64    // rendezvous payloads this device copied out of a co-host sender, streamed or pulled (see pull.go)
	PullRefused     atomic.Int64    // pulls that moved nothing usable; the message took CTS and DATA
	Streamed        atomic.Int64    // of them, payloads that came through the sender's stream area, whole or in part
	StreamTakeovers atomic.Int64    // streams that stalled or stopped short, whose rest was pulled or took CTS and DATA
	StreamsEmpty    atomic.Int64    // of them, streams taken over at byte 0
	StreamMisses    [4]atomic.Int64 // blocking co-host sends whose StreamOpen claimed no area, by transport.StreamMiss
	RingFrames      atomic.Int64    // frames this device sent through a co-host ring (see polls.go)
	Doorbells       atomic.Int64    // doorbells it rang: ring frames no waiter was polling for
}

// unexpected is an arrived message (eager payload or rendezvous header)
// for which no receive has been posted yet.
type unexpected struct {
	src   int
	tag   int
	ctx   int
	eager bool
	frame []byte    // eager only: the retained frame, released when matched
	msgID uint64    // rendezvous only
	plen  int       // rendezvous payload length
	offer pullOffer // rendezvous only: where a co-host sender's payload lies; zero without one
}

// bytes returns the payload length of the queued message.
func (u *unexpected) bytes() int {
	if u.eager {
		return len(u.frame) - wire.HeaderLen
	}
	return u.plen
}

// rdvKey identifies an in-flight rendezvous on the receiver side.
type rdvKey struct {
	src   int
	msgID uint64
}

// Device is one endpoint of the MPJ device level, bound to a Transport.
type Device struct {
	t     transport.Transport
	rank  int
	size  int
	stats Stats

	// Every change under mu that a waiter may be parked on — a
	// completion, an arrival, a death, a revoked context, the end of the
	// device — moves gen and broadcasts cond, both in wakeLocked; gen is
	// atomic so a caller can read it before it takes mu to look (see
	// WaitProgress).
	mu   sync.Mutex
	cond sync.Cond
	gen  atomic.Uint64

	eagerLimit int
	closed     bool
	failure    error

	// Failure registry (see NotifyRankFailed): dead maps a failed peer's
	// world rank to its RankFailedError; failEpoch increments on every
	// newly detected failure so the collective schedule engine can
	// re-check membership without scanning the map. Both are written under
	// mu only; failEpoch is atomic so RankError can answer "nobody has
	// died" without taking mu.
	dead      map[int]error
	failEpoch atomic.Uint64

	posted []*Request   // posted receives, FIFO
	unexp  []unexpected // arrived-but-unmatched messages, FIFO

	pendingRTS map[uint64]*Request // sender side: msgID → send awaiting CTS or Pulled
	awaitData  map[rdvKey]*Request // receiver side: matched RTS awaiting DATA, or being pulled

	// peers is the transport's description of the ranks, read at Open.
	// refused, per rank that is another process on this host, is why the
	// system refuses pulls from it for the life of the device (see
	// pull.go); guarded by mu.
	peers      transport.Peers
	refused    []error
	pullFault  atomic.Pointer[func(src int) error]     // fault-injection seam (see SetPullFault)
	streamHook atomic.Pointer[func(dst, off int) bool] // fault-injection seam (see SetStreamHook)

	// Co-host rings (see polls.go): polls is set at Open when the
	// transport was handed a ring plan, and only then do waiters poll
	// before they park. media, guarded by mu, is how frames to each
	// planned peer travel, as the transport reported it. ringOpt is the
	// test seam that plans rings where the gate would not (see
	// export_test.go).
	polls   bool
	media   []string
	ringOpt *ringOption

	look atomic.Pointer[func(park bool) bool] // see SetLook

	ft map[ftKey]*ftInst // fault-tolerant agreement instances (see ft.go)

	nextMsgID uint64
	seq       []uint64 // per-destination sequence numbers (diagnostics)

	onFailure func(peer int, err error)
	onRevoke  func(ctx int)             // communicator revocation handler (see SetRevokeHandler)
	roundHook func(ctx, tag, round int) // fault-injection seam (see SetRoundHook)

	// One-sided support (see rma.go): onRMA dispatches inbound RMA frames
	// to the window layer; failWatchers are additional failure listeners
	// (the window layer's lock reaping) invoked after every newly detected
	// failure.
	onRMA        func(src int, h wire.Header, payload []byte)
	failWatchers []func(rank int, err error)

	// closeWatchers run once, outside mu, when Close or Abort ends the
	// device (see AddCloseWatcher).
	closeWatchers []func()

	// reqs recycles the requests of the blocking Send and Recv, which never
	// leave the call (see recycle).
	reqs sync.Pool

	// prof is the instrumentation sink (see internal/prof), set once at
	// Open and nil when profiling is off — every hook site below branches
	// on that nil, which is the whole disabled-mode cost.
	prof *prof.Recorder
}

// Option configures a Device at Open time.
type Option func(*Device)

// WithEagerLimit overrides the standard-mode eager/rendezvous threshold.
func WithEagerLimit(n int) Option {
	return func(d *Device) { d.eagerLimit = n }
}

// ParseEagerLimit parses the string form of the eager/rendezvous
// threshold (the MPJ_EAGER_LIMIT environment variable and the mpjrun
// -eager-limit surface share it). Empty means unset and returns 0; any
// other value must be a positive integer byte count.
func ParseEagerLimit(raw string) (int, error) {
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("eager limit %q: must be a positive byte count", raw)
	}
	return n, nil
}

// WithFailureHandler installs a callback invoked (once per failing peer,
// outside the device lock) when a peer connection dies. The job layer uses
// it to trigger the MPJAbort fan-out.
func WithFailureHandler(f func(peer int, err error)) Option {
	return func(d *Device) { d.onFailure = f }
}

// WithProfiler attaches an instrumentation recorder (see internal/prof):
// the device reports every send, receive post and payload arrival to it,
// split by protocol, and flushes it at Close/Abort. A nil recorder is
// profiling-off and costs one predictable branch per hook site.
func WithProfiler(r *prof.Recorder) Option {
	return func(d *Device) { d.prof = r }
}

// Open binds a Device to t and starts the transport. The device owns the
// transport from here on: Close closes it.
func Open(t transport.Transport, opts ...Option) (*Device, error) {
	d := &Device{
		t:          t,
		rank:       t.Rank(),
		size:       t.Size(),
		eagerLimit: DefaultEagerLimit,
		dead:       make(map[int]error),
		pendingRTS: make(map[uint64]*Request),
		awaitData:  make(map[rdvKey]*Request),
		ft:         make(map[ftKey]*ftInst),
		seq:        make([]uint64, t.Size()),
	}
	d.cond.L = &d.mu
	for _, opt := range opts {
		opt(d)
	}
	d.peers = t.Peers()
	d.refused = make([]error, len(d.peers.Pids))
	d.planRings()
	t.SetHandler(d.handle)
	t.SetLander(d.land)
	t.SetErrorHandler(d.peerFailed)
	if err := t.Start(); err != nil {
		return nil, err
	}
	return d, nil
}

// Rank returns the absolute rank of this process.
func (d *Device) Rank() int { return d.rank }

// Size returns the number of processes in the job.
func (d *Device) Size() int { return d.size }

// EagerLimit returns the standard-mode protocol threshold.
func (d *Device) EagerLimit() int { return d.eagerLimit }

// Stats exposes the protocol counters.
func (d *Device) Stats() *Stats { return &d.stats }

// Transport exposes the transport this device is bound to; tests and
// benchmarks use it to observe which device (chan/tcp/hyb) a job selected.
func (d *Device) Transport() transport.Transport { return d.t }

// Name identifies the transport flavor ("chan", "tcp", "hyb"), as the
// transport's description names it. It only labels reports, such as the
// benchmark's device field and test output.
func (d *Device) Name() string { return string(d.peers.Device) }

// LocalityTable returns the per-rank locality keys the transport's
// description carries, or nil when the transport has no locality
// knowledge (chan and tcp meshes — one flat group); callers must not
// modify it. Entry i is rank i's key; equal non-empty keys mean
// co-located ranks. The topology-aware hierarchical collectives group
// ranks by it.
func (d *Device) LocalityTable() []string { return d.peers.Locs }

// Profiler returns the attached instrumentation recorder, or nil when
// profiling is off. The field is set once at Open and never mutated, so
// the read is safe from any goroutine.
func (d *Device) Profiler() *prof.Recorder { return d.prof }

// Isend starts a non-blocking send of buf to absolute rank dst with the
// given tag and context. The returned request completes once buf is
// reusable; for ModeSync that also implies a matching receive was posted.
//
// buf is borrowed until the request completes. An eager send copies it
// into the outgoing frame before Isend returns, but a rendezvous send
// lends buf itself to the transport: the bytes leave from the caller's
// memory after the CTS arrives, and the request completes when the
// transport has handed them off. The caller must not modify buf before
// then — on every path, including cancellation and peer failure, the
// request's completion is what returns the buffer.
func (d *Device) Isend(buf []byte, dst, tag, ctx int, mode Mode) (*Request, error) {
	if err := d.checkDst(dst); err != nil {
		return nil, err
	}
	if d.eager(len(buf), mode) {
		return d.postEager(eagerFrame(buf), dst, tag, ctx)
	}
	r := new(Request)
	if err := d.postRendezvous(r, buf, false, false, dst, tag, ctx); err != nil {
		return nil, err
	}
	return r, nil
}

// Send is the blocking Isend: it returns once buf is reusable, with the
// error the send's request would have completed with. A standard-mode or
// ready-mode send at or under the eager limit is complete when its frame is
// handed to the transport and takes no request at all. Every other send
// takes one from a pool private to the device and parks in wait(r) until it
// completes; wait must not return before that (Request.Wait qualifies, and
// so does a caller's own park that keeps other work progressing
// meanwhile). The request never outlives the call: Send recycles it once
// wait returns, so wait must not keep it either.
func (d *Device) Send(buf []byte, dst, tag, ctx int, mode Mode, wait func(*Request) (Status, error)) error {
	if err := d.checkDst(dst); err != nil {
		return err
	}
	if d.eager(len(buf), mode) {
		return d.sendEager(eagerFrame(buf), dst, tag, ctx)
	}
	r := d.pooled()
	if err := d.postRendezvous(r, buf, false, true, dst, tag, ctx); err != nil {
		// Not recycled: when the transport refused the RTS, the request is
		// registered all the same and stays the device's.
		return err
	}
	if r.pull != nil && r.pull.stream != 0 {
		d.stream(r, buf)
	}
	_, err := wait(r)
	d.recycle(r)
	return err
}

// checkDst rejects a destination outside the job.
func (d *Device) checkDst(dst int) error {
	if dst < 0 || dst >= d.size {
		return fmt.Errorf("device: isend to rank %d of %d: %w", dst, d.size, transport.ErrBadRank)
	}
	return nil
}

// IsendFill starts a non-blocking send whose n-byte payload is produced by
// fill writing directly into the outgoing eager frame (or the rendezvous
// stash), skipping the intermediate pack buffer that Isend's []byte
// argument implies. fill runs exactly once, synchronously, before IsendFill
// returns — so buffers it reads may be reused immediately afterwards,
// whichever protocol carries the message — and must overwrite all n bytes.
// A fill error aborts the send: the frame goes back to the pool and the
// error is returned verbatim.
//
// The rendezvous stash is a pooled buffer the device owns: it is lent to
// the transport like Isend's buf and returns to the pool when the request
// completes, on every path.
//
// The datatype layer uses this to pack user buffers straight into pooled
// wire frames ("all handling of user-buffer datatypes outside the device
// level", without paying a copy for the separation), and the collective
// schedule engine for sends whose source it rewrites after posting.
func (d *Device) IsendFill(n int, fill func(payload []byte) error, dst, tag, ctx int, mode Mode) (*Request, error) {
	if err := d.checkDst(dst); err != nil {
		return nil, err
	}
	if d.eager(n, mode) {
		frame := wire.GetBuf(wire.HeaderLen + n)
		if err := fill(frame[wire.HeaderLen:]); err != nil {
			wire.PutBuf(frame)
			return nil, err
		}
		return d.postEager(frame, dst, tag, ctx)
	}
	stash := wire.GetBuf(n)
	if err := fill(stash); err != nil {
		wire.PutBuf(stash)
		return nil, err
	}
	r := new(Request)
	if err := d.postRendezvous(r, stash, true, false, dst, tag, ctx); err != nil {
		return nil, err
	}
	return r, nil
}

// eager reports whether an n-byte send in the given mode uses the eager
// protocol.
func (d *Device) eager(n int, mode Mode) bool {
	return mode == ModeReady || (mode == ModeStandard && n <= d.eagerLimit)
}

// eagerFrame returns a pooled frame holding a copy of buf behind a header
// still to be written.
func eagerFrame(buf []byte) []byte {
	frame := wire.GetBuf(wire.HeaderLen + len(buf))
	copy(frame[wire.HeaderLen:], buf)
	return frame
}

// sendEager sends an eager frame whose payload is already in place behind
// the (still unwritten) header. It consumes frame on every path. Once the
// frame is the transport's the send is complete, so it needs no request.
func (d *Device) sendEager(frame []byte, dst, tag, ctx int) error {
	n := len(frame) - wire.HeaderLen
	d.mu.Lock()
	err := d.usable()
	if err == nil {
		err = d.deadPeerLocked(dst)
	}
	if err != nil {
		d.mu.Unlock()
		wire.PutBuf(frame)
		return err
	}
	h := wire.Header{
		Kind:    wire.KindEager,
		Src:     int32(d.rank),
		Tag:     int32(tag),
		Context: int32(ctx),
		Seq:     d.seq[dst],
		Len:     int32(n),
	}
	d.seq[dst]++
	_ = h.Encode(frame) // cannot fail: the frame covers the header
	d.mu.Unlock()
	d.stats.EagerSent.Add(1)
	if p := d.prof; p != nil {
		p.Send(ctx, n, true)
	}
	return d.t.Send(dst, frame)
}

// postEager is sendEager for the non-blocking forms, which return a request:
// one that is complete already.
func (d *Device) postEager(frame []byte, dst, tag, ctx int) (*Request, error) {
	n := len(frame) - wire.HeaderLen
	if err := d.sendEager(frame, dst, tag, ctx); err != nil {
		return nil, err
	}
	return &Request{d: d, kind: reqSend, dst: dst, tag: tag, ctx: ctx,
		done: true, status: Status{Source: d.rank, Tag: tag, Count: n}}, nil
}

// postRendezvous opens a rendezvous for payload in r: the RTS goes out now,
// the payload waits — by reference — for the CTS. stash marks a pooled
// buffer the device owns (IsendFill) as opposed to the caller's memory
// (Isend); it is released on every path, including the error returns here.
// stream asks for a stream area to a co-host destination (the blocking
// Send, which then streams). On an error from the transport r is
// registered nonetheless, as the non-blocking forms always left it.
func (d *Device) postRendezvous(r *Request, payload []byte, stash, stream bool, dst, tag, ctx int) error {
	d.mu.Lock()
	err := d.usable()
	if err == nil {
		err = d.deadPeerLocked(dst)
	}
	if err != nil {
		d.mu.Unlock()
		if stash {
			wire.PutBuf(payload)
		}
		return err
	}
	*r = Request{d: d, kind: reqSend, dst: dst, tag: tag, ctx: ctx, payload: payload, stash: stash}
	d.nextMsgID++
	r.msgID = d.nextMsgID
	d.pendingRTS[r.msgID] = r
	h := wire.Header{
		Kind:    wire.KindRTS,
		Src:     int32(d.rank),
		Tag:     int32(tag),
		Context: int32(ctx),
		Seq:     d.seq[dst],
		MsgID:   r.msgID,
		Len:     int32(len(payload)),
	}
	d.seq[dst]++
	var offer [streamOfferLen]byte
	frame := wire.NewFrame(&h, d.offerLocked(r, stream, &offer))
	d.mu.Unlock()
	d.stats.RTSSent.Add(1)
	if p := d.prof; p != nil {
		p.Send(ctx, len(payload), false)
	}
	return d.t.Send(dst, frame)
}

// Irecv posts a non-blocking receive into buf for a message matching
// (src, tag, ctx); src may be AnySource and tag may be AnyTag. The request
// completes when a matching message has fully arrived in buf.
//
// A nil buf selects allocate-on-arrival: the device sizes the buffer to
// the incoming message (no truncation possible) and the payload is read
// with Request.Data after completion. The layers above use this for
// variable-length (serialized object) messages.
func (d *Device) Irecv(buf []byte, src, tag, ctx int) (*Request, error) {
	r := new(Request)
	if err := d.postRecv(r, buf, src, tag, ctx); err != nil {
		return nil, err
	}
	return r, nil
}

// Recv is the blocking Irecv: it returns the status and error the
// receive's request completes with. The request comes from the pool and
// goes back to it as in Send, and wait is bound by the same rules. buf is
// never allocate-on-arrival — there is no request left to read Data from —
// so a nil buf receives an empty message.
func (d *Device) Recv(buf []byte, src, tag, ctx int, wait func(*Request) (Status, error)) (Status, error) {
	if buf == nil {
		buf = []byte{}
	}
	r := d.pooled()
	if err := d.postRecv(r, buf, src, tag, ctx); err != nil {
		d.recycle(r)
		return Status{}, err
	}
	st, err := wait(r)
	d.recycle(r)
	return st, err
}

// postRecv posts the receive r, and if it matched a co-host sender's RTS
// fetches the payload before returning. An error leaves r unposted.
func (d *Device) postRecv(r *Request, buf []byte, src, tag, ctx int) error {
	if src != AnySource && (src < 0 || src >= d.size) {
		return fmt.Errorf("device: irecv from rank %d of %d: %w", src, d.size, transport.ErrBadRank)
	}
	d.mu.Lock()
	pull, err := d.irecvLocked(r, buf, src, tag, ctx)
	d.mu.Unlock()
	if pull {
		d.pull(r)
	}
	return err
}

// pooled takes a request for a blocking call from the pool.
func (d *Device) pooled() *Request {
	if r, ok := d.reqs.Get().(*Request); ok {
		return r
	}
	return new(Request)
}

// recycle zeroes the request of a blocking call and returns it to the pool.
// The call's wait has returned, so r is complete, and a complete request
// is in no table — posted, awaitData, pendingRTS — and no transport will
// call back into it: land's and SendData's completions are what completed
// it, and each runs once.
func (d *Device) recycle(r *Request) {
	*r = Request{}
	d.reqs.Put(r)
}

// irecvLocked is postRecv under d.mu: it fills r and matches or posts it.
// pull reports that the receive matched a queued RTS whose payload the
// caller must now fetch with d.pull, having released the lock.
func (d *Device) irecvLocked(r *Request, buf []byte, src, tag, ctx int) (pull bool, err error) {
	if err := d.usable(); err != nil {
		return false, err
	}
	*r = Request{d: d, kind: reqRecv, buf: buf, dynamic: buf == nil, src: src, tag: tag, ctx: ctx}

	// First try the unexpected queue, in arrival order.
	for i, u := range d.unexp {
		if !envelopeMatches(src, tag, ctx, u.src, u.tag, u.ctx) {
			continue
		}
		d.unexp = append(d.unexp[:i], d.unexp[i+1:]...)
		if u.eager {
			if !d.deliverLocked(r, u.src, u.tag, wire.Payload(u.frame)) {
				wire.PutBuf(u.frame)
			}
		} else {
			pull = d.grantRendezvousLocked(r, &u)
		}
		d.stats.PostedDirect.Add(1)
		if p := d.prof; p != nil {
			p.RecvPost(ctx)
		}
		return pull, nil
	}
	// Nothing already arrived can satisfy the receive: a dead source can
	// never send one, so posting would hang forever — fail fast instead.
	// AnySource receives fail as soon as any peer is dead (the message
	// could have been coming from it), matching ULFM's pending-wildcard
	// rule.
	if err := d.deadSourceLocked(src); err != nil {
		return false, err
	}
	d.posted = append(d.posted, r)
	if p := d.prof; p != nil {
		p.RecvPost(ctx)
	}
	return false, nil
}

// Iprobe looks, without receiving and without blocking, for a message
// matching (src, tag, ctx): ok reports the envelope and byte count of the
// earliest such message. With none there, err says why none will come —
// the device closed or failed, or the source is dead (for AnySource, any
// rank) — and is nil while one still may. A blocking probe is core's park
// loop around this look.
func (d *Device) Iprobe(src, tag, ctx int) (st Status, ok bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, u := range d.unexp {
		if envelopeMatches(src, tag, ctx, u.src, u.tag, u.ctx) {
			return Status{Source: u.src, Tag: u.tag, Count: u.bytes()}, true, nil
		}
	}
	if err := d.usable(); err != nil {
		return Status{}, false, err
	}
	return Status{}, false, d.deadSourceLocked(src)
}

// Err returns the device's terminal error — ErrClosed after Close or Abort,
// the RankFailedError of a rank declared dead itself — or nil while the
// device is usable.
func (d *Device) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.usable()
}

// usable reports the terminal error state, if any. Callers hold d.mu.
func (d *Device) usable() error {
	if d.closed {
		return ErrClosed
	}
	if d.failure != nil {
		return d.failure
	}
	return nil
}

// deadPeerLocked returns the registered failure of dst, if any. Callers
// hold d.mu.
func (d *Device) deadPeerLocked(dst int) error {
	if err, ok := d.dead[dst]; ok {
		return err
	}
	return nil
}

// deadSourceLocked is deadPeerLocked generalized to receive matching: an
// AnySource receive fails on the earliest-failed rank. Callers hold d.mu.
func (d *Device) deadSourceLocked(src int) error {
	if src != AnySource {
		return d.deadPeerLocked(src)
	}
	for r := 0; r < d.size; r++ {
		if err, ok := d.dead[r]; ok {
			return err
		}
	}
	return nil
}

// RankFailed reports whether world rank r is registered as failed.
func (d *Device) RankFailed(r int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.dead[r]
	return ok
}

// RankError returns the registered RankFailedError of world rank r, or nil
// while r is presumed alive. While no failure was ever registered it reads
// one atomic and takes no lock: the map entry is written before the epoch
// moves, so a reader that still sees epoch 0 ran before the failure.
func (d *Device) RankError(r int) error {
	if d.failEpoch.Load() == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dead[r]
}

// FailedRanks returns the sorted world ranks currently registered as
// failed.
func (d *Device) FailedRanks() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int, 0, len(d.dead))
	for r := range d.dead {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// FailEpoch returns the failure-detection epoch: it increments once per
// newly detected rank failure, so a cached copy tells a caller whether any
// new failure arrived since it last looked.
func (d *Device) FailEpoch() uint64 {
	return d.failEpoch.Load()
}

// envelopeMatches implements MPI matching: recvSrc/recvTag may be
// wildcards, context must match exactly.
func envelopeMatches(recvSrc, recvTag, recvCtx, src, tag, ctx int) bool {
	if recvCtx != ctx {
		return false
	}
	if recvSrc != AnySource && recvSrc != src {
		return false
	}
	if recvTag != AnyTag && recvTag != tag {
		return false
	}
	return true
}

// deliverLocked moves an arrived eager payload into a receive request and
// completes it. A nil receive buffer means "allocate on arrival": the
// request adopts the payload slice (zero copy — the frame is already
// owned by the device) and exposes it via Data. It reports whether the
// payload — and hence the frame it aliases — was adopted; if not, the
// caller still owns the frame and may recycle it. Callers hold d.mu.
func (d *Device) deliverLocked(r *Request, src, tag int, payload []byte) (adopted bool) {
	if r.dynamic {
		r.buf = payload
		d.completeLocked(r, Status{Source: src, Tag: tag, Count: len(payload)}, nil)
		return true
	}
	n := copy(r.buf, payload)
	var err error
	if len(payload) > len(r.buf) {
		err = fmt.Errorf("%w: got %d bytes, buffer holds %d", ErrTruncate, len(payload), len(r.buf))
	}
	d.completeLocked(r, Status{Source: src, Tag: tag, Count: n}, err)
	return false
}

// grantRendezvousLocked settles how the payload of the RTS u, just matched
// by receive r, comes. pull reports that the sender is a co-host process
// and offered its memory: the caller must run d.pull(r) once it has
// released d.mu. Otherwise the CTS has gone out and r waits for DATA.
// Either way r sits in awaitData, where the failure paths find it — except
// when the sender is already known dead: its payload can come by neither
// road, and r ends with its failure at once. Callers hold d.mu.
func (d *Device) grantRendezvousLocked(r *Request, u *unexpected) (pull bool) {
	r.matchedSrc, r.matchedTag, r.expect, r.msgID = u.src, u.tag, u.plen, u.msgID
	if err := d.deadPeerLocked(u.src); err != nil {
		d.completeLocked(r, Status{}, err)
		return false
	}
	d.awaitData[rdvKey{src: u.src, msgID: u.msgID}] = r
	if d.claimPullLocked(r, u) {
		return true
	}
	d.sendCTSLocked(r)
	return false
}

// sendCTSLocked asks the sender of the RTS r matched for its DATA. Callers
// hold d.mu: transport sends never block, so issuing them under the lock is
// safe and keeps CTS emission ordered with matching.
func (d *Device) sendCTSLocked(r *Request) {
	h := wire.Header{
		Kind:    wire.KindCTS,
		Src:     int32(d.rank),
		Context: int32(r.ctx),
		MsgID:   r.msgID,
	}
	d.stats.CTSSent.Add(1)
	_ = d.t.Send(r.matchedSrc, wire.NewFrame(&h, nil))
}

// sendData lends the payload of a rendezvous send whose CTS just arrived to
// the transport. r is in no table any more, so the only thing that can
// complete it from here is the transport giving the payload back (r.sent) —
// no failure path may return a buffer the transport still reads. Called
// without d.mu: the transport may complete the send before returning.
func (d *Device) sendData(r *Request) {
	h := wire.Header{
		Kind:    wire.KindData,
		Src:     int32(d.rank),
		Tag:     int32(r.tag),
		Context: int32(r.ctx),
		MsgID:   r.msgID,
		Len:     int32(len(r.payload)),
	}
	d.stats.DataSent.Add(1)
	if err := d.t.SendData(r.dst, h, r.payload, r.sent); err != nil {
		r.sent(err)
	}
}

// sent is the SendData completion of a rendezvous send: the transport no
// longer references the payload. A nil err means the bytes were handed to
// the medium; anything else is why they never will be.
func (r *Request) sent(err error) {
	d := r.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if err == nil {
		d.finishSendLocked(r, Status{Source: d.rank, Tag: r.tag, Count: len(r.payload)}, nil)
		return
	}
	d.finishSendLocked(r, Status{}, d.transferErrLocked(r.dst, err))
}

// transferErrLocked types the error of a payload transfer with peer that
// the transport gave up on: the device's own terminal state if it has one,
// else the peer's failure. Callers hold d.mu.
func (d *Device) transferErrLocked(peer int, cause error) error {
	if err := d.usable(); err != nil {
		return err
	}
	if err := d.deadPeerLocked(peer); err != nil {
		return err
	}
	return &RankFailedError{Rank: peer, Cause: cause}
}

// finishSendLocked completes a rendezvous send on any path — delivered,
// cancelled, failed — and returns its stash, if it has one, to the pool.
// Callers hold d.mu and guarantee the transport does not hold the payload.
// It is the only place a rendezvous send completes.
func (d *Device) finishSendLocked(r *Request, st Status, err error) {
	if r.pull != nil {
		// Before anyone learns the payload is theirs again: a co-host
		// receiver copying it right now must find the guard word changed.
		r.pull.cell.Store(0)
	}
	if r.stash {
		wire.PutBuf(r.payload)
	}
	r.payload, r.stash = nil, false
	d.completeLocked(r, st, err)
}

// land is the transport's landing hook (transport.Lander): a KindData
// header from src has arrived and its payload is about to be moved. land
// claims the receive the payload belongs to — out of awaitData, so that
// Revoke, FailContext, a failure of src, Close or Abort cannot complete it
// while the transport still writes its buffer — and answers with that
// buffer; the transport fills it outside the device lock and finishes the
// request through r.landed.
//
// The header's length is checked against the length the CTS granted before
// a byte moves: a peer cannot make the receiver allocate, or overrun a
// buffer, by announcing a different size. A payload nobody awaits (its
// receive was failed or the context revoked meanwhile) is left to the
// transport to skip.
func (d *Device) land(src int, h wire.Header) ([]byte, func(error), error) {
	d.stats.DataRecv.Add(1)
	if p := d.prof; p != nil {
		p.Arrive(int(h.Context), int(h.Len), false)
	}
	key := rdvKey{src: src, msgID: h.MsgID}
	d.mu.Lock()
	r, ok := d.awaitData[key]
	if !ok || (r.pull != nil && r.pull.pulling) { // a pulling receive asked for no DATA
		d.mu.Unlock()
		return nil, nil, nil
	}
	if int(h.Len) != r.expect {
		d.mu.Unlock()
		err := fmt.Errorf("device: rank %d sent %d bytes of DATA for a %d-byte rendezvous", src, h.Len, r.expect)
		d.peerFailed(src, err) // completes r, still in awaitData, with the typed failure
		return nil, nil, err
	}
	delete(d.awaitData, key)
	d.mu.Unlock()
	if r.dynamic {
		r.buf = wire.GetBuf(r.expect)
	}
	return r.buf[:min(len(r.buf), r.expect)], r.landed, nil
}

// landed finishes a receive the transport claimed through land: the payload
// is in r.buf (err nil), or the stream broke while it was being written.
func (r *Request) landed(err error) {
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	r.d.landedLocked(r, err)
}

// landedLocked is landed for callers that hold d.mu: the pull's end is a
// landing too.
func (d *Device) landedLocked(r *Request, err error) {
	if err != nil {
		d.completeLocked(r, Status{}, d.transferErrLocked(r.matchedSrc, err))
		return
	}
	st := Status{Source: r.matchedSrc, Tag: r.matchedTag, Count: min(len(r.buf), r.expect)}
	if r.expect > len(r.buf) {
		err = fmt.Errorf("%w: got %d bytes, buffer holds %d", ErrTruncate, r.expect, len(r.buf))
	}
	d.completeLocked(r, st, err)
}

// completeLocked finishes a request and wakes all waiters. Callers hold d.mu.
func (d *Device) completeLocked(r *Request, st Status, err error) {
	r.done = true
	r.status = st
	r.err = err
	d.wakeLocked()
}

// wakeLocked moves the wake generation and wakes every parked waiter: the
// one way a state change reaches them. Callers hold d.mu.
func (d *Device) wakeLocked() {
	d.gen.Add(1)
	d.cond.Broadcast()
}

// Wake moves the wake generation for a change of state kept above the
// device that a waiter parked in WaitProgress looks at — a window's epoch
// state (see core's win.go) — so that waiter looks again.
func (d *Device) Wake() {
	d.mu.Lock()
	d.wakeLocked()
	d.mu.Unlock()
}

// Gen returns the wake generation, which moves on every change of device
// state a waiter may be parked on. Read it before looking at that state:
// WaitProgress(gen) then returns at once if anything changed after the
// read, so nothing that happens between the look and the park is missed.
func (d *Device) Gen() uint64 { return d.gen.Load() }

// WaitProgress parks until the wake generation moves past gen — until any
// request completes, a message arrives unmatched, a rank failure or a
// revoked context is registered, an agreement message lands, Wake is
// called, or the device closes after the caller read Gen — or until the
// look (SetLook) reports its state moved. It is the
// parking primitive of core's one park loop, which re-derives what to do
// from its own state after every wakeup; the wakeup says that something
// changed, not what.
func (d *Device) WaitProgress(gen uint64) {
	if d.gen.Load() != gen || d.polls && d.spin(gen, time.Now().Add(pollBudget), true) || d.looked(true) {
		return
	}
	d.mu.Lock()
	for d.gen.Load() == gen {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// handle is the transport inbound-frame handler. It runs on reader
// goroutines and never blocks: every action is a queue edit, a buffer copy
// or an asynchronous send.
//
// Per the Handler contract the device owns frame from here on. Frames
// whose contents are consumed inside the call go back to the frame pool on
// the way out; the two exceptions are unmatched eager frames (retained in
// the unexpected queue until a receive matches them) and frames adopted by
// an allocate-on-arrival receive (the caller keeps the payload).
func (d *Device) handle(src int, frame []byte) {
	var h wire.Header
	if err := h.Decode(frame); err != nil {
		d.peerFailed(src, err)
		return
	}
	payload := wire.Payload(frame)
	retained := false
	revokeCtx := -1
	var granted *Request // rendezvous send whose CTS this frame is
	var pulling *Request // receive whose RTS this frame is and whose payload this goroutine fetches
	var offer pullOffer
	if h.Kind == wire.KindRTS {
		// A malformed RTS is the peer's failure, before it sizes a buffer
		// or aims a copy.
		var err error
		if offer, err = decodeOffer(&h, payload); err != nil {
			wire.PutBuf(frame)
			d.peerFailed(src, err)
			return
		}
	}

	// One-sided frames bypass the matching engine entirely: they are
	// handled synchronously by the window layer, which serializes on the
	// window's own mutex. Deliberately no eager/rendezvous accounting —
	// RMA traffic has its own counters (see internal/prof).
	if h.Kind.IsRMA() {
		d.mu.Lock()
		f := d.onRMA
		d.mu.Unlock()
		if f != nil {
			f(src, h, payload)
		}
		wire.PutBuf(frame)
		return
	}

	// Payload arrival accounting happens here, at the frame boundary:
	// eager frames carry their context, so bytes are attributed per
	// communicator on the receiver too (rendezvous payloads: see land).
	if p := d.prof; p != nil && h.Kind == wire.KindEager {
		p.Arrive(int(h.Context), len(payload), true)
	}

	d.mu.Lock()
	switch h.Kind {
	case wire.KindRevoke:
		revokeCtx = int(h.Context)

	case wire.KindFTPull, wire.KindFTReply, wire.KindFTDecide:
		d.handleFTLocked(src, h, payload)
	case wire.KindEager:
		d.stats.EagerRecv.Add(1)
		if r := d.matchPostedLocked(src, int(h.Tag), int(h.Context)); r != nil {
			retained = d.deliverLocked(r, src, int(h.Tag), payload)
		} else {
			d.stats.Unexpected.Add(1)
			d.unexp = append(d.unexp, unexpected{
				src: src, tag: int(h.Tag), ctx: int(h.Context),
				eager: true, frame: frame,
			})
			retained = true
			d.wakeLocked() // wake probes
		}

	case wire.KindRTS:
		d.stats.RTSRecv.Add(1)
		u := unexpected{
			src: src, tag: int(h.Tag), ctx: int(h.Context),
			msgID: h.MsgID, plen: int(h.Len), offer: offer,
		}
		if r := d.matchPostedLocked(src, u.tag, u.ctx); r != nil {
			if d.grantRendezvousLocked(r, &u) {
				pulling = r
			}
		} else {
			d.stats.Unexpected.Add(1)
			d.unexp = append(d.unexp, u)
			d.wakeLocked() // wake probes
		}

	case wire.KindCTS:
		if r, ok := d.pendingRTS[h.MsgID]; ok && r.dst == src {
			// Out of the table, the request belongs to the transport: from
			// here only the SendData completion finishes it (see sendData).
			delete(d.pendingRTS, h.MsgID)
			granted = r
		}
		// A CTS for an unknown msgID means the send was cancelled after
		// the receiver matched it; the CancelAck(denied) path has already
		// resolved the race in favour of delivery, so this cannot happen
		// for correct traffic. Ignore it defensively.

	case wire.KindPulled:
		// The receiver copied the payload out of our memory: the send is
		// done, as on SendData's completion. Only an offer can be taken up.
		if r, ok := d.pendingRTS[h.MsgID]; ok && r.dst == src && r.pull != nil {
			delete(d.pendingRTS, h.MsgID)
			d.finishSendLocked(r, Status{Source: d.rank, Tag: r.tag, Count: len(r.payload)}, nil)
		}

	case wire.KindCancel:
		ah := wire.Header{Kind: wire.KindCancelAck, Src: int32(d.rank), MsgID: h.MsgID}
		for i, u := range d.unexp {
			if !u.eager && u.src == src && u.msgID == h.MsgID {
				d.unexp = append(d.unexp[:i], d.unexp[i+1:]...)
				ah.Len = 1 // granted
				break
			}
		}
		_ = d.t.Send(src, wire.NewFrame(&ah, nil))

	case wire.KindCancelAck:
		if r, ok := d.pendingRTS[h.MsgID]; ok && h.Len == 1 {
			// Cancelled before any CTS: the payload never left.
			delete(d.pendingRTS, h.MsgID)
			d.finishSendLocked(r, Status{Source: d.rank, Tag: r.tag, Cancelled: true}, nil)
		}
		// Denied (Len==0): the CTS is on its way (it was sent before the
		// ack on the same FIFO path) or already processed; the send
		// completes through the normal rendezvous path.
	}
	revokeHandler := d.onRevoke
	d.mu.Unlock()
	if !retained {
		wire.PutBuf(frame)
	}
	if granted != nil {
		d.sendData(granted)
	}
	if pulling != nil {
		d.pull(pulling)
	}
	if revokeCtx >= 0 && revokeHandler != nil {
		revokeHandler(revokeCtx)
	}
}

// matchPostedLocked finds and removes the first posted receive matching an
// arrived envelope. Callers hold d.mu.
func (d *Device) matchPostedLocked(src, tag, ctx int) *Request {
	for i, r := range d.posted {
		if envelopeMatches(r.src, r.tag, r.ctx, src, tag, ctx) {
			d.posted = append(d.posted[:i], d.posted[i+1:]...)
			return r
		}
	}
	return nil
}

// peerFailed is the transport error handler: connection-level failures
// feed the per-rank failure registry.
func (d *Device) peerFailed(peer int, err error) {
	d.NotifyRankFailed(peer, err)
}

// NotifyRankFailed registers world rank peer as failed (idempotent per
// rank). Detection sources converge here: transport connection breaks,
// lease expiries surfaced by the runtime, and injected faults.
//
// Unlike the paper's original total-failure model, the device stays usable:
// only operations touching the dead rank complete, with a RankFailedError
// carrying the rank — posted receives matching it (including AnySource
// wildcards, which the dead rank might have satisfied), rendezvous sends
// awaiting its CTS, and matched receives awaiting its DATA. The failure
// epoch and the wake generation move and every parked waiter wakes, so
// collective schedules re-examine their membership (see core's schedule
// engine).
//
// A notification for the device's own rank means this process was declared
// dead (an injected kill, an expired local lease): the device enters total
// local failure so every pending and future operation errors out and the
// rank unwinds promptly.
func (d *Device) NotifyRankFailed(peer int, cause error) {
	d.mu.Lock()
	if d.closed || d.failure != nil {
		d.mu.Unlock()
		return
	}
	if _, dup := d.dead[peer]; dup {
		d.mu.Unlock()
		return
	}
	fail := &RankFailedError{Rank: peer, Cause: cause}
	d.dead[peer] = fail
	d.failEpoch.Add(1)

	if peer == d.rank {
		// Self-failure: total local failure, as Abort but with the typed
		// error so waiters can tell a kill from an orderly shutdown.
		d.failure = fail
		d.failAllLocked(fail)
	} else {
		kept := d.posted[:0]
		for _, r := range d.posted {
			if r.src == peer || r.src == AnySource {
				d.completeLocked(r, Status{}, fail)
				continue
			}
			kept = append(kept, r)
		}
		d.posted = kept
		for id, r := range d.pendingRTS {
			if r.dst == peer {
				delete(d.pendingRTS, id)
				d.finishSendLocked(r, Status{}, fail)
			}
		}
		for key, r := range d.awaitData {
			if key.src == peer {
				d.failAwaitingLocked(key, r, fail)
			}
		}
	}
	d.wakeLocked()
	h := d.onFailure
	watchers := make([]func(rank int, err error), len(d.failWatchers))
	copy(watchers, d.failWatchers)
	d.mu.Unlock()
	if h != nil {
		h(peer, cause)
	}
	for _, w := range watchers {
		w(peer, fail)
	}
}

// Die condemns this rank and tears its device down: the registry records
// its own death with cause (so waiters see a RankFailedError, and a slave
// reports itself dead rather than done), then the transport aborts. Peers
// learn of the death the way they learn of any other, from their
// transports: a broken connection, or the channel mesh's report of the
// abort. It is how an application plays a rank dying mid-job.
func (d *Device) Die(cause error) {
	d.NotifyRankFailed(d.rank, cause)
	d.Abort()
}

// failAllLocked completes every operation the device still holds — posted
// receives, rendezvous sends awaiting their CTS, matched receives awaiting
// DATA — with err. Transfers the transport has claimed (see sendData and
// land) are not among them: the transport finishes those when it lets go
// of their buffers, which teardown makes prompt. Callers hold d.mu.
func (d *Device) failAllLocked(err error) {
	for _, r := range d.posted {
		d.completeLocked(r, Status{}, err)
	}
	d.posted = nil
	for id, r := range d.pendingRTS {
		delete(d.pendingRTS, id)
		d.finishSendLocked(r, Status{}, err)
	}
	for key, r := range d.awaitData {
		d.failAwaitingLocked(key, r, err)
	}
}

// FailContext completes every pending operation on device context ctx with
// cause: posted receives, rendezvous sends awaiting CTS and matched
// receives awaiting DATA. The communicator layer uses it to implement
// revocation — a revoked communicator's two contexts are failed so
// stragglers' pending operations return promptly.
func (d *Device) FailContext(ctx int, cause error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.failure != nil {
		return
	}
	kept := d.posted[:0]
	for _, r := range d.posted {
		if r.ctx == ctx {
			d.completeLocked(r, Status{}, cause)
			continue
		}
		kept = append(kept, r)
	}
	d.posted = kept
	for id, r := range d.pendingRTS {
		if r.ctx == ctx {
			delete(d.pendingRTS, id)
			d.finishSendLocked(r, Status{}, cause)
		}
	}
	for key, r := range d.awaitData {
		if r.ctx == ctx {
			d.failAwaitingLocked(key, r, cause)
		}
	}
	d.wakeLocked()
}

// SetRevokeHandler installs the callback invoked (outside the device lock)
// when a KindRevoke frame arrives; ctx is the revoked communicator's
// point-to-point context. The communicator layer maps it back to the Comm
// and revokes it locally.
func (d *Device) SetRevokeHandler(f func(ctx int)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onRevoke = f
}

// SendRevoke propagates a communicator revocation to world rank dst,
// best-effort: ctx is the communicator's point-to-point context id.
func (d *Device) SendRevoke(dst, ctx int) error {
	if dst < 0 || dst >= d.size {
		return transport.ErrBadRank
	}
	h := wire.Header{Kind: wire.KindRevoke, Src: int32(d.rank), Context: int32(ctx)}
	return d.t.Send(dst, wire.NewFrame(&h, nil))
}

// SetRoundHook installs the fault-injection seam: f runs synchronously
// every time the collective schedule engine is about to post a round, with
// the device context, schedule tag and round index. Test harnesses arm it
// to kill, drop or delay a rank at a deterministic point mid-collective.
// A nil f clears the hook.
func (d *Device) SetRoundHook(f func(ctx, tag, round int)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.roundHook = f
}

// CallRoundHook invokes the installed round hook, if any. The collective
// schedule engine calls it before posting each round.
func (d *Device) CallRoundHook(ctx, tag, round int) {
	d.mu.Lock()
	f := d.roundHook
	d.mu.Unlock()
	if f != nil {
		f(ctx, tag, round)
	}
}

// Drain blocks until all accepted outbound frames are handed to the medium.
func (d *Device) Drain() { d.t.Drain() }

// Abort tears the device down abruptly after an application failure:
// pending requests complete with ErrClosed locally, and the transport is
// aborted so remote peers observe a failure (not an orderly goodbye) and
// cascade into their own aborts.
func (d *Device) Abort() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.failAllLocked(ErrClosed)
	d.wakeLocked()
	d.mu.Unlock()
	d.t.Abort()
	d.runCloseWatchers()
	if d.prof != nil {
		_ = d.prof.Close() // flush the trace file even on abrupt teardown
	}
}

// Close shuts the device down and closes its transport. Communication must
// be complete (the MPJ layer runs a barrier in finalize before calling
// this); pending requests at Close complete with ErrClosed.
func (d *Device) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.failAllLocked(ErrClosed)
	d.wakeLocked()
	d.mu.Unlock()
	err := d.t.Close()
	d.runCloseWatchers()
	if d.prof != nil {
		if ferr := d.prof.Close(); err == nil {
			err = ferr // surface a failed trace flush
		}
	}
	return err
}

// AddCloseWatcher registers f to run once, outside the device lock, when
// Close or Abort ends the device — at once when it has ended already.
// Core unmaps its host areas there.
func (d *Device) AddCloseWatcher(f func()) {
	d.mu.Lock()
	if !d.closed {
		d.closeWatchers = append(d.closeWatchers, f)
		d.mu.Unlock()
		return
	}
	d.mu.Unlock()
	f()
}

// runCloseWatchers runs the close watchers; called once, by whichever of
// Close and Abort ended the device.
func (d *Device) runCloseWatchers() {
	d.mu.Lock()
	ws := d.closeWatchers
	d.closeWatchers = nil
	d.mu.Unlock()
	for _, f := range ws {
		f()
	}
}
