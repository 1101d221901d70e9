package transport

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/wire"
)

// ChanTransport is an in-process Transport: every endpoint of a mesh lives
// in one address space, and a frame is handed over in the sender's
// goroutine. Send calls the destination's Handler, and SendData its Lander
// and copies the payload where it says, before they return. No goroutine
// runs between two ranks: the paper's input-handler thread reads a socket,
// and here there is none. The mesh keeps four rules:
//
//   - Order. Frames from one endpoint to another reach the handler in the
//     order of their Send calls. A handler or lander may itself send, to
//     any endpoint; the nesting is bounded by the protocol above (RTS →
//     CTS → DATA, a request and its reply, an agreement's fan-out).
//   - Before Start. A frame sent to an endpoint whose Start has not run
//     waits in that endpoint's backlog, in arrival order; Start hands the
//     backlog to the handler before any later frame reaches it.
//   - Teardown. Once Close or Abort returns, none of the endpoint's handler
//     or lander calls is running and none will start: a frame sent to it
//     goes back to the pool, and a SendData to it completes with
//     done(ErrClosed), so an aborted rank moves no more bytes. Called
//     inside deliveries of the mesh (a handler or lander up the caller's
//     stack), Close and Abort do not wait for as many deliveries as the
//     caller is nested in: those end after they return.
//   - Locks. A sender holds no lock that a handler or lander path takes.
//
// In-process endpoints have no connection whose break a peer could see,
// so the mesh reports an endpoint's Abort to the error handler of every
// other endpoint instead (ErrPeerAborted), once each: to those started at
// the time, and to those that start later when they start.
type ChanTransport struct {
	rank    int
	size    int
	mesh    *chanMesh
	peers   Peers
	handler Handler
	lander  Lander
	errh    ErrorHandler
	closed  atomic.Bool // set under mu; senders read it without

	mu       sync.Mutex
	ended    sync.Cond // broadcast when a delivery ends while closed
	started  bool
	flushing bool       // Start is handing the backlog over
	backlog  []chanItem // what arrived before Start, or during the hand-over
	active   int        // handler and lander calls in progress
}

var _ Transport = (*ChanTransport)(nil)

// ErrPeerAborted is the cause a channel mesh reports to its endpoints'
// error handlers when another endpoint of the mesh aborts.
var ErrPeerAborted = errors.New("transport: co-located peer aborted")

// chanItem is one frame from src, or, with data set, a SendData payload.
type chanItem struct {
	src   int
	frame []byte
	data  *outData
}

// refuse ends an item that will never be delivered.
func (it chanItem) refuse() {
	if it.data != nil {
		it.data.done(ErrClosed)
	} else {
		wire.PutBuf(it.frame)
	}
}

// chanMesh is what the endpoints of one channel mesh share: the endpoints
// themselves and the abort reports.
type chanMesh struct {
	eps []*ChanTransport

	mu      sync.Mutex
	started []*ChanTransport // by rank, once Start ran
	aborted []int            // ranks whose endpoint aborted, kept for late starters
}

// abort records rank's abort and reports it to every other started
// endpoint.
func (m *chanMesh) abort(rank int) {
	m.mu.Lock()
	m.aborted = append(m.aborted, rank)
	var told []*ChanTransport
	for _, ep := range m.started {
		if ep != nil && ep.rank != rank {
			told = append(told, ep)
		}
	}
	m.mu.Unlock()
	for _, ep := range told {
		ep.errh(rank, ErrPeerAborted)
	}
}

// start records t as started and reports to it every abort recorded so far.
func (m *chanMesh) start(t *ChanTransport) {
	m.mu.Lock()
	m.started[t.rank] = t
	var gone []int
	for _, r := range m.aborted {
		if r != t.rank {
			gone = append(gone, r)
		}
	}
	m.mu.Unlock()
	for _, r := range gone {
		t.errh(r, ErrPeerAborted)
	}
}

// leave forgets t: an endpoint that has shut down hears of no more aborts.
func (m *chanMesh) leave(t *ChanTransport) {
	m.mu.Lock()
	if m.started[t.rank] == t {
		m.started[t.rank] = nil
	}
	m.mu.Unlock()
}

// anyAborted reports whether an endpoint of the mesh has aborted.
func (m *chanMesh) anyAborted() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.aborted) > 0
}

// NewChanMesh creates a fully connected in-process mesh of np endpoints.
// Endpoint i of the returned slice must be used by rank i only.
func NewChanMesh(np int) []*ChanTransport {
	if np <= 0 {
		panic(fmt.Sprintf("transport: NewChanMesh(%d): np must be positive", np))
	}
	mesh := &chanMesh{eps: make([]*ChanTransport, np), started: make([]*ChanTransport, np)}
	local := make([]bool, np) // every endpoint shares the process
	for i := range local {
		local[i] = true
	}
	for i := range mesh.eps {
		t := &ChanTransport{rank: i, size: np, mesh: mesh, peers: Peers{Device: DeviceChan, Local: local}}
		t.ended.L = &t.mu
		mesh.eps[i] = t
	}
	return mesh.eps
}

// Rank returns the endpoint's rank in the mesh.
func (t *ChanTransport) Rank() int { return t.rank }

// Size returns the number of endpoints in the mesh.
func (t *ChanTransport) Size() int { return t.size }

// Peers describes the mesh: every rank shares this address space, and
// where the process runs is nobody's concern.
func (t *ChanTransport) Peers() Peers { return t.peers }

// SetHandler installs the inbound frame handler.
func (t *ChanTransport) SetHandler(h Handler) { t.handler = h }

// SetLander installs the landing hook peers' SendData payloads resolve
// through.
func (t *ChanTransport) SetLander(l Lander) { t.lander = l }

// SetErrorHandler installs the peer failure handler, which hears of the
// other endpoints' aborts (and of failures tests inject). Install it
// before Start.
func (t *ChanTransport) SetErrorHandler(h ErrorHandler) { t.errh = h }

// InjectError invokes the error handler as if peer's connection had failed.
// It exists for failure-injection tests.
func (t *ChanTransport) InjectError(peer int, err error) {
	if t.errh != nil {
		t.errh(peer, err)
	}
}

// Send hands frame to dst's handler before it returns (see ChanTransport).
// A closed endpoint sends nothing: the frame goes back to the pool.
func (t *ChanTransport) Send(dst int, frame []byte) error {
	if dst < 0 || dst >= t.size {
		return ErrBadRank
	}
	if t.closed.Load() {
		wire.PutBuf(frame)
		return ErrClosed
	}
	t.mesh.eps[dst].deliver(chanItem{src: t.rank, frame: frame})
	return nil
}

// SendData copies payload into the buffer dst's Lander names and runs done
// before it returns, unless dst has not started yet.
func (t *ChanTransport) SendData(dst int, h wire.Header, payload []byte, done func(error)) error {
	if dst < 0 || dst >= t.size {
		return ErrBadRank
	}
	if t.closed.Load() {
		return ErrClosed
	}
	t.mesh.eps[dst].deliver(chanItem{src: t.rank, data: &outData{hdr: h, payload: payload, done: done}})
	return nil
}

// deliver hands it to t's handler or lander in the caller's goroutine —
// or keeps it in the backlog until Start has handed that over, or refuses
// it once t has shut down.
func (t *ChanTransport) deliver(it chanItem) {
	t.mu.Lock()
	switch {
	case t.closed.Load():
		t.mu.Unlock()
		it.refuse()
		return
	case !t.started || t.flushing:
		t.backlog = append(t.backlog, it)
		t.mu.Unlock()
		return
	}
	t.active++
	t.mu.Unlock()
	t.hand(it)
	t.delivered()
}

// hand runs the handler, or the lander, on one item.
func (t *ChanTransport) hand(it chanItem) {
	if it.data != nil {
		landLocal(t.lander, it.src, it.data)
	} else {
		t.handler(it.src, it.frame)
	}
}

// delivered ends a delivery, and tells a closer waiting for it.
func (t *ChanTransport) delivered() {
	t.mu.Lock()
	t.active--
	if t.closed.Load() {
		t.ended.Broadcast()
	}
	t.mu.Unlock()
}

// Start hands the backlog, and what joins it meanwhile, to the handler in
// arrival order, then reports to the error handler the aborts of other
// endpoints so far.
func (t *ChanTransport) Start() error {
	if err := t.handOver(); err != nil {
		return err
	}
	if t.errh != nil {
		t.mesh.start(t)
	}
	return nil
}

// handOver is Start up to the report.
func (t *ChanTransport) handOver() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.started:
		return ErrStarted
	case t.handler == nil:
		return ErrNoHandler
	case t.closed.Load():
		return ErrClosed
	}
	t.started, t.flushing = true, true
	for len(t.backlog) > 0 && !t.closed.Load() {
		items := t.backlog
		t.backlog = nil
		t.active++
		t.mu.Unlock()
		for _, it := range items {
			if t.closed.Load() { // closed by a handler of this batch
				it.refuse()
			} else {
				t.hand(it)
			}
		}
		t.delivered()
		t.mu.Lock()
	}
	t.flushing = false
	return nil
}

// Rings plans nothing: no rank of a channel mesh is another process.
func (t *ChanTransport) Rings(RingPlan) {}

// Poll finds nothing: every frame was delivered before its Send returned.
func (t *ChanTransport) Poll(time.Duration) bool { return false }

// StreamOpen finds no stream area: there is no ring.
func (t *ChanTransport) StreamOpen(int) (uint32, StreamMiss) { return 0, StreamNoRing }

// Stream is never called: StreamOpen claims nothing.
func (t *ChanTransport) Stream(int, uint32, []byte, func(int) bool) bool { return false }

// Unstream fills nothing: there is no ring.
func (t *ChanTransport) Unstream(int, uint32, int, []byte, *atomic.Bool) (int, error) { return 0, nil }

// Close shuts the endpoint down. Every send delivered before it returned,
// or waits in its destination's backlog: there is nothing to drain.
func (t *ChanTransport) Close() error {
	t.shutdown()
	return nil
}

// Abort shuts the endpoint down, and the mesh reports it to every other
// endpoint's error handler (see ChanTransport), as a broken connection
// reports a TCP peer's death.
func (t *ChanTransport) Abort() {
	if t.shutdown() {
		t.mesh.abort(t.rank)
	}
}

// shutdown refuses the backlog and what arrives from now on, and waits for
// the deliveries in flight, but those the caller is nested in. It reports
// whether this call shut the endpoint down.
func (t *ChanTransport) shutdown() bool {
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		return false
	}
	t.closed.Store(true)
	backlog := t.backlog
	t.backlog = nil
	if t.active > 0 {
		for nested := deliveriesOnStack(); t.active > nested; {
			t.ended.Wait()
		}
	}
	t.mu.Unlock()
	t.mesh.leave(t)
	for _, it := range backlog {
		it.refuse()
	}
	return true
}

// deliveriesOnStack counts the ChanTransport.hand frames on the calling
// goroutine's stack: the deliveries of channel meshes it is nested in.
func deliveriesOnStack() int {
	pcs := make([]uintptr, 64)
	n := runtime.Callers(2, pcs)
	for ; n == len(pcs); n = runtime.Callers(2, pcs) {
		pcs = make([]uintptr, 2*len(pcs))
	}
	count := 0
	for frames := runtime.CallersFrames(pcs[:n]); ; {
		f, more := frames.Next()
		if f.Function == "mpj/internal/transport.(*ChanTransport).hand" {
			count++
		}
		if !more {
			return count
		}
	}
}
