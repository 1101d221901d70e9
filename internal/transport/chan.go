package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/wire"
)

// inItem is one frame in flight inside a channel mesh.
type inItem struct {
	src   int
	frame []byte
}

// ChanTransport is an in-process Transport. A mesh of np endpoints shares
// np inbox channels; endpoint i owns inboxes[i]. One demux goroutine per
// endpoint plays the role of the paper's input-handler thread; one writer
// goroutine per destination drains the unbounded send queues. The mesh
// also shares every endpoint's Lander: a SendData payload is not pushed
// through an inbox but copied by the sender's writer goroutine straight
// into the buffer the destination's Lander names, so no reference to the
// sender's memory ever waits in a queue its owner cannot drain.
//
// In-process endpoints have no connection whose break a peer could see,
// so the mesh reports an endpoint's Abort to the error handler of every
// other endpoint instead (ErrPeerAborted), once each: to those started at
// the time, and to those that start later when they start.
//
// ChanTransport lets an entire MPJ job — all ranks — run inside a single
// test process with the exact same device and API layers that run over TCP.
type ChanTransport struct {
	rank    int
	size    int
	mesh    *chanMesh
	queues  []*sendQueue
	peers   Peers
	handler Handler
	errh    ErrorHandler

	mu      sync.Mutex
	started bool
	closed  bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

var _ Transport = (*ChanTransport)(nil)

// ErrPeerAborted is the cause a channel mesh reports to its endpoints'
// error handlers when another endpoint of the mesh aborts.
var ErrPeerAborted = errors.New("transport: co-located peer aborted")

// chanMesh is what the endpoints of one channel mesh share: the inboxes,
// the landers (landers[i] is endpoint i's), and the abort reports.
type chanMesh struct {
	inboxes []chan inItem
	landers []atomic.Pointer[Lander]

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

// chanInboxDepth is the buffering of each inbox channel. It only affects
// scheduling granularity: the unbounded send queues absorb any burst.
const chanInboxDepth = 256

// NewChanMesh creates a fully connected in-process mesh of np endpoints.
// Endpoint i of the returned slice must be used by rank i only.
func NewChanMesh(np int) []*ChanTransport {
	if np <= 0 {
		panic(fmt.Sprintf("transport: NewChanMesh(%d): np must be positive", np))
	}
	mesh := &chanMesh{
		inboxes: make([]chan inItem, np),
		landers: make([]atomic.Pointer[Lander], np),
		started: make([]*ChanTransport, np),
	}
	for i := range mesh.inboxes {
		mesh.inboxes[i] = make(chan inItem, chanInboxDepth)
	}
	local := make([]bool, np) // every endpoint shares the process
	for i := range local {
		local[i] = true
	}
	eps := make([]*ChanTransport, np)
	for i := range eps {
		queues := make([]*sendQueue, np)
		for j := range queues {
			queues[j] = newSendQueue()
		}
		eps[i] = &ChanTransport{
			rank:   i,
			size:   np,
			mesh:   mesh,
			queues: queues,
			peers:  Peers{Device: DeviceChan, Local: local},
			stop:   make(chan struct{}),
		}
	}
	return eps
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
func (t *ChanTransport) SetLander(l Lander) { t.mesh.landers[t.rank].Store(&l) }

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

// Send enqueues frame for delivery to dst. It never blocks.
func (t *ChanTransport) Send(dst int, frame []byte) error {
	if dst < 0 || dst >= t.size {
		return ErrBadRank
	}
	if !t.queues[dst].push(outItem{frame: frame}) {
		return ErrClosed
	}
	return nil
}

// SendData enqueues a by-reference payload for dst. It never blocks.
func (t *ChanTransport) SendData(dst int, h wire.Header, payload []byte, done func(error)) error {
	if dst < 0 || dst >= t.size {
		return ErrBadRank
	}
	if !t.queues[dst].push(outItem{data: &outData{hdr: h, payload: payload, done: done}}) {
		return ErrClosed
	}
	return nil
}

// Start launches the demux goroutine and one writer per destination, then
// reports to the error handler the aborts of other endpoints so far.
func (t *ChanTransport) Start() error {
	if err := t.launch(); err != nil {
		return err
	}
	if t.errh != nil {
		t.mesh.start(t)
	}
	return nil
}

// launch is Start up to the report, under t.mu.
func (t *ChanTransport) launch() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		return ErrStarted
	}
	if t.handler == nil {
		return ErrNoHandler
	}
	t.started = true
	inbox := t.mesh.inboxes[t.rank]

	// Demux: the single "input handler" goroutine of this endpoint.
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			select {
			case it := <-inbox:
				t.handler(it.src, it.frame)
			case <-t.stop:
				// Drain whatever is already buffered so orderly
				// shutdowns do not drop frames.
				for {
					select {
					case it := <-inbox:
						t.handler(it.src, it.frame)
					default:
						return
					}
				}
			}
		}
	}()

	// Writers: one per destination, draining the unbounded queues. A
	// writer blocked on a full inbox gives up when the endpoint stops:
	// a correct MPJ program has completed all communication (and hence
	// emptied these queues) before the endpoint is closed, so only
	// frames of erroneous unmatched sends can be dropped here. SendData
	// items land from here (see landLocal); once the endpoint has
	// stopped they are refused instead, so an aborted rank moves no more
	// bytes.
	for dst := range t.queues {
		dst := dst
		q := t.queues[dst]
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			for {
				it, ok := q.pop()
				if !ok {
					return
				}
				if it.data != nil {
					select {
					case <-t.stop:
						it.data.done(ErrClosed)
					default:
						var land Lander
						if l := t.mesh.landers[dst].Load(); l != nil {
							land = *l
						}
						landLocal(land, t.rank, it.data)
					}
				} else {
					select {
					case t.mesh.inboxes[dst] <- inItem{src: t.rank, frame: it.frame}:
					case <-t.stop:
					}
				}
				q.delivered()
			}
		}()
	}
	return nil
}

// Rings plans nothing: no rank of a channel mesh is another process.
func (t *ChanTransport) Rings(RingPlan) {}

// Poll finds nothing: a channel mesh delivers on its demux goroutine.
func (t *ChanTransport) Poll(time.Duration) bool { return false }

// StreamOpen finds no stream area: there is no ring.
func (t *ChanTransport) StreamOpen(int) (uint32, StreamMiss) { return 0, StreamNoRing }

// Stream is never called: StreamOpen claims nothing.
func (t *ChanTransport) Stream(int, uint32, []byte, func(int) bool) bool { return false }

// Unstream fills nothing: there is no ring.
func (t *ChanTransport) Unstream(int, uint32, int, []byte, *atomic.Bool) (int, error) { return 0, nil }

// Drain blocks until all accepted frames have been pushed into their
// destination inboxes.
func (t *ChanTransport) Drain() {
	for _, q := range t.queues {
		q.waitIdle()
	}
}

// Close drains the outbound queues, then stops the writers and the demux
// goroutine. Draining first matters: a rank may complete (say) a barrier
// while its final frame to a peer is still queued, and that frame is what
// completes the peer's barrier. Frames already in this endpoint's inbox are
// handed to the handler before the demux goroutine exits.
func (t *ChanTransport) Close() error {
	t.shutdown(true)
	return nil
}

// Abort stops the endpoint without draining, and the mesh reports it to
// every other endpoint's error handler (see ChanTransport), as a broken
// connection reports a TCP peer's death.
func (t *ChanTransport) Abort() {
	if t.shutdown(false) {
		t.mesh.abort(t.rank)
	}
}

// shutdown stops the endpoint; it reports whether this call did.
func (t *ChanTransport) shutdown(drain bool) bool {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return false
	}
	t.closed = true
	started := t.started
	t.mu.Unlock()
	t.mesh.leave(t)

	if started && drain {
		t.Drain()
	}
	for _, q := range t.queues {
		q.close()
	}
	close(t.stop)
	if started {
		t.wg.Wait()
	}
	return true
}
