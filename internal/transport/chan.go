package transport

import (
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
// ChanTransport lets an entire MPJ job — all ranks — run inside a single
// test process with the exact same device and API layers that run over TCP.
type ChanTransport struct {
	rank    int
	size    int
	inboxes []chan inItem
	landers []atomic.Pointer[Lander] // landers[i] is endpoint i's; shared by the mesh
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

// chanInboxDepth is the buffering of each inbox channel. It only affects
// scheduling granularity: the unbounded send queues absorb any burst.
const chanInboxDepth = 256

// NewChanMesh creates a fully connected in-process mesh of np endpoints.
// Endpoint i of the returned slice must be used by rank i only.
func NewChanMesh(np int) []*ChanTransport {
	if np <= 0 {
		panic(fmt.Sprintf("transport: NewChanMesh(%d): np must be positive", np))
	}
	inboxes := make([]chan inItem, np)
	for i := range inboxes {
		inboxes[i] = make(chan inItem, chanInboxDepth)
	}
	landers := make([]atomic.Pointer[Lander], np)
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
			rank:    i,
			size:    np,
			inboxes: inboxes,
			landers: landers,
			queues:  queues,
			peers:   Peers{Device: DeviceChan, Local: local},
			stop:    make(chan struct{}),
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
func (t *ChanTransport) SetLander(l Lander) { t.landers[t.rank].Store(&l) }

// SetErrorHandler installs the peer failure handler. The channel mesh never
// fails spontaneously, but tests inject failures through it.
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

// Start launches the demux goroutine and one writer per destination.
func (t *ChanTransport) Start() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		return ErrStarted
	}
	if t.handler == nil {
		return ErrNoHandler
	}
	t.started = true

	// Demux: the single "input handler" goroutine of this endpoint.
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			select {
			case it := <-t.inboxes[t.rank]:
				t.handler(it.src, it.frame)
			case <-t.stop:
				// Drain whatever is already buffered so orderly
				// shutdowns do not drop frames.
				for {
					select {
					case it := <-t.inboxes[t.rank]:
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
						if l := t.landers[dst].Load(); l != nil {
							land = *l
						}
						landLocal(land, t.rank, it.data)
					}
				} else {
					select {
					case t.inboxes[dst] <- inItem{src: t.rank, frame: it.frame}:
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
func (t *ChanTransport) StreamOpen(int) uint32 { return 0 }

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
	return t.shutdown(true)
}

// Abort stops the endpoint without draining. In-process meshes have no
// connection state for peers to observe, so failure propagation across an
// in-process job is the caller's responsibility (RunLocal closes every
// endpoint of the mesh).
func (t *ChanTransport) Abort() { _ = t.shutdown(false) }

func (t *ChanTransport) shutdown(drain bool) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	started := t.started
	t.mu.Unlock()

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
	return nil
}
