package transport

import (
	"sync"

	"mpj/internal/wire"
)

// outItem is one queued outbound message: a whole frame (Send) or, when
// data is set, a SendData payload. A ctl frame is the TCP transport's own
// (ring set-up, GOODBYE) and always takes the socket, as does a doorbell
// (bell), which has no frame: the writer builds it. ring is the ring an
// acceptance switches the writer to once it is written (ring.go).
type outItem struct {
	frame []byte
	data  *outData
	ctl   bool
	bell  bool
	ring  *outRing
}

// outData is what SendData hands over: the KindData header, the borrowed
// payload that follows it, and the completion to call once the payload is
// no longer referenced.
type outData struct {
	hdr     wire.Header
	payload []byte
	done    func(error)
}

// sendQueue is an unbounded FIFO of frames drained by a single writer
// goroutine, one per peer of a TCP mesh. Unbounded queues realize the
// paper's eager-protocol assumption that "receiver threads have unlimited
// buffering" on the send side, and they let protocol handlers send (e.g. a
// CTS in response to an RTS) without ever blocking a reader goroutine.
type sendQueue struct {
	mu         sync.Mutex
	nonEmp     sync.Cond // signalled when items become non-empty or queue closes
	idle       sync.Cond // signalled when queue is empty and nothing is in flight
	items      []outItem
	delivering bool // the writer popped a frame and has not finished delivering it
	closed     bool
}

func newSendQueue() *sendQueue {
	q := &sendQueue{}
	q.nonEmp.L = &q.mu
	q.idle.L = &q.mu
	return q
}

// push appends an item. It reports false if the queue is closed.
func (q *sendQueue) push(it outItem) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, it)
	q.nonEmp.Signal()
	return true
}

// pop removes the oldest item, blocking while the queue is empty. It
// returns ok=false once the queue is closed and fully drained. A successful
// pop marks the queue as delivering until the writer calls delivered.
func (q *sendQueue) pop() (it outItem, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.nonEmp.Wait()
	}
	if len(q.items) == 0 {
		return outItem{}, false
	}
	it = q.items[0]
	q.items[0] = outItem{} // drop the queue's reference to a borrowed payload
	if len(q.items) == 1 {
		// Drained: keep the slot, so the next push of a request-reply
		// exchange reuses it instead of allocating an array per item.
		q.items = q.items[:0]
	} else {
		q.items = q.items[1:]
	}
	q.delivering = true
	return it, true
}

// delivered records that the item returned by the last pop has been handed
// to the underlying medium.
func (q *sendQueue) delivered() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.delivering = false
	if len(q.items) == 0 {
		q.idle.Broadcast()
	}
}

// waitIdle blocks until every pushed frame has been delivered.
func (q *sendQueue) waitIdle() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) > 0 || q.delivering {
		q.idle.Wait()
	}
}

// close marks the queue closed. The writer drains remaining items first.
func (q *sendQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.nonEmp.Broadcast()
	q.idle.Broadcast()
}

// len reports the number of queued frames.
func (q *sendQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}
