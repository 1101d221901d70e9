package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mpj/internal/wire"
)

// tcpMagic begins every mesh handshake so that stray connections are
// rejected instead of corrupting the frame stream.
const tcpMagic uint32 = 0x4d504a31 // "MPJ1"

// BootstrapTimeout bounds how long mesh establishment may take: dial
// retries and accepts both give up after this long.
var BootstrapTimeout = 30 * time.Second

// TCPTransport is the distributed Transport: an all-to-all TCP mesh
// between the OS processes of a job, one reader goroutine per inbound
// connection (the paper's "input handler threads") and one writer goroutine
// per peer draining an unbounded send queue.
type TCPTransport struct {
	rank   int
	size   int
	jobID  uint64
	conns  []net.Conn // conns[peer]; nil at self index
	queues []*sendQueue

	handler Handler
	lander  Lander
	errh    ErrorHandler

	mu      sync.Mutex
	started bool
	closed  bool
	goodbye []bool // peer sent an orderly GOODBYE
	wg      sync.WaitGroup
}

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport establishes the all-to-all mesh for one rank.
//
// addrs[i] is the address rank i listens on; ln is this rank's own
// listener (its address must be addrs[rank]). The mesh forms with the
// deterministic convention that rank i dials every lower rank and accepts
// from every higher rank. jobID guards against connections from other jobs.
//
// NewTCPTransport returns once connections to all size-1 peers are
// established and verified. The listener is not closed; the caller owns it.
func NewTCPTransport(rank int, jobID uint64, addrs []string, ln net.Listener) (*TCPTransport, error) {
	return NewTCPMesh(rank, jobID, addrs, ln, nil)
}

// NewTCPMesh is NewTCPTransport with a skip set: no connection is made to
// (or accepted from) peers with skip[peer] true, and sends to them fail
// with ErrClosed. The hybrid device uses this to leave co-located ranks —
// reached over the in-process channel mesh instead — out of the TCP mesh.
// All ranks of a job must agree on the skip set; it is derived from the
// job's locality table, which every rank receives identically. A nil skip
// builds the full mesh.
func NewTCPMesh(rank int, jobID uint64, addrs []string, ln net.Listener, skip []bool) (*TCPTransport, error) {
	size := len(addrs)
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("transport: rank %d out of range for %d addrs", rank, size)
	}
	skipped := func(peer int) bool { return peer < len(skip) && skip[peer] }
	t := &TCPTransport{
		rank:    rank,
		size:    size,
		jobID:   jobID,
		conns:   make([]net.Conn, size),
		queues:  make([]*sendQueue, size),
		goodbye: make([]bool, size),
	}
	for i := range t.queues {
		t.queues[i] = newSendQueue()
		if skipped(i) && i != rank {
			// No connection will exist: fail sends immediately rather
			// than queueing frames nobody drains. The loopback queue
			// (i == rank) always stays open.
			t.queues[i].close()
		}
	}

	deadline := time.Now().Add(BootstrapTimeout)

	// Dial lower ranks and accept from higher ranks concurrently: with
	// sequential dialing, two middle ranks could otherwise wait on each
	// other's accept loops.
	var dialErr, acceptErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for peer := 0; peer < rank; peer++ {
			if skipped(peer) {
				continue
			}
			conn, err := dialPeer(addrs[peer], rank, jobID, deadline)
			if err != nil {
				dialErr = fmt.Errorf("transport: rank %d dialing rank %d at %s: %w", rank, peer, addrs[peer], err)
				return
			}
			t.conns[peer] = conn
		}
	}()

	need := 0
	for peer := rank + 1; peer < size; peer++ {
		if !skipped(peer) {
			need++
		}
	}
	for got := 0; got < need; {
		type deadliner interface{ SetDeadline(time.Time) error }
		if d, ok := ln.(deadliner); ok {
			_ = d.SetDeadline(deadline)
		}
		conn, err := ln.Accept()
		if err != nil {
			acceptErr = fmt.Errorf("transport: rank %d accepting peers: %w", rank, err)
			break
		}
		peer, err := readHello(conn, jobID)
		if err != nil || peer <= rank || peer >= size || skipped(peer) || t.conns[peer] != nil {
			// Stray, duplicate, or cross-job connection: drop it and
			// keep accepting. The legitimate peer will still arrive.
			conn.Close()
			continue
		}
		t.conns[peer] = conn
		got++
	}
	wg.Wait()
	if dialErr != nil || acceptErr != nil {
		t.closeConns()
		if dialErr != nil {
			return nil, dialErr
		}
		return nil, acceptErr
	}
	return t, nil
}

// dialPeer connects to a peer's listener, retrying until the deadline so
// that ranks whose listeners come up at slightly different times still
// mesh. The hello message identifies the dialing rank and job.
func dialPeer(addr string, rank int, jobID uint64, deadline time.Time) (net.Conn, error) {
	var lastErr error
	for backoff := 5 * time.Millisecond; time.Now().Before(deadline); backoff = min(2*backoff, 250*time.Millisecond) {
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			if err := writeHello(conn, rank, jobID); err == nil {
				return conn, nil
			} else {
				conn.Close()
				lastErr = err
			}
		} else {
			lastErr = err
		}
		time.Sleep(backoff)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("bootstrap deadline exceeded")
	}
	return nil, lastErr
}

func writeHello(conn net.Conn, rank int, jobID uint64) error {
	var hello [16]byte
	binary.LittleEndian.PutUint32(hello[0:], tcpMagic)
	binary.LittleEndian.PutUint32(hello[4:], uint32(rank))
	binary.LittleEndian.PutUint64(hello[8:], jobID)
	_, err := conn.Write(hello[:])
	return err
}

func readHello(conn net.Conn, jobID uint64) (int, error) {
	var hello [16]byte
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return -1, err
	}
	_ = conn.SetReadDeadline(time.Time{})
	if binary.LittleEndian.Uint32(hello[0:]) != tcpMagic {
		return -1, fmt.Errorf("transport: bad handshake magic")
	}
	if binary.LittleEndian.Uint64(hello[8:]) != jobID {
		return -1, fmt.Errorf("transport: handshake from foreign job")
	}
	return int(binary.LittleEndian.Uint32(hello[4:])), nil
}

func (t *TCPTransport) closeConns() {
	for _, c := range t.conns {
		if c != nil {
			c.Close()
		}
	}
}

// Rank returns this endpoint's rank.
func (t *TCPTransport) Rank() int { return t.rank }

// DeviceName names the transport flavor; it only labels reports (the
// benchmark's device field, test output).
func (t *TCPTransport) DeviceName() string { return "tcp" }

// Size returns the number of ranks in the mesh.
func (t *TCPTransport) Size() int { return t.size }

// SetHandler installs the inbound frame handler.
func (t *TCPTransport) SetHandler(h Handler) { t.handler = h }

// SetLander installs the landing hook for inbound KindData payloads.
func (t *TCPTransport) SetLander(l Lander) { t.lander = l }

// SetErrorHandler installs the peer-failure handler.
func (t *TCPTransport) SetErrorHandler(h ErrorHandler) { t.errh = h }

// Send enqueues frame for delivery to dst. It never blocks.
func (t *TCPTransport) Send(dst int, frame []byte) error {
	if dst < 0 || dst >= t.size {
		return ErrBadRank
	}
	if !t.queues[dst].push(outItem{frame: frame}) {
		return ErrClosed
	}
	return nil
}

// SendData enqueues a by-reference payload for dst. It never blocks.
func (t *TCPTransport) SendData(dst int, h wire.Header, payload []byte, done func(error)) error {
	if dst < 0 || dst >= t.size {
		return ErrBadRank
	}
	if !t.queues[dst].push(outItem{data: &outData{hdr: h, payload: payload, done: done}}) {
		return ErrClosed
	}
	return nil
}

// Start launches one reader goroutine per inbound connection and one
// writer goroutine per peer.
func (t *TCPTransport) Start() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		return ErrStarted
	}
	if t.handler == nil {
		return ErrNoHandler
	}
	t.started = true

	for peer := range t.conns {
		peer := peer
		if peer == t.rank {
			// Loopback: the writer delivers straight to the handler (or,
			// for a SendData item, to the lander).
			q := t.queues[peer]
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				for {
					it, ok := q.pop()
					if !ok {
						return
					}
					if it.data != nil {
						landLocal(t.lander, t.rank, it.data)
					} else {
						t.handler(t.rank, it.frame)
					}
					q.delivered()
				}
			}()
			continue
		}
		conn := t.conns[peer]
		if conn == nil {
			// Skipped peer (see NewTCPMesh): no connection, no goroutines.
			continue
		}

		// Reader: the paper's one input-handler thread per connection.
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			if err := t.readLoop(peer, conn); err != nil {
				t.reportPeerError(peer, err)
			}
		}()

		// Writer: drains the unbounded queue into the socket.
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.writeLoop(peer, conn, t.queues[peer])
		}()
	}
	return nil
}

// readLoop is one connection's input handler: it reads frames header-first
// and hands each to the Handler, except KindData, whose payload goes from
// the socket straight into the buffer the Lander names (see landStream).
// It returns nil after the peer's GOODBYE and otherwise the error that
// ended the stream: connection loss, or a wire.ErrFrame for bytes that
// are not a frame stream. Every length on the wire is treated as hostile:
// none of them sizes an allocation beyond wire.ReadBody's trust bound.
func (t *TCPTransport) readLoop(peer int, conn io.Reader) error {
	r := bufio.NewReaderSize(conn, 1<<16)
	scratch := make([]byte, wire.PrefixLen+wire.HeaderLen)
	hdr := scratch[wire.PrefixLen:]
	for {
		n, err := wire.ReadHeader(r, scratch)
		if err != nil {
			return err
		}
		var h wire.Header
		_ = h.Decode(hdr) // cannot fail: hdr holds HeaderLen bytes
		switch h.Kind {
		case wire.KindGoodbye:
			t.mu.Lock()
			t.goodbye[peer] = true
			t.mu.Unlock()
			return nil
		case wire.KindData:
			if err := t.landStream(peer, r, h, n); err != nil {
				return err
			}
		default:
			frame, err := wire.ReadBody(r, hdr, n)
			if err != nil {
				return err
			}
			t.handler(peer, frame)
		}
	}
}

// landStream moves the payload of the KindData frame whose header was just
// read (n is the frame length its prefix announced) from r into the
// landing buffer the Lander names, skipping whatever the buffer does not
// take — or all of it when nobody awaits the payload — so the stream stays
// in step with the frame boundaries.
func (t *TCPTransport) landStream(peer int, r *bufio.Reader, h wire.Header, n int) error {
	plen := n - wire.HeaderLen
	if h.Len < 0 || int(h.Len) != plen {
		return fmt.Errorf("%w: DATA frame of %d bytes announces a %d-byte payload", wire.ErrFrame, n, h.Len)
	}
	var dst []byte
	var fin func(error)
	if t.lander != nil {
		var err error
		if dst, fin, err = t.lander(peer, h); err != nil {
			return err
		}
	}
	if fin == nil {
		_, err := r.Discard(plen)
		return err
	}
	if len(dst) > plen {
		dst = dst[:plen]
	}
	_, err := io.ReadFull(r, dst)
	if err == nil {
		_, err = r.Discard(plen - len(dst))
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	fin(err)
	return err
}

// writeLoop drains one peer's queue into its socket, batching flushes
// while the queue stays non-empty. Once a frame's bytes are in the socket
// (or the connection is dead and the frame is dropped), the frame goes
// back to the pool — the writer is the frame's final owner on the remote
// path. A SendData item goes out as one writev of prefix+header and the
// borrowed payload, behind whatever was still buffered, and is completed
// here; after a write error every later item of the queue completes with
// that error unwritten. The length prefix of either kind is written from
// head, which lives as long as the loop: a prefix built per frame would
// escape to the heap through the writer.
func (t *TCPTransport) writeLoop(peer int, conn net.Conn, q *sendQueue) {
	w := bufio.NewWriterSize(conn, 1<<16)
	head := make([]byte, wire.PrefixLen+wire.HeaderLen) // prefix (+header of a SendData item)
	var dead error
	for {
		it, ok := q.pop()
		if !ok {
			w.Flush()
			return
		}
		if dead == nil {
			var err error
			if it.data == nil {
				binary.LittleEndian.PutUint32(head, uint32(len(it.frame)))
				if _, err = w.Write(head[:wire.PrefixLen]); err == nil {
					_, err = w.Write(it.frame)
				}
				if err == nil && q.len() == 0 {
					err = w.Flush()
				}
			} else if err = w.Flush(); err == nil {
				binary.LittleEndian.PutUint32(head, uint32(wire.HeaderLen+len(it.data.payload)))
				_ = it.data.hdr.Encode(head[wire.PrefixLen:]) // cannot fail: head covers the header
				vec := net.Buffers{head, it.data.payload}
				_, err = vec.WriteTo(conn)
			}
			if err != nil {
				dead = err
				t.reportPeerError(peer, err)
			}
		}
		if it.data != nil {
			it.data.done(dead)
		} else {
			wire.PutBuf(it.frame)
		}
		q.delivered()
	}
}

// reportPeerError forwards a connection failure to the error handler unless
// the failure is part of an orderly shutdown.
func (t *TCPTransport) reportPeerError(peer int, err error) {
	t.mu.Lock()
	suppress := t.closed || t.goodbye[peer]
	t.mu.Unlock()
	if suppress || isClosedConn(err) {
		return
	}
	if t.errh != nil {
		t.errh(peer, err)
	}
}

// isClosedConn reports whether err resulted from closing our own socket.
func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// Drain blocks until every accepted frame has been written and flushed to
// its socket (or handed to the loopback handler).
func (t *TCPTransport) Drain() {
	for _, q := range t.queues {
		q.waitIdle()
	}
}

// Abort tears the mesh down without goodbyes: peers see broken
// connections and report the failure through their error handlers, which
// is how application failure on this rank becomes visible job-wide.
func (t *TCPTransport) Abort() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	started := t.started
	t.mu.Unlock()
	for _, q := range t.queues {
		q.close()
	}
	t.closeConns()
	if started {
		t.wg.Wait()
	}
}

// Close performs an orderly shutdown: drain all outbound queues, tell every
// peer goodbye, then close the sockets and join all goroutines.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	if !t.started {
		t.closed = true
		t.mu.Unlock()
		t.closeConns()
		return nil
	}
	t.mu.Unlock()

	t.Drain()

	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()

	// One goodbye frame per connected peer: the writers release frames to
	// the pool after writing them, so the frame must not be shared.
	for peer, q := range t.queues {
		if peer != t.rank && t.conns[peer] != nil {
			q.push(outItem{frame: wire.NewFrame(&wire.Header{Kind: wire.KindGoodbye, Src: int32(t.rank)}, nil)})
		}
	}
	for _, q := range t.queues {
		q.close()
	}
	// Writers flush the goodbye frames before exiting; give readers their
	// EOFs by closing the sockets after the queues drain.
	for _, q := range t.queues {
		q.waitIdle()
	}
	t.closeConns()
	t.wg.Wait()
	return nil
}
