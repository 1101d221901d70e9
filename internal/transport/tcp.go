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

	rings *ringSet // shared memory with co-host processes (ring.go); nil without a plan
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

// Peers describes a bare TCP mesh: the device name, and nothing of where
// the ranks run.
func (t *TCPTransport) Peers() Peers { return Peers{Device: DeviceTCP} }

// Size returns the number of ranks in the mesh.
func (t *TCPTransport) Size() int { return t.size }

// SetHandler installs the inbound frame handler.
func (t *TCPTransport) SetHandler(h Handler) { t.handler = h }

// SetLander installs the landing hook for inbound KindData payloads.
func (t *TCPTransport) SetLander(l Lander) { t.lander = l }

// SetErrorHandler installs the peer-failure handler.
func (t *TCPTransport) SetErrorHandler(h ErrorHandler) { t.errh = h }

// Send enqueues frame for delivery to dst — or, when the pair shares a
// ring, puts it there itself (see sendRing). It never blocks.
func (t *TCPTransport) Send(dst int, frame []byte) error {
	if dst < 0 || dst >= t.size {
		return ErrBadRank
	}
	if o := t.outRing(dst); o != nil && fits(len(frame)) {
		return t.sendRing(dst, o, frame)
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
	t.offerRings()

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
			err := t.readLoop(peer, conn)
			if in := t.inRing(peer); in != nil && in.live.Load() && err != nil {
				// What the peer published before its connection ended was
				// sent, as the bytes of a socket are before its EOF.
				_ = t.drainRing(peer, in)
			}
			if t.rings != nil {
				t.rings.ended[peer].Store(true)
			}
			if err != nil {
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
// While the peer writes into a ring, the reader also drains that ring: on a
// doorbell, on GOODBYE, and up to the marker in front of every other frame
// (see ring.go). It returns nil after the peer's GOODBYE and otherwise the
// error that ended the stream: connection loss, or a wire.ErrFrame for
// bytes that are not a frame stream. Every length on the wire is treated as
// hostile: none of them sizes an allocation beyond wire.ReadBody's trust
// bound.
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
		in := t.inRing(peer)
		if in != nil && !in.live.Load() {
			in = nil
		}
		switch h.Kind {
		case wire.KindGoodbye:
			if in != nil {
				if err := t.drainRing(peer, in); err != nil {
					return err
				}
			}
			t.mu.Lock()
			t.goodbye[peer] = true
			t.mu.Unlock()
			return nil
		case wire.KindRingOffer, wire.KindRingAck, wire.KindBell:
			frame, err := wire.ReadBody(r, hdr, n)
			if err != nil {
				return err
			}
			if h.Kind != wire.KindBell {
				err = t.ringControl(peer, h, frame)
			} else if in != nil {
				err = t.drainRing(peer, in)
			}
			wire.PutBuf(frame)
			if err != nil {
				return err
			}
		case wire.KindData:
			if in != nil {
				if err := t.drainToMark(peer, in); err != nil {
					return err
				}
			}
			err := t.landStream(peer, r, h, n)
			if in != nil {
				err = t.drainPastMark(peer, in, err)
			}
			if err != nil {
				return err
			}
		default:
			frame, err := wire.ReadBody(r, hdr, n)
			if err != nil {
				return err
			}
			if in == nil {
				t.handler(peer, frame)
				continue
			}
			if err := t.drainToMark(peer, in); err != nil {
				wire.PutBuf(frame)
				return err
			}
			t.handler(peer, frame)
			if err := t.drainPastMark(peer, in, nil); err != nil {
				return err
			}
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
//
// Once the writer has switched the peer to a ring (the item carrying it is
// the acceptance of the peer's offer), every frame that fits goes into the
// ring, and any other frame or payload takes the socket behind a marker in
// the ring; the writer's own frames (ctl) take the socket as they are.
func (t *TCPTransport) writeLoop(peer int, conn net.Conn, q *sendQueue) {
	w := bufio.NewWriterSize(conn, 1<<16)
	head := make([]byte, wire.PrefixLen+wire.HeaderLen) // prefix (+header of a SendData item, or a doorbell)
	var dead error
	for {
		it, ok := q.pop()
		if !ok {
			w.Flush()
			return
		}
		if dead == nil {
			err := t.writeItem(peer, conn, w, head, it)
			if err == nil && it.ring != nil {
				t.rings.outs[peer].Store(it.ring)
				t.rings.plan.Report(peer, "ring")
				it.ring = nil
				err = w.Flush()
			}
			if err == nil && q.len() == 0 {
				err = w.Flush()
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
		if it.ring != nil {
			unmapRing(it.ring.m) // the connection died before the writer switched to it
		}
		q.delivered()
	}
}

// writeItem moves one queued item towards the peer: into the ring, or
// into w — a SendData payload straight into conn, behind w's flushed
// bytes — behind a marker when a ring is live.
func (t *TCPTransport) writeItem(peer int, conn net.Conn, w *bufio.Writer, head []byte, it outItem) error {
	if it.bell {
		return t.writeBell(w, head)
	}
	if o := t.outRing(peer); o != nil && !it.ctl {
		if it.data == nil && fits(len(it.frame)) {
			return t.ringPut(peer, o, w, head, recFrame, it.frame)
		}
		if err := t.ringPut(peer, o, w, head, recMark, nil); err != nil {
			return err
		}
	}
	if it.data == nil {
		binary.LittleEndian.PutUint32(head, uint32(len(it.frame)))
		if _, err := w.Write(head[:wire.PrefixLen]); err != nil {
			return err
		}
		_, err := w.Write(it.frame)
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(head, uint32(wire.HeaderLen+len(it.data.payload)))
	_ = it.data.hdr.Encode(head[wire.PrefixLen:]) // cannot fail: head covers the header
	vec := net.Buffers{head, it.data.payload}
	_, err := vec.WriteTo(conn)
	return err
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

// drain blocks until every accepted frame has been written and flushed to
// its socket (or handed to the loopback handler); Close runs it first.
func (t *TCPTransport) drain() {
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
	t.releaseRings()
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

	t.drain()

	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()

	// One goodbye frame per connected peer: the writers release frames to
	// the pool after writing them, so the frame must not be shared.
	for peer, q := range t.queues {
		if peer != t.rank && t.conns[peer] != nil {
			q.push(outItem{frame: wire.NewFrame(&wire.Header{Kind: wire.KindGoodbye, Src: int32(t.rank)}, nil), ctl: true})
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
	t.releaseRings()
	return nil
}
