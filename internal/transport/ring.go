package transport

// The eager path between co-host processes: a shared-memory ring per
// direction.
//
// Two slave processes of one host trade frames over loopback TCP unless
// they share a ring, and on TCP every hop is a write(2), a read(2) and a
// wake-up of the sleeping reader. A ring is one sealed memory file that the
// receiving process creates and offers over the connection at mesh set-up;
// the sender maps it through /proc/<pid>/fd/<n> and from then on copies
// every frame into it instead of the socket. The receiver takes frames out
// on whichever goroutine gets there first: a rank waiting for a message
// polls its rings for a short while before it parks (Poll), and the socket
// reader drains them when a doorbell arrives. So a hop between two waiting
// ranks is two copies and no system call.
//
// The socket stays: it carries the set-up, the doorbell, whatever does not
// fit the ring (a DATA payload, an eager frame above the ring's capacity),
// GOODBYE, and — by EOF — the peer's death. A frame that takes the socket
// leaves a marker record in the ring first, and the reader hands it over
// only once every ring frame before the marker is delivered, so the two
// media together keep the per-pair FIFO order of the Transport contract.
//
// The doorbell is a Dekker handshake on the ring header, with the
// sequentially consistent atomics of sync/atomic (they hold across
// processes on amd64 and arm64): the producer stores the tail, then loads
// polling, and rings only when that is 0 and it wins the bell word; a
// waiter raises polling, polls, lowers polling and polls once more before
// it parks, so a frame published during its last poll is found by either
// the final poll or the bell. The reader clears the bell word before it
// drains. One goroutine drains a ring at a time: a spinning waiter skips a
// ring another goroutine holds, but its final poll waits its turn, since
// the holder may have looked for the last time before the frame came.
//
// Ring bytes are hostile bytes: the peer can write anything anywhere in
// the file. Every record length is checked against the header size, the
// capacity and the published bytes before a byte is copied, each frame is
// copied out to a pooled buffer before anything decodes it, and a
// malformed ring is a wire.ErrFrame — the peer's failure, never a panic.
// The file is sealed against growing and shrinking, so no peer can raise
// SIGBUS by truncating it, and the sender maps it only after checking the
// seals and a random token that came over the job-checked connection, so a
// recycled pid maps nothing.
//
// Any refusal — no memory file on this system, no access to the peer's
// /proc entry, a seal or token mismatch — leaves that direction on the
// socket for the life of the mesh, and the plan's Report hears why.
//
// Behind the frames' data the file holds a stream area for rendezvous
// payloads, which no frame touches (see stream.go).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"mpj/internal/wire"
)

// Ring layout: a header page of control words, each on its own cache line,
// then the data area, then the stream area (see stream.go). Records are
// 8-byte aligned: a length and a kind word, then the frame, padded.
const (
	ringHeader = 4096
	// ringCap holds two 16 KiB eager frames (the device's default eager
	// limit) with their headers, rounded up to whole pages.
	ringCap  = 36 << 10
	ringSize = ringHeader + ringCap + streamArea

	offToken   = 0   // the creator's random token (the area's, area.go)
	offTail    = 64  // bytes published; only the producer moves it
	offHead    = 128 // bytes consumed, as the consumer last published them
	offPolling = 192 // waiters polling this ring right now
	offBell    = 256 // 1 while a doorbell is on its way
	offFill    = 320 // the stream's id and bytes published (stream.go); the producer's
	offRead    = 384 // the stream's id and bytes copied out; the consumer's
	offDone    = 448 // the last stream id the consumer is finished with

	recHeader = 8
	recFrame  = 1 // a frame follows
	recMark   = 2 // the next frame comes over the socket; length 0
)

// ringMem is one mapped ring: ringSize bytes.
type ringMem []byte

// word returns the atomic control word at off.
func (m ringMem) word(off int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&m[off]))
}

// data returns the data area.
func (m ringMem) data() []byte { return m[ringHeader : ringHeader+ringCap] }

// area returns the stream area.
func (m ringMem) area() []byte { return m[ringHeader+ringCap : ringSize] }

// padded is the ring space a record of an n-byte frame takes.
func padded(n int) uint64 { return uint64(recHeader+n+7) &^ 7 }

// errRingHead is the producer's view of a ring whose head contradicts its
// tail: the consumer (or someone writing its file) broke the ring.
var errRingHead = fmt.Errorf("%w: ring head outside the published bytes", wire.ErrFrame)

// outRing is the producing end of a ring: this process copies frames into
// a file the peer created. The tail is the producer's own; every call runs
// under the owning queue's exclusion (see sendRing and writeLoop).
//
// streaming claims the stream area for one Stream at a time, and last is
// the id of the stream this end started last, guarded by the claim.
type outRing struct {
	m    ringMem
	tail uint64

	streaming atomic.Bool
	last      uint32
}

// fits reports whether an n-byte frame can ever go through the ring.
func fits(n int) bool { return padded(n) <= ringCap }

// put publishes one record and reports false when the ring lacks room for
// it now. The head is read from the peer's file, so it is checked.
func (o *outRing) put(kind uint32, frame []byte) (bool, error) {
	head := o.m.word(offHead).Load()
	if head > o.tail || o.tail-head > ringCap {
		return false, errRingHead
	}
	need := padded(len(frame))
	if ringCap-(o.tail-head) < need {
		return false, nil
	}
	d := o.m.data()
	pos := o.tail % ringCap
	binary.LittleEndian.PutUint32(d[pos:], uint32(len(frame)))
	binary.LittleEndian.PutUint32(d[pos+4:], kind)
	c := copy(d[(pos+recHeader)%ringCap:], frame)
	copy(d, frame[c:])
	o.tail += need
	o.m.word(offTail).Store(o.tail)
	return true, nil
}

// bell is the producer's half of the handshake, right after a put: it
// reports whether the consumer needs a doorbell — nobody polls the ring and
// no doorbell is on its way already (see publish).
func (o *outRing) bell() bool {
	return o.m.word(offPolling).Load() == 0 && o.m.word(offBell).CompareAndSwap(0, 1)
}

// inRing is the consuming end of a ring: a file this process created for
// one peer to write into.
type inRing struct {
	m  ringMem
	fd int // the memory file until the peer answered the offer; -1 after

	// live: the peer accepted the offer, so it writes into the ring,
	// pollers look at it, and socket frames from it come behind markers.
	// Set once, by the reader.
	live atomic.Bool

	// mu: one goroutine drains at a time — a spinning poller TryLocks, a
	// poller's final look and the reader lock. head is the authoritative
	// count of consumed bytes (the header's copy is the producer's); err is
	// what ended a malformed ring, which drains nothing more.
	mu   sync.Mutex
	head uint64
	err  error
}

// newInRing creates a ring for a peer to write into: an area of ringSize
// bytes. The descriptor stays open until the peer has answered the offer
// (closeRingFd).
func newInRing() (*inRing, error) {
	a, err := NewArea(ringSize)
	if err != nil {
		return nil, err
	}
	return &inRing{m: a.mem, fd: a.fd}, nil
}

// mapRing maps the ring process pid offered as descriptor fd with token,
// through the area's checks.
func mapRing(pid, fd int, token uint64) (*outRing, error) {
	a, err := MapArea(pid, fd, ringSize, token)
	if err != nil {
		return nil, err
	}
	return &outRing{m: a.mem}, nil
}

// unmapRing unmaps a ring.
func unmapRing(m ringMem) { unmap(m) }

// ringFrameErr types a malformed record.
func ringFrameErr(format string, args ...any) error {
	return fmt.Errorf("%w: ring: %s", wire.ErrFrame, fmt.Sprintf(format, args...))
}

// next takes the record at the head. A frame comes back copied out to a
// pooled buffer. A marker comes back as mark, and is consumed only with
// take — a frame behind it waits for the socket frame it stands for. Nil
// frame and no mark: nothing is published. Callers hold r.mu.
func (r *inRing) next(take bool) (frame []byte, mark bool, err error) {
	avail := r.m.word(offTail).Load() - r.head
	if avail == 0 {
		return nil, false, nil
	}
	if avail > ringCap || avail%8 != 0 || r.head%8 != 0 {
		return nil, false, ringFrameErr("%d bytes published past the head", avail)
	}
	d := r.m.data()
	pos := r.head % ringCap
	n := int(binary.LittleEndian.Uint32(d[pos:]))
	switch kind := binary.LittleEndian.Uint32(d[pos+4:]); kind {
	case recMark:
		if n != 0 {
			return nil, false, ringFrameErr("marker of length %d", n)
		}
		if take {
			r.advance(recHeader)
		}
		return nil, true, nil
	case recFrame:
	default:
		return nil, false, ringFrameErr("record kind %d", kind)
	}
	if n < wire.HeaderLen || !fits(n) {
		return nil, false, ringFrameErr("frame of %d bytes", n)
	}
	if padded(n) > avail {
		return nil, false, ringFrameErr("frame of %d bytes with %d published", n, avail)
	}
	frame = wire.GetBuf(n)
	c := copy(frame, d[(pos+recHeader)%ringCap:])
	copy(frame[c:], d)
	r.advance(padded(n))
	return frame, false, nil
}

// advance consumes n bytes and tells the producer.
func (r *inRing) advance(n uint64) {
	r.head += n
	r.m.word(offHead).Store(r.head)
}

// offerLen is the payload of an accepted KindRingOffer: descriptor, token.
const offerLen = 16

// RingPlan names the peers to share rings with, for Rings. Every
// rank of a pair must plan the pair alike; a peer that plans nothing never
// answers an offer, and the pair stays on the socket.
type RingPlan struct {
	// Pids[r] is rank r's process id when r is another process on this
	// host to trade frames with, else 0.
	Pids []int
	// Frames and Bells, when set, count the frames this endpoint put into
	// rings and the doorbells it rang.
	Frames, Bells *atomic.Int64
	// Fault, when set, runs before this endpoint maps a peer's offer; an
	// error it returns refuses the offer the way the system would.
	Fault func(peer int) error
	// Report, when set, hears how frames to a planned peer travel once
	// that is settled: "ring", or "socket: <why the ring was refused>". It
	// runs on the endpoint's goroutines and must not block.
	Report func(peer int, medium string)
}

// ringSet is an endpoint's share of the rings, made by Rings: without a
// plan the endpoint has none and pays a nil check. ins[peer] is the ring
// peer writes into, outs[peer] the one this endpoint writes into once its
// writer switched to it; polled lists the inbound rings, live counts those
// the peer accepted. offered and ended are per-peer reader state: the
// peer's offer was handled, the reader has returned. mu keeps pollers out
// of rings being unmapped (gone), and streams keeps out the stream ends
// (stream.go), which a poller may run inside its poll — a read lock of mu
// taken twice would wedge behind a waiting unmap. pollHook is a test seam,
// nil in production: it runs between a poll's last look and the end of
// its announcement.
type ringSet struct {
	plan     RingPlan
	ins      []*inRing
	outs     []atomic.Pointer[outRing]
	polled   []polledRing
	live     atomic.Int32
	offered  []bool
	ended    []atomic.Bool
	mu       sync.RWMutex
	streams  sync.RWMutex
	gone     bool
	pollHook func()
}

// Rings plans the endpoint's rings. It must be called before Start, at
// most once.
func (t *TCPTransport) Rings(plan RingPlan) {
	if plan.Frames == nil {
		plan.Frames = new(atomic.Int64)
	}
	if plan.Bells == nil {
		plan.Bells = new(atomic.Int64)
	}
	if plan.Report == nil {
		plan.Report = func(int, string) {}
	}
	t.rings = &ringSet{
		plan:    plan,
		ins:     make([]*inRing, t.size),
		outs:    make([]atomic.Pointer[outRing], t.size),
		offered: make([]bool, t.size),
		ended:   make([]atomic.Bool, t.size),
	}
}

// planned reports whether the plan names peer.
func (t *TCPTransport) planned(peer int) bool {
	return t.rings != nil && peer < len(t.rings.plan.Pids) && t.rings.plan.Pids[peer] != 0
}

// offerRings creates this endpoint's inbound rings and queues the offers,
// the first frame to each planned peer. Called by Start before any
// goroutine runs.
func (t *TCPTransport) offerRings() {
	for peer, conn := range t.conns {
		if conn == nil || !t.planned(peer) {
			continue
		}
		h := wire.Header{Kind: wire.KindRingOffer, Src: int32(t.rank)}
		var payload []byte
		in, err := newInRing()
		if err != nil {
			payload = []byte(err.Error())
		} else {
			t.rings.ins[peer] = in
			t.rings.polled = append(t.rings.polled, polledRing{peer, in})
			h.Tag = 1
			payload = make([]byte, offerLen)
			binary.LittleEndian.PutUint64(payload, uint64(in.fd))
			binary.LittleEndian.PutUint64(payload[8:], in.m.word(offToken).Load())
		}
		t.queues[peer].push(outItem{frame: wire.NewFrame(&h, payload), ctl: true})
	}
}

// polledRing is an inbound ring and the peer writing it.
type polledRing struct {
	peer int
	in   *inRing
}

// ringControl handles a ring set-up frame from peer on its reader. An
// offer is answered — accepted or not — only when the plan names peer;
// the answer goes out on the send queue, and the writer switches to the
// ring right after writing an acceptance, so the frames before it took the
// socket and every one after it the ring. An acceptance of this endpoint's
// offer makes the ring live.
func (t *TCPTransport) ringControl(peer int, h wire.Header, frame []byte) error {
	payload := wire.Payload(frame)
	switch h.Kind {
	case wire.KindRingOffer:
		if !t.planned(peer) || t.rings.offered[peer] {
			return nil // no ring planned with peer, or a repeated offer: the socket stays
		}
		t.rings.offered[peer] = true
		if h.Tag != 1 {
			t.rings.plan.Report(peer, "socket: "+string(payload[:min(len(payload), 256)]))
			return nil
		}
		if len(payload) != offerLen {
			return ringFrameErr("offer of %d bytes", len(payload))
		}
		fd := binary.LittleEndian.Uint64(payload)
		if fd >= 1<<31 {
			return ringFrameErr("offer of descriptor %d", fd)
		}
		var o *outRing
		var err error
		if f := t.rings.plan.Fault; f != nil {
			err = f(peer)
		}
		if err == nil {
			o, err = mapRing(t.rings.plan.Pids[peer], int(fd), binary.LittleEndian.Uint64(payload[8:]))
		}
		ack := wire.Header{Kind: wire.KindRingAck, Src: int32(t.rank), Tag: 1}
		var reason []byte
		if err != nil {
			ack.Tag = 0
			reason = []byte(err.Error())
			t.rings.plan.Report(peer, "socket: "+err.Error())
		}
		if !t.queues[peer].push(outItem{frame: wire.NewFrame(&ack, reason), ctl: true, ring: o}) && o != nil {
			unmapRing(o.m)
		}
	case wire.KindRingAck:
		in := t.inRing(peer)
		if in == nil || in.fd < 0 {
			return ringFrameErr("answer to no offer")
		}
		closeRingFd(in)
		if h.Tag == 1 {
			in.live.Store(true)
			t.rings.live.Add(1)
			// Frames the peer published before this answer arrived.
			return t.drainRing(peer, in)
		}
	}
	return nil
}

// inRing returns peer's inbound ring, or nil.
func (t *TCPTransport) inRing(peer int) *inRing {
	if t.rings == nil {
		return nil
	}
	return t.rings.ins[peer]
}

// outRing returns the ring frames to peer go through, or nil.
func (t *TCPTransport) outRing(peer int) *outRing {
	if t.rings == nil {
		return nil
	}
	return t.rings.outs[peer].Load()
}

// drainRing delivers what peer published in its ring, on the reader
// goroutine after a doorbell or a GOODBYE. It clears the bell word first,
// so a frame published after the drain rings again.
func (t *TCPTransport) drainRing(peer int, in *inRing) error {
	in.m.word(offBell).Store(0)
	in.mu.Lock()
	defer in.mu.Unlock()
	_, err := t.drainLocked(peer, in, false)
	return err
}

// drainToMark is the reader's first half around a frame it took off the
// socket: it locks the ring and delivers the frames in front of the
// frame's marker, so they reach the handler first. Unless it fails, the
// ring stays locked until drainPastMark, so no poller delivers a frame
// published behind the socket frame before it.
func (t *TCPTransport) drainToMark(peer int, in *inRing) error {
	in.mu.Lock()
	if _, err := t.drainLocked(peer, in, true); err != nil {
		in.mu.Unlock()
		return err
	}
	return nil
}

// drainPastMark is the second half: unless the socket frame failed (err),
// it delivers what the ring holds behind the frame, then unlocks.
func (t *TCPTransport) drainPastMark(peer int, in *inRing, err error) error {
	if err == nil {
		_, err = t.drainLocked(peer, in, false)
	}
	in.mu.Unlock()
	return err
}

// drainLocked hands the frames published in peer's ring to the handler,
// in order, and reports how many. It stops at a marker; with toMark it
// consumes that marker and returns, and a ring without one is the peer's
// failure — the socket frame the caller holds had to be announced. The
// first malformed record ends the ring for good. Callers hold in.mu.
func (t *TCPTransport) drainLocked(peer int, in *inRing, toMark bool) (int, error) {
	if in.err != nil {
		return 0, in.err
	}
	n := 0
	for {
		frame, mark, err := in.next(toMark)
		if err != nil {
			in.err = err
			return n, err
		}
		if frame == nil {
			if toMark && !mark {
				in.err = ringFrameErr("socket frame without its marker")
				return n, in.err
			}
			return n, nil
		}
		t.handler(peer, frame)
		n++
	}
}

// Poll delivers, on the caller's goroutine, frames that co-host peers
// publish in this endpoint's rings within budget, and reports whether it
// delivered any; it returns as soon as it has. Without a live ring it
// returns false at once. It announces itself, so producers ring no
// doorbell, then yields once — with one P, the writer goroutine must get
// to write the doorbell of the caller's own last send before the spin
// holds the processor — and polls; it polls once more after it stops
// announcing itself, so nothing published meanwhile waits for a doorbell
// that never comes. That last poll waits for a ring another goroutine is
// draining rather than skip it: the other drainer may have made its last
// look before the frame was published, and no doorbell follows a frame a
// poller was announced for.
func (t *TCPTransport) Poll(budget time.Duration) bool {
	rs := t.rings
	if rs == nil || rs.live.Load() == 0 {
		return false
	}
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	if rs.gone {
		return false
	}
	for _, p := range rs.polled {
		p.in.m.word(offPolling).Add(1)
	}
	runtime.Gosched()
	got := false
	for start := time.Now(); ; {
		if got = t.pollOnce(rs, false); got || time.Since(start) >= budget {
			break
		}
	}
	if h := rs.pollHook; h != nil {
		h()
	}
	for _, p := range rs.polled {
		p.in.m.word(offPolling).Add(^uint64(0))
	}
	return t.pollOnce(rs, true) || got
}

// pollOnce drains every live ring with something published, and reports
// whether it delivered a frame. A ring another goroutine is draining is
// skipped, unless wait: then the poll takes its turn after that drainer.
// A ring that broke before was reported when it broke, and is skipped.
func (t *TCPTransport) pollOnce(rs *ringSet, wait bool) bool {
	got := false
	for _, p := range rs.polled {
		in := p.in
		if !in.live.Load() || in.m.word(offTail).Load() == in.m.word(offHead).Load() {
			continue
		}
		if wait {
			in.mu.Lock()
		} else if !in.mu.TryLock() {
			continue
		}
		var n int
		var err error
		if in.err == nil {
			n, err = t.drainLocked(p.peer, in, false)
		}
		in.mu.Unlock()
		if err != nil {
			t.reportPeerError(p.peer, err)
		}
		got = got || n > 0
	}
	return got
}

// publish puts one record into o, counts it, and reports whether it went
// in and whether a doorbell is due: nobody polls the ring and no doorbell
// is on its way already (bell).
func (t *TCPTransport) publish(o *outRing, kind uint32, frame []byte) (ok, bell bool, err error) {
	if ok, err = o.put(kind, frame); !ok || err != nil {
		return ok, false, err
	}
	if kind == recFrame {
		t.rings.plan.Frames.Add(1)
	}
	if bell = o.bell(); bell {
		t.rings.plan.Bells.Add(1)
	}
	return true, bell, nil
}

// sendRing is Send to a peer whose ring is live: straight into the ring
// when nothing waits in the queue (the caller's goroutine copies, no
// system call), else behind the queued items, which the writer moves in
// order. It never blocks. A doorbell, when one is due, is queued for the
// writer to write.
func (t *TCPTransport) sendRing(dst int, o *outRing, frame []byte) error {
	q := t.queues[dst]
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if len(q.items) == 0 && !q.delivering {
		if ok, bell, err := t.publish(o, recFrame, frame); ok && err == nil {
			wire.PutBuf(frame)
			if bell {
				q.items = append(q.items, outItem{bell: true})
				q.nonEmp.Signal()
			}
			return nil
		}
		// Full, or broken: the writer waits for room, or reports the break.
	}
	q.items = append(q.items, outItem{frame: frame})
	q.nonEmp.Signal()
	return nil
}

// ringPut is the writer's put: it waits while the ring is full — flushed
// first, since the consumer may be held at a marker whose socket frame is
// still in w, then in a bounded back-off sleep — and writes the doorbell
// into w when one is due. It gives up when the peer's reader has ended.
func (t *TCPTransport) ringPut(peer int, o *outRing, w *bufio.Writer, scratch []byte, kind uint32, frame []byte) error {
	for backoff := time.Duration(0); ; {
		ok, bell, err := t.publish(o, kind, frame)
		if err != nil {
			return err
		}
		if ok {
			if bell {
				return t.writeBell(w, scratch)
			}
			return nil
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if t.rings.ended[peer].Load() {
			return ErrClosed
		}
		backoff = min(max(2*backoff, 10*time.Microsecond), time.Millisecond)
		time.Sleep(backoff)
	}
}

// writeBell writes a doorbell into w, built in scratch.
func (t *TCPTransport) writeBell(w *bufio.Writer, scratch []byte) error {
	binary.LittleEndian.PutUint32(scratch, wire.HeaderLen)
	_ = (&wire.Header{Kind: wire.KindBell, Src: int32(t.rank)}).Encode(scratch[wire.PrefixLen:]) // cannot fail: scratch covers the header
	_, err := w.Write(scratch)
	return err
}

// releaseRings unmaps every ring once no goroutine of the endpoint runs
// and no poller or stream end is inside one.
func (t *TCPTransport) releaseRings() {
	rs := t.rings
	if rs == nil {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.streams.Lock()
	defer rs.streams.Unlock()
	if rs.gone {
		return
	}
	rs.gone = true
	for peer, in := range rs.ins {
		if in != nil {
			closeRingFd(in)
			unmapRing(in.m)
		}
		if o := rs.outs[peer].Load(); o != nil {
			unmapRing(o.m)
		}
	}
}

// closeRingFd closes the memory file of in once the peer has answered.
func closeRingFd(in *inRing) {
	if in.fd >= 0 {
		closeFd(in.fd)
		in.fd = -1
	}
}
