package device

// The co-host rendezvous path: the receiver pulls.
//
// A daemon starts one process per rank, so ranks that share a machine
// exchange frames over loopback sockets — and for a rendezvous payload the
// socket is the whole cost (two kernel copies, a wake-up per segment). The
// payload is not a frame, though: by the time its RTS is matched it lies
// still in the sender's memory, lent until the send completes. When the
// locality table says the sender is another process on this host, the
// receiver therefore skips CTS and DATA: it copies the bytes out of the
// sender's address space into the posted buffer with one
// transport.ReadProcess — one copy, no segments — and answers KindPulled,
// on which the sender completes exactly as on SendData's done.
//
// What makes reading a peer's memory safe is a seqlock. The sender keeps a
// guard word (pullState.cell) holding a fresh odd token from the post until
// finishSendLocked zeroes it — before any path, delivery or failure, hands
// the payload back. Its RTS carries {payload address, cell address, token}.
// The receiver reads cell, payload, cell in one call, which the kernel
// works through in that order, and accepts the bytes only on a full count
// with both reads of the cell equal to the token: the pid was the process
// that made the offer (a recycled pid, or a namesake host in another pid
// namespace, has something else at that address), and the sender had not
// taken its buffer back while the bytes moved. Anything else moves the
// message onto the CTS→SendData→Lander path as if no offer had been made:
// a refusal by the system (no ptrace access to the peer, seccomp, no such
// call on this platform, an unmapped cell) keeps the peer's later messages
// there too, a short count or a changed cell ("stale") only this one.
//
// A blocking Send to a peer whose co-host ring is live streams instead
// (see stream.go in internal/transport): its RTS carries the same offer
// plus the number of a stream, the sender copies the payload into the
// ring's stream area on its own goroutine while the receiver, on the
// goroutine that matched the RTS, copies each filled slot into the posted
// buffer, and the receiver answers KindPulled as after a pull. Both CPUs
// move the bytes, and the sender does not park mid-hop. A stream that
// stalls — no slot for a while, or the sender stopped because nobody
// freed one — leaves its rest to the seqlock read above, and a refused
// read to CTS and DATA; the sender's guard word, completion and failure
// paths are the pull's. Isend and IsendFill never stream: their callers
// go on with other work, and the pull needs no CPU of theirs.
//
// A receive being pulled or streamed stays in awaitData, marked pulling:
// its buffer is being written, so the failure paths do not complete it —
// they leave their error on it (failAwaitingLocked), which also ends a
// stream at its next slot, and the copy's end completes it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"mpj/internal/transport"
	"mpj/internal/wire"
)

// pullState is the co-host path's share of a Request. Only a rendezvous
// with another process of this host allocates one: a send when it makes
// its offer, a receive when it takes one up.
type pullState struct {
	// cell is the sender's guard word: the offer's token from the post
	// until the send completes, then zero.
	cell atomic.Uint64

	// stream is the sender's: the stream its RTS announced, 0 without one.
	stream uint32

	// Receiver, guarded by d.mu: the offer taken up; pulling while this
	// device copies the payload, when only that copy's end completes the
	// request; doom is what a failure path wanted it completed with, and
	// quit says so to a stream copying without the lock. refused is why
	// the system refuses reads of the sender, as the claim found it.
	offer   pullOffer
	pulling bool
	doom    error
	quit    atomic.Bool
	refused error
}

// pullOffer is the payload of an RTS frame from a sender that shares the
// receiver's host: where the message lies in the sender's address space and
// the guard word that says it still does. The addresses are numbers on this
// side, never pointers. The zero offer is "none".
type pullOffer struct {
	addr   uint64 // of the payload's first byte
	cell   uint64 // of the sender's pullState.cell
	token  uint64 // what cell holds while the payload may be read; never 0
	stream uint32 // the stream the sender copies the payload into; 0 for none
}

// An offer is three words; a stream's number makes it four.
const (
	offerLen       = 24
	streamOfferLen = 32
)

// errStreamQuit reports a stream its receive's failure ended early.
var errStreamQuit = errors.New("device: stream ended by its receive's failure")

// errPullStale reports a pull that found the sender's guard word changed or
// its payload unreadable: the send was completed (failed, revoked, torn
// down) while, or before, the bytes moved. It says nothing about the peer's
// later messages.
var errPullStale = errors.New("device: pull found the sender's buffer taken back")

// hostPid returns the pid of rank r when the transport's description says
// it is another process on this host, else 0.
func (d *Device) hostPid(r int) int {
	if r >= len(d.peers.Pids) {
		return 0
	}
	return d.peers.Pids[r]
}

// HostProcess reports whether world rank r is another process on this
// host, as the transport's description says.
func (d *Device) HostProcess(r int) bool { return r >= 0 && d.hostPid(r) != 0 }

// offerLocked arms send r's guard word and returns the offer its RTS
// carries, encoded into b, or nil when the destination is not a co-host
// process or there is nothing to copy. With stream it also claims the
// stream area to the destination, when there is one to claim, and the
// offer announces the stream. Callers hold d.mu.
func (d *Device) offerLocked(r *Request, stream bool, b *[streamOfferLen]byte) []byte {
	if d.hostPid(r.dst) == 0 || len(r.payload) == 0 {
		return nil
	}
	// Fresh and odd: the clock tells processes and incarnations of a pid
	// apart, the message id the sends of this device.
	token := uint64(time.Now().UnixNano())<<16 | (r.msgID&0x7fff)<<1 | 1
	r.pull = new(pullState)
	r.pull.cell.Store(token)
	binary.LittleEndian.PutUint64(b[0:], uint64(uintptr(unsafe.Pointer(unsafe.SliceData(r.payload)))))
	binary.LittleEndian.PutUint64(b[8:], uint64(uintptr(unsafe.Pointer(&r.pull.cell))))
	binary.LittleEndian.PutUint64(b[16:], token)
	if stream {
		var miss transport.StreamMiss
		if r.pull.stream, miss = d.t.StreamOpen(r.dst); r.pull.stream != 0 {
			binary.LittleEndian.PutUint64(b[24:], uint64(r.pull.stream))
			return b[:]
		}
		d.stats.StreamMisses[miss].Add(1)
	}
	return b[:offerLen]
}

// stream copies the payload of the blocking send r, buf, into the stream
// area its RTS announced. It yields first: with one P the writer goroutine
// runs only then, and the RTS's doorbell, if one was due, must be written
// before the copy holds the processor. A stream that stopped short ends
// as a pull does — the receiver answers once it comes, which no poll
// hastens — so the send's wait then parks (see Request.Wait). Called
// without d.mu, before the send's wait: buf is the caller's until Send
// returns.
func (d *Device) stream(r *Request, buf []byte) {
	runtime.Gosched()
	var hook func(off int) bool
	if f := d.streamHook.Load(); f != nil {
		hook = func(off int) bool { return (*f)(r.dst, off) }
	}
	if !d.t.Stream(r.dst, r.pull.stream, buf, hook) {
		r.pull.stream = 0
	}
}

// decodeOffer checks an arrived RTS — lengths and offers come off a socket —
// and returns the offer that may follow its header.
func decodeOffer(h *wire.Header, payload []byte) (pullOffer, error) {
	if h.Len < 0 {
		return pullOffer{}, fmt.Errorf("device: RTS announces %d bytes", h.Len)
	}
	switch len(payload) {
	case 0:
		return pullOffer{}, nil
	case offerLen, streamOfferLen:
		o := pullOffer{
			addr:  binary.LittleEndian.Uint64(payload[0:]),
			cell:  binary.LittleEndian.Uint64(payload[8:]),
			token: binary.LittleEndian.Uint64(payload[16:]),
		}
		if len(payload) == offerLen {
			return o, nil
		}
		if s := binary.LittleEndian.Uint64(payload[24:]); s != 0 && s <= 1<<32-1 {
			o.stream = uint32(s)
			return o, nil
		}
		return pullOffer{}, fmt.Errorf("device: RTS announces stream %d", binary.LittleEndian.Uint64(payload[24:]))
	}
	return pullOffer{}, fmt.Errorf("device: RTS carries %d bytes, not an offer", len(payload))
}

// claimPullLocked reports whether the payload of the RTS u, just matched by
// receive r, is to be pulled or streamed, and if so marks r pulling. A
// stream is taken up even from a sender whose memory the system refuses
// to let this process read. Callers hold d.mu.
func (d *Device) claimPullLocked(r *Request, u *unexpected) bool {
	if u.offer.token == 0 || d.hostPid(u.src) == 0 || d.refused[u.src] != nil && u.offer.stream == 0 {
		return false
	}
	r.pull = &pullState{offer: u.offer, pulling: true, refused: d.refused[u.src]}
	return true
}

// pull fetches the payload of the RTS that receive r matched out of the
// sender's stream, or its memory, and finishes r, or puts it on the CTS
// path. r is in awaitData marked pulling (see grantRendezvousLocked).
// Called without d.mu, on the goroutine that matched: the peer's reader, a
// poller, or the caller of Irecv.
func (d *Device) pull(r *Request) {
	src := r.matchedSrc
	if r.dynamic {
		r.buf = wire.GetBuf(r.expect)
	}
	err := d.fetch(r, r.buf[:min(len(r.buf), r.expect)])
	if err == nil {
		d.stats.Pulled.Add(1)
		if p := d.prof; p != nil {
			p.Arrive(r.ctx, r.expect, false)
		}
	} else if r.dynamic {
		wire.PutBuf(r.buf)
		r.buf = nil
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	r.pull.pulling = false
	key := rdvKey{src: src, msgID: r.msgID}
	switch {
	case err == nil: // success wins over a failure noted meanwhile, as for a landing
		delete(d.awaitData, key)
		h := wire.Header{Kind: wire.KindPulled, Src: int32(d.rank), Context: int32(r.ctx), MsgID: r.msgID}
		_ = d.t.Send(src, wire.NewFrame(&h, nil))
		d.landedLocked(r, nil)
	case r.pull.doom != nil:
		delete(d.awaitData, key)
		d.completeLocked(r, Status{}, r.pull.doom)
	default:
		if !errors.Is(err, errPullStale) {
			d.refused[src] = err
		}
		d.sendCTSLocked(r)
	}
}

// fetch fills dst, the head of pulling receive r's buffer: through the
// sender's stream when its RTS announced one, the rest — all of it
// without a stream — with the seqlock read. A malformed stream is the
// sender's failure.
func (d *Device) fetch(r *Request, dst []byte) error {
	src, o := r.matchedSrc, r.pull.offer
	got := 0
	if o.stream != 0 {
		var err error
		got, err = d.t.Unstream(src, o.stream, r.expect, dst, &r.pull.quit)
		if got > 0 {
			d.stats.Streamed.Add(1)
		}
		if err != nil {
			d.peerFailed(src, err)
			return err
		}
		if got == len(dst) {
			return nil
		}
		d.stats.StreamTakeovers.Add(1)
		if got == 0 {
			d.stats.StreamsEmpty.Add(1)
		}
		if r.pull.quit.Load() {
			return errStreamQuit
		}
		if r.pull.refused != nil {
			return r.pull.refused
		}
		o.addr += uint64(got)
	}
	if err := d.readPeer(src, dst[got:], o); err != nil {
		d.stats.PullRefused.Add(1)
		return err
	}
	return nil
}

// readPeer is the seqlock read: guard word, payload head, guard word again,
// out of rank src's process into dst, in one call.
func (d *Device) readPeer(src int, dst []byte, o pullOffer) error {
	if f := d.pullFault.Load(); f != nil {
		if err := (*f)(src); err != nil {
			return err
		}
	}
	var before, after [8]byte
	n, err := transport.ReadProcess(d.hostPid(src),
		[][]byte{before[:], dst, after[:]},
		[]transport.Span{{Addr: o.cell, Len: 8}, {Addr: o.addr, Len: uint64(len(dst))}, {Addr: o.cell, Len: 8}})
	if err != nil {
		return err
	}
	// The cell is a word of the sender's memory, in the byte order of the
	// machine both processes run on.
	if n != len(dst)+16 || binary.NativeEndian.Uint64(before[:]) != o.token || binary.NativeEndian.Uint64(after[:]) != o.token {
		return errPullStale
	}
	return nil
}

// failAwaitingLocked completes the matched receive r, parked in awaitData
// under key, with err — unless this device is copying its payload right
// now: nobody may hand back a buffer that is being written, so the copy's
// end completes r, with err if it has to. Callers hold d.mu.
func (d *Device) failAwaitingLocked(key rdvKey, r *Request, err error) {
	if r.pull != nil && r.pull.pulling {
		r.pull.doom = err
		r.pull.quit.Store(true)
		return
	}
	delete(d.awaitData, key)
	d.completeLocked(r, Status{}, err)
}

// SetPullFault installs the fault-injection seam of the pull path: f runs
// before every pull from rank src, after the receive was claimed for it and
// outside the device lock, and an error it returns refuses that pull the
// way the system would — the message takes the CTS path and so does
// everything src sends later. A nil f clears the seam.
func (d *Device) SetPullFault(f func(src int) error) {
	if f == nil {
		d.pullFault.Store(nil)
		return
	}
	d.pullFault.Store(&f)
}

// SetStreamHook installs the fault-injection seam of the stream path: f
// runs on the sender before it copies each slot of a stream to rank dst,
// once the slot is free, with the payload offset of the slot — a slot past
// the area's first round is free only once the receiver copied a slot out
// — and false ends the stream there as if the sending process had died. f
// must not close or abort the device. A nil f clears the seam.
func (d *Device) SetStreamHook(f func(dst, off int) bool) {
	if f == nil {
		d.streamHook.Store(nil)
		return
	}
	d.streamHook.Store(&f)
}

// PeerPaths reports, per world rank, how a rendezvous payload from that
// rank reaches this one: "memory" (it shares this address space),
// "stream" (another process on this host whose ring is live: a blocking
// send streams through shared memory, the rest is pulled), "pull" (another
// process on this host without a ring: one copy out of its memory), "wire"
// (a socket), or "wire: <why>" for a co-host process the system refused a
// pull from — its blocking sends still stream, and what a stream leaves
// rides the socket. The expvar status serves it.
func (d *Device) PeerPaths() []string {
	out := make([]string, d.size)
	d.mu.Lock()
	defer d.mu.Unlock()
	for r := range out {
		switch {
		case d.LocalPeer(r):
			out[r] = "memory"
		case d.hostPid(r) == 0:
			out[r] = "wire"
		case d.refused[r] != nil:
			out[r] = "wire: " + d.refused[r].Error()
		case d.media != nil && d.media[r] == "ring":
			out[r] = "stream"
		default:
			out[r] = "pull"
		}
	}
	return out
}
