// Package wire defines the binary frame format exchanged by MPJ processes.
//
// A frame is a fixed-size header optionally followed by a payload. The
// header carries everything the device level needs to run its matching
// engine and its two protocols (eager and rendezvous): the message envelope
// (source, tag, context), a per-path sequence number, a message id for
// rendezvous handshakes, and the payload length.
//
// The layout is fixed little-endian so that frames can be decoded without
// reflection on the hot path.
//
// Frames built by NewFrame and read by ReadFrame come from a process-wide
// buffer pool (see pool.go) so the eager path does not allocate per
// message; the ownership rules for returning them are documented on GetBuf
// and PutBuf.
//
// See ARCHITECTURE.md at the repository root for where this package sits in
// the layer stack.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Kind identifies the protocol role of a frame.
type Kind uint8

const (
	// KindEager carries a complete message: header plus full payload.
	KindEager Kind = iota + 1
	// KindRTS (ready-to-send) opens a rendezvous: Len holds the length of
	// the message payload, which moves later — in a KindData frame, or by
	// the receiver's own copy (KindPulled). The frame's payload is empty or
	// the sender's offer for that copy (internal/device, pull.go).
	KindRTS
	// KindCTS (clear-to-send / "ready-to-receive") answers an RTS once a
	// matching receive is posted. MsgID echoes the RTS message id.
	KindCTS
	// KindData carries the payload of a rendezvous whose CTS was received.
	KindData
	// KindCancel revokes a previously sent RTS (sender-side cancel).
	KindCancel
	// KindCancelAck answers a KindCancel: Len=1 grants the cancellation,
	// Len=0 denies it (the message had already been matched).
	KindCancelAck
	// KindGoodbye announces orderly shutdown of the sending peer.
	KindGoodbye
	// KindRevoke propagates a communicator revocation: Context carries the
	// revoked communicator's point-to-point context id. Best-effort — lost
	// revokes are re-detected through rank-failure errors.
	KindRevoke
	// KindFTPull asks a peer for its contribution to a fault-tolerant
	// agreement instance (Context = collective context, Tag = instance
	// sequence number). The coordinator of the agreement sends it.
	KindFTPull
	// KindFTReply answers a KindFTPull with the sender's contribution as
	// payload.
	KindFTReply
	// KindFTDecide distributes (or forwards) the decided value of an
	// agreement instance as payload. First decision received wins.
	KindFTDecide
	// KindRmaPut carries a one-sided write: Context is the window context,
	// Seq the target byte offset, the payload the data to store.
	KindRmaPut
	// KindRmaGet requests a one-sided read: Seq is the target byte offset,
	// Tag the byte count, MsgID the origin-local get id echoed by the reply.
	KindRmaGet
	// KindRmaGetReply answers a KindRmaGet with the requested bytes as
	// payload; MsgID echoes the get id.
	KindRmaGetReply
	// KindRmaAcc carries a one-sided accumulate: like KindRmaPut, with Tag
	// holding the predefined-operation id to combine with.
	KindRmaAcc
	// KindRmaLockReq asks the target for a passive-target lock on its
	// window; Tag carries the lock mode (shared or exclusive).
	KindRmaLockReq
	// KindRmaLockGrant answers lock traffic from the target: Tag=0 grants a
	// KindRmaLockReq, Tag=1 acknowledges a KindRmaUnlock.
	KindRmaLockGrant
	// KindRmaUnlock releases a passive-target lock at the target.
	KindRmaUnlock
	// KindRmaFenceSync announces that the sender entered a fence: Seq
	// carries the sender's fence generation. FIFO delivery per path orders
	// it after every RMA data frame of the closing epoch.
	KindRmaFenceSync
	// KindRmaFetchOp carries an atomic fetch-and-op: like KindRmaAcc (Seq
	// the target byte offset, Tag the predefined-operation id, payload the
	// single origin element), but the target replies with the element's
	// prior value in a KindRmaFetchReply; MsgID is the origin-local id
	// echoed by the reply.
	KindRmaFetchOp
	// KindRmaCas carries an atomic compare-and-swap: Seq is the target
	// byte offset and the payload holds the compare element followed by
	// the new element. The target swaps only on a bytewise match and
	// always replies the prior value in a KindRmaFetchReply; MsgID is the
	// origin-local id echoed by the reply.
	KindRmaCas
	// KindRmaFetchReply answers a KindRmaFetchOp or KindRmaCas with the
	// target element's prior value as payload; MsgID echoes the request id
	// (the same correlation scheme as KindRmaGetReply).
	KindRmaFetchReply
)

// KindPulled answers an RTS in place of CTS and DATA: the receiver has
// copied the payload out of the sender's memory itself (a sender that is
// another process on the receiver's host offers that in its RTS, see the
// pull in internal/device) and the send is complete. MsgID echoes the RTS
// message id. Declared after the RMA family so IsRMA stays a single range
// test.
const KindPulled Kind = KindRmaFetchReply + 1

// The ring kinds pass only between two processes of one host, over the
// socket beside a shared-memory ring (see internal/transport ring.go), and
// never reach a Handler. KindRingOffer offers the sender's inbound ring:
// Tag=1 with the memory file's descriptor and token as payload, Tag=0 with
// the reason there is none. KindRingAck answers an offer: Tag=1, every
// later frame comes through the ring; Tag=0, none will, with the reason as
// payload. KindBell is the doorbell: frames wait in the ring and no reader
// is polling it.
const (
	KindRingOffer Kind = KindPulled + 1 + iota
	KindRingAck
	KindBell
)

// IsRMA reports whether k belongs to the one-sided (RMA) frame family,
// which bypasses the device matching engine entirely.
func (k Kind) IsRMA() bool { return k >= KindRmaPut && k <= KindRmaFetchReply }

// String returns the conventional name of the frame kind.
func (k Kind) String() string {
	switch k {
	case KindEager:
		return "EAGER"
	case KindRTS:
		return "RTS"
	case KindCTS:
		return "CTS"
	case KindData:
		return "DATA"
	case KindCancel:
		return "CANCEL"
	case KindCancelAck:
		return "CANCELACK"
	case KindGoodbye:
		return "GOODBYE"
	case KindRevoke:
		return "REVOKE"
	case KindFTPull:
		return "FTPULL"
	case KindFTReply:
		return "FTREPLY"
	case KindFTDecide:
		return "FTDECIDE"
	case KindRmaPut:
		return "RMAPUT"
	case KindRmaGet:
		return "RMAGET"
	case KindRmaGetReply:
		return "RMAGETREPLY"
	case KindRmaAcc:
		return "RMAACC"
	case KindRmaLockReq:
		return "RMALOCKREQ"
	case KindRmaLockGrant:
		return "RMALOCKGRANT"
	case KindRmaUnlock:
		return "RMAUNLOCK"
	case KindRmaFenceSync:
		return "RMAFENCESYNC"
	case KindRmaFetchOp:
		return "RMAFETCHOP"
	case KindRmaCas:
		return "RMACAS"
	case KindRmaFetchReply:
		return "RMAFETCHREPLY"
	case KindPulled:
		return "PULLED"
	case KindRingOffer:
		return "RINGOFFER"
	case KindRingAck:
		return "RINGACK"
	case KindBell:
		return "BELL"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// HeaderLen is the encoded size of a Header in bytes.
const HeaderLen = 1 + 4 + 4 + 4 + 8 + 8 + 4

// Header is the fixed frame header.
//
// For KindEager and KindData frames the payload immediately follows the
// header. For KindRTS, Len records the length of the payload the sender
// wants to transfer, not of what follows the header.
type Header struct {
	Kind    Kind
	Src     int32  // absolute (world) rank of the sender
	Tag     int32  // user tag of the message envelope
	Context int32  // communication context (communicator id at device level)
	Seq     uint64 // sequence number per (src, dst) path, for diagnostics
	MsgID   uint64 // sender-local id tying RTS/CTS/DATA/CANCEL together
	Len     int32  // payload length in bytes
}

// ErrShortHeader reports a buffer smaller than HeaderLen.
var ErrShortHeader = errors.New("wire: buffer shorter than frame header")

// Encode writes the header into buf, which must be at least HeaderLen long.
func (h *Header) Encode(buf []byte) error {
	if len(buf) < HeaderLen {
		return ErrShortHeader
	}
	buf[0] = byte(h.Kind)
	binary.LittleEndian.PutUint32(buf[1:], uint32(h.Src))
	binary.LittleEndian.PutUint32(buf[5:], uint32(h.Tag))
	binary.LittleEndian.PutUint32(buf[9:], uint32(h.Context))
	binary.LittleEndian.PutUint64(buf[13:], h.Seq)
	binary.LittleEndian.PutUint64(buf[21:], h.MsgID)
	binary.LittleEndian.PutUint32(buf[29:], uint32(h.Len))
	return nil
}

// Decode reads the header from buf, which must be at least HeaderLen long.
func (h *Header) Decode(buf []byte) error {
	if len(buf) < HeaderLen {
		return ErrShortHeader
	}
	h.Kind = Kind(buf[0])
	h.Src = int32(binary.LittleEndian.Uint32(buf[1:]))
	h.Tag = int32(binary.LittleEndian.Uint32(buf[5:]))
	h.Context = int32(binary.LittleEndian.Uint32(buf[9:]))
	h.Seq = binary.LittleEndian.Uint64(buf[13:])
	h.MsgID = binary.LittleEndian.Uint64(buf[21:])
	h.Len = int32(binary.LittleEndian.Uint32(buf[29:]))
	return nil
}

// NewFrame builds a frame holding h followed by payload. For header-only
// kinds (RTS, CTS, CANCEL, GOODBYE) payload may be nil. The frame comes
// from the frame pool: the caller owns it and may release it with PutBuf
// once no one reads it any more.
func NewFrame(h *Header, payload []byte) []byte {
	frame := GetBuf(HeaderLen + len(payload))
	_ = h.Encode(frame) // cannot fail: frame is long enough by construction
	copy(frame[HeaderLen:], payload)
	return frame
}

// Payload returns the payload portion of an encoded frame. The returned
// slice aliases the frame: it dies (or is recycled) with it.
func Payload(frame []byte) []byte { return frame[HeaderLen:] }

// maxFrameLen bounds a single frame to guard against corrupt length
// prefixes when reading from a stream. 1 GiB is far above any message this
// library sends in one frame.
const maxFrameLen = 1 << 30

// PrefixLen is the size of the little-endian length prefix WriteFrame puts
// in front of every frame on a stream.
const PrefixLen = 4

// ErrFrame marks a stream whose bytes violate the frame format: a length
// prefix outside [HeaderLen, 1 GiB], or a header that contradicts it.
// Readers wrap it, so errors.Is(err, ErrFrame) separates hostile or
// corrupt input from plain connection loss (io.EOF and friends).
var ErrFrame = errors.New("wire: malformed frame")

// WriteFrame writes a length-prefixed frame to w.
func WriteFrame(w io.Writer, frame []byte) error {
	var pfx [PrefixLen]byte
	binary.LittleEndian.PutUint32(pfx[:], uint32(len(frame)))
	if _, err := w.Write(pfx[:]); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// ReadHeader reads the length prefix and the encoded header of the next
// frame on r into scratch, which must hold PrefixLen+HeaderLen bytes, and
// returns the frame length n the prefix announces (header included). The
// header bytes are scratch[PrefixLen:]; the n-HeaderLen payload bytes are
// still on the stream. Reading header-first lets a stream reader decide
// where a payload goes before any of it is read — and before its length
// sizes an allocation: ReadBody collects it into a frame, the transports
// land rendezvous DATA straight in the posted receive buffer instead.
//
// io.EOF means the stream ended cleanly between frames.
func ReadHeader(r io.Reader, scratch []byte) (n int, err error) {
	if _, err := io.ReadFull(r, scratch[:PrefixLen+HeaderLen]); err != nil {
		return 0, err
	}
	n32 := binary.LittleEndian.Uint32(scratch)
	if n32 > maxFrameLen {
		return 0, fmt.Errorf("%w: length %d exceeds limit", ErrFrame, n32)
	}
	if n32 < HeaderLen {
		return 0, fmt.Errorf("%w: length %d shorter than header", ErrFrame, n32)
	}
	return int(n32), nil
}

// maxTrusted is how much ReadBody allocates on the word of a length prefix
// alone: a frame carrying one top-class payload. Longer frames grow their
// buffer only as bytes actually arrive.
const maxTrusted = HeaderLen + 1<<maxClassBits

// ReadBody completes the frame whose prefix and header ReadHeader consumed:
// hdr holds the HeaderLen encoded header bytes, n is the frame length. The
// frame comes from the frame pool; ownership passes to the caller (for the
// transports, on to their Handler), who may release it with PutBuf when
// done. A stream that ends inside the frame reports io.ErrUnexpectedEOF.
func ReadBody(r io.Reader, hdr []byte, n int) ([]byte, error) {
	frame := GetBuf(min(n, maxTrusted))
	copy(frame, hdr[:HeaderLen])
	have := HeaderLen
	for {
		if _, err := io.ReadFull(r, frame[have:]); err != nil {
			PutBuf(frame)
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if len(frame) == n {
			return frame, nil
		}
		// A prefix beyond maxTrusted: double the buffer, never ahead of
		// what the peer has really sent, so a 4-byte prefix cannot demand
		// a gigabyte.
		have = len(frame)
		grown := make([]byte, min(n, 2*have))
		copy(grown, frame)
		frame = grown
	}
}

// ReadFrame reads one length-prefixed frame from r: ReadHeader, then
// ReadBody.
func ReadFrame(r io.Reader) ([]byte, error) {
	var scratch [PrefixLen + HeaderLen]byte
	n, err := ReadHeader(r, scratch[:])
	if err != nil {
		return nil, err
	}
	return ReadBody(r, scratch[PrefixLen:], n)
}
