// Package transport provides reliable, ordered frame delivery between the
// processes of an MPJ job.
//
// This is the Go rendition of the paper's "Java Socket and Thread APIs"
// layer: an all-to-all mesh of connections with one input-handler goroutine
// per inbound connection, exactly the structure §3.5(1–2) of the paper
// prescribes for a select-less socket API.
//
// Two implementations are provided behind one interface, labelled by
// DeviceName (the analogue of MPJ Express's niodev/smpdev devices). A
// job's slaves build the channel mesh when they all share one process and
// the TCP mesh otherwise; the locality table the bootstrap hands out says
// which (see ProcessLocality):
//
//   - ChanTransport ("chan"): an in-process mesh. Every rank of the job
//     runs as a goroutine in one OS process, and a send calls the
//     destination's handler — the multicore device, and the hermetic
//     substrate used by unit tests and benchmarks. Slaves that share a
//     process find their mesh through the process hub (JoinHub).
//   - TCPTransport ("tcp"): the real thing — an all-to-all TCP mesh
//     between OS processes, bootstrapped from an address book.
//
// Every endpoint describes, once and for good, what it knows of its peers
// (Peers): the device name, each rank's locality key, which ranks share
// its address space and which are other processes of its host. The device
// reads that description when it opens the endpoint.
//
// Between two processes of one host the TCP mesh also trades frames
// through a shared-memory ring per direction, when the device plans them
// (Rings, see ring.go): the sender copies a frame into the ring, and the
// receiver takes it out on a waiting rank's goroutine (Poll) or, after a
// doorbell, on the connection's reader. Each ring's memory also holds a
// stream area, through which a rendezvous payload moves while the sender
// copies it in and the receiver copies it out (StreamOpen, Stream and
// Unstream, see stream.go).
//
// Sends never wait for a peer's progress. Over TCP, Send enqueues the frame
// on an unbounded per-destination queue drained by a dedicated writer
// goroutine — or, to a peer whose ring is live and while nothing waits in
// that queue, copies it into the ring itself — and inbound frames are
// pushed to a Handler from the per-connection reader goroutine, or from a
// poller. Between ranks of one address space, and from a TCP endpoint to
// its own rank, Send runs the destination's Handler itself, so its caller
// must hold no lock a handler path takes.
// Because the device-level handler never waits (it completes a posted
// receive or queues the frame, and answers after releasing its lock),
// the mesh cannot deadlock on control traffic.
//
// Rendezvous payloads never become frames. SendData hands over a KindData
// header with a reference to the payload, on the same per-destination
// FIFO as Send; the receiving side asks its Lander where
// the payload goes and moves the bytes there directly. Over TCP the writer
// hands header and payload to one writev and the reader reads the socket
// straight into the landing buffer (no user-space copy on either side);
// inside a process SendData itself copies from the sender's memory into
// the landing buffer (one copy). Either way the sender's completion runs
// once the payload is no longer referenced.
//
// See ARCHITECTURE.md at the repository root for where this package sits in
// the layer stack.
package transport

import (
	"errors"
	"sync/atomic"
	"time"

	"mpj/internal/wire"
)

// Handler consumes one inbound frame. src is the absolute rank of the
// sender. Ownership of the frame slice transfers to the handler with the
// call: nothing in the transport touches the frame afterwards, and the
// handler may release it to the frame pool with wire.PutBuf once it has
// copied (or decided to retain) the bytes it needs. A handler that retains
// the frame — or a slice aliasing it, such as wire.Payload(frame) — simply
// never puts it.
//
// Handlers are invoked from reader goroutines (one per inbound connection),
// from a goroutine in Poll, and inside a co-located sender's Send (or a TCP
// endpoint's Send to itself). A handler never waits for a peer's progress,
// and sends holding no lock of its own: the send may run a handler that
// answers back into this one.
type Handler func(src int, frame []byte)

// Lander resolves where the payload of an inbound KindData message lands.
// The transport calls it with the decoded header before it has read (or
// copied) a single payload byte. The answers:
//
//   - dst and fin set: the transport fills dst — at most h.Len bytes; a
//     shorter dst takes the head of the payload and the rest is skipped —
//     then calls fin exactly once: fin(nil) when dst is full, fin(err)
//     when the stream broke first. Between the Lander call and fin the
//     transport is the only writer of dst.
//   - fin nil: nobody awaits this payload; it is skipped and dropped.
//   - err set: the header contradicts what the receiver granted. The
//     connection it came over is finished and reports err as its failure.
//
// A Lander runs on reader and writer goroutines, or inside a co-located
// sender's SendData, and never waits for a peer's progress; the same holds
// for fin.
type Lander func(src int, h wire.Header) (dst []byte, fin func(error), err error)

// landLocal hands a SendData item to a Lander in this address space: one
// copy from the sender's memory into the landing buffer, then both
// completions.
func landLocal(land Lander, src int, it *outData) {
	if land == nil {
		it.done(nil)
		return
	}
	dst, fin, err := land(src, it.hdr)
	if err == nil && fin != nil {
		copy(dst, it.payload)
		fin(nil)
	}
	it.done(err)
}

// DeviceName labels a Transport implementation in reports (Peers.Device,
// device.Device.Name), mirroring MPJ Express's device names.
type DeviceName string

const (
	// DeviceChan is the in-process channel mesh (the multicore device):
	// every rank a goroutine in one OS process.
	DeviceChan DeviceName = "chan"
	// DeviceTCP is the all-to-all TCP mesh between OS processes.
	DeviceTCP DeviceName = "tcp"
)

// Peers is what an endpoint knows of the ranks of its job, fixed when the
// endpoint is built; readers must not modify it. A wrapper that embeds a
// Transport inherits it, and overrides Peers only to change it.
type Peers struct {
	// Device names the transport flavor. It only labels reports.
	Device DeviceName
	// Locs[r] is rank r's locality key (see ProcessLocality), "" when
	// unknown; nil when the endpoint knows nothing of where ranks run.
	// Ranks with equal non-empty keys share a process.
	Locs []string
	// Local[r] reports that rank r shares this address space, so that
	// one-sided operations may move its bytes directly; nil when no other
	// rank does.
	Local []bool
	// Pids[r] is rank r's process id when r is another process on this
	// host, else 0; nil when no rank is (see DescribePeers).
	Pids []int
}

// ErrorHandler is notified when a peer connection fails outside an orderly
// shutdown. The job layer uses this to turn partial failure into total
// failure, per the paper's failure model.
type ErrorHandler func(peer int, err error)

// Transport moves frames between the ranks of one job.
type Transport interface {
	// Rank returns the absolute rank of this endpoint in the job.
	Rank() int
	// Size returns the number of ranks in the job.
	Size() int
	// Peers describes the ranks of the job as this endpoint knows them.
	// It returns the same description every time.
	Peers() Peers
	// Send delivers frame to dst, reliably and in order per (src, dst)
	// pair. It never waits for a peer's progress, but to a rank of this
	// address space it runs dst's Handler before it returns: the caller
	// must hold no lock a handler path takes. Send returns an error only
	// if the transport is closed or dst is out of range.
	//
	// Ownership of the frame transfers to the transport: the caller must
	// not touch it after Send returns. The transport either hands the
	// frame to a Handler (which then owns it) or writes it to a socket
	// and releases it to the frame pool itself.
	Send(dst int, frame []byte) error
	// SendData hands a rendezvous payload for dst over by reference, on
	// the same ordered path as Send (and under its rule on locks). h is
	// its KindData header, with Len equal to len(payload). payload is
	// borrowed: the transport neither copies nor retains it beyond done,
	// and the caller must leave it untouched until then.
	//
	// When SendData returns nil, done is called exactly once — possibly
	// before SendData returns, otherwise on a transport goroutine — with
	// nil once the bytes are handed to the medium (written to the socket,
	// or copied into the receiver's landing buffer), or with the reason
	// they never will be (connection dead, endpoint closed or aborted).
	// Close and Abort return only after every accepted payload has had its
	// done. When SendData returns an error, the payload was not accepted
	// and done is never called.
	SendData(dst int, h wire.Header, payload []byte, done func(error)) error
	// SetHandler installs the inbound frame handler. Must be called
	// before Start. KindData messages never reach it: see SetLander.
	SetHandler(Handler)
	// SetLander installs the landing hook for inbound KindData payloads.
	// Must be called before Start. Without one, such payloads are dropped.
	SetLander(Lander)
	// SetErrorHandler installs the peer-failure handler. Optional; must
	// be called before Start.
	SetErrorHandler(ErrorHandler)
	// Rings plans shared-memory rings to the co-host processes the plan
	// names (see RingPlan). It must be called before Start, at most once.
	// An endpoint with no socket to any planned rank ignores it.
	Rings(plan RingPlan)
	// Start launches reader and writer goroutines, where the medium needs
	// them, and lets inbound frames through to the handler.
	Start() error
	// Poll delivers, on the caller's goroutine, the inbound frames that
	// arrive through shared memory within budget (see ring.go), and
	// reports whether it delivered any; it returns as soon as it has. A
	// transport without a live ring returns false at once. A waiter calls
	// it before it parks; everything else arrives on reader goroutines,
	// or inside a co-located sender's Send, whether or not anybody polls.
	Poll(budget time.Duration) bool
	// StreamOpen claims the stream area of the ring to dst for one
	// rendezvous payload (see stream.go) and returns the stream's id, or 0
	// and why there is none to claim: no live ring to dst, or its area
	// still in use. Stream must follow a claim.
	StreamOpen(dst int) (uint32, StreamMiss)
	// Stream copies payload into the area claimed as id while the peer
	// copies it out, on the caller's goroutine, hands the area back and
	// reports whether all of payload went in; it stops early when the
	// peer takes the rest over or stops freeing slots. hook, when set,
	// runs before each slot is copied, once it is free, with its payload
	// offset; false ends the stream there (a test seam).
	Stream(dst int, id uint32, payload []byte, hook func(off int) bool) bool
	// Unstream copies stream id from src into the head of dst as src
	// fills its slots, on the caller's goroutine, and returns how many
	// bytes it filled: all of dst, at most total, unless src stopped or
	// stalled, or quit read true. A malformed stream is a wire.ErrFrame.
	// A transport without a live ring from src fills nothing.
	Unstream(src int, id uint32, total int, dst []byte, quit *atomic.Bool) (int, error)
	// Close tears the endpoint down. It drains outbound queues first so
	// an orderly shutdown does not drop frames.
	Close() error
	// Abort tears the endpoint down abruptly, without draining and
	// without goodbyes, so that peers observe a failure rather than an
	// orderly shutdown. Used to propagate application failure.
	Abort()
}

// Errors shared by transport implementations.
var (
	ErrClosed    = errors.New("transport: closed")
	ErrBadRank   = errors.New("transport: destination rank out of range")
	ErrNoHandler = errors.New("transport: Start called before SetHandler")
	ErrStarted   = errors.New("transport: already started")
)
