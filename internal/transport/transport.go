// Package transport provides reliable, ordered frame delivery between the
// processes of an MPJ job.
//
// This is the Go rendition of the paper's "Java Socket and Thread APIs"
// layer: an all-to-all mesh of connections with one input-handler goroutine
// per inbound connection, exactly the structure §3.5(1–2) of the paper
// prescribes for a select-less socket API.
//
// Three implementations are provided behind one interface, labelled by
// DeviceName (the analogue of MPJ Express's niodev/smpdev/hybdev device
// family). A job's slaves always build the hybrid one, which picks each
// pair's medium from the locality table; tests and benchmarks build the
// other two directly:
//
//   - ChanTransport ("chan"): an in-process mesh built on Go channels.
//     Every rank of the job runs as a goroutine in one OS process — the
//     multicore device, and the hermetic substrate used by unit tests and
//     benchmarks.
//   - TCPTransport ("tcp"): the real thing — an all-to-all TCP mesh
//     between OS processes, bootstrapped from an address book.
//   - HybTransport ("hyb"): the hybrid device — frames to ranks co-located
//     in the same OS process travel over a shared channel mesh (zero
//     syscalls), frames to remote ranks over a TCP mesh.
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
// doorbell, on the connection's reader.
//
// Sends are asynchronous and never block: Send enqueues the frame on an
// unbounded per-destination queue drained by a dedicated writer goroutine
// — or, to a peer whose ring is live and while nothing waits in that
// queue, copies it into the ring itself. Inbound frames are pushed to a
// Handler from the per-connection reader goroutine, or from a poller.
// Because the device-level handler never blocks (it either completes a
// posted receive or enqueues the frame), readers never stall and the mesh
// cannot deadlock on control traffic.
//
// Rendezvous payloads never become frames. SendData queues a KindData
// header with a reference to the payload, on the same per-destination
// FIFO as Send; the receiving side asks its Lander where
// the payload goes and moves the bytes there directly. Over TCP the writer
// hands header and payload to one writev and the reader reads the socket
// straight into the landing buffer (no user-space copy on either side);
// inside a process the sender's writer goroutine copies from the sender's
// memory into the landing buffer (one copy). Either way the sender's
// completion runs once the payload is no longer referenced.
//
// See ARCHITECTURE.md at the repository root for where this package sits in
// the layer stack.
package transport

import (
	"errors"
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
// Handlers are invoked from reader goroutines (one per inbound connection,
// plus one for loopback), and from a goroutine in Poll, and must not block
// indefinitely.
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
// A Lander runs on reader and writer goroutines and must not block
// indefinitely; the same holds for fin.
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
	// DeviceHyb is the hybrid device: channel mesh to co-located ranks,
	// TCP mesh to remote ranks.
	DeviceHyb DeviceName = "hyb"
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
	// Send enqueues frame for delivery to dst. It never blocks. Delivery
	// is reliable and ordered per (src, dst) pair. Send returns an error
	// only if the transport is closed or dst is out of range.
	//
	// Ownership of the frame transfers to the transport: the caller must
	// not touch it after Send returns. The transport either hands the
	// frame to a local Handler (which then owns it) or writes it to a
	// socket and releases it to the frame pool itself.
	Send(dst int, frame []byte) error
	// SendData enqueues a rendezvous payload for dst by reference, on the
	// same ordered per-destination queue as Send. h is its KindData
	// header, with Len equal to len(payload). payload is borrowed: the
	// transport neither copies nor retains it beyond done, and the caller
	// must leave it untouched until then.
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
	// Start launches reader and writer goroutines.
	Start() error
	// Poll delivers, on the caller's goroutine, the inbound frames that
	// arrive through shared memory within budget (see ring.go), and
	// reports whether it delivered any; it returns as soon as it has. A
	// transport without a live ring returns false at once. A waiter calls
	// it before it parks; everything else arrives on reader goroutines
	// whether or not anybody polls.
	Poll(budget time.Duration) bool
	// Drain blocks until every frame accepted by Send has been handed to
	// the underlying medium (channel, ring or socket).
	Drain()
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
	ErrClosed     = errors.New("transport: closed")
	ErrBadRank    = errors.New("transport: destination rank out of range")
	ErrNoHandler  = errors.New("transport: Start called before SetHandler")
	ErrStarted    = errors.New("transport: already started")
	ErrNotStarted = errors.New("transport: not started")
)
