package device

import (
	"fmt"
	"time"

	"mpj/internal/transport"
	"mpj/internal/wire"
)

// Status describes a completed (or cancelled) communication, mirroring
// MPI_Status at the device level: byte counts, not element counts.
type Status struct {
	Source    int  // rank the message came from (sends: own rank)
	Tag       int  // message tag
	Count     int  // payload bytes transferred
	Cancelled bool // the operation was cancelled before matching
}

// reqKind distinguishes send and receive requests.
type reqKind uint8

const (
	reqSend reqKind = iota
	reqRecv
)

// Request is a handle on an in-flight device operation, the device-level
// analogue of MPI_Request. Requests are created by Isend/Irecv and
// completed by the protocol engine; user goroutines observe completion via
// Wait/Test or the device's TestAny/TestAll, or park on any change with
// Gen and WaitProgress.
type Request struct {
	d    *Device
	kind reqKind

	// Receive matching parameters (src/tag may be wildcards).
	buf     []byte
	dynamic bool // allocate-on-arrival receive (posted with nil buf)
	src     int
	tag     int
	ctx     int
	dst     int // sends only
	done    bool
	err     error

	status Status

	// Rendezvous state.
	msgID      uint64     // sender: the id its RTS carries; receiver: of the RTS it matched
	payload    []byte     // sender: borrowed payload, lent to the transport after the CTS
	matchedSrc int        // receiver: resolved source after matching an RTS
	matchedTag int        // receiver: resolved tag after matching an RTS
	expect     int        // receiver: expected DATA length
	pull       *pullState // co-host path (see pull.go); nil unless the peer is another process on this host

	stash        bool // sender: payload is a pooled buffer the device owns (IsendFill)
	cancelWanted bool
	consumed     bool // a TestAny already returned this request
}

// Wait blocks until the request completes and returns its status. Where
// co-host rings are live it polls them first, for at most pollBudget in
// all, and parks only then — unless a co-host pull carries its payload
// (r.pull): that ends with a copy of the whole payload, or on the socket,
// and no poll brings it sooner. A send that streamed its whole payload
// polls, for transport.StreamBudget: its receiver copies up to an area's
// worth out after the last slot went in, and answers just behind it; so
// does a receive into a buffer above the eager limit, which a rendezvous
// payload fills (see polls.go).
func (r *Request) Wait() (Status, error) {
	d := r.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.polls && !r.done && (r.pull == nil || r.pull.stream != 0) {
		budget := pollBudget
		if r.pull != nil || r.kind == reqRecv && len(r.buf) > d.eagerLimit {
			budget = transport.StreamBudget
		}
		end := time.Now().Add(budget)
		for !r.done {
			gen := d.gen.Load()
			d.mu.Unlock()
			moved := d.spin(gen, end, false)
			d.mu.Lock()
			if !moved {
				break
			}
		}
	}
	for !r.done {
		d.cond.Wait()
	}
	return r.status, r.err
}

// Test reports, without blocking, whether the request has completed.
func (r *Request) Test() (Status, bool, error) {
	d := r.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if !r.done {
		return Status{}, false, nil
	}
	return r.status, true, r.err
}

// Done reports whether the request has completed.
func (r *Request) Done() bool {
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	return r.done
}

// IsSend reports whether this is a send request.
func (r *Request) IsSend() bool { return r.kind == reqSend }

// Data returns the received payload of a completed allocate-on-arrival
// receive (one posted with a nil buffer). It returns nil for sends and for
// receives into caller-owned buffers.
//
// The returned slice belongs to the caller outright and stays valid
// forever: an eager payload is adopted from the arrived frame (zero copy),
// a rendezvous payload landed in a buffer taken from the wire pool for
// this message, and the device never puts either back.
func (r *Request) Data() []byte {
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	if r.kind != reqRecv || !r.done || !r.dynamic {
		return nil
	}
	return r.buf
}

// Cancel attempts to cancel the request.
//
// Receives cancel locally if still unmatched. Rendezvous sends run the
// two-phase cancel handshake with the receiver; whether cancellation won
// the race is visible as Status.Cancelled once the request completes.
// Already-complete requests (including all eager sends) cannot be
// cancelled; Cancel is then a no-op, as in MPI.
func (r *Request) Cancel() error {
	d := r.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if r.done || r.cancelWanted {
		return nil
	}
	switch r.kind {
	case reqRecv:
		// Unmatched if still in the posted queue.
		for i, p := range d.posted {
			if p == r {
				d.posted = append(d.posted[:i], d.posted[i+1:]...)
				r.cancelWanted = true
				d.completeLocked(r, Status{Cancelled: true}, nil)
				return nil
			}
		}
		// Matched (awaiting rendezvous data): too late to cancel.
		return nil
	case reqSend:
		if _, pending := d.pendingRTS[r.msgID]; !pending {
			return nil // CTS already consumed: delivery has won
		}
		r.cancelWanted = true
		return d.sendCancelLocked(r)
	}
	return nil
}

// String renders the request for diagnostics.
func (r *Request) String() string {
	kind := "send"
	if r.kind == reqRecv {
		kind = "recv"
	}
	return fmt.Sprintf("Request{%s tag=%d ctx=%d done=%v}", kind, r.tag, r.ctx, r.done)
}

// TestAny reports, without blocking, one completed request of reqs, like
// MPI_Testany: ok is true when some request completed (idx is its index)
// or when there are no active requests left (idx -1); ok is false when
// active requests exist but none has completed yet. A request it returns
// is marked consumed and skipped from then on, so repeated calls step
// through a request slice the way MPI_Waitany does; nil entries are
// ignored. A blocking WaitAny is core's park loop around this look.
func (d *Device) TestAny(reqs []*Request) (idx int, st Status, ok bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	anyActive := false
	for i, r := range reqs {
		if r == nil || r.consumed {
			continue
		}
		anyActive = true
		if r.done {
			r.consumed = true
			return i, r.status, true, r.err
		}
	}
	if !anyActive {
		return -1, Status{}, true, nil
	}
	return -1, Status{}, false, nil
}

// TestAll reports whether every non-nil request has completed, returning
// statuses only when all are done (like MPI_Testall).
func (d *Device) TestAll(reqs []*Request) ([]Status, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range reqs {
		if r != nil && !r.done {
			return nil, false, nil
		}
	}
	sts := make([]Status, len(reqs))
	var firstErr error
	for i, r := range reqs {
		if r == nil {
			continue
		}
		sts[i] = r.status
		if firstErr == nil && r.err != nil {
			firstErr = r.err
		}
	}
	return sts, true, firstErr
}

// sendCancelLocked emits the KindCancel frame for a pending rendezvous
// send. Callers hold d.mu.
func (d *Device) sendCancelLocked(r *Request) error {
	h := wire.Header{
		Kind:    wire.KindCancel,
		Src:     int32(d.rank),
		Tag:     int32(r.tag),
		Context: int32(r.ctx),
		MsgID:   r.msgID,
	}
	return d.t.Send(r.dst, wire.NewFrame(&h, nil))
}
