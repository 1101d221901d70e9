package device

import (
	"fmt"

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
// Wait/Test or the device's WaitAny/WaitAll/TestAny/TestAll.
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
	consumed     bool // a WaitAny/TestAny already returned this request
	seen         bool // a Wait*/Test*/Done call has observed the completion (see WaitProgress)
}

// Wait blocks until the request completes and returns its status.
func (r *Request) Wait() (Status, error) {
	d := r.d
	d.mu.Lock()
	defer d.mu.Unlock()
	for !r.done {
		d.cond.Wait()
	}
	r.seen = true
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
	r.seen = true
	return r.status, true, r.err
}

// Done reports whether the request has completed.
func (r *Request) Done() bool {
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	r.seen = r.done
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

// WaitAny blocks until at least one of reqs completes and returns its
// index and status. Completed requests are marked consumed so repeated
// WaitAny calls step through a request slice the way MPI_Waitany does.
// Nil entries are ignored; if every entry is nil or already consumed,
// WaitAny returns index -1 with an empty status.
func (d *Device) WaitAny(reqs []*Request) (int, Status, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		active := false
		for i, r := range reqs {
			if r == nil || r.consumed {
				continue
			}
			active = true
			if r.done {
				r.consumed, r.seen = true, true
				return i, r.status, r.err
			}
		}
		if !active {
			return -1, Status{}, nil
		}
		d.cond.Wait()
	}
}

// TestAny is the non-blocking WaitAny. Like MPI_Testany: ok is true when
// some request completed (idx is its index) or when there are no active
// requests left (idx -1); ok is false when active requests exist but none
// has completed yet.
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
			r.consumed, r.seen = true, true
			return i, r.status, true, r.err
		}
	}
	if !anyActive {
		return -1, Status{}, true, nil
	}
	return -1, Status{}, false, nil
}

// WaitProgress blocks until at least one of the requests that is
// incomplete on entry completes, or until a rank failure newer than epoch
// is detected; it returns immediately when none are incomplete. Unlike
// WaitAny it never marks requests consumed — it is the parking primitive
// of the collective schedule engine, which re-derives what to do from
// schedule state after every wakeup. The failure wakeup matters for fault
// tolerance: a rank death may doom a parked schedule without completing
// any of its watched requests (a round not yet posted against the dead
// peer), and the waiter must wake to observe it.
//
// The caller looks at its requests (Test, TestAll, TestAny), then parks
// here, and a completion in between must not be missed: a request that
// is complete on entry but whose completion no such call has observed is
// news, and WaitProgress returns at once instead of parking on the rest —
// which may only ever complete once the caller has acted on this one (a
// blocked Recv watching the rounds of an in-flight collective its sender
// is waiting on). Completions already observed — eager sends, the
// finished part of a round — are not, or a waiter would spin on them.
//
// epoch is the FailEpoch the caller read before it last looked at its
// schedules: a failure registered between that look and this call is then
// a reason to return at once, not a wakeup that was missed.
func (d *Device) WaitProgress(reqs []*Request, epoch uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var watch []*Request
	for _, r := range reqs {
		switch {
		case r == nil:
		case !r.done:
			watch = append(watch, r)
		case !r.seen:
			return
		}
	}
	if len(watch) == 0 {
		return
	}
	for {
		if d.failEpoch.Load() != epoch || d.closed {
			return
		}
		for _, r := range watch {
			if r.done {
				return
			}
		}
		d.cond.Wait()
	}
}

// WaitAll blocks until every non-nil request completes. It returns one
// status per input slot (zero Status for nil entries) and the first error
// encountered in request order.
func (d *Device) WaitAll(reqs []*Request) ([]Status, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sts := make([]Status, len(reqs))
	var firstErr error
	for i, r := range reqs {
		if r == nil {
			continue
		}
		for !r.done {
			d.cond.Wait()
		}
		r.seen = true
		sts[i] = r.status
		if firstErr == nil && r.err != nil {
			firstErr = r.err
		}
	}
	return sts, firstErr
}

// TestAll reports whether every non-nil request has completed, returning
// statuses only when all are done (like MPI_Testall). It observes every
// completion among reqs, not only up to the first incomplete request:
// WaitProgress tells news from those.
func (d *Device) TestAll(reqs []*Request) ([]Status, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	all := true
	for _, r := range reqs {
		if r != nil {
			r.seen = r.done
			all = all && r.done
		}
	}
	if !all {
		return nil, false, nil
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
