package core

import (
	"errors"
	"fmt"
	"sync"

	"mpj/internal/device"
	"mpj/internal/wire"
)

// Request is a handle on a non-blocking MPJ operation. It wraps a device
// request plus the datatype post-processing (unpacking a received byte
// vector into the user buffer) that runs when the operation completes.
type Request struct {
	comm *Comm
	dreq *device.Request
	size int // element size of a receive landing in user memory (see Comm.status); 0 otherwise

	mu      sync.Mutex
	fin     func(device.Status) (*Status, error) // datatype finisher of a staged or allocate-on-arrival receive
	onFinal func()                               // runs once when the request reaches a terminal state
	status  *Status
	err     error
	done    bool
}

// finalize builds the request's status exactly once and caches it.
func (r *Request) finalize(dst device.Status, derr error) (*Status, error) {
	r.mu.Lock()
	if r.done {
		st, err := r.status, r.err
		r.mu.Unlock()
		return st, err
	}
	r.done = true
	if r.fin != nil && (derr == nil || errors.Is(derr, device.ErrTruncate)) {
		// The finisher delivers the bytes that did arrive, of a truncated
		// message too, which is then reported in the API's terms.
		r.status, r.err = r.fin(dst)
		if derr != nil && r.err == nil {
			r.err = fmt.Errorf("%w: %v", ErrTruncate, derr)
		}
	} else {
		r.status, r.err = r.comm.status(dst, derr, r.size)
	}
	hook := r.onFinal
	r.onFinal = nil
	st, err := r.status, r.err
	r.mu.Unlock()
	if hook != nil {
		hook()
	}
	return st, err
}

// forceFail completes the request with err from outside the normal
// completion path (Intercomm.Free): waiters observe err, and the posted
// device operation is cancelled best-effort so a parked Wait unblocks.
// An operation that already completed at the device level is finalized
// with its real outcome instead — the message was delivered (or received),
// and reporting ErrComm for it would invite spurious retransmits.
func (r *Request) forceFail(err error) {
	if dst, ok, derr := r.dreq.Test(); ok {
		_, _ = r.finalize(dst, derr)
		return
	}
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return
	}
	r.done = true
	r.err = err
	r.status = &Status{Source: Undefined, Tag: Undefined, elements: -1}
	hook := r.onFinal
	r.onFinal = nil
	r.mu.Unlock()
	if hook != nil {
		hook()
	}
	_ = r.dreq.Cancel()
}

// Wait blocks until the operation completes and returns its status.
//
// Like every blocking entry point, Wait participates in the collective
// progress engine (see Comm.waitDevice), so a rank blocked in a plain Recv
// cannot stall a peer's non-blocking collective.
func (r *Request) Wait() (*Status, error) {
	return r.finalize(r.comm.waitDevice(r.dreq))
}

// waitDevice parks until the device request dr completes — the one wait
// under Request.Wait and the blocking Send and Recv. While collective
// schedules are in flight it waits in parkUntil, which keeps driving their
// rounds (see sched.go); with none — one atomic load — it parks directly
// on dr, keeping the point-to-point hot path at its old cost.
func (c *Comm) waitDevice(dr *device.Request) (dst device.Status, derr error) {
	if c.revoked.Load() {
		// A revocation that landed between the caller's check and its
		// post found nothing of dr to fail.
		c.dev.FailContext(c.pt2pt, ErrRevoked)
	}
	ok := false
	if c.proc.collCount.Load() != 0 {
		c.parkUntil(nil, func() bool {
			dst, ok, derr = dr.Test()
			return ok || c.proc.collCount.Load() == 0
		})
	}
	if ok {
		return dst, derr
	}
	return dr.Wait()
}

// status builds the Status of a completed device operation — the one
// status builder of point-to-point completions and probes. size is the
// element size of a receive that landed in the user's memory, whose element
// count is then its byte count over size; 0 leaves the count to GetCount.
// A truncated receive keeps the count of the bytes that did arrive and
// reports ErrTruncate; any other error leaves the count undefined.
func (c *Comm) status(dst device.Status, derr error, size int) (*Status, error) {
	st := &Status{
		Source:    c.groupSource(dst.Source),
		Tag:       dst.Tag,
		Cancelled: dst.Cancelled,
		bytes:     dst.Count,
		elements:  -1,
	}
	if derr != nil {
		if !errors.Is(derr, device.ErrTruncate) {
			return st, derr
		}
		derr = fmt.Errorf("%w: %v", ErrTruncate, derr)
	}
	if size > 0 && !dst.Cancelled {
		st.elements = dst.Count / size
	}
	return st, derr
}

// Test reports without blocking whether the operation has completed,
// returning its status when it has.
//
// Like every public non-blocking completion query, a "not yet" answer
// tells the runtime the application polls instead of blocking
// (device.PollMiss): a process slave sized to one scheduler thread then
// takes a second, so the poll loop cannot starve the rank's own socket
// reader.
func (r *Request) Test() (*Status, bool, error) {
	st, ok, err := r.test()
	if !ok {
		device.PollMiss()
	}
	return st, ok, err
}

// test is Test for the library's own progress loops, which park between
// passes and so are not polling.
func (r *Request) test() (*Status, bool, error) {
	dst, ok, derr := r.dreq.Test()
	if !ok {
		return nil, false, nil
	}
	st, err := r.finalize(dst, derr)
	return st, true, err
}

// Cancel attempts to cancel the operation; see device.Request.Cancel for
// the exact semantics.
func (r *Request) Cancel() error { return r.dreq.Cancel() }

// WaitAny blocks until one of the requests completes and returns its index
// and status. Completed requests are consumed, so calling WaitAny in a
// loop steps through all completions; it returns index -1 when none are
// active — MPI_Waitany. Like Request.Wait it keeps in-flight collective
// schedules progressing while parked.
func WaitAny(reqs []*Request) (int, *Status, error) {
	if len(reqs) == 0 {
		return -1, nil, nil
	}
	var comm *Comm
	dreqs := make([]*device.Request, len(reqs))
	for i, r := range reqs {
		if r == nil {
			continue
		}
		dreqs[i] = r.dreq
		comm = r.comm
	}
	if comm == nil {
		return -1, nil, nil
	}
	dev := comm.dev
	var idx int
	var dst device.Status
	var derr error
	ok := false
	if comm.proc.collCount.Load() != 0 {
		comm.parkUntil(nil, func() bool {
			idx, dst, ok, derr = dev.TestAny(dreqs)
			return ok || comm.proc.collCount.Load() == 0
		})
	}
	if !ok {
		idx, dst, derr = dev.WaitAny(dreqs)
	}
	if idx < 0 {
		return -1, nil, nil
	}
	st, err := reqs[idx].finalize(dst, derr)
	return idx, st, err
}

// TestAny is the non-blocking WaitAny — MPI_Testany. ok is true when a
// request completed or none are active.
func TestAny(reqs []*Request) (int, *Status, bool, error) {
	if len(reqs) == 0 {
		return -1, nil, true, nil
	}
	var dev *device.Device
	dreqs := make([]*device.Request, len(reqs))
	for i, r := range reqs {
		if r == nil {
			continue
		}
		dreqs[i] = r.dreq
		dev = r.comm.dev
	}
	if dev == nil {
		return -1, nil, true, nil
	}
	idx, dst, ok, derr := dev.TestAny(dreqs)
	if !ok {
		device.PollMiss()
	}
	if !ok || idx < 0 {
		return idx, nil, ok, nil
	}
	st, err := reqs[idx].finalize(dst, derr)
	return idx, st, ok, err
}

// AnyRequest is the completion surface shared by point-to-point Requests,
// persistent Prequests, collective CollRequests and persistent collective
// PcollRequests. It lets mixed batches
// — a halo exchange plus a non-blocking allreduce, say — complete through
// one WaitAllRequests call.
type AnyRequest interface {
	// Wait blocks until the operation completes and returns its status.
	Wait() (*Status, error)
	// Test reports without blocking whether the operation has completed.
	Test() (*Status, bool, error)
}

// The four request kinds all satisfy the common interface.
var (
	_ AnyRequest = (*Request)(nil)
	_ AnyRequest = (*Prequest)(nil)
	_ AnyRequest = (*CollRequest)(nil)
	_ AnyRequest = (*PcollRequest)(nil)
)

// isNilRequest reports whether a batch slot is empty: a nil interface or
// a typed nil pointer of any request kind (a nil *Request boxed into
// AnyRequest compares non-nil as an interface but must still be skipped,
// matching WaitAll's nil-slot contract).
func isNilRequest(r AnyRequest) bool {
	switch v := r.(type) {
	case nil:
		return true
	case *Request:
		return v == nil
	case *Prequest:
		return v == nil
	case *CollRequest:
		return v == nil
	case *PcollRequest:
		return v == nil
	}
	return false
}

// isCollSlot reports whether a batch slot carries a collective schedule
// that must be driven by round-robin progress: a CollRequest, or a
// persistent PcollRequest (whose activation is one).
func isCollSlot(r AnyRequest) bool {
	switch v := r.(type) {
	case *CollRequest:
		return v != nil
	case *PcollRequest:
		return v != nil
	}
	return false
}

// testQuiet is r.Test without the polling-application signal
// (device.PollMiss), for the progress loop below: it parks between
// fruitless passes.
func testQuiet(r AnyRequest) (*Status, bool, error) {
	switch v := r.(type) {
	case *Request:
		return v.test()
	case *CollRequest:
		return v.test()
	case *Prequest:
		if v.active != nil {
			return v.active.test()
		}
	case *PcollRequest:
		if cur, err := v.current(); err == nil {
			return cur.test()
		}
	}
	return r.Test() // not started: an error, not a "not yet"
}

// commOf returns the communicator a request of one of the four kinds
// belongs to, nil for anything else.
func commOf(r AnyRequest) *Comm {
	switch v := r.(type) {
	case *Request:
		return v.comm
	case *Prequest:
		return v.comm
	case *CollRequest:
		return v.c
	case *PcollRequest:
		return v.c
	}
	return nil
}

// WaitAllRequests blocks until every non-nil request in a mixed batch
// completes. It returns one status per slot (nil for nil entries) and the
// first error in slot order.
//
// Batches containing a collective are drained by round-robin Test rather
// than slot-by-slot Wait: collective schedules advance only when entered
// (progress on entry), so parking on one slot while a collective on
// another communicator still has rounds to post could deadlock ranks
// whose peers complete in a different order. Every pass advances every
// outstanding request; between fruitless passes the caller parks in
// parkUntil. Batches without collectives — and what is left of a batch
// once its collectives have completed — block slot by slot on the device
// directly.
func WaitAllRequests(reqs []AnyRequest) ([]*Status, error) {
	sts := make([]*Status, len(reqs))
	errs := make([]error, len(reqs))
	done := make([]bool, len(reqs))
	var comm *Comm // of a collective slot; nil when the batch has none
	for i, r := range reqs {
		done[i] = isNilRequest(r)
		if comm == nil && isCollSlot(r) {
			comm = commOf(r)
		}
	}
	if comm != nil {
		comm.parkUntil(nil, func() bool {
			for {
				progressed, collLeft := false, false
				for i, r := range reqs {
					if done[i] {
						continue
					}
					st, ok, err := testQuiet(r)
					if !ok && err == nil {
						collLeft = collLeft || isCollSlot(r)
						continue
					}
					// Complete, or untestable (e.g. a never-started
					// Prequest): record the error instead of waiting forever.
					sts[i], errs[i], done[i] = st, err, true
					progressed = true
				}
				if !collLeft {
					return true
				}
				if !progressed {
					return false
				}
			}
		})
	}
	for i, r := range reqs {
		if !done[i] {
			sts[i], errs[i] = r.Wait()
		}
	}
	for _, err := range errs {
		if err != nil {
			return sts, err
		}
	}
	return sts, nil
}

// WaitAll blocks until every request completes — MPI_Waitall. It returns
// one status per slot (nil for nil requests) and the first error. Each
// slot waits through Request.Wait, so in-flight collective schedules keep
// progressing while the batch drains.
func WaitAll(reqs []*Request) ([]*Status, error) {
	sts := make([]*Status, len(reqs))
	var firstErr error
	for i, r := range reqs {
		if r == nil {
			continue
		}
		st, err := r.Wait()
		sts[i] = st
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	return sts, firstErr
}

// sendMode issues a non-blocking send in the given device mode, from the
// user buffer itself where the datatype allows it.
func (c *Comm) sendMode(buf any, off, count int, dt Datatype, dst, tag int, mode device.Mode) (*Request, error) {
	return c.sendModeOpt(buf, off, count, dt, dst, tag, mode, true)
}

// sendModeOpt is sendMode with the borrowing path selectable.
//
// A datatype whose wire encoding equals its memory layout sends from the
// user buffer's own window (device.Isend): a rendezvous payload then
// leaves with no copy at all, and buf must stay untouched until the
// request completes — the MPI rule. borrow=false is for callers that
// cannot keep that rule (SendrecvReplace receives into the buffer it
// sends). Other fixed-size datatypes pack directly into the outgoing wire
// frame or rendezvous stash (device.IsendFill): the intermediate pack
// buffer disappears, the eager path stays allocation-free, and buf is
// free as soon as the call returns. Variable-size datatypes (Object) keep
// the append path — their packed size is unknown before packing.
func (c *Comm) sendModeOpt(buf any, off, count int, dt Datatype, dst, tag int, mode device.Mode, borrow bool) (*Request, error) {
	w, err := c.sendEnvelope(dst, tag)
	if err != nil {
		return nil, err
	}
	var dr *device.Request
	if win := vWindow(dt, buf, off, count); win != nil && borrow {
		dr, err = c.dev.Isend(win, w, tag, c.pt2pt, mode)
	} else if pi, ok := dt.(packerInto); ok && count >= 0 && dt.ByteSize() >= 0 {
		dr, err = c.dev.IsendFill(count*dt.ByteSize(), func(p []byte) error {
			return pi.PackInto(p, buf, off, count)
		}, w, tag, c.pt2pt, mode)
	} else {
		var data []byte
		if data, err = dt.Pack(nil, buf, off, count); err != nil {
			return nil, err
		}
		dr, err = c.dev.Isend(data, w, tag, c.pt2pt, mode)
	}
	if err != nil {
		return nil, err
	}
	return &Request{comm: c, dreq: dr}, nil
}

// sendEnvelope checks a send's communicator, destination and tag, and
// returns the destination's world rank.
func (c *Comm) sendEnvelope(dst, tag int) (int, error) {
	if err := c.checkRevoked(); err != nil {
		return 0, err
	}
	if tag < 0 {
		return 0, fmt.Errorf("%w: tag %d must be non-negative", ErrTag, tag)
	}
	return c.worldRank(dst)
}

// recvEnvelope checks a receive's communicator, source and tag, and returns
// the source and tag in the device's terms: src may be AnySource and tag
// AnyTag.
func (c *Comm) recvEnvelope(src, tag int) (w, dtag int, err error) {
	if err := c.checkRevoked(); err != nil {
		return 0, 0, err
	}
	if tag < 0 && tag != AnyTag {
		return 0, 0, fmt.Errorf("%w: tag %d", ErrTag, tag)
	}
	w = device.AnySource
	if src != AnySource {
		if w, err = c.worldRank(src); err != nil {
			return 0, 0, err
		}
	}
	dtag = tag
	if tag == AnyTag {
		dtag = device.AnyTag
	}
	return w, dtag, nil
}

// sendWindow is the blocking send of a raw-layout window of user memory:
// the device sends from it directly and takes a request only to wait on a
// rendezvous, one that never leaves the call.
func (c *Comm) sendWindow(win []byte, dst, tag int, mode device.Mode) error {
	w, err := c.sendEnvelope(dst, tag)
	if err != nil {
		return err
	}
	return c.dev.Send(win, w, tag, c.pt2pt, mode, c.waitDevice)
}

// recvWindow is the blocking receive into a raw-layout window of user
// memory holding elements of size bytes: sendWindow's counterpart, whose
// only allocation is the Status it returns.
func (c *Comm) recvWindow(win []byte, size, src, tag int) (*Status, error) {
	w, dtag, err := c.recvEnvelope(src, tag)
	if err != nil {
		return nil, err
	}
	dst, derr := c.dev.Recv(win, w, dtag, c.pt2pt, c.waitDevice)
	return c.status(dst, derr, size)
}

// stagedRecvFinisher unpacks a pooled staging buffer into the user buffer
// and returns the staging buffer to the wire frame pool.
func (c *Comm) stagedRecvFinisher(staging []byte, buf any, off, count int, dt Datatype) func(device.Status) (*Status, error) {
	return func(dst device.Status) (*Status, error) {
		st, _ := c.status(dst, nil, 0)
		if dst.Cancelled {
			wire.PutBuf(staging)
			return st, nil
		}
		n, err := dt.Unpack(staging[:dst.Count], buf, off, count)
		wire.PutBuf(staging)
		st.elements = n
		return st, err
	}
}

// recvFinisher builds the completion hook that unpacks received bytes into
// the user buffer and translates the source to a group rank.
func (c *Comm) recvFinisher(dr *device.Request, buf any, off, count int, dt Datatype) func(device.Status) (*Status, error) {
	return func(dst device.Status) (*Status, error) {
		data := dr.Data()
		st, _ := c.status(dst, nil, 0)
		if dst.Cancelled {
			return st, nil
		}
		n, err := dt.Unpack(data, buf, off, count)
		st.elements = n
		if err != nil {
			return st, err
		}
		// More bytes than count elements can hold is a truncation, as
		// in MPI_ERR_TRUNCATE.
		if sz := dt.ByteSize(); sz > 0 && len(data) > count*sz {
			return st, fmt.Errorf("%w: message holds %d bytes, receive posted for %d",
				ErrTruncate, len(data), count*sz)
		}
		return st, nil
	}
}

// Isend starts a standard-mode non-blocking send of count elements of dt
// from buf starting at offset off — MPI_Isend.
func (c *Comm) Isend(buf any, off, count int, dt Datatype, dst, tag int) (*Request, error) {
	return c.sendMode(buf, off, count, dt, dst, tag, device.ModeStandard)
}

// Issend starts a synchronous-mode non-blocking send: it completes only
// after the destination posts a matching receive — MPI_Issend.
func (c *Comm) Issend(buf any, off, count int, dt Datatype, dst, tag int) (*Request, error) {
	return c.sendMode(buf, off, count, dt, dst, tag, device.ModeSync)
}

// Irsend starts a ready-mode non-blocking send: the caller asserts a
// matching receive is already posted — MPI_Irsend.
func (c *Comm) Irsend(buf any, off, count int, dt Datatype, dst, tag int) (*Request, error) {
	return c.sendMode(buf, off, count, dt, dst, tag, device.ModeReady)
}

// Ibsend starts a buffered-mode non-blocking send using the buffer
// attached with BufferAttach — MPI_Ibsend.
func (c *Comm) Ibsend(buf any, off, count int, dt Datatype, dst, tag int) (*Request, error) {
	w, err := c.sendEnvelope(dst, tag)
	if err != nil {
		return nil, err
	}
	// Buffered sends complete locally: force the eager protocol, whose
	// sender side never blocks on the receiver. The reservation is
	// released immediately because the device copies the payload into the
	// outgoing frame before the send call returns. Fixed-size datatypes
	// know their packed size up front and fill the frame in place.
	if pi, ok := dt.(packerInto); ok && count >= 0 {
		if sz := dt.ByteSize(); sz >= 0 {
			n := count * sz
			if err := c.proc.bsend.reserve(n); err != nil {
				return nil, err
			}
			dr, err := c.dev.IsendFill(n, func(p []byte) error {
				return pi.PackInto(p, buf, off, count)
			}, w, tag, c.pt2pt, device.ModeReady)
			c.proc.bsend.release(n)
			if err != nil {
				return nil, err
			}
			return &Request{comm: c, dreq: dr}, nil
		}
	}
	data, err := dt.Pack(nil, buf, off, count)
	if err != nil {
		return nil, err
	}
	if err := c.proc.bsend.reserve(len(data)); err != nil {
		return nil, err
	}
	dr, err := c.dev.Isend(data, w, tag, c.pt2pt, device.ModeReady)
	c.proc.bsend.release(len(data))
	if err != nil {
		return nil, err
	}
	return &Request{comm: c, dreq: dr}, nil
}

// Irecv starts a non-blocking receive of up to count elements of dt into
// buf at offset off; src may be AnySource, tag may be AnyTag — MPI_Irecv.
//
// Fixed-size datatypes receive into a sized buffer, so the inbound frame
// returns to the wire pool as soon as its bytes are copied out; when the
// datatype's wire encoding equals its memory layout the payload lands
// directly in the user buffer (zero copy), otherwise it is decoded from a
// pooled staging buffer. Variable-size datatypes keep the
// allocate-on-arrival path, which adopts the frame whole.
func (c *Comm) Irecv(buf any, off, count int, dt Datatype, src, tag int) (*Request, error) {
	return c.irecvOpt(buf, off, count, dt, src, tag, true)
}

// irecvOpt is Irecv with the zero-copy window path selectable: receivers
// whose requests can be force-failed while matched (Intercomm.Free) must
// not hand the device a window aliasing user memory — a late DATA frame
// would land in a buffer whose owner already saw the operation fail.
func (c *Comm) irecvOpt(buf any, off, count int, dt Datatype, src, tag int, window bool) (*Request, error) {
	w, dtag, err := c.recvEnvelope(src, tag)
	if err != nil {
		return nil, err
	}
	if sz := dt.ByteSize(); sz >= 0 && count >= 0 {
		if rw, ok := dt.(rawWindower); ok && window {
			if win, ok := rw.window(buf, off, count); ok {
				dr, err := c.dev.Irecv(win, w, dtag, c.pt2pt)
				if err != nil {
					return nil, err
				}
				return &Request{comm: c, dreq: dr, size: sz}, nil
			}
		}
		staging := wire.GetBuf(count * sz)
		dr, err := c.dev.Irecv(staging, w, dtag, c.pt2pt)
		if err != nil {
			wire.PutBuf(staging)
			return nil, err
		}
		return &Request{comm: c, dreq: dr, fin: c.stagedRecvFinisher(staging, buf, off, count, dt)}, nil
	}
	dr, err := c.dev.Irecv(nil, w, dtag, c.pt2pt)
	if err != nil {
		return nil, err
	}
	return &Request{comm: c, dreq: dr, fin: c.recvFinisher(dr, buf, off, count, dt)}, nil
}

// Send performs a blocking standard-mode send — MPI_Send.
func (c *Comm) Send(buf any, off, count int, dt Datatype, dst, tag int) error {
	return c.send(buf, off, count, dt, dst, tag, device.ModeStandard)
}

// Ssend performs a blocking synchronous-mode send — MPI_Ssend.
func (c *Comm) Ssend(buf any, off, count int, dt Datatype, dst, tag int) error {
	return c.send(buf, off, count, dt, dst, tag, device.ModeSync)
}

// Rsend performs a blocking ready-mode send — MPI_Rsend.
func (c *Comm) Rsend(buf any, off, count int, dt Datatype, dst, tag int) error {
	return c.send(buf, off, count, dt, dst, tag, device.ModeReady)
}

// send is the blocking sendMode: a raw-layout buffer takes sendWindow, any
// other waits on sendMode's request.
func (c *Comm) send(buf any, off, count int, dt Datatype, dst, tag int, mode device.Mode) error {
	if win := vWindow(dt, buf, off, count); win != nil {
		return c.sendWindow(win, dst, tag, mode)
	}
	r, err := c.sendMode(buf, off, count, dt, dst, tag, mode)
	if err != nil {
		return err
	}
	_, err = r.Wait()
	return err
}

// Bsend performs a blocking buffered-mode send — MPI_Bsend.
func (c *Comm) Bsend(buf any, off, count int, dt Datatype, dst, tag int) error {
	r, err := c.Ibsend(buf, off, count, dt, dst, tag)
	if err != nil {
		return err
	}
	_, err = r.Wait()
	return err
}

// Recv performs a blocking receive — MPI_Recv. A raw-layout buffer takes
// recvWindow; any other waits on Irecv's request.
func (c *Comm) Recv(buf any, off, count int, dt Datatype, src, tag int) (*Status, error) {
	if win := vWindow(dt, buf, off, count); win != nil {
		return c.recvWindow(win, dt.ByteSize(), src, tag)
	}
	r, err := c.Irecv(buf, off, count, dt, src, tag)
	if err != nil {
		return nil, err
	}
	return r.Wait()
}

// Sendrecv executes a send and a receive concurrently, safe against the
// exchange deadlock — MPI_Sendrecv.
func (c *Comm) Sendrecv(
	sbuf any, soff, scount int, sdt Datatype, dst, stag int,
	rbuf any, roff, rcount int, rdt Datatype, src, rtag int,
) (*Status, error) {
	rr, err := c.Irecv(rbuf, roff, rcount, rdt, src, rtag)
	if err != nil {
		return nil, err
	}
	sr, err := c.Isend(sbuf, soff, scount, sdt, dst, stag)
	if err != nil {
		_ = rr.Cancel()
		_, _ = rr.Wait()
		return nil, err
	}
	if _, err := sr.Wait(); err != nil {
		_ = rr.Cancel()
		_, _ = rr.Wait()
		return nil, err
	}
	return rr.Wait()
}

// SendrecvReplace sends and receives using a single buffer —
// MPI_Sendrecv_replace. The incoming message replaces the outgoing data.
func (c *Comm) SendrecvReplace(
	buf any, off, count int, dt Datatype, dst, stag, src, rtag int,
) (*Status, error) {
	// The outgoing bytes are packed (copied) before the receive can
	// touch the buffer, so one buffer is safe: the send must not borrow.
	sr, err := c.sendModeOpt(buf, off, count, dt, dst, stag, device.ModeStandard, false)
	if err != nil {
		return nil, err
	}
	rr, err := c.Irecv(buf, off, count, dt, src, rtag)
	if err != nil {
		// The send is out; cancel it (rendezvous sends would otherwise
		// wait forever for a CTS if the peer failed symmetrically) and
		// reap it before reporting.
		_ = sr.Cancel()
		_, _ = sr.Wait()
		return nil, err
	}
	if _, err := sr.Wait(); err != nil {
		_ = rr.Cancel()
		_, _ = rr.Wait()
		return nil, err
	}
	return rr.Wait()
}

// Probe blocks until a matching message is ready to be received and
// returns its envelope — MPI_Probe.
func (c *Comm) Probe(src, tag int) (*Status, error) {
	if err := c.checkRevoked(); err != nil {
		return nil, err
	}
	w := device.AnySource
	if src != AnySource {
		var err error
		if w, err = c.worldRank(src); err != nil {
			return nil, err
		}
	}
	dtag := tag
	if tag == AnyTag {
		dtag = device.AnyTag
	}
	dst, err := c.dev.Probe(w, dtag, c.pt2pt)
	if err != nil {
		return nil, err
	}
	return c.status(dst, nil, 0)
}

// Iprobe checks without blocking whether a matching message has arrived —
// MPI_Iprobe.
func (c *Comm) Iprobe(src, tag int) (*Status, bool, error) {
	if err := c.checkRevoked(); err != nil {
		return nil, false, err
	}
	w := device.AnySource
	if src != AnySource {
		var err error
		if w, err = c.worldRank(src); err != nil {
			return nil, false, err
		}
	}
	dtag := tag
	if tag == AnyTag {
		dtag = device.AnyTag
	}
	dst, ok := c.dev.Iprobe(w, dtag, c.pt2pt)
	if !ok {
		device.PollMiss()
		return nil, false, nil
	}
	st, _ := c.status(dst, nil, 0)
	return st, true, nil
}
