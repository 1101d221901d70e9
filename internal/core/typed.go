package core

// This file hosts the generic (type-parameterised) entry points behind the
// public typed facade (package mpj, typed.go). Go methods cannot take type
// parameters, so these are free functions over *Comm. They resolve the
// Datatype for T at compile-instantiation time and reach the device
// through the frame-filling / raw-window fast paths without ever boxing
// the user slice into an `any` — the per-call costs the classic
// Datatype-shaped surface cannot avoid.

import (
	"mpj/internal/device"
	"mpj/internal/wire"
)

// Scalar is the constraint satisfied by the element types the typed facade
// can transmit: the fixed-width base types of the MPJ datatype system plus
// the MaxLoc/MinLoc pair types. rune is covered through int32 (they are
// the same type; both encodings are identical on the wire).
type Scalar interface {
	bool | byte | int16 | int32 | int64 | int | float32 | float64 |
		DoubleInt | IntInt | FloatInt
}

// Number is the sub-constraint accepted by the arithmetic reductions
// (Sum, Prod, Max, Min).
type Number interface {
	byte | int16 | int32 | int64 | int | float32 | float64
}

// Integer is the sub-constraint accepted by the bitwise reductions
// (BAnd, BOr, BXor).
type Integer interface {
	byte | int16 | int32 | int64 | int
}

// Pair is the sub-constraint accepted by the MaxLoc/MinLoc reductions.
type Pair interface {
	DoubleInt | IntInt | FloatInt
}

// baseFor resolves the concrete base type descriptor for T.
func baseFor[T Scalar]() *baseType[T] {
	var z T
	var dt Datatype
	switch any(z).(type) {
	case bool:
		dt = Boolean
	case byte:
		dt = Byte
	case int16:
		dt = Short
	case int32:
		dt = Int
	case int64:
		dt = Long
	case int:
		dt = GoInt
	case float32:
		dt = Float
	case float64:
		dt = Double
	case DoubleInt:
		dt = DoubleInt2
	case IntInt:
		dt = IntInt2
	case FloatInt:
		dt = FloatInt2
	}
	return dt.(*baseType[T])
}

// DatatypeFor returns the Datatype describing []T buffers — the bridge
// from the typed facade to the Datatype-shaped compatibility surface
// (e.g. for mixing typed sends with Datatype-shaped receives).
func DatatypeFor[T Scalar]() Datatype {
	return Datatype(baseFor[T]())
}

// OpFromFunc builds a reduction operation from a typed binary function,
// usable only with []T buffers — the typed analogue of NewOp without the
// decode/re-encode round trip through `any` slices. f must be associative;
// the library assumes commutativity when picking reduction trees.
func OpFromFunc[T Scalar](name string, f func(a, b T) T) *Op {
	b := baseFor[T]()
	return &Op{name: name, user: true, byType: map[Datatype]kernel{
		Datatype(b): numCombiner(Datatype(b), f),
	}}
}

// TypedIsend starts a standard-mode non-blocking send of the whole slice —
// the engine behind mpj.Isend[T]. For raw-layout element types the device
// sends from buf's own memory (a large message leaves with no copy at
// all), so buf must stay untouched until the request completes; other
// element types are packed straight into the outgoing wire frame.
func TypedIsend[T Scalar](c *Comm, buf []T, dst, tag int) (*Request, error) {
	return typedIsendMode(c, buf, dst, tag, device.ModeStandard)
}

func typedIsendMode[T Scalar](c *Comm, buf []T, dst, tag int, mode device.Mode) (*Request, error) {
	w, err := c.sendEnvelope(dst, tag)
	if err != nil {
		return nil, err
	}
	b := baseFor[T]()
	var dr *device.Request
	if len(buf) > 0 && b.isRaw() {
		dr, err = c.dev.Isend(b.bytesOf(buf, 0, len(buf)), w, tag, c.pt2pt, mode)
	} else {
		dr, err = c.dev.IsendFill(len(buf)*b.size, func(p []byte) error {
			return b.packIntoSlice(p, buf, 0, len(buf))
		}, w, tag, c.pt2pt, mode)
	}
	if err != nil {
		return nil, err
	}
	return &Request{comm: c, dreq: dr}, nil
}

// TypedPut writes the whole slice into target's window at element
// displacement tdisp — the engine behind mpj.PutT. Raw-layout element
// types reach Win.Put's byte-level body straight from buf's memory, with
// no boxing into `any`; the others take Win.Put itself. An empty slice is
// a no-op, and every error is the one Win.Put reports.
func TypedPut[T Scalar](w *Win, buf []T, target, tdisp int) error {
	b := baseFor[T]()
	if !b.isRaw() {
		return w.Put(buf, 0, len(buf), Datatype(b), target, tdisp)
	}
	boff, _, ok, err := w.opSetup("put", Datatype(b), len(buf), target, tdisp)
	if !ok {
		return err
	}
	return w.putBytes(b.bytesOf(buf, 0, len(buf)), target, boff)
}

// TypedIrecv starts a non-blocking receive filling the whole slice — the
// engine behind mpj.Irecv[T]. For raw-layout element types the payload
// lands directly in buf (zero copy); otherwise it is decoded from a pooled
// staging buffer. src may be AnySource, tag may be AnyTag.
func TypedIrecv[T Scalar](c *Comm, buf []T, src, tag int) (*Request, error) {
	w, dtag, err := c.recvEnvelope(src, tag)
	if err != nil {
		return nil, err
	}
	b := baseFor[T]()
	if len(buf) > 0 && b.isRaw() {
		dr, err := c.dev.Irecv(b.bytesOf(buf, 0, len(buf)), w, dtag, c.pt2pt)
		if err != nil {
			return nil, err
		}
		return &Request{comm: c, dreq: dr, size: b.size}, nil
	}
	staging := wire.GetBuf(len(buf) * b.size)
	dr, err := c.dev.Irecv(staging, w, dtag, c.pt2pt)
	if err != nil {
		wire.PutBuf(staging)
		return nil, err
	}
	return &Request{comm: c, dreq: dr, fin: c.stagedRecvFinisher(staging, buf, 0, len(buf), Datatype(b))}, nil
}

// TypedSendrecv executes a typed send and a typed receive concurrently —
// the engine behind mpj.Sendrecv. The receive is posted before the send
// (the deadlock-safe pairwise ordering), both ride the boxing-free fast
// paths, and the returned status describes the receive. If the send fails,
// the already-posted receive is cancelled and reaped before returning, so
// no orphaned request can steal a later matching message.
func TypedSendrecv[S, R Scalar](c *Comm, sbuf []S, dst, stag int, rbuf []R, src, rtag int) (*Status, error) {
	rr, err := TypedIrecv(c, rbuf, src, rtag)
	if err != nil {
		return nil, err
	}
	sr, err := TypedIsend(c, sbuf, dst, stag)
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

// TypedSend performs a blocking standard-mode send of the whole slice. A
// raw-layout slice goes to the device from its own memory with no request
// outliving the call (see Comm.sendWindow); other element types wait on
// TypedIsend's request.
func TypedSend[T Scalar](c *Comm, buf []T, dst, tag int) error {
	if b := baseFor[T](); len(buf) > 0 && b.isRaw() {
		return c.sendWindow(b.bytesOf(buf, 0, len(buf)), dst, tag, device.ModeStandard)
	}
	r, err := TypedIsend(c, buf, dst, tag)
	if err != nil {
		return err
	}
	_, err = r.Wait()
	return err
}

// TypedRecv performs a blocking receive filling the whole slice. Like
// TypedSend, a raw-layout slice is the device's blocking path (see
// Comm.recvWindow), whose only allocation is the returned Status.
func TypedRecv[T Scalar](c *Comm, buf []T, src, tag int) (*Status, error) {
	if b := baseFor[T](); len(buf) > 0 && b.isRaw() {
		return c.recvWindow(b.bytesOf(buf, 0, len(buf)), b.size, src, tag)
	}
	r, err := TypedIrecv(c, buf, src, tag)
	if err != nil {
		return nil, err
	}
	return r.Wait()
}
