// One-sided (RMA) support at the device boundary.
//
// RMA frames (wire.Kind.IsRMA) never enter the matching engine: there is
// no user-posted receive on the target side. Instead the window layer
// (internal/core/win.go) installs a single dispatcher per device with
// SetRMAHandler, and the device invokes it synchronously from its frame
// handler. The dispatcher must therefore never block on communication, nor
// send holding a lock a handler path takes — the window layer serializes
// on the window mutex and collects outbound replies to send after
// releasing it.
//
// Outbound RMA traffic goes through RMASend/RMASendFill rather than Isend:
// one-sided frames carry no envelope to match and must not perturb the
// eager/rendezvous statistics or per-path sequence numbers used by the
// two-sided diagnostics.
package device

import (
	"mpj/internal/transport"
	"mpj/internal/wire"
)

// LocalPeer reports whether world rank dst shares this process's address
// space (chan: every rank; tcp: none but itself, as the transport's
// description says), meaning one-sided operations can move bytes directly
// instead of through the wire. The device's own rank is always local.
func (d *Device) LocalPeer(dst int) bool {
	return dst == d.rank || (dst >= 0 && dst < len(d.peers.Local) && d.peers.Local[dst])
}

// SetRMAHandler installs the dispatcher for inbound one-sided frames. f
// runs synchronously in the frame handler, outside the device lock; the
// payload slice aliases the frame and is recycled when f
// returns, so f must copy anything it keeps. The header comes by value, so
// the frame handler's copy of it stays on its stack. A nil f drops RMA
// frames.
func (d *Device) SetRMAHandler(f func(src int, h wire.Header, payload []byte)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onRMA = f
}

// AddFailureWatcher registers f to run (outside the device lock) after
// every newly detected rank failure, in addition to the Open-time failure
// handler. The window layer uses it to release the locks a dead origin
// held or queued at this target; parked waiters need no watcher, the
// failure already moved the wake generation.
func (d *Device) AddFailureWatcher(f func(rank int, err error)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failWatchers = append(d.failWatchers, f)
}

// RMASend sends one one-sided frame to world rank dst. The header fields
// are reused per kind (see the wire.Kind doc comments): seq carries byte
// offsets or fence generations, id ties Get requests to their replies,
// tag carries lock modes, operation ids or requested lengths. payload may
// be nil for control frames.
func (d *Device) RMASend(dst int, kind wire.Kind, ctx, tag int, seq, id uint64, payload []byte) error {
	fill := func(p []byte) error { copy(p, payload); return nil }
	if payload == nil {
		fill = nil
	}
	return d.RMASendFill(len(payload), fill, dst, kind, ctx, tag, seq, id)
}

// RMASendFill is RMASend with the payload produced directly into the
// pooled frame by fill — the zero-staging path for Put/Accumulate of
// raw-layout slices (one pack, no intermediate buffer).
func (d *Device) RMASendFill(n int, fill func(payload []byte) error, dst int, kind wire.Kind, ctx, tag int, seq, id uint64) error {
	if dst < 0 || dst >= d.size {
		return transport.ErrBadRank
	}
	d.mu.Lock()
	if err := d.usable(); err != nil {
		d.mu.Unlock()
		return err
	}
	if err := d.deadPeerLocked(dst); err != nil {
		d.mu.Unlock()
		return err
	}
	d.mu.Unlock()

	frame := wire.GetBuf(wire.HeaderLen + n)
	if fill != nil {
		if err := fill(frame[wire.HeaderLen:]); err != nil {
			wire.PutBuf(frame)
			return err
		}
	}
	h := wire.Header{
		Kind:    kind,
		Src:     int32(d.rank),
		Tag:     int32(tag),
		Context: int32(ctx),
		Seq:     seq,
		MsgID:   id,
		Len:     int32(n),
	}
	_ = h.Encode(frame) // cannot fail: frame is long enough by construction
	return d.t.Send(dst, frame)
}
