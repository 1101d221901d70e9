package device

// Poll before park: the waiting half of the co-host rings.
//
// Between two slave processes of one host that runs at most a rank per
// CPU, the transport carries every frame through a shared-memory ring per
// direction (see internal/transport ring.go). A frame in a ring is
// delivered by whoever takes it out: the socket reader once the doorbell
// arrives, or — without any system call — the rank that waits for it. So
// the two park sites, WaitProgress and Request.Wait, yield once and then
// poll the rings for at most pollBudget before they park (a Request.Wait
// whose payload a co-host pull carries does not: see Wait), and a sender
// rings the doorbell only when no waiter polls. WaitProgress also makes the
// look above the device (SetLook: core's host areas) between its polls.
//
// Polling is a spin, which is safe only where it takes no CPU a peer
// needs: the gate is the rule procShare already applies, read from the
// bootstrap table — the host's rank count at most its CPU base. Goroutine
// ranks, oversubscribed hosts and remote peers get no ring, and their
// waiters never poll: one branch on d.polls is all they pay.

import (
	"time"

	"mpj/internal/transport"
)

// pollBudget bounds how long one wait polls the rings before it parks. The
// two ends of a stream wait longer in Request.Wait, for
// transport.StreamBudget — as long as a streaming sender waits for its
// receiver: a receive into a buffer above the eager limit, which a
// rendezvous payload fills, so that the RTS of a stream finds it awake
// and needs no doorbell, and a send that streamed, whose receiver answers
// once it has copied the area's last slots out. Neither sleeps mid-hop.
const pollBudget = 20 * time.Microsecond

// ringOption is the test seam that plans rings where the gate would not
// (a test's goroutine ranks) and may refuse their set-up (see
// export_test.go).
type ringOption struct{ fault func(peer int) error }

func withRings(fault func(peer int) error) Option {
	return func(d *Device) { d.ringOpt = &ringOption{fault} }
}

// planRings hands the transport its ring plan — every rank that is another
// process on this host — when the gate is open, and with it turns on
// polling before parking. Called by Open, before the transport starts.
func (d *Device) planRings() {
	if d.peers.Pids == nil {
		return
	}
	if locs := d.peers.Locs; d.ringOpt == nil && !ringGate(locs, locs[d.rank]) {
		return
	}
	d.media = make([]string, d.size)
	plan := transport.RingPlan{
		Pids:   d.peers.Pids,
		Frames: &d.stats.RingFrames,
		Bells:  &d.stats.Doorbells,
		Report: func(peer int, medium string) {
			d.mu.Lock()
			d.media[peer] = medium
			d.mu.Unlock()
		},
	}
	if d.ringOpt != nil {
		plan.Fault = d.ringOpt.fault
	}
	d.t.Rings(plan)
	d.polls = true
}

// spin polls the transport until the wake generation moves past gen or
// end passes, and reports whether it moved — or, with look, whether the
// look (SetLook) made between polls saw its state move. Each Poll yields
// once before it looks: a doorbell this rank's own send queued must reach
// the socket before the poll takes the processor away from the writer.
// Called without d.mu: the frames it delivers run the handler.
func (d *Device) spin(gen uint64, end time.Time, look bool) bool {
	look = look && d.look.Load() != nil
	for d.gen.Load() == gen && !(look && d.looked(false)) {
		left := time.Until(end)
		if look {
			left = min(left, pollBudget/10) // a look between polls
		}
		if left <= 0 || !d.t.Poll(left) && !look {
			return d.gen.Load() != gen
		}
	}
	return true
}

// SetLook installs f as what a wait looks at beside the wake generation:
// state above the device whose change no frame reports (core's host areas).
// A spinning waiter calls f(false) between polls, and stops when it reports
// a change; one about to park calls f(true), which arms whatever will call
// Wake, and parks only if it reports no change.
func (d *Device) SetLook(f func(park bool) bool) { d.look.Store(&f) }

// looked makes the look (SetLook), if there is one.
func (d *Device) looked(park bool) bool {
	f := d.look.Load()
	return f != nil && (*f)(park)
}

// FrameMedia reports, per world rank, how frames to that rank travel:
// "memory" (it shares this address space), "ring" (another process on
// this host, through shared memory), "socket", or "socket: <why the ring
// was refused>". The expvar status serves it beside PeerPaths.
func (d *Device) FrameMedia() []string {
	out := make([]string, d.size)
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range out {
		switch {
		case d.LocalPeer(i):
			out[i] = "memory"
		case d.media != nil && d.media[i] != "":
			out[i] = d.media[i]
		default:
			out[i] = "socket"
		}
	}
	return out
}
