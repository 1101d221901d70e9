package device

// Poll before park: the waiting half of the co-host rings, and the
// yield-poll of an oversubscribed host.
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
//
// An oversubscribed host (yieldGate: more ranks than the base has CPUs)
// gets the other side. There a waiter at a host-area barrier waits for a
// peer process that is most likely descheduled, on a CPU whose idle halt
// costs a wake of its own; parking asks the area's helper to futex-sleep,
// and the arrival comes back through a futex wake, the helper goroutine
// and Wake. So while the look says one of its walks waits (Look.Waiting),
// WaitProgress yield-polls it first: look, runtime.Gosched, then an OS
// yield (transport.Yield), until yieldBudget passes without the look
// seeing the state move. The waiter stays runnable, hands its CPU to the
// peers that still have to arrive, and sees the last arrival at its next
// look. A wait for frames never yield-polls: on the one P such a process
// runs, the socket readers and the network poller do not run while a
// goroutine spins, however often it yields.

import (
	"runtime"
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

// yieldBudget bounds how long one wait yield-polls a host-area barrier
// before it asks the area's helper to sleep. Priced on a 2-CPU host with
// four slave processes and a 1 MiB Allreduce (ARCHITECTURE.md, "The
// yield-poll"): 50 and 100 µs gained less, 1 ms nothing more.
const yieldBudget = 200 * time.Microsecond

// ringOption is the test seam that plans rings where the gate would not
// (a test's goroutine ranks) and may refuse their set-up (see
// export_test.go).
type ringOption struct{ fault func(peer int) error }

func withRings(fault func(peer int) error) Option {
	return func(d *Device) { d.ringOpt = &ringOption{fault} }
}

// planRings hands the transport its ring plan — every rank that is another
// process on this host — when the gate is open, and with it turns on
// polling before parking; on an oversubscribed host it turns on the
// yield-poll instead. Called by Open, before the transport starts.
func (d *Device) planRings() {
	if d.peers.Pids == nil {
		return
	}
	if locs := d.peers.Locs; yieldGate(d.peers.Pids, locs, locs[d.rank]) {
		d.yields.Store(true)
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
// end passes, and reports whether it moved — or, with a look, whether the
// look (SetLook) made between polls found the wait over; a move of the
// look's state that does not end it gives the spin its budget afresh. Each
// Poll yields once before it looks: a doorbell this rank's own send queued
// must reach the socket before the poll takes the processor away from the
// writer. Called without d.mu: the frames it delivers run the handler.
func (d *Device) spin(gen uint64, end time.Time, l *Look) bool {
	budget := time.Until(end)
	for d.gen.Load() == gen {
		left := time.Until(end)
		if l != nil {
			over, moved := l.Over(false)
			if over {
				return true
			}
			if moved {
				end, left = time.Now().Add(budget), budget
			}
			left = min(left, pollBudget/10) // a look between polls
		}
		if left <= 0 || !d.t.Poll(left) && l == nil {
			return d.gen.Load() != gen
		}
	}
	return true
}

// yieldPoll looks at l until it finds the wait over, the wake generation
// moves past gen or budget passes since the look last saw its state move,
// handing this goroutine's processor and its thread's CPU away between
// looks, and reports whether the wait is over. Called without d.mu.
func (d *Device) yieldPoll(gen uint64, l *Look, budget time.Duration) bool {
	end := time.Now().Add(budget)
	for d.gen.Load() == gen {
		over, moved := l.Over(false)
		if over {
			return true
		}
		if now := time.Now(); moved {
			end = now.Add(budget)
		} else if now.After(end) {
			return false
		}
		runtime.Gosched()
		transport.Yield()
	}
	return true
}

// Look is state above the device whose change no frame reports (core's
// host areas), which a wait looks at beside the wake generation.
type Look struct {
	// Over reports whether the wait on the state is over, and whether the
	// state moved since the last look without ending it. A waiter that
	// spins or yield-polls calls Over(false) between polls, stops when it
	// reports the wait over and gives itself its budget afresh when the
	// state moved; one about to park calls Over(true), which arms whatever
	// will call Wake, and parks only if the wait is not over.
	Over func(park bool) (over, moved bool)
	// Waiting reports whether a wait on the state is in progress — only
	// then does a waiter yield-poll — at the cost of an atomic load.
	Waiting func() bool
}

// SetLook installs l as what a wait looks at beside the wake generation.
func (d *Device) SetLook(l Look) { d.look.Store(&l) }

// ForceYieldPoll turns the yield-poll on where yieldGate does not: the
// seam through which tests run it on goroutine ranks or on a host with a
// CPU per rank. Call it before the waits it should reach.
func (d *Device) ForceYieldPoll() { d.yields.Store(true) }

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
