// Package fault is the deterministic fault-injection harness for MPJ
// jobs: a transport wrapper that can kill a rank at a chosen schedule
// round, silently drop a rank's outbound frames, or delay its sends —
// the machinery behind the chaos tests and the MPJ_FAULT environment
// knob.
//
// A Domain owns the injection state of one job. Each rank's transport is
// wrapped (Wrap) before the device opens it; the wrappers consult the
// shared Domain on every frame. Killing a rank then has three parts,
// in order:
//
//  1. the Domain marks the victim killed, so every wrapper drops frames
//     to and from it from now on (survivors' sends to the victim vanish
//     instead of erroring on its closed transport or piling up in an
//     in-process inbox);
//  2. the victim's inner transport aborts, abruptly, as a crashed
//     process's would;
//  3. every endpoint's error handler — the seam the device installs its
//     failure notification on — is told the victim failed, including the
//     victim's own (a dead process observes its own death as total local
//     failure).
//
// Step 3 makes the simulated detector complete and accurate by
// construction: every rank learns of exactly the deaths that happened,
// which is the assumption the fault-tolerant agreement protocol leans on
// (see internal/device/ft.go). The round trigger (KillAt) rides the
// device's round hook, which fires at every schedule round boundary of
// every collective — the injection point is deterministic given a fixed
// schedule, which is what makes the chaos tests reproducible.
package fault

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/device"
	"mpj/internal/transport"
	"mpj/internal/wire"
)

// Domain is the shared fault-injection state of one job: which ranks are
// killed or muted, and per-rank send delays. One Domain serves all the
// job's wrapped endpoints.
type Domain struct {
	mu     sync.Mutex
	eps    map[int]*Endpoint
	devs   map[int]*device.Device
	killed map[int]bool
	muted  map[int]bool
	delay  map[int]time.Duration
}

// NewDomain creates an empty injection domain.
func NewDomain() *Domain {
	return &Domain{
		eps:    make(map[int]*Endpoint),
		devs:   make(map[int]*device.Device),
		killed: make(map[int]bool),
		muted:  make(map[int]bool),
		delay:  make(map[int]time.Duration),
	}
}

// Wrap interposes the domain between a rank's transport and its device.
// Call it on each rank's transport before device.Open.
func (d *Domain) Wrap(inner transport.Transport) *Endpoint {
	ep := &Endpoint{dom: d, inner: inner}
	d.mu.Lock()
	d.eps[inner.Rank()] = ep
	d.mu.Unlock()
	return ep
}

// Bind associates a rank's opened device with the domain, enabling the
// round-boundary triggers (KillAt) for that rank.
func (d *Domain) Bind(rank int, dev *device.Device) {
	d.mu.Lock()
	d.devs[rank] = dev
	d.mu.Unlock()
}

// Kill kills victim now: its frames stop flowing, its transport aborts,
// and every rank of the job — victim included — is notified of the
// failure. Idempotent.
func (d *Domain) Kill(victim int) {
	d.mu.Lock()
	if d.killed[victim] {
		d.mu.Unlock()
		return
	}
	d.killed[victim] = true
	eps := make([]*Endpoint, 0, len(d.eps))
	for _, ep := range d.eps {
		eps = append(eps, ep)
	}
	d.mu.Unlock()

	// Notify first: the victim's abort reports it again to co-located
	// endpoints, and the first cause recorded is the one the ranks keep.
	err := fmt.Errorf("fault: rank %d killed", victim)
	for _, ep := range eps {
		if h := ep.errHandler(); h != nil {
			h(victim, err)
		}
	}
	for _, ep := range eps {
		if ep.inner.Rank() == victim {
			ep.inner.Abort()
		}
	}
}

// Killed reports whether rank has been killed.
func (d *Domain) Killed(rank int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.killed[rank]
}

// KillAt arms a deterministic kill trigger: victim dies at the moment it
// is about to post the n-th schedule round it reaches (n counted from 0
// across every collective the rank runs, in program order). The victim's
// device must have been Bound first. n < 0 kills immediately.
func (d *Domain) KillAt(victim, n int) error {
	if n < 0 {
		d.Kill(victim)
		return nil
	}
	d.mu.Lock()
	dev := d.devs[victim]
	d.mu.Unlock()
	if dev == nil {
		return fmt.Errorf("fault: rank %d not bound to a device", victim)
	}
	var mu sync.Mutex
	count := 0
	dev.SetRoundHook(func(ctx, tag, round int) {
		mu.Lock()
		me := count
		count++
		mu.Unlock()
		if me == n {
			d.Kill(victim)
		}
	})
	return nil
}

// RefusePull makes every pull rank attempts — its copy of a rendezvous
// payload out of a co-host sender's memory — fail with err from now on, as
// a system that denies the call would. The rank's device must have been
// Bound first.
func (d *Domain) RefusePull(rank int, err error) error {
	d.mu.Lock()
	dev := d.devs[rank]
	d.mu.Unlock()
	if dev == nil {
		return fmt.Errorf("fault: rank %d not bound to a device", rank)
	}
	dev.SetPullFault(func(int) error { return err })
	return nil
}

// Mute silently discards rank's outbound frames from now on, without
// declaring it dead — a one-way partition. Peers keep running (and, in a
// leased job, eventually expire the rank's lease).
func (d *Domain) Mute(rank int) {
	d.mu.Lock()
	d.muted[rank] = true
	d.mu.Unlock()
}

// Delay makes every subsequent send of rank sleep for dur before
// delivery. The sleep is synchronous in Send, so per-destination FIFO
// order is preserved.
func (d *Domain) Delay(rank int, dur time.Duration) {
	d.mu.Lock()
	d.delay[rank] = dur
	d.mu.Unlock()
}

// sendFate decides what a send from src to dst does right now.
func (d *Domain) sendFate(src, dst int) (drop bool, sleep time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.killed[src] || d.killed[dst] || d.muted[src] {
		return true, 0
	}
	return false, d.delay[src]
}

// killedEnd returns the failure a transfer between src and dst dies of when
// either end has been killed, nil while both live.
func (d *Domain) killedEnd(src, dst int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range [2]int{src, dst} {
		if d.killed[r] {
			return fmt.Errorf("fault: rank %d killed", r)
		}
	}
	return nil
}

// dropInbound reports whether a frame from src arriving at dst must be
// discarded.
func (d *Domain) dropInbound(src, dst int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.killed[src] || d.killed[dst]
}

// Endpoint is one rank's wrapped transport. It satisfies
// transport.Transport and defers everything to the inner endpoint except
// the frames and notifications the Domain intercepts.
type Endpoint struct {
	dom   *Domain
	inner transport.Transport

	mu   sync.Mutex
	errh transport.ErrorHandler
}

var _ transport.Transport = (*Endpoint)(nil)

// Rank returns the inner endpoint's rank.
func (ep *Endpoint) Rank() int { return ep.inner.Rank() }

// Size returns the inner endpoint's job size.
func (ep *Endpoint) Size() int { return ep.inner.Size() }

// Peers is the inner transport's description rebuilt with no other rank
// in this address space: one-sided operations to a co-located peer would
// move bytes directly, around the frames the domain intercepts. The device
// name and the locality table stay, so reports and the topology-aware
// collectives see the job as it runs.
func (ep *Endpoint) Peers() transport.Peers {
	p := ep.inner.Peers()
	return transport.DescribePeers(p.Device, ep.inner.Rank(), p.Locs, nil)
}

// Rings forwards the ring plan to the inner transport, and Poll forwards
// the polling, so a job under fault injection keeps its co-host rings.
// Frames stay interceptable: Send reaches the inner Send, and frames out
// of a ring reach the filtered handler.
func (ep *Endpoint) Rings(plan transport.RingPlan) { ep.inner.Rings(plan) }

// Poll forwards to the inner transport.
func (ep *Endpoint) Poll(budget time.Duration) bool { return ep.inner.Poll(budget) }

// StreamOpen, Stream and Unstream forward to the inner transport: a
// stream's bytes are no frame, and the RTS that announces one goes
// through Send.
func (ep *Endpoint) StreamOpen(dst int) (uint32, transport.StreamMiss) {
	return ep.inner.StreamOpen(dst)
}

// Stream forwards to the inner transport.
func (ep *Endpoint) Stream(dst int, id uint32, payload []byte, hook func(off int) bool) bool {
	return ep.inner.Stream(dst, id, payload, hook)
}

// Unstream forwards to the inner transport.
func (ep *Endpoint) Unstream(src int, id uint32, total int, dst []byte, quit *atomic.Bool) (int, error) {
	return ep.inner.Unstream(src, id, total, dst, quit)
}

// Send forwards the frame unless the domain says otherwise: frames to or
// from killed ranks (and from muted ranks) are swallowed — returned to
// the frame pool, never delivered and never an error, exactly as if they
// had been written to a wire nobody reads anymore.
func (ep *Endpoint) Send(dst int, frame []byte) error {
	drop, sleep := ep.dom.sendFate(ep.inner.Rank(), dst)
	if drop {
		wire.PutBuf(frame)
		return nil
	}
	if sleep > 0 {
		time.Sleep(sleep)
	}
	return ep.inner.Send(dst, frame)
}

// SendData forwards a by-reference payload under the same rules as Send,
// deciding after the injected delay, so a kill that lands while the send
// is being held back still catches it. The swallowed payload of a muted
// rank completes as written — it went onto a wire nobody reads — while one
// to or from a killed rank completes with the kill as its error, as a
// write to a crashed peer's socket does.
func (ep *Endpoint) SendData(dst int, h wire.Header, payload []byte, done func(error)) error {
	src := ep.inner.Rank()
	if _, sleep := ep.dom.sendFate(src, dst); sleep > 0 {
		time.Sleep(sleep)
	}
	if drop, _ := ep.dom.sendFate(src, dst); drop {
		done(ep.dom.killedEnd(src, dst))
		return nil
	}
	return ep.inner.SendData(dst, h, payload, done)
}

// SetLander installs the device's landing hook behind the same filter as
// SetHandler: payloads from (or at) killed ranks find nobody waiting.
func (ep *Endpoint) SetLander(l transport.Lander) {
	self := ep.inner.Rank()
	ep.inner.SetLander(func(src int, h wire.Header) ([]byte, func(error), error) {
		if ep.dom.dropInbound(src, self) {
			return nil, nil, nil
		}
		return l(src, h)
	})
}

// SetHandler installs the device's frame handler, filtered: frames from
// (or at) killed ranks are discarded so a victim's in-flight traffic
// cannot resurrect it.
func (ep *Endpoint) SetHandler(h transport.Handler) {
	self := ep.inner.Rank()
	ep.inner.SetHandler(func(src int, frame []byte) {
		if ep.dom.dropInbound(src, self) {
			wire.PutBuf(frame)
			return
		}
		h(src, frame)
	})
}

// SetErrorHandler captures the device's failure handler; the domain
// invokes it on Kill, and raw transport failures keep flowing through it
// too.
func (ep *Endpoint) SetErrorHandler(h transport.ErrorHandler) {
	ep.mu.Lock()
	ep.errh = h
	ep.mu.Unlock()
	ep.inner.SetErrorHandler(h)
}

// errHandler returns the captured failure handler.
func (ep *Endpoint) errHandler() transport.ErrorHandler {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.errh
}

// Start starts the inner endpoint.
func (ep *Endpoint) Start() error { return ep.inner.Start() }

// Drain drains the inner endpoint.
func (ep *Endpoint) Drain() { ep.inner.Drain() }

// Close closes the inner endpoint.
func (ep *Endpoint) Close() error { return ep.inner.Close() }

// Abort aborts the inner endpoint.
func (ep *Endpoint) Abort() { ep.inner.Abort() }

// Spec is one parsed MPJ_FAULT directive.
type Spec struct {
	Action string        // "kill", "mute" or "delay"
	Rank   int           // target rank
	Round  int           // kill: round trigger (-1: immediately)
	Dur    time.Duration // delay: per-send delay
}

// ParseSpec parses the MPJ_FAULT environment syntax:
//
//	kill:RANK          kill RANK before its first schedule round
//	kill:RANK@ROUND    kill RANK as it reaches schedule round ROUND
//	mute:RANK          silently drop RANK's outbound frames
//	delay:RANK@DUR     delay RANK's sends by DUR (e.g. 5ms)
//
// An empty string parses to nil (no fault).
func ParseSpec(s string) (*Spec, error) {
	if s == "" {
		return nil, nil
	}
	action, rest, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("fault: malformed spec %q (want ACTION:RANK[@ARG])", s)
	}
	rankStr, arg, hasArg := strings.Cut(rest, "@")
	rank, err := strconv.Atoi(rankStr)
	if err != nil || rank < 0 {
		return nil, fmt.Errorf("fault: bad rank in spec %q", s)
	}
	sp := &Spec{Action: action, Rank: rank, Round: -1}
	switch action {
	case "kill":
		if hasArg {
			if sp.Round, err = strconv.Atoi(arg); err != nil || sp.Round < 0 {
				return nil, fmt.Errorf("fault: bad round in spec %q", s)
			}
		}
	case "mute":
		if hasArg {
			return nil, fmt.Errorf("fault: mute takes no argument in spec %q", s)
		}
	case "delay":
		if !hasArg {
			return nil, fmt.Errorf("fault: delay needs a duration in spec %q", s)
		}
		if sp.Dur, err = time.ParseDuration(arg); err != nil || sp.Dur < 0 {
			return nil, fmt.Errorf("fault: bad duration in spec %q", s)
		}
	default:
		return nil, fmt.Errorf("fault: unknown action %q in spec %q (want kill, mute or delay)", action, s)
	}
	return sp, nil
}

// Arm applies a parsed spec to the domain. Devices must be Bound first
// when the spec carries a round trigger.
func (d *Domain) Arm(sp *Spec) error {
	if sp == nil {
		return nil
	}
	switch sp.Action {
	case "kill":
		return d.KillAt(sp.Rank, sp.Round)
	case "mute":
		d.Mute(sp.Rank)
	case "delay":
		d.Delay(sp.Rank, sp.Dur)
	}
	return nil
}
