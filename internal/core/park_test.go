package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpj/internal/device"
	"mpj/internal/transport"
)

// The park loop's checker. parkUntil reads the device's wake generation,
// looks, drives the sibling schedules and parks; procState.parkHook runs
// between the look and the park. Each row below arms the hook to inject
// one event exactly there, on the first park of one of the loop's four
// callers, and requires the caller to return with the event's outcome
// within a deadline. Nothing else happens on the job until rank 0 acts on
// the event, so a park that missed it would never wake: moving the
// generation read after the hook makes every row fail at its deadline.

// parkRig is a two-rank job on a channel mesh: rank 0 waits, and rank 1
// has no goroutine of its own — it acts only when a row's event does.
// Each rank has the world and a duplicate of it for the sibling schedule.
type parkRig struct {
	ds    []*device.Device
	world [2]*Comm
	dup   [2]*Comm
	stop  chan struct{} // closed at the end of the row
}

func openParkRig(t *testing.T) *parkRig {
	t.Helper()
	eps := transport.NewChanMesh(2)
	rig := &parkRig{stop: make(chan struct{})}
	for i, ep := range eps {
		d, err := device.Open(ep)
		if err != nil {
			t.Fatal(err)
		}
		rig.ds = append(rig.ds, d)
		if rig.world[i], err = NewWorld(d); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		close(rig.stop)
		for _, d := range rig.ds {
			_ = d.Close()
		}
	})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range rig.world {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rig.dup[i], errs[i] = rig.world[i].Dup()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return rig
}

// landed reports whether every request of the schedule's current round has
// completed at the device — what a later progress pass would reap.
func landed(r *CollRequest) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, dr := range r.pending {
		if !dr.Done() {
			return false
		}
	}
	return r.posted
}

// collFinished reports whether the schedule has completed, without driving
// it.
func collFinished(r *CollRequest) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// until polls cond every millisecond until it holds or the row ends.
func (rig *parkRig) until(cond func() bool) {
	for !cond() {
		select {
		case <-rig.stop:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// parkCaller is one caller of the park loop: setup posts what rank 0 will
// wait on and returns the wait, what rank 1 does to complete it, and
// whether that completion has reached rank 0's device.
type parkCaller struct {
	name  string
	setup func(rig *parkRig) (wait func() error, peer func(), arrived func() bool)
}

// p2pAwaited posts rank 0's receive of one int from rank 1.
func p2pAwaited(rig *parkRig) (rr *Request, peer func(), arrived func() bool) {
	rr = must(rig.world[0].Irecv(make([]int, 1), 0, 1, GoInt, 1, 5))
	peer = func() { _ = rig.world[1].Send([]int{7}, 0, 1, GoInt, 0, 5) }
	return rr, peer, rr.dreq.Done
}

// collAwaited starts rank 0's barrier on the world; rank 1 joins it.
func collAwaited(rig *parkRig) (own *CollRequest, peer func(), arrived func() bool) {
	own = must(rig.world[0].Ibarrier())
	peer = func() { _ = must(rig.world[1].Ibarrier()) }
	return own, peer, func() bool { return landed(own) }
}

var parkCallers = []parkCaller{
	{"waitDevice", func(rig *parkRig) (func() error, func(), func() bool) {
		rr, peer, arrived := p2pAwaited(rig)
		return func() error { _, err := rr.Wait(); return err }, peer, arrived
	}},
	{"WaitAny", func(rig *parkRig) (func() error, func(), func() bool) {
		rr, peer, arrived := p2pAwaited(rig)
		return func() error {
			idx, _, err := WaitAny([]*Request{rr})
			if err == nil && idx != 0 {
				return fmt.Errorf("WaitAny returned index %d", idx)
			}
			return err
		}, peer, arrived
	}},
	{"WaitAllRequests", func(rig *parkRig) (func() error, func(), func() bool) {
		own, peer, arrived := collAwaited(rig)
		return func() error {
			sts, err := WaitAllRequests([]AnyRequest{own})
			if err == nil && sts[0] == nil {
				return errors.New("WaitAllRequests returned no status")
			}
			return err
		}, peer, arrived
	}},
	{"CollRequest.Wait", func(rig *parkRig) (func() error, func(), func() bool) {
		own, peer, arrived := collAwaited(rig)
		return func() error { _, err := own.Wait(); return err }, peer, arrived
	}},
}

// parkEvent is one event injected between rank 0's look and its park; want
// is the error the wait must return (nil: success).
type parkEvent struct {
	name   string
	inject func(rig *parkRig, sib *CollRequest, peer func(), arrived func() bool)
	want   error
}

var parkEvents = []parkEvent{
	{"awaited completes", func(rig *parkRig, _ *CollRequest, peer func(), arrived func() bool) {
		peer()
		rig.until(arrived)
	}, nil},
	// Rank 1 completes the awaited operation only once rank 0 has finished
	// the sibling schedule, as a peer does that needs rank 0's next round:
	// the wait must keep driving siblings after a sibling's completion.
	{"sibling completes", func(rig *parkRig, sib *CollRequest, peer func(), _ func() bool) {
		_ = must(rig.dup[1].Ibarrier())
		rig.until(func() bool { return landed(sib) })
		go func() {
			rig.until(func() bool { return collFinished(sib) })
			select {
			case <-rig.stop:
			default:
				peer()
			}
		}()
	}, nil},
	{"member fails", func(rig *parkRig, _ *CollRequest, _ func(), _ func() bool) {
		rig.ds[0].NotifyRankFailed(1, errors.New("injected between look and park"))
	}, ErrRankFailed},
	{"communicator revoked", func(rig *parkRig, _ *CollRequest, _ func(), _ func() bool) {
		_ = rig.world[0].Revoke()
	}, ErrRevoked},
	{"device closed", func(rig *parkRig, _ *CollRequest, _ func(), _ func() bool) {
		_ = rig.ds[0].Close()
	}, device.ErrClosed},
}

// TestParkLoopLosesNoWakeup runs every park caller against every event
// injected between its look and its park.
func TestParkLoopLosesNoWakeup(t *testing.T) {
	const deadline = 5 * time.Second
	for _, caller := range parkCallers {
		for _, ev := range parkEvents {
			t.Run(caller.name+"/"+ev.name, func(t *testing.T) {
				rig := openParkRig(t)
				// The sibling stays in flight until rank 1 joins it, so the
				// wait runs the park loop.
				sib := must(rig.dup[0].Ibarrier())
				wait, peer, arrived := caller.setup(rig)
				proc := rig.world[0].proc
				proc.parkHook = func() {
					proc.parkHook = nil // the first park only
					ev.inject(rig, sib, peer, arrived)
				}
				returned := make(chan error, 1)
				go func() { returned <- wait() }()
				select {
				case err := <-returned:
					if ev.want == nil && err != nil {
						t.Fatalf("wait failed: %v", err)
					}
					if ev.want != nil && !errors.Is(err, ev.want) {
						t.Fatalf("wait returned %v, want %v", err, ev.want)
					}
				case <-time.After(deadline):
					t.Fatalf("wait parked past an event injected between its look and its park (%v)", deadline)
				}
			})
		}
	}
}
