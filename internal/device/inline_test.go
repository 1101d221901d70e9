package device_test

// The device over meshes that hand a frame over in the sender's goroutine
// (chan, and hyb-local: the hub's channel mesh): a send runs the
// destination's handler, and its answer runs the sender's, inside the
// send. These rows deadlock if the device sends while it holds its lock.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpj/internal/device"
)

// inlineFlavors are the flavors of openFlavor whose frames between ranks
// are handed over in the sender's goroutine.
var inlineFlavors = []string{"chan", "hyb-local"}

// inlineRdv is a payload above the default eager limit.
const inlineRdv = 64 << 10

// inlineRun runs body once per rank, concurrently, and fails the test on
// the first error or when the ranks have not finished within 30 s.
func inlineRun(t *testing.T, np int, body func(rank int) error) {
	t.Helper()
	errs := make(chan error, np)
	for r := 0; r < np; r++ {
		go func() { errs <- body(r) }()
	}
	deadline := time.After(30 * time.Second)
	for r := 0; r < np; r++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("ranks did not finish within 30s")
		}
	}
}

// TestChanInlineCrossedRendezvous: two ranks each Isend a rendezvous
// payload to the other and Irecv at once, round after round, so that both
// answer with a CTS at the same time — each inside the other's send.
func TestChanInlineCrossedRendezvous(t *testing.T) {
	const rounds = 1000
	for _, flavor := range inlineFlavors {
		t.Run(flavor, func(t *testing.T) {
			ds := openFlavor(t, flavor, 2, nil)
			inlineRun(t, 2, func(rank int) error {
				d, peer := ds[rank], 1-rank
				out, want, in := pattern(inlineRdv, byte(rank)), pattern(inlineRdv, byte(peer)), make([]byte, inlineRdv)
				for i := 0; i < rounds; i++ {
					sr, err := d.Isend(out, peer, i, 0, device.ModeStandard)
					if err != nil {
						return err
					}
					rr, err := d.Irecv(in, peer, i, 0)
					if err != nil {
						return err
					}
					if _, err := sr.Wait(); err != nil {
						return fmt.Errorf("rank %d round %d send: %w", rank, i, err)
					}
					if _, err := rr.Wait(); err != nil {
						return fmt.Errorf("rank %d round %d receive: %w", rank, i, err)
					}
					if !bytes.Equal(in, want) {
						return fmt.Errorf("rank %d round %d: payload differs", rank, i)
					}
					clear(in)
				}
				return nil
			})
			for r, d := range ds {
				if n := d.Stats().CTSSent.Load(); n != rounds {
					t.Errorf("rank %d sent %d CTS, want %d", r, n, rounds)
				}
			}
		})
	}
}

// TestChanInlineSelfRendezvous: a rank's blocking rendezvous Send to
// itself completes with its receive already posted, and a rendezvous sent
// to itself unmatched lands in the blocking Recv posted after it. A TCP
// endpoint hands its own rank's frames over inline too.
func TestChanInlineSelfRendezvous(t *testing.T) {
	for _, flavor := range append(inlineFlavors, "tcp") {
		t.Run(flavor, func(t *testing.T) {
			d := openFlavor(t, flavor, 2, nil)[1]
			inlineRun(t, 1, func(int) error {
				msg, got := pattern(inlineRdv, 7), make([]byte, inlineRdv)
				rr, err := d.Irecv(got, 1, 1, 0)
				if err != nil {
					return err
				}
				if err := d.Send(msg, 1, 1, 0, device.ModeStandard, (*device.Request).Wait); err != nil {
					return fmt.Errorf("send to a posted receive: %w", err)
				}
				if st, err := rr.Wait(); err != nil || st.Count != inlineRdv || !bytes.Equal(got, msg) {
					return fmt.Errorf("posted receive: %+v, %v", st, err)
				}
				clear(got)
				sr, err := d.Isend(msg, 1, 2, 0, device.ModeStandard)
				if err != nil {
					return err
				}
				if st, err := d.Recv(got, 1, 2, 0, (*device.Request).Wait); err != nil || st.Count != inlineRdv || !bytes.Equal(got, msg) {
					return fmt.Errorf("receive of an unexpected message: %+v, %v", st, err)
				}
				_, err = sr.Wait()
				return err
			})
			if n := d.Stats().Unexpected.Load(); n != 1 {
				t.Errorf("%d messages arrived unexpected, want 1", n)
			}
		})
	}
}

// TestChanInlineCancelRace: the receiver matches a rendezvous send while
// its sender cancels it. Every send ends exactly one way: cancelled, and
// the receive never gets it, or delivered to the receive.
func TestChanInlineCancelRace(t *testing.T) {
	const iters = 500
	for _, flavor := range inlineFlavors {
		t.Run(flavor, func(t *testing.T) {
			ds := openFlavor(t, flavor, 2, nil)
			var cancelled, delivered int
			inlineRun(t, 1, func(int) error {
				msg, got := pattern(inlineRdv, 3), make([]byte, inlineRdv)
				for i := 0; i < iters; i++ {
					sr, err := ds[0].Isend(msg, 1, i, 0, device.ModeStandard)
					if err != nil {
						return err
					}
					var rr *device.Request
					var wg sync.WaitGroup
					wg.Add(2)
					go func() { defer wg.Done(); rr, err = ds[1].Irecv(got, 0, i, 0) }()
					go func() { defer wg.Done(); _ = sr.Cancel() }()
					wg.Wait()
					if err != nil {
						return err
					}
					sst, err := sr.Wait()
					if err != nil {
						return fmt.Errorf("iteration %d: send: %w", i, err)
					}
					if sst.Cancelled {
						// The cancel won: the RTS left the receiver's queue
						// before any receive matched it.
						if err := rr.Cancel(); err != nil {
							return err
						}
					}
					rst, err := rr.Wait()
					switch {
					case err != nil:
						return fmt.Errorf("iteration %d: receive: %w", i, err)
					case sst.Cancelled && !rst.Cancelled:
						return fmt.Errorf("iteration %d: the send was cancelled and delivered (%+v)", i, rst)
					case !sst.Cancelled && (rst.Cancelled || !bytes.Equal(got, msg)):
						return fmt.Errorf("iteration %d: the send was neither cancelled nor delivered (%+v)", i, rst)
					case sst.Cancelled:
						cancelled++
					default:
						delivered++
					}
					clear(got)
				}
				return nil
			})
			t.Logf("%d cancelled, %d delivered", cancelled, delivered)
		})
	}
}
