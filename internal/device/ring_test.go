package device_test

import (
	"bytes"
	"errors"
	"syscall"
	"testing"
	"time"

	"mpj/internal/device"
	"mpj/internal/fault"
	"mpj/internal/transport"
)

// TestRingFlavorsCarryFrames: on tcp-ring every eager frame of a ping-pong
// goes through the rings, both ways, and both ranks say so — also behind
// the fault injector, which forwards the plan and the polls; on
// tcp-ring-refused none does, and the status says why.
func TestRingFlavorsCarryFrames(t *testing.T) {
	const n, trips = 4 << 10, 200
	for name, tc := range map[string]struct {
		flavor, want string
		wrap         func(transport.Transport) transport.Transport
	}{
		"tcp-ring":         {"tcp-ring", "ring", nil},
		"tcp-ring/fault":   {"tcp-ring", "ring", faulty(fault.NewDomain(), nil)},
		"tcp-ring-refused": {"tcp-ring-refused", "socket: " + syscall.EPERM.Error(), nil},
	} {
		t.Run(name, func(t *testing.T) {
			ds := openFlavor(t, tc.flavor, 2, tc.wrap)
			msg, got := pattern(n, 3), make([]byte, n)
			done := make(chan error, 1)
			go func() {
				buf := make([]byte, n)
				for i := 0; i < trips; i++ {
					if _, err := ds[1].Recv(buf, 0, 1, 0, (*device.Request).Wait); err != nil {
						done <- err
						return
					}
					if err := ds[1].Send(buf, 0, 1, 0, device.ModeStandard, (*device.Request).Wait); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			for i := 0; i < trips; i++ {
				if err := ds[0].Send(msg, 1, 1, 0, device.ModeStandard, (*device.Request).Wait); err != nil {
					t.Fatal(err)
				}
				if _, err := ds[0].Recv(got, 1, 1, 0, (*device.Request).Wait); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, msg) {
					t.Fatalf("trip %d: echo corrupted", i)
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			for r, d := range ds {
				st := d.Stats()
				t.Logf("rank %d: %d ring frames, %d doorbells, media %v", r, st.RingFrames.Load(), st.Doorbells.Load(), d.FrameMedia())
				if m := d.FrameMedia()[1-r]; m != tc.want {
					t.Errorf("rank %d says frames to rank %d take %q, want %q", r, 1-r, m, tc.want)
				}
				if ringed := st.RingFrames.Load() > 0; ringed != (tc.want == "ring") {
					t.Errorf("rank %d sent %d frames through a ring", r, st.RingFrames.Load())
				}
			}
		})
	}
}

// TestRingPeerKilledWhilePolling: a rank waiting on a receive — polling its
// ring, or parked after the budget — learns of its peer's death from the
// socket's end and completes with ErrRankFailed.
func TestRingPeerKilledWhilePolling(t *testing.T) {
	for _, after := range []time.Duration{0, 5 * time.Microsecond, 5 * time.Millisecond} {
		t.Run(after.String(), func(t *testing.T) {
			ds := openFlavor(t, "tcp-ring", 2, nil)
			until(t, "the rings are live", func() bool { return ds[1].FrameMedia()[0] == "ring" })
			rr := must(ds[1].Irecv(make([]byte, 64), 0, 1, 0))
			ended := make(chan error, 1)
			go func() {
				_, err := rr.Wait()
				ended <- err
			}()
			time.Sleep(after)
			ds[0].Abort()
			select {
			case err := <-ended:
				if !errors.Is(err, device.ErrRankFailed) {
					t.Errorf("receive ended with %v, want ErrRankFailed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the receive outlived its sender by 5 s")
			}
		})
	}
}
