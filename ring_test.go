package mpj

import (
	"fmt"
	"runtime"
	"testing"
)

// registerRingApps registers the co-host ring application; called from
// registerTestApps so slave processes can resolve it too.
func registerRingApps() {
	Register("cohost-ring", ringApp)
}

// ringApp runs a 4 KiB ping-pong between ranks 0 and 1, a Barrier and a
// small Allreduce, checks every byte, and — where the host has a CPU per
// rank, which is when the gate opens — that frames rode a ring both ways
// (device/polls.go, transport/ring.go).
func ringApp(w *Comm) error {
	const n, trips = 4 << 10, 500
	dev, me, np := w.Device(), w.Rank(), w.Size()
	msg, got := make([]byte, n), make([]byte, n)
	for trip := 0; trip < trips && me < 2; trip++ {
		for i := range msg {
			msg[i] = byte(i*13 + trip + me)
		}
		if me == 0 {
			if err := Send(w, msg, 1, trip); err != nil {
				return err
			}
		}
		if _, err := Recv(w, got, 1-me, trip); err != nil {
			return err
		}
		for i := range got {
			if got[i] != byte(i*13+trip+1-me) {
				return fmt.Errorf("rank %d trip %d: byte %d is %d", me, trip, i, got[i])
			}
		}
		if me == 1 {
			if err := Send(w, msg, 0, trip); err != nil {
				return err
			}
		}
	}
	if err := w.Barrier(); err != nil {
		return err
	}
	in, out := make([]int64, 64), make([]int64, 64)
	for i := range in {
		in[i] = int64((me + 1) * (i + 1))
	}
	if err := Allreduce(w, in, out, Sum[int64]()); err != nil {
		return err
	}
	for i := range out {
		if want := int64(np * (np + 1) / 2 * (i + 1)); out[i] != want {
			return fmt.Errorf("rank %d: allreduce[%d] = %d, want %d", me, i, out[i], want)
		}
	}
	st, media := dev.Stats(), dev.FrameMedia()
	fmt.Printf("rank %d: %d ring frames, %d doorbells, media %v\n", me, st.RingFrames.Load(), st.Doorbells.Load(), media)
	if runtime.NumCPU() < np {
		return nil // an oversubscribed host: no rings, and nothing to assert
	}
	if st.RingFrames.Load() == 0 || media[1-me] != "ring" {
		return fmt.Errorf("rank %d: %d ring frames, media %v; want > 0 and a ring to rank %d", me, st.RingFrames.Load(), media, 1-me)
	}
	return nil
}

// TestCoHostFramesRideTheRing runs ringApp on two slave processes of this
// host, which is what a daemon starts.
func TestCoHostFramesRideTheRing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	// Slaves inherit the launcher's environment, where a GOMAXPROCS value
	// (the one-P CI step sets one) would leave their scheduler, and so the
	// gate, alone.
	t.Setenv("GOMAXPROCS", "")
	runProcJob(t, 2, "cohost-ring")
}
