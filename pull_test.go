package mpj

import (
	"fmt"
	"strings"
	"syscall"
	"testing"
)

// registerPullApps registers the co-host rendezvous applications; called
// from registerTestApps so slave processes (which re-enter TestMain) can
// resolve them too.
func registerPullApps() {
	Register("pull", pullApp(false))
	Register("pull-refused", pullApp(true))
}

// pullApp moves 1 MiB messages between process slaves of one host — a
// ping-pong between ranks 0 and 1, then an Allreduce over everybody — and
// checks the bytes and the road they took: out of the sender's memory by
// the receiver's own copy, no DATA frame on any socket, while no peer
// counts as sharing an address space (device/pull.go). With refuse, every
// rank's pulls fail the way a system without ptrace access fails them, and
// the same bytes must arrive over the sockets.
func pullApp(refuse bool) App {
	const (
		n     = 1 << 20
		trips = 4
	)
	return func(w *Comm) error {
		dev, me, np := w.Device(), w.Rank(), w.Size()
		if refuse {
			dev.SetPullFault(func(int) error { return syscall.EPERM })
		}
		for r := 0; r < np; r++ {
			if r != me && dev.LocalPeer(r) {
				return fmt.Errorf("rank %d: rank %d counts as sharing this address space", me, r)
			}
		}
		// Under Yama's default scope only an ancestor may read a process;
		// the slaves are siblings. Let anybody of this uid read this one,
		// and tell the peers it is done before the first rendezvous.
		allowPeersToRead()
		if err := w.Barrier(); err != nil {
			return err
		}

		if me < 2 {
			msg, got := make([]byte, n), make([]byte, n)
			for trip := 0; trip < trips; trip++ {
				for i := range msg {
					msg[i] = byte(i*7 + trip + me)
				}
				if me == 0 {
					if err := Send(w, msg, 1, trip); err != nil {
						return err
					}
				}
				if _, err := Recv(w, got, 1-me, trip); err != nil {
					return err
				}
				if me == 1 {
					if err := Send(w, msg, 0, trip); err != nil {
						return err
					}
				}
				for i := range got {
					if got[i] != byte(i*7+trip+1-me) {
						return fmt.Errorf("rank %d trip %d: byte %d is %d", me, trip, i, got[i])
					}
				}
			}
		}

		in, out := make([]float64, n/8), make([]float64, n/8)
		for i := range in {
			in[i] = float64((me + 1) * (i + 1))
		}
		if err := Allreduce(w, in, out, Sum[float64]()); err != nil {
			return err
		}
		for i := range out {
			if want := float64(np * (np + 1) / 2 * (i + 1)); out[i] != want {
				return fmt.Errorf("rank %d: allreduce[%d] = %v, want %v", me, i, out[i], want)
			}
		}

		st := dev.Stats()
		pulled, refused, data := st.Pulled.Load(), st.PullRefused.Load(), st.DataSent.Load()
		switch paths := dev.PeerPaths(); {
		case refuse:
			if pulled != 0 || data == 0 {
				return fmt.Errorf("rank %d, pulls refused: %d pulled, %d DATA sent; want 0 and > 0", me, pulled, data)
			}
		case strings.Contains(strings.Join(paths, ","), "wire: "):
			// A sandbox whose seccomp filter or uid set-up denies the call:
			// the bytes above arrived by the fallback, which is the contract.
			fmt.Printf("rank %d: this system refuses pulls (%v); fallback verified\n", me, paths)
		case pulled == 0 || refused != 0 || data != 0:
			return fmt.Errorf("rank %d: %d pulled, %d refused, %d DATA sent (peers %v); want > 0, 0, 0", me, pulled, refused, data, paths)
		}
		return nil
	}
}

// TestCoHostRendezvousIsPulled runs pullApp on real slave processes, one
// per rank, which is the only thing a daemon starts.
func TestCoHostRendezvousIsPulled(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	for _, np := range []int{2, 3} {
		runProcJob(t, np, "pull")
		runProcJob(t, np, "pull-refused")
	}
}
