package mpj

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"mpj/internal/core"
)

// pullModes are the co-host rendezvous applications: how rank 0 and 1
// send their ping-pong, and whether the system lets a rank read a peer.
var pullModes = map[string]struct {
	isend  bool // Isend, a sleep, Wait: the receiver pulls while the sender sleeps
	refuse bool // every pull refused, the way a system without ptrace access refuses it
	stall  bool // every stream stalls past the receiver's patience in mid-stream
}{
	"pull":            {},
	"pull-refused":    {refuse: true},
	"pull-isend":      {isend: true},
	"stream-refused":  {refuse: true},
	"stream-takeover": {refuse: true, stall: true},
}

// registerPullApps registers the co-host rendezvous applications; called
// from registerTestApps so slave processes (which re-enter TestMain) can
// resolve them too.
func registerPullApps() {
	for name := range pullModes {
		Register(name, pullApp(name))
	}
}

// pullApp moves 1 MiB messages between process slaves of one host — a
// ping-pong between ranks 0 and 1, then an Allreduce over everybody on the
// forced large family — and
// checks every byte and the road they took (device/pull.go): a blocking
// Send to a peer whose ring is live streams through shared memory while
// both ranks copy, an Isend is pulled out of the sender's memory by the
// receiver's own copy, and no DATA frame crosses a socket, while no peer
// counts as sharing an address space. Where the system refuses pulls the
// streams still stream and the rest rides the sockets; a stream that
// stalls is taken over, and under a refusal the receiver asks for DATA.
func pullApp(mode string) App {
	const (
		n     = 1 << 20
		trips = 40
	)
	m := pullModes[mode]
	return func(w *Comm) error {
		dev, me, np := w.Device(), w.Rank(), w.Size()
		if m.refuse {
			dev.SetPullFault(func(int) error { return syscall.EPERM })
		}
		if m.stall {
			dev.SetStreamHook(func(dst, off int) bool {
				if off == 256<<10 { // the area's second round: the receiver is copying
					time.Sleep(2 * time.Millisecond)
				}
				return true
			})
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

		send := func(msg []byte, dst, tag int) error {
			if !m.isend {
				return Send(w, msg, dst, tag)
			}
			req, err := Isend(w, msg, dst, tag)
			if err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
			_, err = req.Wait()
			return err
		}
		if me < 2 {
			// Each rank's bytes, stamped with the trip in their first eight:
			// cheap to make and to check in full, so that neither rank
			// computes for long while the other waits, as in a ping-pong.
			msg, want, got := make([]byte, n), make([]byte, n), make([]byte, n)
			for i := range msg {
				msg[i], want[i] = byte(i*7+me), byte(i*7+1-me)
			}
			// The loop allocates nothing; collect now rather than in it, where
			// a collection holds a rank past StreamBudget and its stream is
			// taken over — correct, but not the steady state measured below.
			runtime.GC()
			for trip := 0; trip < trips; trip++ {
				binary.LittleEndian.PutUint64(msg, uint64(trip))
				binary.LittleEndian.PutUint64(want, uint64(trip))
				if me == 0 {
					if err := send(msg, 1, trip); err != nil {
						return err
					}
				}
				if _, err := Recv(w, got, 1-me, trip); err != nil {
					return err
				}
				if me == 1 {
					if err := send(msg, 0, trip); err != nil {
						return err
					}
				}
				if !bytes.Equal(got, want) {
					return fmt.Errorf("rank %d trip %d: payload corrupted", me, trip)
				}
			}
		}

		in, out := make([]float64, n/8), make([]float64, n/8)
		for i := range in {
			in[i] = float64((me + 1) * (i + 1))
		}
		// A forced family keeps its schedule, whose rendezvous payloads are
		// what this application counts; automatic selection would fold the
		// vector through the host area (core's hostarea.go).
		core.ForceCollAlg(w, core.CollAlgRing)
		if err := Allreduce(w, in, out, Sum[float64]()); err != nil {
			return err
		}
		for i := range out {
			if want := float64(np * (np + 1) / 2 * (i + 1)); out[i] != want {
				return fmt.Errorf("rank %d: allreduce[%d] = %v, want %v", me, i, out[i], want)
			}
		}

		st, paths := dev.Stats(), dev.PeerPaths()
		pulled, refused, data, landed, rts := st.Pulled.Load(), st.PullRefused.Load(), st.DataSent.Load(), st.DataRecv.Load(), st.RTSRecv.Load()
		streamed, takeovers := st.Streamed.Load(), st.StreamTakeovers.Load()
		// Why the peer's sends to this rank did not stream: its StreamOpen
		// claimed no area (no live ring, its last stream still held, this
		// rank not done with the last one), or the stream was taken over
		// at byte 0 here.
		misses := make([]int64, 3)
		if me < 2 {
			for i := range misses {
				misses[i] = st.StreamMisses[i+1].Load()
			}
			if err := Send(w, misses, 1-me, trips); err != nil {
				return err
			}
			if _, err := Recv(w, misses, 1-me, trips); err != nil {
				return err
			}
		}
		whyNot := fmt.Sprintf("the sender's StreamOpen claimed no area for %d (no live ring %d, streaming held %d, offDone behind %d), %d streams were taken over at byte 0",
			misses[0]+misses[1]+misses[2], misses[0], misses[1], misses[2], st.StreamsEmpty.Load())
		// Streams need a live ring to the ping-pong's peer: a host with a
		// CPU per rank and a scheduler the runtime sizes (see polls.go).
		rings := me < 2 && dev.FrameMedia()[1-me] == "ring"
		fmt.Printf("rank %d %s: %d pulled, %d streamed, %d taken over, %d refused, %d DATA sent, %d received; rings %v, paths %v; %s\n",
			me, mode, pulled, streamed, takeovers, refused, data, landed, rings, paths, whyNot)
		switch {
		case pulled+landed != rts:
			return fmt.Errorf("rank %d: %d payloads pulled and %d landed of %d announced", me, pulled, landed, rts)
		case rings && !m.isend && !m.stall && streamed <= trips/2:
			// On a quiet host nearly all stream (the benchmark's ping-pong:
			// 99.8 %); CI tests packages side by side on the same CPUs, and a
			// sender descheduled past StreamBudget before its first slot is
			// taken over whole — correct, and not counted as streamed.
			return fmt.Errorf("rank %d: %d of %d blocking sends streamed, want most; %s", me, streamed, trips, whyNot)
		case !rings && streamed != 0:
			return fmt.Errorf("rank %d: %d streamed without a ring", me, streamed)
		case m.isend && streamed != 0:
			return fmt.Errorf("rank %d: %d Isend payloads streamed", me, streamed)
		case m.stall && rings && (takeovers < streamed || landed == 0):
			return fmt.Errorf("rank %d: %d of %d streams taken over, %d DATA received; want all, and DATA", me, takeovers, streamed, landed)
		case m.refuse:
			// Only streams copy out of a refusing peer; everything else
			// rides the sockets.
			if pulled > streamed || data == 0 {
				return fmt.Errorf("rank %d, pulls refused: %d pulled, %d streamed, %d DATA sent; want no more pulled than streamed, DATA", me, pulled, streamed, data)
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
// per rank, which is the only thing a daemon starts. The pull rows keep the
// launcher's GOMAXPROCS, which under the one-P CI step leaves the slaves on
// one P without rings: the receiver's one thread copies the payload while
// the sender's is parked in its Wait. The stream rows hand the slaves'
// schedulers to the runtime, whose gate opens the rings on a host with a
// CPU per rank; there each slave runs on one P and both copy at once.
func TestCoHostRendezvousIsPulled(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	for _, tc := range []struct {
		app    string
		np     int
		stream bool
	}{
		{"pull", 2, false},
		{"pull", 3, false},
		{"pull-refused", 2, false},
		{"pull-refused", 3, false},
		{"pull", 2, true},
		{"pull-isend", 2, true},
		{"stream-refused", 2, true},
		{"stream-takeover", 2, true},
	} {
		name := fmt.Sprintf("%s/np%d", tc.app, tc.np)
		if tc.stream {
			name += "/sized"
		}
		t.Run(name, func(t *testing.T) {
			if tc.stream {
				t.Setenv("GOMAXPROCS", "")
			}
			runProcJob(t, tc.np, tc.app)
		})
	}
}
