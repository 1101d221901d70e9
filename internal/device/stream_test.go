package device_test

import (
	"bytes"
	"errors"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mpj/internal/device"
)

// The stream rows run on tcp-ring: goroutine ranks whose rings are planned
// whatever the gate says, so a blocking Send streams its payload through
// the ring's stream area while the receiver copies it out (see pull.go).
// Goroutine ranks share the test's scheduler and its garbage collector,
// which now and then hold a sender past the receiver's patience before
// its first slot: that stream is taken over whole, which is correct but
// not what a row is after. So every row that needs a stream sends a few
// messages and counts, and the rows that need an event in mid-stream send
// until the event happened.

const streamN = 1 << 20

// within waits for the one value ch delivers, for at most the file's
// deadline.
func within[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(deadline):
		t.Fatalf("%s did not return within %v", what, deadline)
		var zero T
		return zero
	}
}

// sendBlocking runs a blocking Send on its own goroutine.
func sendBlocking(d *device.Device, buf []byte, dst, tag int) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- d.Send(buf, dst, tag, 0, device.ModeStandard, (*device.Request).Wait) }()
	return ch
}

type received struct {
	st  device.Status
	err error
}

// recvBlocking runs a blocking Recv on its own goroutine.
func recvBlocking(d *device.Device, buf []byte, src, tag int) <-chan received {
	ch := make(chan received, 1)
	go func() {
		st, err := d.Recv(buf, src, tag, 0, (*device.Request).Wait)
		ch <- received{st, err}
	}()
	return ch
}

// exchange sends msg from src to dst with a blocking Send into a blocking
// Recv of got and returns the receive's outcome.
func exchange(t *testing.T, ds []*device.Device, src, dst int, msg, got []byte, tag int) received {
	t.Helper()
	rc := recvBlocking(ds[dst], got, src, tag)
	if err := within(t, "send", sendBlocking(ds[src], msg, dst, tag)); err != nil {
		t.Fatalf("send %d→%d: %v", src, dst, err)
	}
	return within(t, "receive", rc)
}

// openStreams opens np tcp-ring devices, waits until every pair's rings
// are live — before that a blocking Send pulls — and streams a message
// each way between every pair: the first bytes through an area fault its
// pages in, on both sides.
func openStreams(t *testing.T, np int) []*device.Device {
	t.Helper()
	ds := openFlavor(t, "tcp-ring", np, nil)
	wantFrameMedia(t, ds, "ring")
	msg, got := make([]byte, streamN), make([]byte, streamN)
	for from := range ds {
		for to := range ds {
			if from != to {
				if r := exchange(t, ds, from, to, msg, got, 99); r.err != nil {
					t.Fatal(r.err)
				}
			}
		}
	}
	return ds
}

// counts is what a receiving device counts of the co-host path: payloads
// streamed, streams taken over, payloads pulled, DATA received.
type counts [4]int64

// since returns a function that reports d's counts since the call.
func since(d *device.Device) func() counts {
	of := func() counts {
		st := d.Stats()
		return counts{st.Streamed.Load(), st.StreamTakeovers.Load(), st.Pulled.Load(), st.DataRecv.Load()}
	}
	base := of()
	return func() counts {
		c := of()
		for i := range c {
			c[i] -= base[i]
		}
		return c
	}
}

// TestStreamDelivery: a blocking Send to a co-host rank with a live ring
// streams, byte-exact, whatever the receive looks like — a wildcard
// source, a buffer too short for the message, two senders at once — and
// the area is free for the next stream afterwards; an Isend is pulled.
func TestStreamDelivery(t *testing.T) {
	const msgs = 3
	for name, tc := range map[string]struct {
		src   int // AnySource for a wildcard receive
		short int // bytes of the posted buffer, when short of the message
	}{
		"whole":      {src: 0},
		"any-source": {src: device.AnySource},
		"truncating": {src: 0, short: 300 << 10},
	} {
		t.Run(name, func(t *testing.T) {
			ds := openStreams(t, 2)
			counted := since(ds[1])
			got := make([]byte, streamN)
			for i := 0; i < msgs; i++ {
				msg, buf := pattern(streamN, byte(i)), got
				if tc.short > 0 {
					buf = got[:tc.short]
				}
				rc := recvBlocking(ds[1], buf, tc.src, i)
				if err := within(t, "send", sendBlocking(ds[0], msg, 1, i)); err != nil {
					t.Fatal(err)
				}
				r := within(t, "receive", rc)
				switch {
				case r.st.Source != 0 || r.st.Tag != i:
					t.Fatalf("message %d: status %+v, %v", i, r.st, r.err)
				case tc.short == 0 && (r.err != nil || r.st.Count != streamN || !bytes.Equal(got, msg)):
					t.Fatalf("message %d: %v, %d bytes, intact %v", i, r.err, r.st.Count, bytes.Equal(got, msg))
				case tc.short > 0 && (!errors.Is(r.err, device.ErrTruncate) || r.st.Count != tc.short || !bytes.Equal(buf, msg[:tc.short])):
					t.Fatalf("message %d: %v, %d bytes, head intact %v; want a truncated, exact head", i, r.err, r.st.Count, bytes.Equal(buf, msg[:tc.short]))
				}
				for j := len(buf); j < streamN; j++ {
					if got[j] != 0 {
						t.Fatalf("message %d: byte %d past the posted buffer written", i, j)
					}
				}
				clear(got)
			}
			if tc.short > 0 {
				// The area is free again: a whole message streams.
				msg := pattern(streamN, 7)
				if r := exchange(t, ds, 0, 1, msg, got, 7); r.err != nil || !bytes.Equal(got, msg) {
					t.Fatalf("after the truncations: %v, intact %v", r.err, bytes.Equal(got, msg))
				}
			}
			s, sent := counted(), int64(msgs)
			if tc.short > 0 {
				sent++
			}
			if s[0] == 0 || s[2] != sent || s[3] != 0 {
				t.Errorf("streamed / taken over / pulled / DATA = %v, want streams, %d pulled, no DATA", s, sent)
			}
			if p := ds[1].PeerPaths()[0]; p != "stream" {
				t.Errorf("peer path %q, want stream", p)
			}
		})
	}
	t.Run("two-senders", func(t *testing.T) {
		ds := openStreams(t, 3)
		counted := since(ds[2])
		for i := 0; i < msgs; i++ {
			sent := [][]byte{pattern(streamN, byte(2*i)), pattern(streamN, byte(2*i+1))}
			sends := []<-chan error{sendBlocking(ds[0], sent[0], 2, i), sendBlocking(ds[1], sent[1], 2, i)}
			for j := 0; j < 2; j++ {
				got := make([]byte, streamN)
				r := within(t, "receive", recvBlocking(ds[2], got, device.AnySource, i))
				if r.err != nil || r.st.Source < 0 || r.st.Source > 1 || !bytes.Equal(got, sent[r.st.Source]) {
					t.Fatalf("round %d receive %d: %+v, %v", i, j, r.st, r.err)
				}
			}
			for _, sc := range sends {
				if err := within(t, "send", sc); err != nil {
					t.Fatal(err)
				}
			}
		}
		if s := counted(); s[0] == 0 || s[2] != 2*msgs || s[3] != 0 {
			t.Errorf("streamed / taken over / pulled / DATA = %v, want streams, %d pulled, no DATA", s, 2*msgs)
		}
	})
	t.Run("isend-pulls", func(t *testing.T) {
		ds := openStreams(t, 2)
		counted := since(ds[1])
		msg, got := pattern(streamN, 6), make([]byte, streamN)
		rr := must(ds[1].Irecv(got, 0, 1, 0))
		waitOK(t, must(ds[0].Isend(msg, 1, 1, 0, device.ModeStandard)))
		if waitOK(t, rr); !bytes.Equal(got, msg) {
			t.Fatal("corrupted")
		}
		if s := counted(); s != (counts{0, 0, 1, 0}) {
			t.Errorf("streamed / taken over / pulled / DATA = %v, want 0 / 0 / 1 / 0", s)
		}
	})
}

// TestStreamFailures: a stream meets trouble once the receiver has copied
// at least its first slot out — the sender dies, the receive's context is
// revoked, the sender stalls past the receiver's patience (with and
// without pulls refused). A death or a revocation ends both calls with a
// typed error within the deadline, and no slot is copied into the buffer
// after the receive returned; a stall is taken over, and the bytes arrive
// exact. A receiver that took over before the event met it in its pull
// seam instead, still inside the copy: the outcome must not change.
func TestStreamFailures(t *testing.T) {
	const at = 256 << 10 // the first slot of the area's second round
	revoked := errors.New("context revoked")
	killed := errors.New("killed")
	kill := func(ds []*device.Device) {
		ds[0].NotifyRankFailed(0, killed)
		ds[1].NotifyRankFailed(0, killed)
	}
	revoke := func(ds []*device.Device) {
		ds[0].FailContext(0, revoked)
		ds[1].FailContext(0, revoked)
	}
	for name, tc := range map[string]struct {
		event            func(ds []*device.Device) // at the sender, before the slot at byte at
		goOn             bool                      // the sender copies on after the event
		wantSend, wantRv error
	}{
		"sender-killed":    {event: kill, wantSend: device.ErrRankFailed, wantRv: device.ErrRankFailed},
		"receiver-revoked": {event: revoke, goOn: true, wantSend: revoked, wantRv: revoked},
	} {
		t.Run(name, func(t *testing.T) {
			ds := openStreams(t, 2)
			counted := since(ds[1])
			ds[1].SetPullFault(func(int) error {
				tc.event(ds)
				return syscall.EPERM
			})
			ds[0].SetStreamHook(func(dst, off int) bool {
				if off != at {
					return true
				}
				tc.event(ds)
				return tc.goOn
			})
			msg, got := pattern(streamN, 9), make([]byte, streamN)
			rr := must(ds[1].Irecv(got, 0, 1, 0))
			sc := sendBlocking(ds[0], msg, 1, 1)
			if _, err := wait(t, rr); !errors.Is(err, tc.wantRv) {
				t.Errorf("receive ended with %v, want %v", err, tc.wantRv)
			}
			scribble(got) // the buffer is the caller's again
			if err := within(t, "send", sc); !errors.Is(err, tc.wantSend) {
				t.Errorf("send ended with %v, want %v", err, tc.wantSend)
			}
			time.Sleep(time.Millisecond)
			for i, b := range got {
				if b != 0xEE {
					t.Fatalf("byte %d written after the receive returned", i)
				}
			}
			if s := counted(); s[1] != 1 || s[2] != 0 || s[3] != 0 {
				t.Errorf("streamed / taken over / pulled / DATA = %v, want the stream cut short, nothing pulled, no DATA", s)
			}
		})
	}
	for name, refuse := range map[string]bool{"sender-stalled": false, "sender-stalled-refused": true} {
		t.Run(name, func(t *testing.T) {
			ds := openStreams(t, 2)
			if refuse {
				ds[1].SetPullFault(func(int) error { return syscall.EPERM })
			}
			var stalled atomic.Bool
			ds[0].SetStreamHook(func(dst, off int) bool {
				if off == at && !stalled.Load() {
					time.Sleep(20 * time.Millisecond)
					stalled.Store(true)
				}
				return true
			})
			counted := since(ds[1])
			got := make([]byte, streamN)
			var before counts
			for i := 0; !stalled.Load(); i++ {
				if i == 20 {
					t.Fatal("no stream reached its second round in 20 messages")
				}
				before = counted()
				msg := pattern(streamN, byte(i))
				if r := exchange(t, ds, 0, 1, msg, got, i); r.err != nil || r.st.Count != streamN || !bytes.Equal(got, msg) {
					t.Fatalf("message %d: %v, %d bytes, intact %v", i, r.err, r.st.Count, bytes.Equal(got, msg))
				}
			}
			// The stalled message alone: streamed in part, taken over, the
			// rest pulled — or, refused, carried by DATA.
			s := counted()
			for i := range s {
				s[i] -= before[i]
			}
			want := counts{1, 1, 1, 0}
			if refuse {
				want = counts{1, 1, 0, 1}
			}
			if s != want {
				t.Errorf("streamed / taken over / pulled / DATA = %v, want %v", s, want)
			}
		})
	}
}
