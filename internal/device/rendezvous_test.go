package device_test

// The rendezvous data path, black-box, on every transport: the payload
// leaves from the sender's buffer and lands in the posted receive buffer
// (see Device.Isend and the package comment). External test package so the
// fault injector, which imports device, can take part.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpj/internal/device"
	"mpj/internal/fault"
	"mpj/internal/transport"
	"mpj/internal/wire"
)

// flavors are the meshes every test below runs on: hyb-local rides the
// channel half of the hybrid device, hyb-remote its TCP half.
var flavors = []string{"chan", "tcp", "hyb-local", "hyb-remote"}

func overSocket(flavor string) bool { return flavor == "tcp" || flavor == "hyb-remote" }

var rdvJobSeq atomic.Uint64

// openFlavor opens a device on every endpoint of a fresh np-rank mesh.
// wrap, when non-nil, decorates each transport before its device opens.
func openFlavor(t *testing.T, flavor string, np int, wrap func(transport.Transport) transport.Transport) []*device.Device {
	t.Helper()
	eps := make([]transport.Transport, np)
	jobID := 0x7d7<<40 | rdvJobSeq.Add(1)
	switch flavor {
	case "chan":
		for i, ep := range transport.NewChanMesh(np) {
			eps[i] = ep
		}
	default:
		lns, addrs := make([]net.Listener, np), make([]string, np)
		locs := make([]string, np)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			t.Cleanup(func() { ln.Close() })
			lns[i], addrs[i] = ln, ln.Addr().String()
			locs[i] = "one-process"
			if flavor == "hyb-remote" {
				locs[i] = fmt.Sprintf("host%d#1", i)
			}
		}
		errs := make([]error, np)
		var wg sync.WaitGroup
		for i := range eps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if flavor == "tcp" {
					eps[i], errs[i] = transport.NewTCPTransport(i, jobID, addrs, lns[i])
				} else {
					eps[i], errs[i] = transport.NewHybTransport(transport.HybConfig{
						Rank: i, JobID: jobID, Locs: locs, Addrs: addrs, Listener: lns[i],
					})
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s mesh rank %d: %v", flavor, i, err)
			}
		}
	}
	ds := make([]*device.Device, np)
	for i, ep := range eps {
		if wrap != nil {
			ep = wrap(ep)
		}
		d, err := device.Open(ep)
		if err != nil {
			t.Fatalf("Open rank %d: %v", i, err)
		}
		ds[i] = d
	}
	t.Cleanup(func() {
		// Abort, not Close: some tests leave ranks dead or sends unmatched,
		// and an orderly drain would wait on them.
		for _, d := range ds {
			d.Abort()
		}
	})
	return ds
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%251)
	}
	return b
}

func scribble(b []byte) {
	for i := range b {
		b[i] = 0xEE
	}
}

// deadline bounds every wait in this file: a hang is a failure, not a
// timeout of the whole test binary.
const deadline = 20 * time.Second

func wait(t *testing.T, r *device.Request) (device.Status, error) {
	t.Helper()
	type out struct {
		st  device.Status
		err error
	}
	ch := make(chan out, 1)
	go func() {
		st, err := r.Wait()
		ch <- out{st, err}
	}()
	select {
	case o := <-ch:
		return o.st, o.err
	case <-time.After(deadline):
		t.Fatalf("%v did not complete within %v", r, deadline)
		return device.Status{}, nil
	}
}

func waitOK(t *testing.T, r *device.Request) device.Status {
	t.Helper()
	st, err := wait(t, r)
	if err != nil {
		t.Fatalf("%v: %v", r, err)
	}
	return st
}

func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(deadline); time.Now().Before(end); time.Sleep(200 * time.Microsecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting until %s", what)
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestRendezvousDeliveryMatrix: byte-exact delivery for sizes straddling
// the eager limit and the pool's top class, with the sender overwriting
// its buffer the moment its request completes — what it overwrote must
// never reach the receiver, on either protocol.
func TestRendezvousDeliveryMatrix(t *testing.T) {
	limit := device.DefaultEagerLimit
	sizes := []int{limit - 1, limit, limit + 1, 1<<20 - 33, 1 << 20, 1<<20 + 1, 4 << 20}
	for _, flavor := range flavors {
		t.Run(flavor, func(t *testing.T) {
			ds := openFlavor(t, flavor, 2, nil)
			d0, d1 := ds[0], ds[1]
			for i, n := range sizes {
				want := pattern(n, byte(i))
				msg := append([]byte(nil), want...)
				got := make([]byte, n)
				rts := d0.Stats().RTSSent.Load()
				rr := must(d1.Irecv(got, 0, i, 0))
				sr := must(d0.Isend(msg, 1, i, 0, device.ModeStandard))
				if st := waitOK(t, sr); st.Count != n {
					t.Errorf("%d bytes: send status %+v", n, st)
				}
				scribble(msg)
				if st := waitOK(t, rr); st.Count != n || st.Source != 0 || st.Tag != i {
					t.Errorf("%d bytes: recv status %+v", n, st)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%d bytes: receiver saw bytes the sender wrote after its request completed", n)
				}
				if rdv := d0.Stats().RTSSent.Load() != rts; rdv != (n > limit) {
					t.Errorf("%d bytes: rendezvous = %v", n, rdv)
				}
			}
			if sent, recv := d0.Stats().DataSent.Load(), d1.Stats().DataRecv.Load(); sent != 5 || recv != 5 {
				t.Errorf("DATA sent/received = %d/%d, want 5/5", sent, recv)
			}
		})
	}
}

// TestRendezvousSemantics runs the rest of the two-sided contract over the
// by-reference path.
func TestRendezvousSemantics(t *testing.T) {
	const n = 300 << 10
	for _, flavor := range flavors {
		t.Run(flavor+"/truncate-then-intact", func(t *testing.T) {
			ds := openFlavor(t, flavor, 2, nil)
			d0, d1 := ds[0], ds[1]
			long, next, small := pattern(n, 1), pattern(n, 2), pattern(100, 3)
			short, gotNext, gotSmall := make([]byte, 1000), make([]byte, n), make([]byte, 100)
			rrShort := must(d1.Irecv(short, 0, 1, 0))
			rrNext := must(d1.Irecv(gotNext, 0, 2, 0))
			rrSmall := must(d1.Irecv(gotSmall, 0, 3, 0))
			for tag, msg := range [][]byte{long, next, small} {
				waitOK(t, must(d0.Isend(msg, 1, tag+1, 0, device.ModeStandard)))
			}
			st, err := wait(t, rrShort)
			if !errors.Is(err, device.ErrTruncate) || st.Count != 1000 || !bytes.Equal(short, long[:1000]) {
				t.Errorf("short receive: status %+v err %v, head intact %v", st, err, bytes.Equal(short, long[:1000]))
			}
			waitOK(t, rrNext)
			waitOK(t, rrSmall)
			if !bytes.Equal(gotNext, next) || !bytes.Equal(gotSmall, small) {
				t.Error("messages after a truncated one arrived corrupted: the stream lost step")
			}
		})
		t.Run(flavor+"/dynamic-receive", func(t *testing.T) {
			ds := openFlavor(t, flavor, 2, nil)
			msg := pattern(n, 4)
			rr := must(ds[1].Irecv(nil, 0, 1, 0))
			waitOK(t, must(ds[0].Isend(msg, 1, 1, 0, device.ModeStandard)))
			if st := waitOK(t, rr); st.Count != n || !bytes.Equal(rr.Data(), msg) {
				t.Errorf("allocate-on-arrival receive: status %+v, %d bytes of data", st, len(rr.Data()))
			}
		})
		t.Run(flavor+"/wildcard", func(t *testing.T) {
			ds := openFlavor(t, flavor, 3, nil)
			msg, got := pattern(n, 5), make([]byte, n)
			rr := must(ds[0].Irecv(got, device.AnySource, device.AnyTag, 7))
			waitOK(t, must(ds[2].Isend(msg, 0, 42, 7, device.ModeStandard)))
			if st := waitOK(t, rr); st.Source != 2 || st.Tag != 42 || st.Count != n || !bytes.Equal(got, msg) {
				t.Errorf("wildcard receive matched by an RTS: status %+v", st)
			}
		})
		t.Run(flavor+"/ssend", func(t *testing.T) {
			ds := openFlavor(t, flavor, 2, nil)
			d0, d1 := ds[0], ds[1]
			for tag, size := range []int{0, 8, n} {
				msg, got := pattern(size, 6), make([]byte, size)
				sr := must(d0.Isend(msg, 1, tag, 0, device.ModeSync))
				until(t, "the RTS arrives", func() bool { return d1.Stats().RTSRecv.Load() == int64(tag+1) })
				if sr.Done() {
					t.Fatalf("%d-byte Ssend completed before a receive was posted", size)
				}
				rr := must(d1.Irecv(got, 0, tag, 0))
				waitOK(t, sr)
				if st := waitOK(t, rr); st.Count != size || !bytes.Equal(got, msg) {
					t.Errorf("%d-byte Ssend: recv status %+v", size, st)
				}
			}
		})
		t.Run(flavor+"/cancel-returns-the-buffer", func(t *testing.T) {
			ds := openFlavor(t, flavor, 2, nil)
			d0, d1 := ds[0], ds[1]
			msg := pattern(n, 7)
			sr := must(d0.Isend(msg, 1, 1, 0, device.ModeStandard))
			until(t, "the RTS arrives", func() bool { return d1.Stats().RTSRecv.Load() == 1 })
			if err := sr.Cancel(); err != nil {
				t.Fatal(err)
			}
			if st := waitOK(t, sr); !st.Cancelled {
				t.Fatalf("cancel of an unmatched rendezvous send: status %+v", st)
			}
			// The buffer is the caller's again: reuse it for the next
			// message, which must be the only one the peer ever sees.
			copy(msg, pattern(n, 8))
			got := make([]byte, n)
			rr := must(d1.Irecv(got, 0, device.AnyTag, 0))
			waitOK(t, must(d0.Isend(msg, 1, 2, 0, device.ModeStandard)))
			if st := waitOK(t, rr); st.Tag != 2 || !bytes.Equal(got, pattern(n, 8)) {
				t.Errorf("message after a cancelled send: status %+v", st)
			}
			if d0.Stats().DataSent.Load() != 1 {
				t.Errorf("DATA sent = %d, want 1: the cancelled payload must never leave", d0.Stats().DataSent.Load())
			}
		})
		t.Run(flavor+"/fill-copies-at-post", func(t *testing.T) {
			// IsendFill's source is free the moment it returns, even though
			// the payload leaves only after the CTS: it travels from the
			// device's stash. The schedule engine depends on this.
			ds := openFlavor(t, flavor, 2, nil)
			src, got := pattern(n, 9), make([]byte, n)
			sr := must(ds[0].IsendFill(n, func(p []byte) error { copy(p, src); return nil }, 1, 1, 0, device.ModeStandard))
			scribble(src)
			rr := must(ds[1].Irecv(got, 0, 1, 0))
			waitOK(t, sr)
			waitOK(t, rr)
			if !bytes.Equal(got, pattern(n, 9)) {
				t.Error("IsendFill payload changed after IsendFill returned")
			}
		})
		t.Run(flavor+"/bidirectional-4MiB", func(t *testing.T) {
			// Both ranks send 4 MiB at once and wait for their send first:
			// the writers block on full sockets unless both readers keep
			// landing, and the CTS each side owes must get past its own
			// outbound payload.
			ds := openFlavor(t, flavor, 2, nil)
			var wg sync.WaitGroup
			for r := range ds {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					msg, got := pattern(4<<20, byte(r)), make([]byte, 4<<20)
					rr := must(ds[r].Irecv(got, 1-r, 1, 0))
					sr := must(ds[r].Isend(msg, 1-r, 1, 0, device.ModeStandard))
					if _, err := wait(t, sr); err != nil {
						t.Errorf("rank %d send: %v", r, err)
					}
					if _, err := wait(t, rr); err != nil || !bytes.Equal(got, pattern(4<<20, byte(1-r))) {
						t.Errorf("rank %d recv: %v", r, err)
					}
				}(r)
			}
			wg.Wait()
		})
	}
}

// TestRendezvousSendCompletesOnEveryPath: a borrowed send gets its
// completion — the only thing that returns the buffer — exactly once
// however the rendezvous ends before its CTS.
func TestRendezvousSendCompletesOnEveryPath(t *testing.T) {
	const n = 64 << 10
	revoked := errors.New("context revoked")
	for _, flavor := range flavors {
		for name, tc := range map[string]struct {
			end  func(ds []*device.Device)
			want error
		}{
			"peer-fails":   {func(ds []*device.Device) { ds[0].NotifyRankFailed(1, errors.New("lease expired")) }, device.ErrRankFailed},
			"context-dies": {func(ds []*device.Device) { ds[0].FailContext(0, revoked) }, revoked},
			"abort":        {func(ds []*device.Device) { ds[0].Abort() }, device.ErrClosed},
			"close":        {func(ds []*device.Device) { ds[0].Close() }, device.ErrClosed},
		} {
			t.Run(flavor+"/"+name, func(t *testing.T) {
				ds := openFlavor(t, flavor, 2, nil)
				borrowed := must(ds[0].Isend(pattern(n, 1), 1, 1, 0, device.ModeStandard))
				stashed := must(ds[0].IsendFill(n, func(p []byte) error { return nil }, 1, 2, 0, device.ModeStandard))
				until(t, "both RTS arrive", func() bool { return ds[1].Stats().RTSRecv.Load() == 2 })
				tc.end(ds)
				for _, r := range []*device.Request{borrowed, stashed} {
					if _, err := wait(t, r); !errors.Is(err, tc.want) {
						t.Errorf("%v ended with %v, want %v", r, err, tc.want)
					}
				}
			})
		}
	}
}

// landHook runs a callback each time its device's landing hook has claimed
// a receive, before the transport moves a byte — the instant "mid-DATA".
type landHook struct {
	transport.Transport
	claimed func()
}

func (l landHook) SetLander(land transport.Lander) {
	l.Transport.SetLander(func(src int, h wire.Header) ([]byte, func(error), error) {
		dst, fin, err := land(src, h)
		if fin != nil {
			l.claimed()
		}
		return dst, fin, err
	})
}

// TestLandingOwnsItsRequest: once a landing has claimed a receive, nothing
// but the end of that landing completes it — not a failure notice for the
// sender, not a revoked context — because the transport is still writing
// the buffer. (A self-failure or Close is the same code path.)
func TestLandingOwnsItsRequest(t *testing.T) {
	const n = 1 << 20
	for _, flavor := range flavors {
		t.Run(flavor, func(t *testing.T) {
			var ds []*device.Device
			var rr *device.Request
			early := make(chan bool, 1)
			ds = openFlavor(t, flavor, 2, func(ep transport.Transport) transport.Transport {
				if ep.Rank() != 1 {
					return ep
				}
				return landHook{ep, func() {
					ds[1].NotifyRankFailed(0, errors.New("false alarm"))
					ds[1].FailContext(0, errors.New("revoked"))
					early <- rr.Done()
				}}
			})
			msg, got := pattern(n, 1), make([]byte, n)
			rr = must(ds[1].Irecv(got, 0, 1, 0))
			sr := must(ds[0].Isend(msg, 1, 1, 0, device.ModeStandard))
			if <-early {
				t.Fatal("a failure path completed a receive whose buffer the transport was about to fill")
			}
			waitOK(t, sr)
			if st := waitOK(t, rr); st.Count != n || !bytes.Equal(got, msg) {
				t.Errorf("claimed receive: status %+v", st)
			}
		})
	}
}

// faulty wraps every rank's transport in one injection domain.
func faulty(dom *fault.Domain, hook func(rank int, ep transport.Transport) transport.Transport) func(transport.Transport) transport.Transport {
	return func(ep transport.Transport) transport.Transport {
		var out transport.Transport = dom.Wrap(ep)
		if hook != nil {
			out = hook(ep.Rank(), out)
		}
		return out
	}
}

// TestPeerDeathBetweenCTSAndData: the injector holds the sender's DATA
// back and kills one end while the CTS has been granted and no payload
// byte has moved. Both requests complete with a typed rank failure inside
// the deadline, whichever end died.
func TestPeerDeathBetweenCTSAndData(t *testing.T) {
	const n = 256 << 10
	for _, flavor := range flavors {
		for _, victim := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/victim-%d", flavor, victim), func(t *testing.T) {
				dom := fault.NewDomain()
				ds := openFlavor(t, flavor, 2, faulty(dom, nil))
				dom.Delay(0, 250*time.Millisecond) // every send of rank 0, the DATA included
				got := make([]byte, n)
				rr := must(ds[1].Irecv(got, 0, 1, 0))
				sr := must(ds[0].Isend(pattern(n, 1), 1, 1, 0, device.ModeStandard))
				until(t, "the CTS is granted", func() bool { return ds[1].Stats().CTSSent.Load() == 1 })
				dom.Kill(victim)
				for _, r := range []*device.Request{sr, rr} {
					if _, err := wait(t, r); !errors.Is(err, device.ErrRankFailed) {
						t.Errorf("%v ended with %v, want a rank failure", r, err)
					}
				}
				if ds[1].Stats().DataRecv.Load() != 0 {
					t.Error("the payload moved: the kill did not land between CTS and DATA")
				}
			})
		}
	}
}

// TestPeerDeathMidData: the sender dies while its 32 MiB payload — more
// than the sockets between the two can hold — is on the wire and the
// receiver's reader is landing it. The landing ends with the broken
// stream; both sides complete with a typed rank failure.
func TestPeerDeathMidData(t *testing.T) {
	const n = 32 << 20
	for _, flavor := range flavors {
		if !overSocket(flavor) {
			continue // in process a payload moves in one memmove: there is no "mid"
		}
		t.Run(flavor, func(t *testing.T) {
			dom := fault.NewDomain()
			ds := openFlavor(t, flavor, 2, faulty(dom, func(rank int, ep transport.Transport) transport.Transport {
				if rank != 1 {
					return ep
				}
				return landHook{ep, func() { dom.Kill(0) }}
			}))
			got := make([]byte, n)
			rr := must(ds[1].Irecv(got, 0, 1, 0))
			sr := must(ds[0].Isend(pattern(n, 1), 1, 1, 0, device.ModeStandard))
			for _, r := range []*device.Request{sr, rr} {
				if _, err := wait(t, r); !errors.Is(err, device.ErrRankFailed) {
					t.Errorf("%v ended with %v, want a rank failure", r, err)
				}
			}
		})
	}
}

// TestHostileDataLength: a DATA header announcing a length other than the
// one the CTS granted moves no byte and sizes no buffer — not even for an
// allocate-on-arrival receive: the receive ends with the peer's typed
// failure.
func TestHostileDataLength(t *testing.T) {
	const n = 64 << 10
	for _, flavor := range flavors {
		for name, lie := range map[string]struct{ announced, carried int }{
			"a-gigabyte-it-does-not-have": {1 << 30, 16},
			"half-the-grant":              {n / 2, n / 2},
		} {
			t.Run(flavor+"/"+name, func(t *testing.T) {
				var eps []transport.Transport
				ds := openFlavor(t, flavor, 2, func(ep transport.Transport) transport.Transport {
					eps = append(eps, ep)
					return ep
				})
				rr := must(ds[1].Irecv(nil, 0, 1, 0))
				// Rank 0 plays the lying peer by hand: an RTS for n bytes,
				// then — once granted — DATA of some other length.
				rts := wire.Header{Kind: wire.KindRTS, Tag: 1, MsgID: 77, Len: n}
				if err := eps[0].Send(1, wire.NewFrame(&rts, nil)); err != nil {
					t.Fatal(err)
				}
				until(t, "the CTS is granted", func() bool { return ds[1].Stats().CTSSent.Load() == 1 })
				data := wire.Header{Kind: wire.KindData, Tag: 1, MsgID: 77, Len: int32(lie.announced)}
				sent := make(chan error, 1)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := eps[0].SendData(1, data, make([]byte, lie.carried), func(err error) { sent <- err }); err != nil {
					t.Fatal(err)
				}
				_, err := wait(t, rr)
				runtime.ReadMemStats(&after)
				<-sent
				if !errors.Is(err, device.ErrRankFailed) {
					t.Errorf("receive ended with %v, want the peer's failure", err)
				}
				if rr.Data() != nil {
					t.Errorf("the refused payload was delivered: %d bytes", len(rr.Data()))
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
					t.Errorf("a lying length made the receiver allocate %d bytes", grew)
				}
			})
		}
	}
}

// TestRendezvousAllocationGate pins the property that makes the data path
// cheap: a warmed 1 MiB rendezvous hop allocates no payload-sized memory —
// no frame, no stash, no staging — only a handful of small control
// objects (requests, header frames, completions).
func TestRendezvousAllocationGate(t *testing.T) {
	const (
		n            = 1 << 20
		bytesPerHop  = 4 << 10
		allocsPerHop = 24
	)
	for _, flavor := range []string{"chan", "tcp"} {
		t.Run(flavor, func(t *testing.T) {
			ds := openFlavor(t, flavor, 2, nil)
			d0, d1 := ds[0], ds[1]
			msg, got, echo := pattern(n, 1), make([]byte, n), make([]byte, n)
			trips := make(chan struct{})
			go func() {
				for range trips {
					rr := must(d1.Irecv(echo, 0, 1, 0))
					if _, err := rr.Wait(); err != nil {
						t.Error(err)
					}
					if _, err := must(d1.Isend(echo, 0, 1, 0, device.ModeStandard)).Wait(); err != nil {
						t.Error(err)
					}
				}
			}()
			defer close(trips)
			trip := func() {
				trips <- struct{}{}
				rr := must(d0.Irecv(got, 1, 1, 0))
				if _, err := must(d0.Isend(msg, 1, 1, 0, device.ModeStandard)).Wait(); err != nil {
					t.Error(err)
				}
				if _, err := rr.Wait(); err != nil {
					t.Error(err)
				}
			}
			for i := 0; i < 20; i++ {
				trip()
			}
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, trip) / 2
			runtime.ReadMemStats(&after)
			perHop := float64(after.TotalAlloc-before.TotalAlloc) / float64(2*(runs+1))
			t.Logf("%s: %.0f B and %.1f objects allocated per 1 MiB hop", flavor, perHop, allocs)
			if perHop >= bytesPerHop {
				t.Errorf("a 1 MiB rendezvous hop allocates %.0f B, want < %d", perHop, bytesPerHop)
			}
			if allocs > allocsPerHop {
				t.Errorf("a 1 MiB rendezvous hop allocates %.1f objects, want ≤ %d", allocs, allocsPerHop)
			}
			if !bytes.Equal(got, msg) {
				t.Error("echo corrupted")
			}
		})
	}
}
