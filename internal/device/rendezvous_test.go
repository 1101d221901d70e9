package device_test

// The rendezvous data path, black-box, on every transport: the payload
// leaves from the sender's buffer and lands in the posted receive buffer
// (see Device.Isend and the package comment). External test package so the
// fault injector, which imports device, can take part.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"mpj/internal/device"
	"mpj/internal/fault"
	"mpj/internal/transport"
	"mpj/internal/wire"
)

// flavors are the meshes every test below runs on: hyb-local rides the
// channel half of the hybrid device, hyb-remote its TCP half. tcp-pull is a
// TCP mesh with a locality table that says what is true — every rank is a
// process on this host, this one — so a rendezvous payload is pulled out of
// the sender's memory, the test's own (see pull.go); tcp-refused is the same
// mesh with every pull refused the way a system without ptrace access
// refuses it, which must be the plain tcp flavor again, byte for byte.
// tcp-ring is tcp-pull with every frame in a shared-memory ring, polled by
// the waiting rank (see polls.go); tcp-ring-refused is the same mesh with
// every ring offer refused, which must be tcp-pull again.
var flavors = []string{"chan", "tcp", "hyb-local", "hyb-remote", "tcp-pull", "tcp-refused", "tcp-ring", "tcp-ring-refused"}

// overSocket: DATA frames cross a socket.
func overSocket(flavor string) bool {
	return flavor == "tcp" || flavor == "hyb-remote" || flavor == "tcp-refused"
}

// pulls: payloads move by the receiver's copy, no CTS and no DATA.
func pulls(flavor string) bool {
	return flavor == "tcp-pull" || flavor == "tcp-ring" || flavor == "tcp-ring-refused"
}

// ringOptions are the device options of a flavor: the ring flavors plan
// rings between the test's ranks, whatever the gate says.
func ringOptions(flavor string) []device.Option {
	switch flavor {
	case "tcp-ring":
		return []device.Option{device.WithRings(nil)}
	case "tcp-ring-refused":
		return []device.Option{device.WithRings(func(int) error { return syscall.EPERM })}
	}
	return nil
}

// wantMoved checks how n rendezvous payloads from d0 reached d1.
func wantMoved(t *testing.T, flavor string, d0, d1 *device.Device, n int64) {
	t.Helper()
	sent, recv, pulled := d0.Stats().DataSent.Load(), d1.Stats().DataRecv.Load(), d1.Stats().Pulled.Load()
	want := [3]int64{n, n, 0}
	if pulls(flavor) {
		want = [3]int64{0, 0, n}
	}
	if got := [3]int64{sent, recv, pulled}; got != want {
		t.Errorf("DATA sent / DATA received / pulled = %v, want %v", got, want)
	}
}

// located is a TCP mesh endpoint that knows where the ranks run, as a hyb
// endpoint does: the table is all a device needs to find the co-host
// processes among its peers.
type located struct {
	*transport.TCPTransport
	peers transport.Peers
}

func (l located) Peers() transport.Peers { return l.peers }

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
			switch flavor {
			case "hyb-remote":
				locs[i] = fmt.Sprintf("host%d#1", i)
			case "tcp-pull", "tcp-refused", "tcp-ring", "tcp-ring-refused":
				locs[i] = transport.ProcessLocality()
			default:
				locs[i] = "one-process"
			}
		}
		errs := make([]error, np)
		var wg sync.WaitGroup
		for i := range eps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				switch flavor {
				case "hyb-local", "hyb-remote":
					eps[i], errs[i] = transport.NewHybTransport(transport.HybConfig{
						Rank: i, JobID: jobID, Locs: locs, Addrs: addrs, Listener: lns[i],
					})
				case "tcp":
					eps[i], errs[i] = transport.NewTCPTransport(i, jobID, addrs, lns[i])
				default:
					var ep *transport.TCPTransport
					ep, errs[i] = transport.NewTCPTransport(i, jobID, addrs, lns[i])
					eps[i] = located{ep, transport.DescribePeers(transport.DeviceTCP, i, locs, nil)}
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
		d, err := device.Open(ep, ringOptions(flavor)...)
		if err != nil {
			t.Fatalf("Open rank %d: %v", i, err)
		}
		if flavor == "tcp-refused" {
			d.SetPullFault(func(int) error { return syscall.EPERM })
		}
		if hook, ok := ep.(landHook); ok && pulls(flavor) {
			// No landing to hook: the pull's own "claimed, no byte moved
			// yet" instant.
			d.SetPullFault(func(int) error { hook.claimed(); return nil })
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
	if want := ringMedium(flavor); want != "" {
		t.Cleanup(func() { wantFrameMedia(t, ds, want) }) // runs before the Abort above
	}
	return ds
}

// ringMedium is how frames between two ranks of a ring flavor travel once
// the rings' set-up handshake has settled, "" on the other flavors.
func ringMedium(flavor string) string {
	switch flavor {
	case "tcp-ring":
		return "ring"
	case "tcp-ring-refused":
		return "socket: " + syscall.EPERM.Error()
	}
	return ""
}

// wantFrameMedia checks that every rank says frames to every other rank
// travel by want, polling until the handshake settles. A pair with an end
// the test closed, aborted or killed is skipped: its handshake may never
// finish.
func wantFrameMedia(t *testing.T, ds []*device.Device, want string) {
	t.Helper()
	for end := time.Now().Add(deadline); ; time.Sleep(200 * time.Microsecond) {
		off := ""
		for r, d := range ds {
			media := d.FrameMedia()
			for p := range ds {
				if p != r && !d.Ended() && !ds[p].Ended() && media[p] != want {
					off = fmt.Sprintf("rank %d says frames to rank %d take %q, want %q", r, p, media[p], want)
				}
			}
		}
		if off == "" {
			return
		}
		if time.Now().After(end) {
			t.Error(off)
			return
		}
	}
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
			wantMoved(t, flavor, d0, d1, 5)
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
			// The cancelled payload must never leave.
			wantMoved(t, flavor, d0, d1, 1)
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
// a receive, before the transport moves a byte — the instant "mid-DATA". On
// a flavor that pulls, openFlavor arms the same callback where the device
// has claimed a receive for its own copy.
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
		if pulls(flavor) {
			continue // no CTS, no DATA: see TestPullSenderGone
		}
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
	for _, flavor := range []string{"chan", "tcp", "tcp-pull", "tcp-ring"} {
		t.Run(flavor, func(t *testing.T) {
			ds := openFlavor(t, flavor, 2, nil)
			d0, d1 := ds[0], ds[1]
			msg, got, echo := pattern(n, 1), make([]byte, n), make([]byte, n)
			trips, echoed := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(echoed)
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
			// The last echo's send completes once its PULLED arrives, which
			// may be after rank 0's trip returned: wait for it before the
			// devices are torn down.
			defer func() { close(trips); <-echoed }()
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

// TestRendezvousFromDeadSender: an RTS waits unmatched, its sender is then
// registered dead, and only now a receive matches it. No payload can come —
// there is nobody to answer a CTS — so the receive ends with the sender's
// failure at once instead of parking behind a CTS to the dead.
func TestRendezvousFromDeadSender(t *testing.T) {
	const n = 64 << 10
	for _, flavor := range flavors {
		t.Run(flavor, func(t *testing.T) {
			ds := openFlavor(t, flavor, 2, nil)
			must(ds[0].Isend(pattern(n, 1), 1, 1, 0, device.ModeStandard))
			until(t, "the RTS arrives", func() bool { return ds[1].Stats().RTSRecv.Load() == 1 })
			ds[1].NotifyRankFailed(0, errors.New("lease expired"))
			rr := must(ds[1].Irecv(make([]byte, n), 0, 1, 0))
			if _, err := wait(t, rr); !errors.Is(err, device.ErrRankFailed) {
				t.Errorf("receive ended with %v, want the sender's failure", err)
			}
			if cts := ds[1].Stats().CTSSent.Load(); cts != 0 {
				t.Errorf("%d CTS sent to a dead sender", cts)
			}
		})
	}
}

// TestPullSenderGone: between its RTS and the receiver's pull the sender
// completes its send some other way — it believes the receiver dead, its
// context is revoked, it aborts — and writes over the buffer, which is its
// own again. The receiver's pull must find the guard word changed and
// deliver nothing: the message goes the CTS way, where the same event,
// once it reaches the receiver, ends the receive with a typed error. The
// last row takes the buffer back at the latest instant a test can name:
// after the receive was claimed for the pull.
func TestPullSenderGone(t *testing.T) {
	const n = 300 << 10
	revoked := errors.New("context revoked")
	for name, tc := range map[string]struct {
		end                func(ds []*device.Device) // at the sender
		reach              func(ds []*device.Device) // the same event, at the receiver
		wantSend, wantRecv error
		midPull            bool
	}{
		"fails": {
			end:      func(ds []*device.Device) { ds[0].NotifyRankFailed(1, errors.New("lease expired")) },
			reach:    func(ds []*device.Device) { ds[1].NotifyRankFailed(0, errors.New("lease expired")) },
			wantSend: device.ErrRankFailed, wantRecv: device.ErrRankFailed,
		},
		"revokes": {
			end:      func(ds []*device.Device) { ds[0].FailContext(0, revoked) },
			reach:    func(ds []*device.Device) { ds[1].FailContext(0, revoked) },
			wantSend: revoked, wantRecv: revoked,
		},
		"aborts": {
			end:      func(ds []*device.Device) { ds[0].Abort() },
			reach:    func(ds []*device.Device) {}, // the broken connection says it
			wantSend: device.ErrClosed, wantRecv: device.ErrRankFailed,
		},
		"revokes-mid-pull": {
			end:      func(ds []*device.Device) { ds[0].FailContext(0, revoked) },
			reach:    func(ds []*device.Device) { ds[1].FailContext(0, revoked) },
			wantSend: revoked, wantRecv: revoked, midPull: true,
		},
	} {
		t.Run(name, func(t *testing.T) {
			ds := openFlavor(t, "tcp-pull", 2, nil)
			msg, got := pattern(n, 1), make([]byte, n)
			sr := must(ds[0].Isend(msg, 1, 1, 0, device.ModeStandard))
			until(t, "the RTS arrives", func() bool { return ds[1].Stats().RTSRecv.Load() == 1 })
			takeBack := func() {
				tc.end(ds)
				if _, err := wait(t, sr); !errors.Is(err, tc.wantSend) {
					t.Errorf("send ended with %v, want %v", err, tc.wantSend)
				}
				scribble(msg)
			}
			if tc.midPull {
				ds[1].SetPullFault(func(int) error { takeBack(); return nil })
			} else {
				takeBack()
			}
			rr := must(ds[1].Irecv(got, 0, 1, 0))
			tc.reach(ds)
			if _, err := wait(t, rr); !errors.Is(err, tc.wantRecv) {
				t.Errorf("receive ended with %v, want %v", err, tc.wantRecv)
			}
			if p := ds[1].Stats().Pulled.Load(); p != 0 {
				t.Errorf("%d payloads pulled out of a buffer the sender had taken back", p)
			}
			if name != "aborts" { // there the receiver may know the sender dead before it matches
				if refused, path := ds[1].Stats().PullRefused.Load(), ds[1].PeerPaths()[0]; refused != 1 || path != "pull" {
					t.Errorf("pull refused %d times, peer path %q: want one stale pull, held against nobody", refused, path)
				}
			}
		})
	}
}

// TestPullDoomedWhileRefused: a failure notice arrives while the receive is
// claimed for a pull, and then the pull is refused. The notice was not lost
// with the claim: the receive ends with it, and no CTS goes to a sender the
// device has just declared dead.
func TestPullDoomedWhileRefused(t *testing.T) {
	ds := openFlavor(t, "tcp-pull", 2, nil)
	ds[1].SetPullFault(func(int) error {
		ds[1].NotifyRankFailed(0, errors.New("lease expired"))
		return syscall.EPERM
	})
	rr := must(ds[1].Irecv(make([]byte, 64<<10), 0, 1, 0))
	sr := must(ds[0].Isend(pattern(64<<10, 1), 1, 1, 0, device.ModeStandard))
	if _, err := wait(t, rr); !errors.Is(err, device.ErrRankFailed) {
		t.Errorf("receive ended with %v, want the rank failure", err)
	}
	if cts := ds[1].Stats().CTSSent.Load(); cts != 0 {
		t.Errorf("%d CTS sent to a dead sender", cts)
	}
	ds[0].NotifyRankFailed(1, errors.New("lease expired"))
	if _, err := wait(t, sr); !errors.Is(err, device.ErrRankFailed) {
		t.Errorf("send ended with %v", err)
	}
}

// TestPullRefusalIsRemembered: the injector refuses rank 1's pulls the way
// a system without ptrace access does. The first message tries, falls back
// and is delivered over the socket; the later ones do not try again, and
// the status says why.
func TestPullRefusalIsRemembered(t *testing.T) {
	const n = 64 << 10
	dom := fault.NewDomain()
	ds := openFlavor(t, "tcp-pull", 2, faulty(dom, nil))
	dom.Bind(1, ds[1])
	if err := dom.RefusePull(1, syscall.EPERM); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		msg, got := pattern(n, byte(i)), make([]byte, n)
		rr := must(ds[1].Irecv(got, 0, i, 0))
		waitOK(t, must(ds[0].Isend(msg, 1, i, 0, device.ModeStandard)))
		if waitOK(t, rr); !bytes.Equal(got, msg) {
			t.Fatalf("message %d corrupted on the fallback path", i)
		}
	}
	st := ds[1].Stats()
	if st.PullRefused.Load() != 1 || st.Pulled.Load() != 0 || st.DataRecv.Load() != 3 {
		t.Errorf("refused/pulled/DATA = %d/%d/%d, want 1/0/3", st.PullRefused.Load(), st.Pulled.Load(), st.DataRecv.Load())
	}
	if path := ds[1].PeerPaths()[0]; path != "wire: "+syscall.EPERM.Error() {
		t.Errorf("peer path %q", path)
	}
	if path := ds[0].PeerPaths()[1]; path != "pull" {
		t.Errorf("the refusal is rank 1's: rank 0 reports %q", path)
	}
}

// hostileCells are the guard words TestHostilePullOffer's hand-made offers
// point at. Package level: a word whose address only ever becomes a number
// does not escape, and the compiler would keep it on the test's stack.
var hostileCells [2]atomic.Uint64

// TestHostilePullOffer: the offer in an RTS is bytes off a socket. Whatever
// it says — an address the peer does not map, a token its cell does not
// hold, a cell that is some other word, an offer of the wrong size, a
// stream number out of range, a negative length — the receiver neither
// crashes nor hangs nor delivers bytes it cannot vouch for: the message
// takes the CTS path (and arrives intact when the peer then behaves), or
// the peer is failed.
func TestHostilePullOffer(t *testing.T) {
	const n = 64 << 10
	at := func(p unsafe.Pointer) uint64 { return uint64(uintptr(p)) }
	msg := pattern(n, 1)
	cell, other := &hostileCells[0], &hostileCells[1]
	cell.Store(0xfeedface)
	other.Store(0xdeadbeef)
	offer := func(addr, cell, token uint64) []byte {
		b := make([]byte, 24)
		binary.LittleEndian.PutUint64(b[0:], addr)
		binary.LittleEndian.PutUint64(b[8:], cell)
		binary.LittleEndian.PutUint64(b[16:], token)
		return b
	}
	good := offer(at(unsafe.Pointer(&msg[0])), at(unsafe.Pointer(cell)), 0xfeedface)
	stream := func(id uint64) []byte { return binary.LittleEndian.AppendUint64(append([]byte(nil), good...), id) }
	for name, tc := range map[string]struct {
		offer   []byte
		len     int32
		refused int64  // pulls attempted and refused
		path    string // what rank 1 says of rank 0 afterwards; "" = failed peer
	}{
		"honest": {good, n, 0, "pull"},
		// Only a call that moves nothing at all reports its errno: with the
		// cell read first, a bad payload address is a short count.
		"unmapped-payload": {offer(8, at(unsafe.Pointer(cell)), 0xfeedface), n, 1, "pull"},
		"unmapped-cell":    {offer(at(unsafe.Pointer(&msg[0])), 8, 0xfeedface), n, 1, "wire: " + syscall.EFAULT.Error()},
		"wrong-token":      {offer(at(unsafe.Pointer(&msg[0])), at(unsafe.Pointer(cell)), 0xfeedfacf), n, 1, "pull"},
		"wrong-cell":       {offer(at(unsafe.Pointer(&msg[0])), at(unsafe.Pointer(other)), 0xfeedface), n, 1, "pull"},
		"payload-past-end": {offer(^uint64(0)-100, at(unsafe.Pointer(cell)), 0xfeedface), n, 1, "pull"},
		"no-offer":         {nil, n, 0, "pull"},
		"23-bytes":         {good[:23], n, 0, ""},
		"25-bytes":         {append(append([]byte(nil), good...), 0), n, 0, ""},
		"negative-length":  {good, -5, 0, ""},
		"zero-token":       {offer(at(unsafe.Pointer(&msg[0])), at(unsafe.Pointer(cell)), 0), n, 0, "pull"},
		// A stream announced where no ring is: nothing to copy out of an
		// area, and the pull brings it all.
		"stream-no-ring":  {stream(5), n, 0, "pull"},
		"stream-zero":     {stream(0), n, 0, ""},
		"stream-past-u32": {stream(1 << 32), n, 0, ""},
	} {
		t.Run(name, func(t *testing.T) {
			var eps []transport.Transport
			ds := openFlavor(t, "tcp-pull", 2, func(ep transport.Transport) transport.Transport {
				eps = append(eps, ep)
				return ep
			})
			got := make([]byte, n)
			rr := must(ds[1].Irecv(got, 0, 1, 0))
			rts := wire.Header{Kind: wire.KindRTS, Tag: 1, MsgID: 77, Len: tc.len}
			if err := eps[0].Send(1, wire.NewFrame(&rts, tc.offer)); err != nil {
				t.Fatal(err)
			}
			if tc.path == "" {
				if _, err := wait(t, rr); !errors.Is(err, device.ErrRankFailed) {
					t.Errorf("receive ended with %v, want the peer's failure", err)
				}
				return
			}
			if name != "honest" && name != "stream-no-ring" {
				// Rank 0, by hand, now behaves: DATA on the CTS.
				until(t, "the CTS is granted", func() bool { return ds[1].Stats().CTSSent.Load() == 1 })
				data := wire.Header{Kind: wire.KindData, Tag: 1, MsgID: 77, Len: n}
				sent := make(chan error, 1)
				if err := eps[0].SendData(1, data, msg, func(err error) { sent <- err }); err != nil {
					t.Fatal(err)
				}
				if err := <-sent; err != nil {
					t.Fatal(err)
				}
			}
			if st := waitOK(t, rr); st.Count != n || !bytes.Equal(got, msg) {
				t.Errorf("receive: status %+v, bytes intact %v", st, bytes.Equal(got, msg))
			}
			if refused, path := ds[1].Stats().PullRefused.Load(), ds[1].PeerPaths()[0]; refused != tc.refused || path != tc.path {
				t.Errorf("pull refused %d times, peer path %q; want %d, %q", refused, path, tc.refused, tc.path)
			}
		})
	}
	runtime.KeepAlive(msg)
}

// outcome is how one send or receive of a blocking-matrix case ended; a
// send reports only its error, the blocking Send having no status.
type outcome struct {
	st   device.Status
	err  error
	data []byte // receives: the buffer afterwards, partial bytes included
}

// errClass is what two runs of a case must agree on about an error: the
// sentinel it matches, or the rank a failure names.
func errClass(err error, revoked error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, device.ErrTruncate):
		return "truncate"
	case errors.Is(err, device.ErrClosed):
		return "closed"
	case errors.Is(err, revoked):
		return "revoked"
	}
	if r, ok := device.FailedRank(err); ok {
		return fmt.Sprintf("rank %d failed", r)
	}
	return err.Error()
}

// blockingRunner runs the sends and receives of a case either as
// Isend/Irecv + Wait or as the blocking Send/Recv.
type blockingRunner struct {
	t        *testing.T
	blocking bool
}

// call starts a send of buf to peer (send) or a receive into buf from peer
// on d in the background, and returns once the call is posted and about to
// park — or, for an eager send, done. Once the call returns, the request it
// waited on must be in none of d's tables: for the blocking forms, that is
// the request they recycled.
func (rn blockingRunner) call(d *device.Device, send bool, buf []byte, peer, tag, ctx int) <-chan outcome {
	parked, done := make(chan struct{}), make(chan outcome, 1)
	go func() {
		var waited *device.Request
		park := func(r *device.Request) (device.Status, error) {
			waited = r
			close(parked)
			return r.Wait()
		}
		var o outcome
		switch {
		case rn.blocking && send:
			o.err = d.Send(buf, peer, tag, ctx, device.ModeStandard, park)
		case rn.blocking:
			o.st, o.err = d.Recv(buf, peer, tag, ctx, park)
		default:
			var r *device.Request
			if send {
				r, o.err = d.Isend(buf, peer, tag, ctx, device.ModeStandard)
			} else {
				r, o.err = d.Irecv(buf, peer, tag, ctx)
			}
			if o.err == nil {
				o.st, o.err = park(r)
			}
		}
		if waited == nil {
			close(parked)
		} else if in := d.HeldIn(waited); len(in) > 0 {
			rn.t.Errorf("rank %d: the request of a finished call is still in %v", d.Rank(), in)
		}
		if send {
			o.st = device.Status{}
		} else {
			o.data = append([]byte(nil), buf...)
		}
		done <- o
	}()
	select {
	case <-parked:
	case <-time.After(deadline):
		rn.t.Fatalf("rank %d: the call did not post within %v", d.Rank(), deadline)
	}
	return done
}

// end waits for a call started by call.
func (rn blockingRunner) end(done <-chan outcome) outcome {
	select {
	case o := <-done:
		return o
	case <-time.After(deadline):
		rn.t.Fatalf("a call did not complete within %v", deadline)
		return outcome{}
	}
}

// TestBlockingMatchesNonBlocking: the device's blocking Send and Recv end
// every case the way Isend/Irecv + Wait end it — the same status, error and
// received bytes, partial ones included — on every flavor, and the request
// a blocking call recycles is in no device table when the call returns:
// eager and rendezvous messages (the receive posted first, or the RTS
// queued first, when a co-host receive pulls on its own goroutine), a
// truncated receive of either protocol, wildcards, and a parked call ended
// by the sender's death, FailContext or Abort.
func TestBlockingMatchesNonBlocking(t *testing.T) {
	const big = 1 << 20
	revoked := errors.New("context revoked")
	rtsArrives := func(t *testing.T, d *device.Device) {
		until(t, "the RTS arrives", func() bool { return d.Stats().RTSRecv.Load() == 1 })
	}
	type outcomes map[string]outcome
	cases := []struct {
		name string
		want map[string]string // errClass of each outcome
		run  func(rn blockingRunner, flavor string) outcomes
	}{
		{"eager", map[string]string{"send": "nil", "recv": "nil"}, func(rn blockingRunner, flavor string) outcomes {
			ds := openFlavor(rn.t, flavor, 2, nil)
			send := rn.call(ds[0], true, pattern(1<<10, 1), 1, 1, 0)
			recv := rn.call(ds[1], false, make([]byte, 1<<10), 0, 1, 0)
			return outcomes{"send": rn.end(send), "recv": rn.end(recv)}
		}},
		{"rendezvous-posted", map[string]string{"send": "nil", "recv": "nil"}, func(rn blockingRunner, flavor string) outcomes {
			ds := openFlavor(rn.t, flavor, 2, nil)
			recv := rn.call(ds[1], false, make([]byte, big), 0, 1, 0)
			send := rn.call(ds[0], true, pattern(big, 2), 1, 1, 0)
			out := outcomes{"send": rn.end(send), "recv": rn.end(recv)}
			wantMoved(rn.t, flavor, ds[0], ds[1], 1)
			return out
		}},
		{"rendezvous-queued", map[string]string{"send": "nil", "recv": "nil"}, func(rn blockingRunner, flavor string) outcomes {
			ds := openFlavor(rn.t, flavor, 2, nil)
			send := rn.call(ds[0], true, pattern(big, 3), 1, 1, 0)
			rtsArrives(rn.t, ds[1])
			recv := rn.call(ds[1], false, make([]byte, big), 0, 1, 0)
			out := outcomes{"send": rn.end(send), "recv": rn.end(recv)}
			wantMoved(rn.t, flavor, ds[0], ds[1], 1)
			return out
		}},
		{"truncated-eager", map[string]string{"send": "nil", "recv": "truncate"}, func(rn blockingRunner, flavor string) outcomes {
			ds := openFlavor(rn.t, flavor, 2, nil)
			send := rn.call(ds[0], true, pattern(1<<10, 4), 1, 1, 0)
			recv := rn.call(ds[1], false, make([]byte, 100), 0, 1, 0)
			return outcomes{"send": rn.end(send), "recv": rn.end(recv)}
		}},
		{"truncated-rendezvous", map[string]string{"send": "nil", "recv": "truncate"}, func(rn blockingRunner, flavor string) outcomes {
			ds := openFlavor(rn.t, flavor, 2, nil)
			recv := rn.call(ds[1], false, make([]byte, 1000), 0, 1, 0)
			send := rn.call(ds[0], true, pattern(big, 5), 1, 1, 0)
			return outcomes{"send": rn.end(send), "recv": rn.end(recv)}
		}},
		{"wildcard", map[string]string{"send": "nil", "recv": "nil"}, func(rn blockingRunner, flavor string) outcomes {
			ds := openFlavor(rn.t, flavor, 3, nil)
			recv := rn.call(ds[0], false, make([]byte, big), device.AnySource, device.AnyTag, 7)
			send := rn.call(ds[2], true, pattern(big, 6), 0, 42, 7)
			return outcomes{"send": rn.end(send), "recv": rn.end(recv)}
		}},
		{"sender-killed", map[string]string{"send": "rank 0 failed", "recv": "rank 0 failed"}, func(rn blockingRunner, flavor string) outcomes {
			dom := fault.NewDomain()
			ds := openFlavor(rn.t, flavor, 2, faulty(dom, nil))
			recv := rn.call(ds[1], false, make([]byte, big), 0, 1, 0)
			send := rn.call(ds[0], true, pattern(big, 7), 1, 2, 0) // a tag nobody receives: parked on its CTS
			rtsArrives(rn.t, ds[1])
			dom.Kill(0)
			return outcomes{"send": rn.end(send), "recv": rn.end(recv)}
		}},
		{"fail-context", map[string]string{"send": "revoked", "recv": "revoked"}, func(rn blockingRunner, flavor string) outcomes {
			ds := openFlavor(rn.t, flavor, 2, nil)
			recv := rn.call(ds[1], false, make([]byte, big), 0, 1, 0)
			send := rn.call(ds[0], true, pattern(big, 8), 1, 2, 0)
			rtsArrives(rn.t, ds[1])
			ds[1].FailContext(0, revoked)
			ds[0].FailContext(0, revoked)
			return outcomes{"send": rn.end(send), "recv": rn.end(recv)}
		}},
		{"abort-receiver", map[string]string{"recv": "closed"}, func(rn blockingRunner, flavor string) outcomes {
			ds := openFlavor(rn.t, flavor, 2, nil)
			recv := rn.call(ds[1], false, make([]byte, big), 0, 1, 0)
			ds[1].Abort()
			return outcomes{"recv": rn.end(recv)}
		}},
		{"abort-sender", map[string]string{"send": "closed"}, func(rn blockingRunner, flavor string) outcomes {
			ds := openFlavor(rn.t, flavor, 2, nil)
			send := rn.call(ds[0], true, pattern(big, 9), 1, 1, 0)
			rtsArrives(rn.t, ds[1])
			ds[0].Abort()
			return outcomes{"send": rn.end(send)}
		}},
	}
	for _, flavor := range flavors {
		for _, tc := range cases {
			t.Run(flavor+"/"+tc.name, func(t *testing.T) {
				nonblocking := tc.run(blockingRunner{t, false}, flavor)
				blocking := tc.run(blockingRunner{t, true}, flavor)
				for name, want := range tc.want {
					a, b := nonblocking[name], blocking[name]
					if got := errClass(a.err, revoked); got != want {
						t.Errorf("%s: Isend/Irecv + Wait ended with %v, want %s", name, a.err, want)
					}
					if a.st != b.st || errClass(a.err, revoked) != errClass(b.err, revoked) || !bytes.Equal(a.data, b.data) {
						t.Errorf("%s: blocking call ended with status %+v, %v, %d bytes intact; Isend/Irecv + Wait with %+v, %v",
							name, b.st, b.err, commonPrefix(a.data, b.data), a.st, a.err)
					}
				}
			})
		}
	}
}

// commonPrefix is the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
