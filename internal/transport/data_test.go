package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpj/internal/wire"
)

// The by-reference payload path (SendData → Lander), on every transport.

// landPad is a scripted Lander for one endpoint: plan decides, per DATA
// header, the buffer the payload lands in (nil: nobody awaits it) or the
// error to refuse it with; every finished landing is reported on landed.
type landPad struct {
	plan   func(src int, h wire.Header) ([]byte, error)
	landed chan landing
}

type landing struct {
	src int
	h   wire.Header
	buf []byte
	err error
}

func newLandPad(plan func(src int, h wire.Header) ([]byte, error)) *landPad {
	return &landPad{plan: plan, landed: make(chan landing, 64)}
}

func (p *landPad) land(src int, h wire.Header) ([]byte, func(error), error) {
	buf, err := p.plan(src, h)
	if err != nil || buf == nil {
		return nil, nil, err
	}
	return buf, func(err error) { p.landed <- landing{src: src, h: h, buf: buf, err: err} }, nil
}

func (p *landPad) wait(t *testing.T) landing {
	t.Helper()
	select {
	case l := <-p.landed:
		return l
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a landing")
		return landing{}
	}
}

// exactFit lands every payload in a fresh buffer of its announced size.
func exactFit(src int, h wire.Header) ([]byte, error) { return make([]byte, h.Len), nil }

// dataHdr builds the KindData header SendData takes.
func dataHdr(src int, id uint64, n int) wire.Header {
	return wire.Header{Kind: wire.KindData, Src: int32(src), MsgID: id, Len: int32(n)}
}

// doneChan adapts a SendData completion to a channel; a second call panics
// the test through the closed-channel send.
func doneChan() (func(error), chan error) {
	ch := make(chan error, 1)
	var calls atomic.Int32
	return func(err error) {
		if calls.Add(1) > 1 {
			panic("SendData completion called twice")
		}
		ch <- err
	}, ch
}

func waitDone(t *testing.T, ch chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a SendData completion")
		return nil
	}
}

var dataJobSeq atomic.Uint64

// dataMesh is a started two-endpoint mesh with a collector and a landPad
// per endpoint.
type dataMesh struct {
	eps      []Transport
	cols     []*collector
	pads     []*landPad
	failures chan peerFailure
}

// pairMeshes names the two-endpoint mesh flavors the payload path must
// behave identically on: hyb-local rides the channel half of the hybrid
// device, hyb-remote its TCP half.
var pairMeshes = []string{"chan", "tcp", "hyb-local", "hyb-remote"}

func newDataMesh(t *testing.T, flavor string, plan func(src int, h wire.Header) ([]byte, error)) *dataMesh {
	t.Helper()
	m := &dataMesh{failures: make(chan peerFailure, 64)}
	listen := func() ([]net.Listener, []string) {
		lns, addrs := make([]net.Listener, 2), make([]string, 2)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			t.Cleanup(func() { ln.Close() })
			lns[i], addrs[i] = ln, ln.Addr().String()
		}
		return lns, addrs
	}
	both := func(build func(rank int) (Transport, error)) {
		eps, errs := make([]Transport, 2), make([]error, 2)
		var wg sync.WaitGroup
		for i := range eps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				eps[i], errs[i] = build(i)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s mesh rank %d: %v", flavor, i, err)
			}
		}
		m.eps = eps
	}
	jobID := 0xda7a<<32 | dataJobSeq.Add(1)
	switch flavor {
	case "chan":
		for _, ep := range NewChanMesh(2) {
			m.eps = append(m.eps, ep)
		}
	case "tcp":
		lns, addrs := listen()
		both(func(i int) (Transport, error) { return NewTCPTransport(i, jobID, addrs, lns[i]) })
	case "hyb-local":
		loc := ProcessLocality()
		both(func(i int) (Transport, error) {
			return NewHybTransport(HybConfig{Rank: i, JobID: jobID, Locs: []string{loc, loc}})
		})
	case "hyb-remote":
		lns, addrs := listen()
		both(func(i int) (Transport, error) {
			return NewHybTransport(HybConfig{Rank: i, JobID: jobID, Locs: []string{"hostA#1", "hostB#1"}, Addrs: addrs, Listener: lns[i]})
		})
	default:
		t.Fatalf("no mesh flavor %q", flavor)
	}
	for i, ep := range m.eps {
		i := i
		m.cols = append(m.cols, newCollector())
		m.pads = append(m.pads, newLandPad(plan))
		ep.SetHandler(m.cols[i].handle)
		ep.SetLander(m.pads[i].land)
		ep.SetErrorHandler(func(peer int, err error) {
			m.failures <- peerFailure{rank: i, peer: peer, err: err}
		})
		if err := ep.Start(); err != nil {
			t.Fatalf("Start rank %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, ep := range m.eps {
			ep.Close()
		}
	})
	return m
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%251)
	}
	return b
}

// TestSendDataLandsInPlace: the payload arrives byte-exact in the buffer
// the Lander named, the header arrives as sent, and the completion fires
// exactly once with nil — for sizes straddling the bufio buffers and the
// pool's top class, and for the empty payload a zero-byte Ssend produces.
func TestSendDataLandsInPlace(t *testing.T) {
	for _, flavor := range pairMeshes {
		t.Run(flavor, func(t *testing.T) {
			m := newDataMesh(t, flavor, exactFit)
			for id, n := range []int{0, 1, 1<<16 - 37, 1 << 16, 1<<20 - 33, 1 << 20, 1<<20 + 1, 4 << 20} {
				msg := pattern(n, byte(id))
				done, ch := doneChan()
				if err := m.eps[0].SendData(1, dataHdr(0, uint64(id), n), msg, done); err != nil {
					t.Fatalf("SendData(%d bytes): %v", n, err)
				}
				l := m.pads[1].wait(t)
				if err := waitDone(t, ch); err != nil {
					t.Fatalf("%d bytes: completion error %v", n, err)
				}
				if l.err != nil || l.src != 0 || l.h.MsgID != uint64(id) || int(l.h.Len) != n || l.h.Kind != wire.KindData {
					t.Fatalf("%d bytes: landing %+v", n, l)
				}
				if !bytes.Equal(l.buf, msg) {
					t.Fatalf("%d bytes: payload corrupted in flight", n)
				}
			}
			if got := m.cols[1].len(); got != 0 {
				t.Errorf("%d DATA messages reached the frame handler", got)
			}
		})
	}
}

// TestSendDataKeepsQueueOrder: a payload rides the same per-destination
// FIFO as frames. Over a socket that is observable end to end: the frame
// sent before the payload is handled before it lands, the one sent after
// is handled after.
func TestSendDataKeepsQueueOrder(t *testing.T) {
	for _, flavor := range []string{"tcp", "hyb-remote"} {
		t.Run(flavor, func(t *testing.T) {
			var m *dataMesh
			var before atomic.Int32
			m = newDataMesh(t, flavor, func(src int, h wire.Header) ([]byte, error) {
				before.Store(int32(m.cols[1].len()))
				return make([]byte, h.Len), nil
			})
			pad := m.pads[1]
			msg := pattern(2<<20, 7)
			done, ch := doneChan()
			if err := m.eps[0].Send(1, mkFrame(0, 1, "before")); err != nil {
				t.Fatal(err)
			}
			if err := m.eps[0].SendData(1, dataHdr(0, 1, len(msg)), msg, done); err != nil {
				t.Fatal(err)
			}
			if err := m.eps[0].Send(1, mkFrame(0, 2, "after")); err != nil {
				t.Fatal(err)
			}
			l := pad.wait(t)
			if err := waitDone(t, ch); err != nil {
				t.Fatal(err)
			}
			m.cols[1].waitN(t, 2)
			if before.Load() != 1 {
				t.Errorf("%d frames handled when the payload's header arrived, want exactly the one sent before it", before.Load())
			}
			if !bytes.Equal(l.buf, msg) {
				t.Error("payload corrupted")
			}
			m.cols[1].mu.Lock()
			defer m.cols[1].mu.Unlock()
			for i, want := range []string{"before", "after"} {
				if got := string(wire.Payload(m.cols[1].frames[i].frame)); got != want {
					t.Errorf("frame %d = %q, want %q", i, got, want)
				}
			}
		})
	}
}

// TestSendDataShortAndUnawaited: a landing buffer shorter than the payload
// takes its head, a payload nobody awaits is skipped whole, and in both
// cases the next messages on the connection are intact — the stream stays
// in step.
func TestSendDataShortAndUnawaited(t *testing.T) {
	for _, flavor := range pairMeshes {
		t.Run(flavor, func(t *testing.T) {
			m := newDataMesh(t, flavor, func(src int, h wire.Header) ([]byte, error) {
				switch h.MsgID {
				case 1:
					return make([]byte, 1000), nil // short
				case 2:
					return nil, nil // nobody waiting
				}
				return make([]byte, h.Len), nil
			})
			msg := pattern(300<<10, 3)
			var chans []chan error
			for id := uint64(1); id <= 3; id++ {
				done, ch := doneChan()
				chans = append(chans, ch)
				if err := m.eps[0].SendData(1, dataHdr(0, id, len(msg)), msg, done); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.eps[0].Send(1, mkFrame(0, 9, "still in step")); err != nil {
				t.Fatal(err)
			}
			short := m.pads[1].wait(t)
			if short.h.MsgID != 1 || short.err != nil || !bytes.Equal(short.buf, msg[:1000]) {
				t.Errorf("short landing: id %d err %v, head intact %v", short.h.MsgID, short.err, bytes.Equal(short.buf, msg[:1000]))
			}
			full := m.pads[1].wait(t)
			if full.h.MsgID != 3 || full.err != nil || !bytes.Equal(full.buf, msg) {
				t.Errorf("landing after a skipped payload: id %d err %v", full.h.MsgID, full.err)
			}
			for i, ch := range chans {
				if err := waitDone(t, ch); err != nil {
					t.Errorf("payload %d: completion error %v", i+1, err)
				}
			}
			m.cols[1].waitN(t, 1)
			if got := string(wire.Payload(m.cols[1].frames[0].frame)); got != "still in step" {
				t.Errorf("frame after the payloads = %q", got)
			}
		})
	}
}

// TestSendDataSelf: a payload to the endpoint's own rank lands through the
// loopback path.
func TestSendDataSelf(t *testing.T) {
	for _, flavor := range pairMeshes {
		t.Run(flavor, func(t *testing.T) {
			m := newDataMesh(t, flavor, exactFit)
			msg := pattern(100<<10, 5)
			done, ch := doneChan()
			if err := m.eps[0].SendData(0, dataHdr(0, 1, len(msg)), msg, done); err != nil {
				t.Fatal(err)
			}
			if l := m.pads[0].wait(t); !bytes.Equal(l.buf, msg) {
				t.Error("self payload corrupted")
			}
			if err := waitDone(t, ch); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSendDataRefusedByLander: a Lander that rejects a header fails the
// transfer. Over TCP the connection is finished and reports the Lander's
// error as its failure; in process the sender's completion carries it.
func TestSendDataRefusedByLander(t *testing.T) {
	refusal := errors.New("granted a different length")
	for _, flavor := range pairMeshes {
		t.Run(flavor, func(t *testing.T) {
			m := newDataMesh(t, flavor, func(int, wire.Header) ([]byte, error) { return nil, refusal })
			msg := pattern(64<<10, 1)
			done, ch := doneChan()
			if err := m.eps[0].SendData(1, dataHdr(0, 1, len(msg)), msg, done); err != nil {
				t.Fatal(err)
			}
			err := waitDone(t, ch)
			if flavor == "chan" || flavor == "hyb-local" {
				if !errors.Is(err, refusal) {
					t.Fatalf("completion error %v, want the refusal", err)
				}
				return
			}
			for {
				select {
				case f := <-m.failures:
					if f.rank == 1 && f.peer == 0 {
						if !errors.Is(f.err, refusal) {
							t.Fatalf("rank 1 reported %v, want the refusal", f.err)
						}
						return
					}
				case <-time.After(10 * time.Second):
					t.Fatal("refused DATA did not end the connection")
				}
			}
		})
	}
}

// TestSendDataCompletesOnEveryTeardown: every accepted payload gets its
// completion exactly once, whatever happens to the endpoints — never a
// hang, never a second call (doneChan panics on one).
func TestSendDataCompletesOnEveryTeardown(t *testing.T) {
	msg := pattern(8<<20, 9) // more than loopback socket buffers hold
	for _, flavor := range pairMeshes {
		remote := flavor == "tcp" || flavor == "hyb-remote"
		t.Run(flavor+"/close-drains", func(t *testing.T) {
			m := newDataMesh(t, flavor, exactFit)
			done, ch := doneChan()
			if err := m.eps[0].SendData(1, dataHdr(0, 1, len(msg)), msg, done); err != nil {
				t.Fatal(err)
			}
			m.eps[0].Close()
			select {
			case err := <-ch:
				if err != nil {
					t.Errorf("Close did not drain the payload: %v", err)
				}
			default:
				t.Fatal("Close returned before the payload's completion")
			}
			if l := m.pads[1].wait(t); l.err != nil || !bytes.Equal(l.buf, msg) {
				t.Errorf("payload sent before Close: err %v", l.err)
			}
			if err := m.eps[0].SendData(1, dataHdr(0, 2, 1), msg[:1], done); err == nil {
				t.Error("SendData on a closed endpoint accepted the payload")
			}
		})
		t.Run(flavor+"/abort", func(t *testing.T) {
			// Over a socket the receiver stalls inside its Lander, so
			// nothing drains and the sender's writer blocks mid-payload
			// with more payloads queued behind it: the abort must complete
			// them all. In process the writer lands synchronously, so the
			// payloads are simply in some state of progress.
			release := make(chan struct{})
			defer close(release)
			plan := exactFit
			if remote {
				plan = func(int, wire.Header) ([]byte, error) { <-release; return nil, nil }
			}
			m := newDataMesh(t, flavor, plan)
			var chans []chan error
			for id := uint64(1); id <= 3; id++ {
				done, ch := doneChan()
				chans = append(chans, ch)
				if err := m.eps[0].SendData(1, dataHdr(0, id, len(msg)), msg, done); err != nil {
					t.Fatal(err)
				}
			}
			m.eps[0].Abort()
			for i, ch := range chans {
				select {
				case err := <-ch:
					if remote && err == nil {
						t.Errorf("payload %d of an aborted endpoint completed as written", i+1)
					}
				default:
					t.Fatalf("Abort returned before payload %d's completion", i+1)
				}
			}
		})
		if !remote {
			continue
		}
		t.Run(flavor+"/peer-dies-mid-write", func(t *testing.T) {
			// The receiver stalls on the first payload's header and then
			// crashes: the sender's writer is blocked mid-payload.
			stalled := make(chan struct{}, 1)
			release := make(chan struct{})
			m := newDataMesh(t, flavor, func(int, wire.Header) ([]byte, error) {
				stalled <- struct{}{}
				<-release
				return nil, nil
			})
			var chans []chan error
			for id := uint64(1); id <= 2; id++ {
				done, ch := doneChan()
				chans = append(chans, ch)
				if err := m.eps[0].SendData(1, dataHdr(0, id, len(msg)), msg, done); err != nil {
					t.Fatal(err)
				}
			}
			<-stalled
			aborted := make(chan struct{})
			go func() { m.eps[1].Abort(); close(aborted) }() // closes its sockets, then joins the stalled reader
			for i, ch := range chans {
				if err := waitDone(t, ch); err == nil {
					t.Errorf("payload %d to a crashed peer completed as written", i+1)
				}
			}
			close(release)
			<-aborted
		})
	}
}

// TestTCPReaderRejectsHostileData: DATA framing that contradicts itself is
// a wire.ErrFrame that ends the connection — before the Lander is asked
// and before a byte of "payload" is read.
func TestTCPReaderRejectsHostileData(t *testing.T) {
	frame := func(prefix uint32, h wire.Header) []byte {
		out := make([]byte, wire.PrefixLen+wire.HeaderLen)
		binary.LittleEndian.PutUint32(out, prefix)
		_ = h.Encode(out[wire.PrefixLen:])
		return out
	}
	for name, in := range map[string][]byte{
		"negative len":          frame(wire.HeaderLen+8, wire.Header{Kind: wire.KindData, Len: -8}),
		"len beyond the prefix": frame(wire.HeaderLen+8, wire.Header{Kind: wire.KindData, Len: 1 << 30}),
		"len short of prefix":   frame(wire.HeaderLen+8, wire.Header{Kind: wire.KindData, Len: 4}),
		"header-only with len":  frame(wire.HeaderLen, wire.Header{Kind: wire.KindData, Len: 1}),
		"prefix below header":   frame(3, wire.Header{Kind: wire.KindData}),
		"prefix above limit":    frame(1<<31, wire.Header{Kind: wire.KindEager}),
	} {
		tr := &TCPTransport{size: 2, goodbye: make([]bool, 2)}
		tr.handler = func(int, []byte) { t.Errorf("%s: reached the handler", name) }
		tr.lander = func(int, wire.Header) ([]byte, func(error), error) {
			t.Errorf("%s: reached the lander", name)
			return nil, nil, nil
		}
		err := tr.readLoop(1, bytes.NewReader(append(in, make([]byte, 64)...)))
		if !errors.Is(err, wire.ErrFrame) {
			t.Errorf("%s: reader ended with %v, want wire.ErrFrame", name, err)
		}
	}
}

// FuzzTCPReader feeds arbitrary bytes to a connection's reader loop. It
// must not panic, must end in a typed error (a wire.ErrFrame for bytes
// that are not a frame stream, EOF for a stream that just stops, or nil
// after a GOODBYE), must hand the handler only well-formed frames, and
// must not allocate on the word of a length field: what it allocates is
// bounded by one top-class frame plus a small multiple of the input.
func FuzzTCPReader(f *testing.F) {
	stream := func(frames ...[]byte) []byte {
		var b bytes.Buffer
		for _, fr := range frames {
			_ = wire.WriteFrame(&b, fr)
		}
		return b.Bytes()
	}
	data := func(n int) []byte {
		return wire.NewFrame(&wire.Header{Kind: wire.KindData, MsgID: 1, Len: int32(n)}, make([]byte, n))
	}
	f.Add([]byte{})
	f.Add(stream(mkFrame(1, 0, "hello"), data(100), mkFrame(1, 1, "again")))
	f.Add(stream(data(0), wire.NewFrame(&wire.Header{Kind: wire.KindGoodbye}, nil), mkFrame(1, 2, "after goodbye")))
	f.Add(stream(wire.NewFrame(&wire.Header{Kind: wire.KindRTS, Len: 1 << 30}, nil)))
	f.Add([]byte{0xff, 0xff, 0xff, 0x3f, byte(wire.KindEager)})        // 1 GiB eager frame, 1 byte of it
	f.Add(append([]byte{0xff, 0xff, 0xff, 0x3f}, data(1<<10)...))      // 1 GiB prefix on a 1 KiB DATA header
	f.Add(append([]byte{0x21, 0, 0, 0, byte(wire.KindData)}, 0xff))    // truncated DATA header
	f.Add(stream(data(1 << 10))[:wire.PrefixLen+wire.HeaderLen+100])   // DATA cut mid-payload
	f.Add(stream(mkFrame(1, 0, string(make([]byte, 3000))))[:2000])    // eager cut mid-payload
	f.Add(bytes.Repeat([]byte{0x25, 0, 0, 0, byte(wire.KindData)}, 9)) // DATA headers overlapping each other
	f.Fuzz(func(t *testing.T, in []byte) {
		tr := &TCPTransport{size: 2, goodbye: make([]bool, 2)}
		tr.handler = func(src int, frame []byte) {
			var h wire.Header
			if err := h.Decode(frame); err != nil || src != 1 {
				t.Errorf("handler got a %d-byte frame from %d: %v", len(frame), src, err)
			}
			wire.PutBuf(frame)
		}
		landed := 0
		errGrant := errors.New("not the granted length")
		tr.lander = func(src int, h wire.Header) ([]byte, func(error), error) {
			if h.Kind != wire.KindData || h.Len < 0 {
				t.Errorf("lander asked about %+v", h)
			}
			if h.Len > 4096 {
				return nil, nil, errGrant // as the device refuses a length it did not grant
			}
			switch h.MsgID % 3 {
			case 0:
				return nil, nil, nil // nobody waiting: skip it
			case 1:
				return make([]byte, h.Len/2), func(error) { landed++ }, nil
			}
			return make([]byte, h.Len), func(error) { landed++ }, nil
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tr.readLoop(1, bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		switch {
		case err == nil, errors.Is(err, wire.ErrFrame), err == errGrant, err == io.EOF, err == io.ErrUnexpectedEOF:
		default:
			t.Errorf("reader ended with untyped error %v", err)
		}
		// The 64 KiB bufio, one trusted frame, and what is proportional to
		// the input: frames (rounded up to their pool class), landing
		// buffers, completions; plus slack for the test runtime itself.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+1<<20+1<<16+8*len(in)); grew > bound {
			t.Errorf("reader allocated %d bytes on a %d-byte input (bound %d)", grew, len(in), bound)
		}
	})
}

// TestReaderEndsTyped pins the terminal errors of the reader loop on
// streams that stop: cleanly between frames, inside a header, inside a
// body, inside a landing.
func TestReaderEndsTyped(t *testing.T) {
	var whole bytes.Buffer
	_ = wire.WriteFrame(&whole, mkFrame(1, 0, "0123456789"))
	data := wire.NewFrame(&wire.Header{Kind: wire.KindData, Len: 10}, []byte("0123456789"))
	var dataStream bytes.Buffer
	_ = wire.WriteFrame(&dataStream, data)
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"between frames", whole.Bytes(), io.EOF},
		{"inside a header", whole.Bytes()[:20], io.ErrUnexpectedEOF},
		{"inside a body", whole.Bytes()[:whole.Len()-3], io.ErrUnexpectedEOF},
		{"inside a landing", dataStream.Bytes()[:dataStream.Len()-3], io.ErrUnexpectedEOF},
	} {
		tr := &TCPTransport{size: 2, goodbye: make([]bool, 2)}
		tr.handler = func(int, []byte) {}
		var finErr error
		tr.lander = func(int, wire.Header) ([]byte, func(error), error) {
			return make([]byte, 10), func(err error) { finErr = err }, nil
		}
		if err := tr.readLoop(1, bytes.NewReader(tc.in)); err != tc.want {
			t.Errorf("%s: reader ended with %v, want %v", tc.name, err, tc.want)
		}
		if tc.name == "inside a landing" && finErr != io.ErrUnexpectedEOF {
			t.Errorf("broken landing finished with %v", finErr)
		}
	}
}

func ExampleLander() {
	// A Lander that lands every payload in a buffer of its own.
	var land Lander = func(src int, h wire.Header) ([]byte, func(error), error) {
		buf := make([]byte, h.Len)
		return buf, func(err error) { fmt.Println("landed", len(buf), "bytes from", src, err) }, nil
	}
	eps := NewChanMesh(2)
	for _, ep := range eps {
		ep.SetHandler(func(int, []byte) {})
		ep.SetLander(land)
		_ = ep.Start()
	}
	payload := []byte("borrowed, not copied into a frame")
	hdr := wire.Header{Kind: wire.KindData, Len: int32(len(payload))}
	sent := make(chan error)
	_ = eps[0].SendData(1, hdr, payload, func(err error) { sent <- err })
	fmt.Println("sender may reuse the payload:", <-sent)
	for _, ep := range eps {
		ep.Close()
	}
	// Output:
	// landed 33 bytes from 0 <nil>
	// sender may reuse the payload: <nil>
}
