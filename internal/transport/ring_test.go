package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"mpj/internal/wire"
)

// needRings skips a test on a system without rings (see area_other.go).
func needRings(t *testing.T) {
	t.Helper()
	in, err := newInRing()
	if err != nil {
		t.Skipf("no rings here: %v", err)
	}
	closeRingFd(in)
	unmapRing(in.m)
}

// ringMesh is a started two-rank TCP mesh of this process whose ranks
// share rings both ways, with rank 1's frames and landings recorded in
// arrival order on got, and what each rank's plan heard about its frames
// to the other in media.
type ringMesh struct {
	eps   []*TCPTransport
	got   chan arrival
	errs  chan error
	mu    sync.Mutex
	media [2]string
}

// arrival is one frame (or landed payload) at rank 1, by its Seq.
type arrival struct {
	seq  uint64
	kind wire.Kind
	body []byte
}

func newRingMesh(t *testing.T, fault func(peer int) error) *ringMesh {
	t.Helper()
	needRings(t)
	lns, addrs := make([]net.Listener, 2), make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(func() { ln.Close() })
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	m := &ringMesh{eps: make([]*TCPTransport, 2), got: make(chan arrival, 1<<12), errs: make(chan error, 16)}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range m.eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.eps[i], errs[i] = NewTCPTransport(i, 0x5149, addrs, lns[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	pid := os.Getpid()
	for i, ep := range m.eps {
		ep.Rings(RingPlan{Pids: []int{pid, pid}, Fault: fault, Report: func(peer int, medium string) {
			m.mu.Lock()
			m.media[i] = medium
			m.mu.Unlock()
		}})
		ep.SetErrorHandler(func(peer int, err error) { m.errs <- err })
		if i == 0 {
			ep.SetHandler(func(src int, frame []byte) { wire.PutBuf(frame) })
		} else {
			ep.SetHandler(func(src int, frame []byte) {
				var h wire.Header
				_ = h.Decode(frame)
				m.got <- arrival{h.Seq, h.Kind, append([]byte(nil), wire.Payload(frame)...)}
				wire.PutBuf(frame)
			})
			ep.SetLander(func(src int, h wire.Header) ([]byte, func(error), error) {
				buf := make([]byte, h.Len)
				return buf, func(error) { m.got <- arrival{h.Seq, h.Kind, buf} }, nil
			})
		}
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, ep := range m.eps {
			ep.Abort()
		}
	})
	return m
}

// live waits until both directions ride rings (or, with want "socket…",
// until both said why not).
func (m *ringMesh) live(t *testing.T, want string) {
	t.Helper()
	for end := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		m.mu.Lock()
		media := m.media
		m.mu.Unlock()
		if media[0] == want && media[1] == want &&
			(want != "ring" || m.eps[0].rings.live.Load() == 1 && m.eps[1].rings.live.Load() == 1) {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("media %q / %q, want %q", media[0], media[1], want)
		}
	}
}

func (m *ringMesh) next(t *testing.T) arrival {
	t.Helper()
	select {
	case a := <-m.got:
		return a
	case err := <-m.errs:
		t.Fatalf("peer failure: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a frame")
	}
	return arrival{}
}

func seqFrame(seq, n int) []byte {
	h := wire.Header{Kind: wire.KindEager, Seq: uint64(seq), Len: int32(n)}
	body := make([]byte, n)
	for i := range body {
		body[i] = byte(seq + i)
	}
	return wire.NewFrame(&h, body)
}

// TestRingKeepsOrderAcrossMedia: frames that fit the ring, frames that do
// not, and SendData payloads — which take the socket behind a marker —
// arrive in the order they were sent, byte for byte, whether the reader
// drains the ring on doorbells or a poller races it, and also when the
// sender outruns the consumer and frames queue behind a full ring.
func TestRingKeepsOrderAcrossMedia(t *testing.T) {
	for _, polling := range []bool{false, true} {
		name := "doorbells"
		if polling {
			name = "polled"
		}
		t.Run(name, func(t *testing.T) {
			m := newRingMesh(t, nil)
			m.live(t, "ring")
			stop := make(chan struct{})
			var pollers sync.WaitGroup
			if polling {
				pollers.Add(1)
				go func() {
					defer pollers.Done()
					for {
						select {
						case <-stop:
							return
						default:
							m.eps[1].Poll(50 * time.Microsecond)
						}
					}
				}()
			}
			const count = 600
			sizes := func(i int) int {
				switch i % 7 {
				case 3:
					return ringCap // never fits: the socket
				case 5:
					return 16 << 10
				}
				return i % 5000
			}
			var data [count][]byte
			for i := 0; i < count; i++ {
				n := sizes(i)
				if i%11 == 0 {
					data[i] = bytes.Repeat([]byte{byte(i)}, n+1)
					done, ch := doneChan()
					if err := m.eps[0].SendData(1, wire.Header{Kind: wire.KindData, Seq: uint64(i), Len: int32(n + 1)}, data[i], done); err != nil {
						t.Fatal(err)
					}
					go func() { <-ch }()
					continue
				}
				if err := m.eps[0].Send(1, seqFrame(i, n)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < count; i++ {
				a := m.next(t)
				if a.seq != uint64(i) {
					t.Fatalf("arrival %d carries seq %d", i, a.seq)
				}
				want := data[i]
				if want == nil {
					want = wire.Payload(seqFrame(i, sizes(i)))
				}
				if !bytes.Equal(a.body, want) {
					t.Fatalf("arrival %d (%s, %d bytes) corrupted", i, a.kind, len(a.body))
				}
			}
			close(stop)
			pollers.Wait()
			if err := m.eps[0].Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRingLosesNoDoorbell is the checker of the handshake: a frame
// published in the instant between a waiter's last poll and the end of its
// announcement — when the producer sees a poller and rings no doorbell —
// must still be delivered, by the waiter's final poll. Without that poll
// it waits for a doorbell nobody sends, and this test fails at its
// deadline. In the held rows another drainer (the reader after a doorbell,
// or a second waiter) holds the ring across the final poll, having looked
// for the last time before the frame was published: the final poll must
// wait its turn rather than skip the ring.
func TestRingLosesNoDoorbell(t *testing.T) {
	for _, held := range []bool{false, true} {
		name := "free"
		if held {
			name = "held"
		}
		t.Run(name, func(t *testing.T) {
			m := newRingMesh(t, nil)
			m.live(t, "ring")
			in := m.eps[1].rings.ins[0]
			for i := 0; i < 20; i++ {
				bells := m.eps[0].rings.plan.Bells.Load()
				var published bool
				if held {
					in.mu.Lock()
				}
				m.eps[1].rings.pollHook = func() {
					if published {
						return
					}
					published = true
					if err := m.eps[0].Send(1, seqFrame(i, 64)); err != nil {
						t.Error(err)
					}
					if held {
						time.AfterFunc(5*time.Millisecond, in.mu.Unlock)
					}
				}
				m.eps[1].Poll(time.Duration(i) * time.Microsecond)
				m.eps[1].rings.pollHook = nil
				if got := m.eps[0].rings.plan.Bells.Load(); got != bells {
					t.Fatalf("round %d: the producer rang a doorbell while the waiter announced itself", i)
				}
				select {
				case a := <-m.got:
					if a.seq != uint64(i) {
						t.Fatalf("round %d: got seq %d", i, a.seq)
					}
				case <-time.After(2 * time.Second):
					t.Fatalf("round %d: a frame published during the last poll was never delivered", i)
				}
			}
		})
	}
}

// TestRingSetupRefusals: every refusal leaves the pair on the socket, says
// why, and delivers all the same.
func TestRingSetupRefusals(t *testing.T) {
	m := newRingMesh(t, func(peer int) error { return syscall.EPERM })
	m.live(t, "socket: "+syscall.EPERM.Error())
	for i := 0; i < 10; i++ {
		if err := m.eps[0].Send(1, seqFrame(i, 100*i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if a := m.next(t); a.seq != uint64(i) {
			t.Fatalf("arrival %d carries seq %d", i, a.seq)
		}
	}
	if m.eps[0].rings.plan.Frames.Load() != 0 || m.eps[1].Poll(time.Millisecond) {
		t.Error("a refused pair used a ring")
	}

	in, err := newInRing()
	if err != nil {
		t.Fatal(err)
	}
	defer unmapRing(in.m)
	defer closeRingFd(in)
	token := in.m.word(offToken).Load()
	for name, tc := range map[string]struct{ pid, fd int }{
		"no such process":    {1 << 30, in.fd},
		"no such descriptor": {os.Getpid(), 1 << 20},
		"not a ring":         {os.Getpid(), int(os.Stdin.Fd())},
	} {
		if o, err := mapRing(tc.pid, tc.fd, token); err == nil {
			unmapRing(o.m)
			t.Errorf("%s: mapped", name)
		}
	}
	if o, err := mapRing(os.Getpid(), in.fd, token^2); err == nil {
		unmapRing(o.m)
		t.Error("mapped a ring with another token")
	}
	if o, err := mapRing(os.Getpid(), in.fd, token); err != nil {
		t.Errorf("the honest offer: %v", err)
	} else {
		unmapRing(o.m)
	}
}

// TestRingSealsRefuseTruncation: nobody — the creator included — can
// shrink or grow a ring's file, so no mapping of it can fault.
func TestRingSealsRefuseTruncation(t *testing.T) {
	needRings(t)
	in, err := newInRing()
	if err != nil {
		t.Fatal(err)
	}
	defer unmapRing(in.m)
	defer closeRingFd(in)
	for _, size := range []int64{0, ringHeader, 2 * ringSize} {
		if err := syscall.Ftruncate(in.fd, size); !errors.Is(err, syscall.EPERM) {
			t.Errorf("truncating the ring to %d bytes: %v, want EPERM", size, err)
		}
	}
	if _, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(in.fd), fAddSeals, 0x8); errno != syscall.EPERM {
		t.Errorf("adding a seal: %v, want EPERM", errno)
	}
}

// heapRing is ring memory in the Go heap, 8-byte aligned, for the rows
// that write hostile bytes.
func heapRing() ringMem {
	words := make([]uint64, ringSize/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), ringSize)
}

// record writes a record header at data offset pos.
func record(m ringMem, pos uint64, n int, kind uint32) {
	d := m.data()
	binary.LittleEndian.PutUint32(d[pos%ringCap:], uint32(n))
	binary.LittleEndian.PutUint32(d[pos%ringCap+4:], kind)
}

// drainHostile drains ring memory m from head to tail on a bare transport
// whose handler checks every frame it gets, and returns the frames.
func drainHostile(t *testing.T, m ringMem, head, tail uint64) ([][]byte, error) {
	m.word(offHead).Store(head)
	m.word(offTail).Store(tail)
	in := &inRing{m: m, fd: -1, head: head}
	var got [][]byte
	tr := &TCPTransport{size: 2, handler: func(src int, frame []byte) {
		var h wire.Header
		if err := h.Decode(frame); err != nil || len(frame) < wire.HeaderLen || len(frame) > ringCap {
			t.Errorf("handler got a %d-byte frame: %v", len(frame), err)
		}
		got = append(got, frame)
	}}
	_, err := tr.drainLocked(1, in, false)
	return got, err
}

// TestRingHostileRecords: ring bytes that are not a record stream end the
// ring with a wire.ErrFrame — never a panic, never a frame cut out of
// bytes the producer did not publish — and honest records straddling the
// wrap come out whole.
func TestRingHostileRecords(t *testing.T) {
	const start = ringCap - 16 // a record here straddles the wrap
	honest := seqFrame(7, 100)
	for name, tc := range map[string]struct {
		write      func(m ringMem)
		head, tail uint64
		frames     int
		bad        bool
	}{
		"length 0":              {func(m ringMem) { record(m, 0, 0, recFrame) }, 0, 8, 0, true},
		"below the header":      {func(m ringMem) { record(m, 0, wire.HeaderLen-1, recFrame) }, 0, 64, 0, true},
		"above capacity":        {func(m ringMem) { record(m, 0, ringCap, recFrame) }, 0, ringCap, 0, true},
		"above the published":   {func(m ringMem) { record(m, 0, 200, recFrame) }, 0, 64, 0, true},
		"marker with a length":  {func(m ringMem) { record(m, 0, 8, recMark) }, 0, 16, 0, true},
		"unknown kind":          {func(m ringMem) { record(m, 0, 64, 9) }, 0, 80, 0, true},
		"tail past capacity":    {func(m ringMem) {}, 0, ringCap + 8, 0, true},
		"tail behind the head":  {func(m ringMem) {}, 64, 8, 0, true},
		"tail off the grid":     {func(m ringMem) { record(m, 0, 64, recFrame) }, 0, 77, 0, true},
		"straddling, published": {func(m ringMem) { putAt(m, start, honest) }, start, start + padded(len(honest)), 1, false},
		"straddling, cut short": {func(m ringMem) { putAt(m, start, honest) }, start, start + 64, 0, true},
		"marker, then nothing":  {func(m ringMem) { record(m, 0, 0, recMark) }, 0, 8, 0, false},
	} {
		t.Run(name, func(t *testing.T) {
			m := heapRing()
			tc.write(m)
			got, err := drainHostile(t, m, tc.head, tc.tail)
			if bad := err != nil; bad != tc.bad || (err != nil && !errors.Is(err, wire.ErrFrame)) {
				t.Errorf("drain ended with %v, want a wire.ErrFrame: %v", err, tc.bad)
			}
			if len(got) != tc.frames {
				t.Errorf("%d frames delivered, want %d", len(got), tc.frames)
			}
			if tc.frames == 1 && !bytes.Equal(got[0], honest) {
				t.Error("the frame across the wrap came out corrupted")
			}
		})
	}

	// The producer's side: a head the consumer cannot have written.
	for _, head := range []uint64{ringCap + 16, 1 << 40} {
		m := heapRing()
		m.word(offHead).Store(head)
		o := &outRing{m: m, tail: 8}
		if ok, err := o.put(recFrame, honest); ok || !errors.Is(err, wire.ErrFrame) {
			t.Errorf("head %d: put = %v, %v; want a wire.ErrFrame", head, ok, err)
		}
	}
}

// putAt publishes frame at data offset pos the way a producer would.
func putAt(m ringMem, pos uint64, frame []byte) {
	m.word(offHead).Store(pos)
	o := &outRing{m: m, tail: pos}
	if ok, err := o.put(recFrame, frame); !ok || err != nil {
		panic("putAt: no room")
	}
}

// FuzzRingDrain feeds arbitrary ring bytes, head and tail to the consumer.
// It must not panic, must end in nil or a wire.ErrFrame, and must hand the
// handler only frames that fit the ring and carry a header. The same bytes
// then feed the stream consumer (unstreamHostile), with fill as the
// producer's word, total as the length the RTS announced and posted as the
// receive buffer's.
func FuzzRingDrain(f *testing.F) {
	honest := seqFrame(1, 50)
	seed := func(pos uint64, frames ...[]byte) ([]byte, uint64, uint64) {
		m := heapRing()
		m.word(offHead).Store(pos)
		o := &outRing{m: m, tail: pos}
		for _, fr := range frames {
			o.put(recFrame, fr)
			o.put(recMark, nil)
		}
		return append([]byte(nil), m.data()...), pos, o.tail
	}
	noStream := func(data []byte, head, tail uint64) {
		f.Add(data, head, tail, uint64(0), uint32(0), uint32(0))
	}
	noStream(seed(0, honest))
	noStream(seed(ringCap-24, honest, seqFrame(2, 3000)))
	noStream([]byte{1, 0, 0, 0, 1, 0, 0, 0}, 0, 8)
	noStream([]byte{}, 5, 1<<63)
	for _, row := range hostileStreams {
		f.Add([]byte{}, uint64(0), uint64(0), row.fill, row.total, row.posted)
	}
	f.Fuzz(func(t *testing.T, data []byte, head, tail, fill uint64, total, posted uint32) {
		m := heapRing()
		copy(m[ringHeader:], data)
		_, err := drainHostile(t, m, head, tail)
		if err != nil && !errors.Is(err, wire.ErrFrame) {
			t.Errorf("drain ended with untyped error %v", err)
		}
		unstreamHostile(t, m, fill, int(total&0x7fffffff), int(posted%(2<<20)))
	})
}

// hostileStreams are stream areas the consumer of stream 7 must survive:
// fill is the producer's word (id, count, stop mark), total the length the
// RTS announced, posted the receive buffer's; got is how many bytes it
// copies before it stops, frame whether it ends in a wire.ErrFrame (the
// producer's failure) rather than leaving the rest to a pull.
var hostileStreams = []struct {
	name          string
	fill          uint64
	total, posted uint32
	got           int
	frame         bool
}{
	{"count past the area", 7<<32 | (streamArea + streamSlot), 1 << 20, 1 << 20, 0, true},
	{"count past the announced length", 7<<32 | streamSlot, 1000, 1 << 20, 0, true},
	{"another stream's id", 8<<32 | streamSlot, 1 << 20, 1 << 20, 0, true},
	{"stop mark inside a slot", 7<<32 | 1000 | streamStop, 1 << 20, 1 << 20, 1000, true},
	{"stopped after a slot", 7<<32 | streamSlot | streamStop, 1 << 20, 1 << 20, streamSlot, false},
	{"a short buffer", 7<<32 | streamSlot, 1 << 20, 1000, 1000, false},
	{"whole", 7<<32 | 100, 100, 1 << 20, 100, false},
	{"nothing published", 7 << 32, 1 << 20, 1 << 20, 0, false},
}

// unstreamHostile runs the consumer of stream 7 over ring memory m whose
// producer word is fill, into a posted-byte buffer with guard bytes
// behind it, and returns what it copied. It fails the test on a panic, an
// untyped error, a count past the buffer or a byte written behind it.
func unstreamHostile(t *testing.T, m ringMem, fill uint64, total, posted int) (int, error) {
	t.Helper()
	m.word(offFill).Store(fill)
	buf := make([]byte, posted+64)
	for i := range buf {
		buf[i] = 0xAA
	}
	got, err := m.unstream(7, total, buf[:posted], nil, nil)
	if err != nil && !errors.Is(err, wire.ErrFrame) {
		t.Errorf("stream ended with untyped error %v", err)
	}
	if got < 0 || got > min(posted, total) {
		t.Errorf("%d bytes copied into a %d-byte buffer for a %d-byte stream", got, posted, total)
	}
	for i := posted; i < len(buf); i++ {
		if buf[i] != 0xAA {
			t.Fatalf("byte %d behind the %d-byte buffer written", i, posted)
		}
	}
	if done := m.word(offDone).Load(); done != 7 {
		t.Errorf("the consumer left offDone at %d, not at its stream", done)
	}
	return got, err
}

// TestRingHostileStream: stream words that contradict the stream end it
// with a wire.ErrFrame, honest ones copy exactly what was published and no
// more than the buffer holds, and either way the consumer says it is done
// with the area.
func TestRingHostileStream(t *testing.T) {
	for _, row := range hostileStreams {
		t.Run(row.name, func(t *testing.T) {
			m := heapRing()
			area := m.area()
			for i := range area {
				area[i] = byte(i % 251)
			}
			got, err := unstreamHostile(t, m, row.fill, int(row.total), int(row.posted))
			if got != row.got || errors.Is(err, wire.ErrFrame) != row.frame {
				t.Errorf("copied %d bytes, ended with %v; want %d and a wire.ErrFrame: %v", got, err, row.got, row.frame)
			}
		})
	}
}

// TestStreamRoundTrip: a payload streams whole between two endpoints of a
// ring mesh, the area is free for the next stream once the consumer is
// done, a stream nobody consumes stops and keeps the area until its late
// consumer copies what it holds, and an endpoint without a ring streams
// nothing.
func TestStreamRoundTrip(t *testing.T) {
	m := newRingMesh(t, nil)
	m.live(t, "ring")
	const n = 1<<20 + 12345
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i*7 + 1)
	}
	stream := func(id uint32, dst []byte) (int, error) {
		type out struct {
			n   int
			err error
		}
		ch := make(chan out, 1)
		go func() {
			n, err := m.eps[1].Unstream(0, id, n, dst, nil)
			ch <- out{n, err}
		}()
		m.eps[0].Stream(1, id, msg, nil)
		o := <-ch
		return o.n, o.err
	}
	for round := uint32(1); round <= 3; round++ {
		id, _ := m.eps[0].StreamOpen(1)
		if id != round {
			t.Fatalf("round %d: StreamOpen = %d", round, id)
		}
		got := make([]byte, n)
		if k, err := stream(id, got); err != nil || k != n || !bytes.Equal(got, msg) {
			// A consumer that stalls takes over: not this row's subject,
			// but then the bytes it got must still be the head.
			if err != nil || !bytes.Equal(got[:k], msg[:k]) {
				t.Fatalf("round %d: %d bytes, %v", round, k, err)
			}
			t.Logf("round %d: taken over after %d bytes", round, k)
		}
	}

	// Nobody consumes: the producer stops behind a full area, and the
	// area stays claimed until a consumer says it is done.
	id, _ := m.eps[0].StreamOpen(1)
	m.eps[0].Stream(1, id, msg, nil)
	if again, miss := m.eps[0].StreamOpen(1); again != 0 || miss != StreamBehind {
		t.Fatalf("StreamOpen = %d, %d while the peer holds stream %d, want 0, StreamBehind", again, miss, id)
	}
	got := make([]byte, n)
	if k, err := m.eps[1].Unstream(0, id, n, got, nil); err != nil || k != streamArea || !bytes.Equal(got[:k], msg[:k]) {
		t.Fatalf("the late consumer copied %d bytes, %v; want the %d the area holds", k, err, streamArea)
	}
	if again, miss := m.eps[0].StreamOpen(1); again != id+1 || miss != StreamClaimed {
		t.Fatalf("StreamOpen = %d, %d once the peer is done, want %d", again, miss, id+1)
	}
	m.eps[0].Stream(1, id+1, nil, nil) // hand the claim back
	if k, err := m.eps[1].Unstream(0, id+1, 0, nil, nil); k != 0 || err != nil {
		t.Fatalf("an empty stream: %d, %v", k, err)
	}

	eps, _, _ := buildTCPMesh(t, 2)
	if id, miss := eps[0].StreamOpen(1); id != 0 || miss != StreamNoRing {
		t.Errorf("a mesh without rings opened stream %d (%d)", id, miss)
	}
	if k, err := eps[1].Unstream(0, 1, n, got, nil); k != 0 || err != nil {
		t.Errorf("a mesh without rings unstreamed %d bytes, %v", k, err)
	}
}

// TestRingPollWithoutRings: a transport with no live ring answers at once.
func TestRingPollWithoutRings(t *testing.T) {
	eps, _, _ := buildTCPMesh(t, 2)
	var calls atomic.Int32
	start := time.Now()
	for i := 0; i < 100; i++ {
		if eps[0].Poll(time.Second) {
			calls.Add(1)
		}
	}
	if calls.Load() != 0 || time.Since(start) > time.Second {
		t.Errorf("Poll without rings delivered %d times in %v", calls.Load(), time.Since(start))
	}
}
