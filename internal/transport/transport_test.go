package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mpj/internal/wire"
)

// mkFrame builds a uniquely identifiable test frame.
func mkFrame(src, seq int, payload string) []byte {
	h := wire.Header{
		Kind: wire.KindEager,
		Src:  int32(src),
		Seq:  uint64(seq),
		Len:  int32(len(payload)),
	}
	return wire.NewFrame(&h, []byte(payload))
}

// collector accumulates frames delivered to one endpoint.
type collector struct {
	mu     sync.Mutex
	frames []struct {
		src   int
		frame []byte
	}
	signal chan struct{}
}

func newCollector() *collector {
	return &collector{signal: make(chan struct{}, 1<<16)}
}

func (c *collector) handle(src int, frame []byte) {
	c.mu.Lock()
	c.frames = append(c.frames, struct {
		src   int
		frame []byte
	}{src, frame})
	c.mu.Unlock()
	c.signal <- struct{}{}
}

func (c *collector) waitN(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-c.signal:
		case <-deadline:
			c.mu.Lock()
			got := len(c.frames)
			c.mu.Unlock()
			t.Fatalf("timed out waiting for %d frames, got %d", n, got)
		}
	}
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

// startChanMesh builds and starts an np-endpoint channel mesh with one
// collector per endpoint.
func startChanMesh(t *testing.T, np int) ([]*ChanTransport, []*collector) {
	t.Helper()
	eps := NewChanMesh(np)
	cols := make([]*collector, np)
	for i, ep := range eps {
		cols[i] = newCollector()
		ep.SetHandler(cols[i].handle)
		if err := ep.Start(); err != nil {
			t.Fatalf("Start rank %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps, cols
}

func TestChanMeshAllToAll(t *testing.T) {
	const np = 4
	eps, cols := startChanMesh(t, np)
	for i, ep := range eps {
		for j := 0; j < np; j++ {
			if err := ep.Send(j, mkFrame(i, 0, fmt.Sprintf("%d->%d", i, j))); err != nil {
				t.Fatalf("Send %d->%d: %v", i, j, err)
			}
		}
	}
	for j, col := range cols {
		col.waitN(t, np)
		col.mu.Lock()
		seen := map[int]bool{}
		for _, f := range col.frames {
			seen[f.src] = true
			want := fmt.Sprintf("%d->%d", f.src, j)
			if got := string(wire.Payload(f.frame)); got != want {
				t.Errorf("rank %d got payload %q, want %q", j, got, want)
			}
		}
		col.mu.Unlock()
		if len(seen) != np {
			t.Errorf("rank %d heard from %d distinct sources, want %d", j, len(seen), np)
		}
	}
}

func TestChanMeshOrderingPerPath(t *testing.T) {
	const n = 2000
	eps, cols := startChanMesh(t, 2)
	for s := 0; s < n; s++ {
		if err := eps[0].Send(1, mkFrame(0, s, "")); err != nil {
			t.Fatal(err)
		}
	}
	cols[1].waitN(t, n)
	cols[1].mu.Lock()
	defer cols[1].mu.Unlock()
	for i, f := range cols[1].frames {
		var h wire.Header
		if err := h.Decode(f.frame); err != nil {
			t.Fatal(err)
		}
		if h.Seq != uint64(i) {
			t.Fatalf("frame %d has seq %d: ordering violated", i, h.Seq)
		}
	}
}

func TestChanMeshSelfSend(t *testing.T) {
	eps, cols := startChanMesh(t, 2)
	if err := eps[0].Send(0, mkFrame(0, 7, "self")); err != nil {
		t.Fatal(err)
	}
	cols[0].waitN(t, 1)
	cols[0].mu.Lock()
	defer cols[0].mu.Unlock()
	if cols[0].frames[0].src != 0 {
		t.Errorf("self frame src = %d, want 0", cols[0].frames[0].src)
	}
	if got := string(wire.Payload(cols[0].frames[0].frame)); got != "self" {
		t.Errorf("self frame payload = %q", got)
	}
}

func TestChanMeshSendErrors(t *testing.T) {
	eps := NewChanMesh(2)
	eps[0].SetHandler(func(int, []byte) {})
	eps[1].SetHandler(func(int, []byte) {})
	if err := eps[0].Send(5, nil); err != ErrBadRank {
		t.Errorf("out-of-range send: got %v, want ErrBadRank", err)
	}
	if err := eps[0].Send(-1, nil); err != ErrBadRank {
		t.Errorf("negative send: got %v, want ErrBadRank", err)
	}
	if err := eps[0].Start(); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Start(); err != ErrStarted {
		t.Errorf("double Start: got %v, want ErrStarted", err)
	}
	eps[0].Close()
	eps[1].Close()
	if err := eps[0].Send(1, mkFrame(0, 0, "x")); err != ErrClosed {
		t.Errorf("send after close: got %v, want ErrClosed", err)
	}
}

func TestChanMeshStartWithoutHandler(t *testing.T) {
	eps := NewChanMesh(1)
	if err := eps[0].Start(); err != ErrNoHandler {
		t.Errorf("Start without handler: got %v, want ErrNoHandler", err)
	}
}

func TestChanMeshCloseDrainsOutbound(t *testing.T) {
	// A sender that closes immediately after Send must still deliver:
	// nothing it sent is left behind by its Close.
	eps := NewChanMesh(2)
	col := newCollector()
	eps[0].SetHandler(func(int, []byte) {})
	eps[1].SetHandler(col.handle)
	for _, ep := range eps {
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
	}
	const n = 500
	for s := 0; s < n; s++ {
		if err := eps[0].Send(1, mkFrame(0, s, "burst")); err != nil {
			t.Fatal(err)
		}
	}
	eps[0].Close()
	col.waitN(t, n)
	eps[1].Close()
}

func TestChanMeshConcurrentSenders(t *testing.T) {
	const np = 8
	const perSender = 200
	eps, cols := startChanMesh(t, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < perSender; s++ {
				if err := eps[i].Send((i+s)%np, mkFrame(i, s, "c")); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	deadline := time.Now().Add(10 * time.Second)
	for total < np*perSender && time.Now().Before(deadline) {
		total = 0
		for _, col := range cols {
			total += col.len()
		}
		time.Sleep(time.Millisecond)
	}
	if total != np*perSender {
		t.Fatalf("delivered %d frames, want %d", total, np*perSender)
	}
}

func TestNewChanMeshPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewChanMesh(0) did not panic")
		}
	}()
	NewChanMesh(0)
}

// peerFailure is one error-handler invocation observed in a TCP mesh test.
type peerFailure struct {
	rank, peer int
	err        error
}

// buildTCPMesh spins np listeners on localhost and returns started
// TCP transports plus their collectors. Every endpoint's error handler
// (installed before Start, per the Transport contract) forwards to the
// returned channel.
func buildTCPMesh(t *testing.T, np int) ([]*TCPTransport, []*collector, chan peerFailure) {
	t.Helper()
	failures := make(chan peerFailure, 64)
	lns := make([]net.Listener, np)
	addrs := make([]string, np)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	eps := make([]*TCPTransport, np)
	var wg sync.WaitGroup
	errs := make([]error, np)
	for i := 0; i < np; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[i], errs[i] = NewTCPTransport(i, 42, addrs, lns[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("NewTCPTransport rank %d: %v", i, err)
		}
	}
	cols := make([]*collector, np)
	for i, ep := range eps {
		i := i
		cols[i] = newCollector()
		ep.SetHandler(cols[i].handle)
		ep.SetErrorHandler(func(peer int, err error) {
			failures <- peerFailure{rank: i, peer: peer, err: err}
		})
		if err := ep.Start(); err != nil {
			t.Fatalf("Start rank %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
		for _, ln := range lns {
			ln.Close()
		}
	})
	return eps, cols, failures
}

func TestTCPMeshAllToAll(t *testing.T) {
	const np = 4
	eps, cols, _ := buildTCPMesh(t, np)
	for i, ep := range eps {
		for j := 0; j < np; j++ {
			if err := ep.Send(j, mkFrame(i, 0, fmt.Sprintf("%d->%d", i, j))); err != nil {
				t.Fatalf("Send %d->%d: %v", i, j, err)
			}
		}
	}
	for j, col := range cols {
		col.waitN(t, np)
		col.mu.Lock()
		for _, f := range col.frames {
			want := fmt.Sprintf("%d->%d", f.src, j)
			if got := string(wire.Payload(f.frame)); got != want {
				t.Errorf("rank %d got payload %q, want %q", j, got, want)
			}
		}
		col.mu.Unlock()
	}
}

func TestTCPMeshOrderingAndVolume(t *testing.T) {
	const n = 3000
	eps, cols, _ := buildTCPMesh(t, 2)
	for s := 0; s < n; s++ {
		if err := eps[1].Send(0, mkFrame(1, s, "volume-test-payload")); err != nil {
			t.Fatal(err)
		}
	}
	cols[0].waitN(t, n)
	cols[0].mu.Lock()
	defer cols[0].mu.Unlock()
	for i, f := range cols[0].frames {
		var h wire.Header
		if err := h.Decode(f.frame); err != nil {
			t.Fatal(err)
		}
		if h.Seq != uint64(i) {
			t.Fatalf("frame %d has seq %d: TCP ordering violated", i, h.Seq)
		}
	}
}

func TestTCPMeshOrderlyShutdownNoErrors(t *testing.T) {
	eps, _, failures := buildTCPMesh(t, 3)
	// Close in a staggered order; goodbye frames must suppress spurious
	// peer-failure reports.
	for _, ep := range eps {
		ep.Close()
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case f := <-failures:
		t.Errorf("orderly shutdown reported failure: rank %d peer %d: %v", f.rank, f.peer, f.err)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestTCPMeshPeerCrashReported(t *testing.T) {
	eps, _, failures := buildTCPMesh(t, 2)
	// Simulate a crash of rank 1: close its sockets without goodbye.
	eps[1].closeConns()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case f := <-failures:
			if f.rank == 0 && f.peer == 1 {
				return // rank 0 learned of rank 1's crash
			}
		case <-deadline:
			t.Fatal("peer crash was not reported to rank 0")
		}
	}
}

func TestTCPRejectsForeignJob(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addrs := []string{ln.Addr().String(), ""}

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Rank 0 of job 7 expects one peer.
		ep, err := NewTCPTransport(0, 7, addrs, ln)
		if err != nil {
			t.Errorf("NewTCPTransport: %v", err)
			return
		}
		ep.closeConns()
	}()

	// A connection from the wrong job must be rejected...
	bad, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	var hello [16]byte
	binary.LittleEndian.PutUint32(hello[0:], tcpMagic)
	binary.LittleEndian.PutUint32(hello[4:], 1)
	binary.LittleEndian.PutUint64(hello[8:], 999) // wrong job
	bad.Write(hello[:])

	// ...while the right job completes the mesh.
	good, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(hello[8:], 7)
	good.Write(hello[:])

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("bootstrap did not complete")
	}
	bad.Close()
	good.Close()
}

func TestSendQueueFIFOAndClose(t *testing.T) {
	q := newSendQueue()
	for i := 0; i < 10; i++ {
		if !q.push(outItem{frame: []byte{byte(i)}}) {
			t.Fatal("push on open queue failed")
		}
	}
	if q.len() != 10 {
		t.Fatalf("len = %d, want 10", q.len())
	}
	q.close()
	if q.push(outItem{frame: []byte{99}}) {
		t.Error("push on closed queue succeeded")
	}
	for i := 0; i < 10; i++ {
		f, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue ended early", i)
		}
		if f.frame[0] != byte(i) {
			t.Fatalf("pop %d returned %d: FIFO violated", i, f.frame[0])
		}
		q.delivered()
	}
	if _, ok := q.pop(); ok {
		t.Error("pop after drain on closed queue returned a frame")
	}
}
