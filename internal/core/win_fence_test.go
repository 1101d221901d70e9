package core

import (
	"sync"
	"testing"
	"time"

	"mpj/internal/transport"
	"mpj/internal/wire"
)

// slowPath wraps one chan endpoint for the fence ordering test. Like the
// fault endpoint it hides the mesh's locality (only the Transport methods
// show through the embedding), so every RMA operation takes the wire; and
// frames to dst are held back by a relay goroutine, in order. The hold is
// asynchronous — Send returns at once — which is the point:
// fault.Domain.Delay sleeps inside Send and so also delays everything the
// sender does next, and a frame still in flight on one path while the
// sender's later frames have landed on another is the case under test.
type slowPath struct {
	transport.Transport
	dst     int
	mu      sync.Mutex // orders Send against Close
	q       chan []byte
	relayed chan struct{} // closed once the relay has forwarded everything
}

func newSlowPath(inner transport.Transport, dst int, hold time.Duration) *slowPath {
	// The buffer only has to outlast a burst: the ranks run in lockstep
	// with the relay, a handful of frames per fence.
	q := make(chan []byte, 1024)
	s := &slowPath{Transport: inner, dst: dst, q: q, relayed: make(chan struct{})}
	go func() {
		defer close(s.relayed)
		for f := range q {
			time.Sleep(hold)
			if err := inner.Send(dst, f); err != nil {
				wire.PutBuf(f)
			}
		}
	}()
	return s
}

func (s *slowPath) Send(dst int, frame []byte) error {
	if dst != s.dst {
		return s.Transport.Send(dst, frame)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.q == nil {
		return transport.ErrClosed
	}
	s.q <- frame
	return nil
}

// Close forwards what the relay still holds before it closes the endpoint,
// as a transport's own Close drains its queues.
func (s *slowPath) Close() error {
	s.mu.Lock()
	if s.q != nil {
		close(s.q)
		s.q = nil
	}
	s.mu.Unlock()
	<-s.relayed
	return s.Transport.Close()
}

// TestWinFenceOrdering drives the two facts the fence protocol rests on,
// np=3 with every peer remote and the path C→B slow. Each iteration closes
// three epochs:
//
//	clean    nobody puts: the fence skips the completion phase. B waits in
//	         it for C's entry (slow path) while the fast A finishes, wires
//	         its next-epoch Put and announces the *next* entry with its bit
//	         set — which B must not take for this fence's (per-fence slots,
//	         never latest-wins).
//	both     C puts x into B[0] (slow path), A puts y into B[1].
//	third    A puts z into B[0]. The completion phase of the fence before is
//	         why this is safe: A held C's entry long before C's x reached B,
//	         and without that phase z would land first and x overwrite it.
//
// The sync frame count is the agreement check: 2 per rank for the clean
// fence, 4 for each of the other two, on every member — a member that ran
// or skipped a completion phase alone sends a different number.
func TestWinFenceOrdering(t *testing.T) {
	const (
		np, iters = 3, 200
		a, b, c   = 0, 1, 2
	)
	eps := transport.NewChanMesh(np)
	mk := func(i int) (transport.Transport, error) {
		if i == c {
			return newSlowPath(eps[i], b, 100*time.Microsecond), nil
		}
		return struct{ transport.Transport }{eps[i]}, nil // locality hidden, nothing held
	}
	runRanksCounted(t, np, mk, func(w *Comm) error {
		rank := w.Rank()
		buf := make([]int64, 2)
		win, err := w.WinCreate(buf, 1)
		if err != nil {
			return err
		}
		// No deferred Free (it is collective: a rank leaving on a failed check
		// would hang in it), and a short deadline so its peers follow soon.
		win.SetEpochTimeout(5 * time.Second)
		put := func(v int64, slot int) error { return win.Put([]int64{v}, 0, 1, Long, b, slot) }
		for i := int64(0); i < iters; i++ {
			x, y, z := 3*i+1, 3*i+2, 3*i+3
			if err := win.Fence(); err != nil {
				return err
			}
			if rank == c {
				err = put(x, 0)
			} else if rank == a {
				err = put(y, 1)
			}
			if err == nil {
				err = win.Fence()
			}
			if err != nil {
				return err
			}
			// B[0] is A's target again from here on; only B[1] may be read.
			if rank == b && buf[1] != y {
				return expect(false, "iteration %d: B[1] = %d after the two-put epoch, want %d", i, buf[1], y)
			}
			if rank == a {
				err = put(z, 0)
			}
			if err == nil {
				err = win.Fence()
			}
			if err != nil {
				return err
			}
			if rank == b && buf[0] != z {
				return expect(false, "iteration %d: B[0] = %d, want A's %d: a third party's old-epoch Put (%d) overtook it",
					i, buf[0], z, x)
			}
		}
		s := win.ProfSnapshot()
		if err := expect(s.RmaSyncFrames == iters*(2+4+4) && s.RmaSyncDirect == 0,
			"%d sync frames / %d direct over %d iterations, want %d / 0: members disagreed on a completion phase",
			s.RmaSyncFrames, s.RmaSyncDirect, iters, iters*(2+4+4)); err != nil {
			return err
		}
		return win.Free()
	})
}

// TestWinFenceAllocationGate pins what makes the co-located epoch cheap: a
// warmed chan np=2 Put+Fence epoch builds no frame and no closure — the
// one object it may allocate is the deadline timer of whichever rank had
// to park.
func TestWinFenceAllocationGate(t *testing.T) {
	const allocsPerEpoch = 2 // across both ranks
	runRanksWin(t, "chan", 2, func(w *Comm) error {
		rank := w.Rank()
		window := make([]byte, 2*4096)
		win, err := w.WinCreate(window, 1)
		if err != nil {
			return err
		}
		defer win.Free()
		var src any = make([]byte, 4096)
		i := 0
		epoch := func() {
			if err := win.Put(src, 0, 4096, Byte, 1-rank, (i%2)*4096); err != nil {
				t.Error(err)
			}
			if err := win.Fence(); err != nil {
				t.Error(err)
			}
			i++
		}
		// AllocsPerRun counts the process's mallocs, so rank 1 runs the same
		// warm-up + measured epochs alongside and rank 0's figure covers both.
		const warm, runs = 50, 200
		for k := 0; k < warm; k++ {
			epoch()
		}
		if rank != 0 {
			for k := 0; k < runs+1; k++ { // AllocsPerRun makes one extra warm-up call
				epoch()
			}
			return nil
		}
		allocs := testing.AllocsPerRun(runs, epoch)
		t.Logf("%.2f objects allocated per chan np=2 Put+Fence epoch, both ranks", allocs)
		return expect(allocs <= allocsPerEpoch, "a co-located Put+Fence epoch allocates %.2f objects, want ≤ %d", allocs, allocsPerEpoch)
	})
}
