package transport

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpj/internal/wire"
)

// inlineJobSeq hands out process-unique hub job ids for the tests below.
var inlineJobSeq atomic.Uint64

// inlineMesh builds an unstarted np-endpoint mesh whose frames between
// ranks are handed over in the sender's goroutine: a channel mesh, or a
// hybrid mesh whose ranks all share this process.
func inlineMesh(t *testing.T, flavor string, np int) []Transport {
	t.Helper()
	eps := make([]Transport, np)
	switch flavor {
	case "chan":
		for i, ep := range NewChanMesh(np) {
			eps[i] = ep
		}
	case "hyb":
		loc := ProcessLocality()
		locs := make([]string, np)
		for i := range locs {
			locs[i] = loc
		}
		jobID := 0x1e11<<32 | inlineJobSeq.Add(1)
		for i := range eps {
			ep, err := NewHybTransport(HybConfig{Rank: i, JobID: jobID, Locs: locs})
			if err != nil {
				t.Fatalf("hyb rank %d: %v", i, err)
			}
			eps[i] = ep
		}
	default:
		t.Fatalf("unknown flavor %q", flavor)
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

// within runs f and fails the test if it does not return within d: a
// deadlock shows as a failure, not as a wedged test binary.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("did not finish within %v", d)
	}
}

// goroutinesAdded reports how many goroutines f leaves running, retrying
// a few times so that a goroutine of an earlier test exiting meanwhile
// does not count.
func goroutinesAdded(f func()) int {
	var added int
	for try := 0; try < 5; try++ {
		before := runtime.NumGoroutine()
		f()
		if added = runtime.NumGoroutine() - before; added == 0 {
			break
		}
	}
	return added
}

// TestChanMeshStartsNoGoroutine: starting a mesh whose ranks share this
// process adds no goroutine — there is no writer, inbox or demux between
// two ranks — and after Close the count is back where it was.
func TestChanMeshStartsNoGoroutine(t *testing.T) {
	for _, flavor := range []string{"chan", "hyb"} {
		for _, np := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/np%d", flavor, np), func(t *testing.T) {
				var eps []Transport
				if n := goroutinesAdded(func() {
					eps = inlineMesh(t, flavor, np)
					for _, ep := range eps {
						ep.SetHandler(func(_ int, f []byte) { wire.PutBuf(f) })
						if err := ep.Start(); err != nil {
							t.Fatal(err)
						}
					}
					for i, ep := range eps {
						_ = ep.Send((i+1)%np, mkFrame(i, 0, "x"))
					}
				}); n != 0 {
					t.Errorf("starting the mesh added %d goroutines, want 0", n)
				}
				if n := goroutinesAdded(func() {
					for _, ep := range eps {
						ep.Close()
					}
				}); n != 0 {
					t.Errorf("closing the mesh left %d goroutines, want 0", n)
				}
			})
		}
	}
}

// TestChanInlineBeforeStart: frames sent to an endpoint before its Start
// wait in its backlog; Start hands them over first, in order per sender,
// and the frames senders keep sending while it does come after them.
func TestChanInlineBeforeStart(t *testing.T) {
	const np, early, late = 3, 200, 200
	for _, flavor := range []string{"chan", "hyb"} {
		t.Run(flavor, func(t *testing.T) {
			eps := inlineMesh(t, flavor, np)
			var mu sync.Mutex
			seen := make([]int, np) // next seq expected from each sender
			var bad []string
			eps[0].SetHandler(func(src int, frame []byte) {
				var h wire.Header
				_ = h.Decode(frame)
				wire.PutBuf(frame)
				mu.Lock()
				defer mu.Unlock()
				if int(h.Seq) != seen[src] {
					bad = append(bad, fmt.Sprintf("from %d: seq %d, want %d", src, h.Seq, seen[src]))
				}
				seen[src] = int(h.Seq) + 1
			})
			for _, ep := range eps[1:] {
				ep.SetHandler(func(int, []byte) {})
				if err := ep.Start(); err != nil {
					t.Fatal(err)
				}
			}
			within(t, 10*time.Second, func() {
				for s := 0; s < early; s++ {
					for src := 1; src < np; src++ {
						_ = eps[src].Send(0, mkFrame(src, s, "early"))
					}
				}
				var wg sync.WaitGroup
				for src := 1; src < np; src++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for s := early; s < early+late; s++ {
							_ = eps[src].Send(0, mkFrame(src, s, "late"))
						}
					}()
				}
				if err := eps[0].Start(); err != nil {
					t.Error(err)
				}
				wg.Wait()
			})
			mu.Lock()
			defer mu.Unlock()
			for _, b := range bad {
				t.Error(b)
			}
			for src := 1; src < np; src++ {
				if seen[src] != early+late {
					t.Errorf("rank 0 got %d frames from rank %d, want %d", seen[src], src, early+late)
				}
			}
		})
	}
}

// TestChanInlineAbortMidDelivery: an endpoint aborted while its handler
// runs in a sender's goroutine — by the handler itself, or by its own rank
// meanwhile — returns from Abort, runs no handler afterwards, and the
// peers hear of the abort.
func TestChanInlineAbortMidDelivery(t *testing.T) {
	for _, flavor := range []string{"chan", "hyb"} {
		for _, by := range []string{"own handler", "own rank"} {
			t.Run(flavor+"/"+by, func(t *testing.T) {
				eps := inlineMesh(t, flavor, 2)
				var heard atomic.Int32
				eps[0].SetHandler(func(int, []byte) {})
				eps[0].SetErrorHandler(func(peer int, err error) { heard.Add(1) })
				var calls, after atomic.Int32
				var aborted atomic.Bool
				entered, release := make(chan struct{}), make(chan struct{})
				eps[1].SetHandler(func(_ int, frame []byte) {
					wire.PutBuf(frame)
					if aborted.Load() {
						after.Add(1)
					}
					if calls.Add(1) > 1 {
						return
					}
					if by == "own handler" {
						eps[1].Abort()
						aborted.Store(true)
						return
					}
					close(entered)
					<-release
				})
				for _, ep := range eps {
					if err := ep.Start(); err != nil {
						t.Fatal(err)
					}
				}
				within(t, 10*time.Second, func() {
					sent := make(chan error, 1)
					go func() { sent <- eps[0].Send(1, mkFrame(0, 0, "first")) }()
					if by == "own rank" {
						<-entered
						returned := make(chan struct{})
						go func() {
							eps[1].Abort()
							aborted.Store(true)
							close(returned)
						}()
						select {
						case <-returned:
							t.Error("Abort returned while the handler still ran")
						case <-time.After(50 * time.Millisecond):
						}
						close(release)
						<-returned
					}
					if err := <-sent; err != nil {
						t.Errorf("send into the aborting endpoint: %v", err)
					}
					for s := 1; s < 10; s++ {
						_ = eps[0].Send(1, mkFrame(0, s, "after"))
					}
				})
				if n := after.Load(); n != 0 {
					t.Errorf("%d handler calls ran after Abort returned", n)
				}
				if n := heard.Load(); n != 1 {
					t.Errorf("the peer heard of the abort %d times, want 1", n)
				}
			})
		}
	}
}

// TestChanInlineAbortDuringHandOver: a handler that aborts its endpoint
// while Start hands the backlog over ends the hand-over there: the frames
// after it are refused, not handed to the handler.
func TestChanInlineAbortDuringHandOver(t *testing.T) {
	for _, flavor := range []string{"chan", "hyb"} {
		t.Run(flavor, func(t *testing.T) {
			eps := inlineMesh(t, flavor, 2)
			eps[0].SetHandler(func(int, []byte) {})
			var calls atomic.Int32
			eps[1].SetHandler(func(_ int, frame []byte) {
				wire.PutBuf(frame)
				if calls.Add(1) == 1 {
					eps[1].Abort()
				}
			})
			if err := eps[0].Start(); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 5; s++ {
				_ = eps[0].Send(1, mkFrame(0, s, "early"))
			}
			within(t, 10*time.Second, func() {
				if err := eps[1].Start(); err != nil {
					t.Error(err)
				}
			})
			if n := calls.Load(); n != 1 {
				t.Errorf("the handler ran %d times, want 1: the hand-over went on after Abort", n)
			}
		})
	}
}
