package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"mpj/internal/device"
	"mpj/internal/transport"
	"mpj/internal/wire"
)

// remote is a chan endpoint that, like the fault endpoint, says no other
// rank shares its address space, so every RMA operation takes the wire.
type remote struct{ transport.Transport }

func (r remote) Peers() transport.Peers {
	p := r.Transport.Peers()
	p.Local = nil
	return p
}

// slowPath wraps one remote endpoint for the fence ordering test: frames to
// dst are held back by a relay goroutine, in order. The hold is
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
	s := &slowPath{Transport: remote{inner}, dst: dst, q: q, relayed: make(chan struct{})}
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

// TestWinFenceOrdering drives the reason a window with remote members runs
// the completion phase, np=3 with every peer remote and the path C→B slow.
// Each iteration closes three epochs:
//
//	quiet    nobody puts.
//	both     C puts x into B[0] (slow path), A puts y into B[1].
//	third    A puts z into B[0]. The completion phase of the fence before is
//	         why this is safe: A held C's entry long before C's x reached B,
//	         and without that phase z would land first and x overwrite it.
//
// Every fence costs every rank 2 entry and 2 completion frames.
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
		return remote{eps[i]}, nil // nothing held
	}
	runRanksCounted(t, np, mk, true, func(w *Comm) error {
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
		if err := expect(s.RmaSyncFrames == iters*3*4 && s.RmaSyncDirect == 0,
			"%d sync frames / %d direct over %d iterations, want %d / 0",
			s.RmaSyncFrames, s.RmaSyncDirect, iters, iters*3*4); err != nil {
			return err
		}
		return win.Free()
	})
}

// TestWinFenceAllocationGate pins what makes the co-located epoch cheap: a
// warmed chan np=2 Put+Fence epoch allocates nothing on either rank — no
// frame, no closure, and no timer: a rank that parks finds the window's
// watchdog already armed from an earlier epoch.
func TestWinFenceAllocationGate(t *testing.T) {
	const allocsPerEpoch = 0.05 // across both ranks
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
		return expect(allocs <= allocsPerEpoch, "a co-located Put+Fence epoch allocates %.2f objects, want ≤ %.2f", allocs, allocsPerEpoch)
	})
}

// TestWinProfExactTCP: over TCP every announcement is a frame, and every
// fence — whatever its epoch did — costs a rank np-1 entry frames and np-1
// completion frames.
func TestWinProfExactTCP(t *testing.T) {
	const np = 3
	trs := tcpMesh(t, np)
	mk := func(i int) (transport.Transport, error) { return trs[i], nil }
	runRanksCounted(t, np, mk, true, func(w *Comm) error {
		rank := w.Rank()
		win, err := w.WinCreate(make([]int64, np), 1)
		if err != nil {
			return err
		}
		defer win.Free()
		got := make([]int64, 1)
		for k, op := range []func() error{
			func() error { return nil },
			func() error {
				if rank != 1 {
					return nil
				}
				return win.Put([]int64{7}, 0, 1, Long, 2, 0)
			},
			func() error { return win.Get(got, 0, 1, Long, 2, 0) },
		} {
			if err := op(); err != nil {
				return err
			}
			if err := win.Fence(); err != nil {
				return err
			}
			s := win.ProfSnapshot()
			want := int64(k+1) * 2 * (np - 1)
			if err := expect(s.RmaSyncFrames == want && s.RmaSyncDirect == 0,
				"after fence %d: %d sync frames / %d direct, want %d / 0", k+1, s.RmaSyncFrames, s.RmaSyncDirect, want); err != nil {
				return err
			}
		}
		return expect(got[0] == 7, "get after put = %d, want 7", got[0])
	})
}

// winJob is the manual harness of the failure rows: one device and world
// per transport. Nothing collective works on the world once a fault is in,
// so teardown is Abort, not Barrier.
type winJob struct {
	eps    []*transport.ChanTransport // set by openWinColocatedJob only
	devs   []*device.Device
	worlds []*Comm
}

func openWinJob(t *testing.T, trs []transport.Transport) *winJob {
	t.Helper()
	j := &winJob{devs: make([]*device.Device, len(trs)), worlds: make([]*Comm, len(trs))}
	for i, tr := range trs {
		d, err := device.Open(tr)
		if err != nil {
			t.Fatalf("open device %d: %v", i, err)
		}
		w, err := NewWorld(d)
		if err != nil {
			t.Fatalf("new world %d: %v", i, err)
		}
		j.devs[i], j.worlds[i] = d, w
	}
	return j
}

// openWinColocatedJob is the harness of the co-located failure rows: np
// ranks over one plain chan mesh, so every peer is co-located and no frame
// will ever report a fault — only the failure registry and the epoch
// deadline can.
func openWinColocatedJob(t *testing.T, np int) *winJob {
	t.Helper()
	eps := transport.NewChanMesh(np)
	trs := make([]transport.Transport, np)
	for i, ep := range eps {
		trs[i] = ep
	}
	j := openWinJob(t, trs)
	j.eps = eps
	return j
}

// run executes fn on every rank under a watchdog, then aborts the devices
// and reports each rank's error.
func (j *winJob) run(t *testing.T, fn func(i int, w *Comm) error) {
	t.Helper()
	errs := make([]error, len(j.worlds))
	var wg sync.WaitGroup
	for i := range j.worlds {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, j.worlds[i])
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("job wedged: the fault did not surface within 30s")
	}
	for _, d := range j.devs {
		d.Abort()
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", i, err)
		}
	}
}

// wantRankFailed checks that err is the typed failure of rank victim.
func wantRankFailed(what string, err error, victim int) error {
	if !errors.Is(err, ErrRankFailed) {
		return fmt.Errorf("%s: %v, want ErrRankFailed", what, err)
	}
	if fr, ok := device.FailedRank(err); !ok || fr != victim {
		return fmt.Errorf("%s: failed rank %d (ok=%v), want %d", what, fr, ok, victim)
	}
	return nil
}

// TestWinMuteFenceColocated is TestWinMuteFence's row for a co-located
// victim. A store cannot be dropped, so the rank that goes silent is one
// that never calls Fence; no frame will ever report it, and the survivors'
// one deadline timer must: typed ErrRankFailed naming it, no hang.
func TestWinMuteFenceColocated(t *testing.T) {
	const np, victim = 3, 2
	job := openWinColocatedJob(t, np)
	var survivors sync.WaitGroup
	survivors.Add(np - 1)
	job.run(t, func(i int, w *Comm) error {
		win, err := w.WinCreate(make([]int64, np), 1)
		if err != nil {
			return err
		}
		win.SetEpochTimeout(300 * time.Millisecond)
		if err := w.Barrier(); err != nil {
			return err
		}
		if i == victim {
			survivors.Wait()
			return nil
		}
		defer survivors.Done()
		return wantRankFailed("fence", win.Fence(), victim)
	})
}

// TestWinKilledRankColocated is TestWinKilledRank's row for a co-located
// victim: its device is aborted and the failure injected at the survivors'
// error handlers (the chan mesh has no connection to break). Rank 1 does
// not wait for the kill — it is parked inside Fence on the victim's missing
// store, or arrives after — and must fail typed through the wait's
// RankError predicate either way.
func TestWinKilledRankColocated(t *testing.T) {
	const np, victim = 3, 2
	job := openWinColocatedJob(t, np)
	gate := newGoBarrier(np)
	job.run(t, func(i int, w *Comm) error {
		win, err := w.WinCreate(make([]int64, np), 1)
		if err != nil {
			return err
		}
		win.SetEpochTimeout(10 * time.Second) // the registry must tell, not the deadline
		if err := w.Barrier(); err != nil {
			return err
		}
		gate.await()
		switch i {
		case victim:
			return nil
		case 0:
			job.devs[victim].Abort()
			for r, ep := range job.eps {
				if r != victim {
					ep.InjectError(victim, fmt.Errorf("test: rank %d killed", victim))
				}
			}
		}
		if err := wantRankFailed("fence with dead member", win.Fence(), victim); err != nil {
			return err
		}
		return wantRankFailed("put to dead rank", win.Put([]int64{1}, 0, 1, Long, victim, 0), victim)
	})
}

// TestWinRevokedParked is TestWinRevoked's row for ranks already inside
// Fence when the revocation lands: rank 0 never announces, so its
// co-located peers are parked on a store that will not come and must be
// woken by the revocation itself.
func TestWinRevokedParked(t *testing.T) {
	const np = 3
	job := openWinColocatedJob(t, np)
	job.run(t, func(i int, w *Comm) error {
		win, err := w.WinCreate(make([]int64, 4), 1)
		if err != nil {
			return err
		}
		// Rank 0 revokes right after its barrier; the revocation may
		// overtake a slower rank's barrier completion, which is then
		// itself a legitimate ErrRevoked.
		if err := w.Barrier(); err != nil && !(i != 0 && errors.Is(err, ErrRevoked)) {
			return err
		}
		if i == 0 {
			time.Sleep(20 * time.Millisecond) // let the others park
			if err := w.Revoke(); err != nil {
				return err
			}
		}
		if err := win.Fence(); !errors.Is(err, ErrRevoked) {
			return fmt.Errorf("fence on revoked comm: %v, want ErrRevoked", err)
		}
		return nil
	})
}

// awaitWatchArmed polls until win's watchdog is armed — the sign that one of
// its epoch waits has parked — or fails after five seconds.
func awaitWatchArmed(win *Win) error {
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
		win.mu.Lock()
		armed := !win.watchAt.IsZero()
		win.mu.Unlock()
		if armed {
			return nil
		}
	}
	return errors.New("the window's watchdog was never armed: its fence did not park")
}

// TestWinDeadlineAfterShortenedTimeout: a wait that parks must be covered by
// a fire at or before its own deadline even when the watchdog is already
// armed further out. Rank 0 parks once under a 10s timeout (so the watch
// ends up armed ≈10s ahead), then shortens the timeout to 200ms and fences
// against rank 1, which never fences again: the watch must be pulled in, and
// the fence fail typed well before the old fire.
func TestWinDeadlineAfterShortenedTimeout(t *testing.T) {
	const np, victim = 2, 1
	job := openWinColocatedJob(t, np)
	survivorDone := make(chan struct{})
	job.run(t, func(i int, w *Comm) error {
		win, err := w.WinCreate(make([]int64, np), 1)
		if err != nil {
			return err
		}
		win.SetEpochTimeout(10 * time.Second)
		if err := w.Barrier(); err != nil {
			return err
		}
		if i == victim {
			// Fence only once rank 0 is parked in its own.
			if err := awaitWatchArmed(win.peers[0]); err != nil {
				return err
			}
			if err := win.Fence(); err != nil {
				return err
			}
			<-survivorDone
			return nil
		}
		defer close(survivorDone)
		if err := win.Fence(); err != nil {
			return err
		}
		win.mu.Lock()
		ahead := time.Until(win.watchAt)
		win.mu.Unlock()
		if err := expect(ahead > 5*time.Second, "watch armed %v ahead after a parked 10s-timeout fence, want ≈10s", ahead); err != nil {
			return err
		}
		win.SetEpochTimeout(200 * time.Millisecond)
		start := time.Now()
		err = win.Fence()
		if took := time.Since(start); took > 2*time.Second {
			return fmt.Errorf("fence under a 200ms timeout returned after %v (%v): the earlier watch was not pulled in", took, err)
		}
		return wantRankFailed("fence", err, victim)
	})
}

// TestWinDeadlineAfterStaleWatch: a fire must disarm the watchdog. Rank 0's
// first fence parks briefly and leaves the watch armed at the end of its
// 300ms timeout; its second fence, 100ms later against a rank that never
// fences, has a later deadline and so leaves the watch alone. When the old
// fire comes, the waiter must find the watch disarmed and re-arm it for its
// own deadline — or it is never woken again.
func TestWinDeadlineAfterStaleWatch(t *testing.T) {
	const np, victim = 2, 1
	job := openWinColocatedJob(t, np)
	survivorDone := make(chan struct{})
	job.run(t, func(i int, w *Comm) error {
		win, err := w.WinCreate(make([]int64, np), 1)
		if err != nil {
			return err
		}
		win.SetEpochTimeout(300 * time.Millisecond)
		if err := w.Barrier(); err != nil {
			return err
		}
		if i == victim {
			if err := awaitWatchArmed(win.peers[0]); err != nil {
				return err
			}
			if err := win.Fence(); err != nil {
				return err
			}
			<-survivorDone
			return nil
		}
		defer close(survivorDone)
		if err := win.Fence(); err != nil {
			return err
		}
		time.Sleep(100 * time.Millisecond)
		start := time.Now()
		err = win.Fence()
		if took := time.Since(start); took > 2*time.Second {
			return fmt.Errorf("fence under a 300ms timeout returned after %v (%v)", took, err)
		}
		return wantRankFailed("fence", err, victim)
	})
}

// parkedFenceThenFree creates a window whose fence parks on rank 0 (rank 1
// fences only once rank 0's watchdog is armed), frees it, and returns a
// weak pointer to it.
func parkedFenceThenFree(w *Comm) (weak.Pointer[Win], error) {
	win, err := w.WinCreate(make([]int64, 2), 1)
	if err != nil {
		return weak.Pointer[Win]{}, err
	}
	wp := weak.Make(win)
	if w.Rank() != 0 {
		if err := awaitWatchArmed(win.peers[0]); err != nil {
			return wp, err
		}
	}
	if err := win.Fence(); err != nil {
		return wp, err
	}
	return wp, win.Free()
}

// TestWinFreedIsCollectable: a freed window whose fence once parked is
// garbage, with its communicator and device. Its watchdog timer sits in
// the runtime's timer heap — armed, or stopped by Free but kept there
// until the time it was due — so the timer's body must not reach the
// window but through a weak pointer. runtime.GC returns with its cycle
// swept, and weak pointers to what it found unreachable are cleared by
// then, so the check counts cycles, not wall-clock time.
func TestWinFreedIsCollectable(t *testing.T) {
	const cycles = 10
	openWinColocatedJob(t, 2).run(t, func(_ int, w *Comm) error {
		wp, err := parkedFenceThenFree(w)
		if err != nil {
			return err
		}
		// Past this barrier both ranks' windows are freed and unreferenced.
		if err := w.Barrier(); err != nil || w.Rank() != 0 {
			return err
		}
		for i := 0; i < cycles; i++ {
			runtime.GC()
			if wp.Value() == nil {
				return nil
			}
			runtime.Gosched()
		}
		return fmt.Errorf("a freed window whose fence parked survived %d GC cycles", cycles)
	})
}

// TestEpochTimeoutParsedOnce: NewWorld reads MPJ_RMA_TIMEOUT once. A
// value that is not a positive duration with a unit fails it, naming the
// variable; a good one is every window's deadline and what
// SetEpochTimeout(0) restores, whatever the environment says later.
func TestEpochTimeoutParsedOnce(t *testing.T) {
	world := func() (*Comm, error) {
		d, err := device.Open(transport.NewChanMesh(1)[0])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = d.Close() })
		return NewWorld(d)
	}
	for _, bad := range []string{"5", "-1s", "0s", "soon"} {
		t.Setenv("MPJ_RMA_TIMEOUT", bad)
		if _, err := world(); err == nil || !strings.Contains(err.Error(), "MPJ_RMA_TIMEOUT") {
			t.Errorf("MPJ_RMA_TIMEOUT=%q: NewWorld returned %v, want an error naming the variable", bad, err)
		}
	}
	t.Setenv("MPJ_RMA_TIMEOUT", "750ms")
	w, err := world()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("MPJ_RMA_TIMEOUT", "9s")
	win, err := w.WinCreate(make([]int64, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	const want = 750 * time.Millisecond
	if win.timeout != want {
		t.Errorf("a new window's epoch timeout is %v, want %v", win.timeout, want)
	}
	win.SetEpochTimeout(time.Second)
	win.SetEpochTimeout(0)
	if win.timeout != want {
		t.Errorf("SetEpochTimeout(0) restored %v, want %v", win.timeout, want)
	}
	t.Setenv("MPJ_RMA_TIMEOUT", "")
	if w, err = world(); err != nil {
		t.Fatal(err)
	}
	if w.proc.epochTimeout != DefaultEpochTimeout {
		t.Errorf("unset MPJ_RMA_TIMEOUT gives %v, want %v", w.proc.epochTimeout, DefaultEpochTimeout)
	}
}
