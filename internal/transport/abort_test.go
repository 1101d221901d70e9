package transport

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// abortLog counts the abort reports each endpoint's error handler hears,
// by (hearer, aborted peer).
type abortLog struct {
	mu    sync.Mutex
	heard map[[2]int]int
	bad   []error
}

func newAbortLog() *abortLog { return &abortLog{heard: make(map[[2]int]int)} }

// handler is rank's error handler.
func (l *abortLog) handler(rank int) ErrorHandler {
	return func(peer int, err error) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if !errors.Is(err, ErrPeerAborted) {
			l.bad = append(l.bad, err)
		}
		l.heard[[2]int{rank, peer}]++
	}
}

// count is how often rank heard of peer's abort.
func (l *abortLog) count(rank, peer int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.bad) > 0 {
		panic(l.bad[0])
	}
	return l.heard[[2]int{rank, peer}]
}

// TestChanAbortReportsOnce: an endpoint's Abort reaches the error handler
// of every other started endpoint exactly once, and of an endpoint that
// starts later when it starts; a closed endpoint, or a second Abort, adds
// nothing.
func TestChanAbortReportsOnce(t *testing.T) {
	const np = 4
	log := newAbortLog()
	eps := NewChanMesh(np)
	for i, ep := range eps {
		ep.SetHandler(func(int, []byte) {})
		ep.SetErrorHandler(log.handler(i))
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	for _, ep := range eps[:3] {
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
	}
	eps[2].Close()
	eps[0].Abort()
	eps[0].Abort()
	if n := log.count(1, 0); n != 1 {
		t.Errorf("started rank 1 heard of rank 0's abort %d times, want 1", n)
	}
	if n := log.count(2, 0); n != 0 {
		t.Errorf("closed rank 2 heard of rank 0's abort %d times, want 0", n)
	}
	if n := log.count(3, 0); n != 0 {
		t.Errorf("rank 3 heard of rank 0's abort before it started")
	}
	if err := eps[3].Start(); err != nil {
		t.Fatal(err)
	}
	if n := log.count(3, 0); n != 1 {
		t.Errorf("late starter rank 3 heard of rank 0's abort %d times, want 1", n)
	}
	eps[1].Abort()
	if n := log.count(3, 1); n != 1 {
		t.Errorf("rank 3 heard of rank 1's abort %d times, want 1", n)
	}
	if n := log.count(0, 1); n != 0 {
		t.Errorf("aborted rank 0 heard of rank 1's abort %d times, want 0", n)
	}
	if n := log.count(1, 0) + log.count(3, 0); n != 2 {
		t.Errorf("rank 0's abort reported %d times in all, want 2", n)
	}
}

// TestChanAbortRacesStarts: aborts racing the other endpoints' starts
// still reach each of them exactly once.
func TestChanAbortRacesStarts(t *testing.T) {
	const np = 8
	log := newAbortLog()
	eps := NewChanMesh(np)
	for i, ep := range eps {
		ep.SetHandler(func(int, []byte) {})
		ep.SetErrorHandler(log.handler(i))
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i < 2 {
				ep.Abort()
				return
			}
			if err := ep.Start(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for r := 2; r < np; r++ {
		for _, dead := range []int{0, 1} {
			if n := log.count(r, dead); n != 1 {
				t.Errorf("rank %d heard of rank %d's abort %d times, want 1", r, dead, n)
			}
		}
	}
}

// TestHybAbortReachesLateJoiner: on an all-co-located hybrid job a rank
// that aborts before its peers have joined the hub is reported to each of
// them once they start, and to a rank started before the abort once; the
// hub forgets the job when its last member leaves.
func TestHybAbortReachesLateJoiner(t *testing.T) {
	const jobID = 9006
	loc := ProcessLocality()
	locs := []string{loc, loc, loc}
	log := newAbortLog()
	open := func(rank int) *HybTransport {
		t.Helper()
		ep, err := NewHybTransport(HybConfig{Rank: rank, JobID: jobID, Locs: locs})
		if err != nil {
			t.Fatal(err)
		}
		ep.SetHandler(func(int, []byte) {})
		ep.SetErrorHandler(log.handler(rank))
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		return ep
	}
	ep0 := open(0)
	ep0.Abort() // the job's only member leaves: the hub must keep the report
	ep1 := open(1)
	if n := log.count(1, 0); n != 1 {
		t.Errorf("rank 1, joining after the abort, heard of it %d times, want 1", n)
	}
	ep2 := open(2)
	if n := log.count(2, 0); n != 1 {
		t.Errorf("rank 2, joining after the abort, heard of it %d times, want 1", n)
	}
	ep1.Abort()
	if n := log.count(2, 1); n != 1 {
		t.Errorf("started rank 2 heard of rank 1's abort %d times, want 1", n)
	}
	ep2.Close()
	processHub.mu.Lock()
	_, kept := processHub.jobs[jobID]
	processHub.mu.Unlock()
	if kept {
		t.Error("hub kept the job after every rank joined and left")
	}
}

// TestHubForgetsUnjoinedOwedRank: a job whose only member aborted and left
// keeps its report for a co-located rank yet to join, but no longer than
// the hub's keep when that rank never joins.
func TestHubForgetsUnjoinedOwedRank(t *testing.T) {
	const jobID = 9008
	h := &hub{jobs: make(map[uint64]*hubJob), keep: 20 * time.Millisecond}
	ep, err := h.join(jobID, 2, 0, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	ep.SetHandler(func(int, []byte) {})
	if err := ep.Start(); err != nil {
		t.Fatal(err)
	}
	ep.Abort()
	h.leave(jobID, 0)
	kept := func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		_, ok := h.jobs[jobID]
		return ok
	}
	if !kept() {
		t.Fatal("hub dropped the job while it owed rank 1 the abort report")
	}
	deadline := time.Now().Add(10 * time.Second)
	for kept() {
		if time.Now().After(deadline) {
			t.Fatal("hub kept the job after its keep; rank 1 never joined")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHybAbortSkipsOtherHosts: a rank that shares the hub under another
// locality key is a TCP peer, whose socket reports its death; the channel
// mesh's report does not reach it.
func TestHybAbortSkipsOtherHosts(t *testing.T) {
	eps, _, errs := buildHybMixed(t, 9007, []string{"hostA#1", "hostA#1", "hostB#1"})
	eps[0].Abort()
	seen := map[int]bool{}
	for len(seen) < 2 {
		f := <-errs
		if f.peer != 0 {
			continue
		}
		if seen[f.rank] {
			t.Fatalf("rank %d heard of rank 0's death twice", f.rank)
		}
		seen[f.rank] = true
		switch {
		case f.rank == 1 && !errors.Is(f.err, ErrPeerAborted):
			t.Errorf("co-located rank 1 heard %v, want the mesh's report", f.err)
		case f.rank == 2 && errors.Is(f.err, ErrPeerAborted):
			t.Errorf("rank 2 on another host heard the channel mesh's report")
		}
	}
}
