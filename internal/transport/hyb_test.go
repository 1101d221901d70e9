package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mpj/internal/wire"
)

// buildHybLocalPair returns two started all-co-located hybrid endpoints.
func buildHybLocalPair(t *testing.T, jobID uint64) ([]*HybTransport, []*collector) {
	t.Helper()
	loc := ProcessLocality()
	locs := []string{loc, loc}
	eps := make([]*HybTransport, 2)
	cols := make([]*collector, 2)
	for i := range eps {
		ep, err := NewHybTransport(HybConfig{Rank: i, JobID: jobID, Locs: locs})
		if err != nil {
			t.Fatalf("NewHybTransport rank %d: %v", i, err)
		}
		eps[i] = ep
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

func TestHybAllLocalPingPong(t *testing.T) {
	eps, cols := buildHybLocalPair(t, 9001)
	for _, ep := range eps {
		if ep.tcp != nil {
			t.Fatalf("all-co-located hyb rank %d built a TCP mesh", ep.Rank())
		}
		for dst := 0; dst < 2; dst++ {
			if !ep.Peers().Local[dst] {
				t.Errorf("rank %d: Peers().Local[%d] = false, want true", ep.Rank(), dst)
			}
		}
	}
	if err := eps[0].Send(1, mkFrame(0, 0, "ping")); err != nil {
		t.Fatal(err)
	}
	cols[1].waitN(t, 1)
	if err := eps[1].Send(0, mkFrame(1, 0, "pong")); err != nil {
		t.Fatal(err)
	}
	cols[0].waitN(t, 1)
	if got := string(wire.Payload(cols[0].frames[0].frame)); got != "pong" {
		t.Errorf("rank 0 received %q, want %q", got, "pong")
	}
	// Loopback also rides the channel mesh.
	if err := eps[0].Send(0, mkFrame(0, 1, "self")); err != nil {
		t.Fatal(err)
	}
	cols[0].waitN(t, 1)
}

// TestHybMixedLocalityRouting simulates two "hosts" in one process by
// giving ranks {0,1} and {2,3} different locality keys: intra-pair frames
// must ride the channel mesh, cross-pair frames the TCP mesh, and the
// all-to-all traffic must still arrive exactly once each.
func TestHybMixedLocalityRouting(t *testing.T) {
	const np = 4
	locs := []string{"hostA#1", "hostA#1", "hostB#1", "hostB#1"}
	lns := make([]net.Listener, np)
	addrs := make([]string, np)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	eps := make([]*HybTransport, np)
	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[i], errs[i] = NewHybTransport(HybConfig{
				Rank: i, JobID: 9002, Locs: locs, Addrs: addrs, Listener: lns[i],
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("NewHybTransport rank %d: %v", i, err)
		}
	}
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

	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			wantLocal := locs[i] == locs[j]
			if got := eps[i].Peers().Local[j]; got != wantLocal {
				t.Errorf("rank %d: Peers().Local[%d] = %v, want %v", i, j, got, wantLocal)
			}
		}
		// Cross-pair TCP connections exist, intra-pair ones do not.
		if eps[i].tcp == nil {
			t.Fatalf("rank %d with remote peers has no TCP mesh", i)
		}
		for j := 0; j < np; j++ {
			hasConn := eps[i].tcp.conns[j] != nil
			if wantConn := locs[i] != locs[j]; hasConn != wantConn {
				t.Errorf("rank %d: TCP conn to %d = %v, want %v", i, j, hasConn, wantConn)
			}
		}
	}

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

func TestHybAbortNotifiesCoLocatedPeers(t *testing.T) {
	loc := ProcessLocality()
	locs := []string{loc, loc}
	failures := make(chan peerFailure, 4)
	eps := make([]*HybTransport, 2)
	for i := range eps {
		ep, err := NewHybTransport(HybConfig{Rank: i, JobID: 9003, Locs: locs})
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
		i := i
		ep.SetHandler(func(int, []byte) {})
		ep.SetErrorHandler(func(peer int, err error) {
			failures <- peerFailure{rank: i, peer: peer, err: err}
		})
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
	}
	eps[0].Abort()
	select {
	case f := <-failures:
		if f.rank != 1 || f.peer != 0 || !errors.Is(f.err, ErrPeerAborted) {
			t.Errorf("failure = %+v, want rank 1 learning of rank 0's abort", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("co-located peer was not told about the abort")
	}
	eps[1].Close()
}

func TestHubRejectsConflictingJoins(t *testing.T) {
	loc := ProcessLocality()
	ep, err := NewHybTransport(HybConfig{Rank: 0, JobID: 9004, Locs: []string{loc, loc}})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, err := NewHybTransport(HybConfig{Rank: 0, JobID: 9004, Locs: []string{loc, loc}}); err == nil {
		t.Error("duplicate rank joined the hub twice")
	}
	if _, err := NewHybTransport(HybConfig{Rank: 1, JobID: 9004, Locs: []string{loc, loc, loc}}); err == nil {
		t.Error("hub accepted a joiner with a conflicting job size")
	}
}

func TestHybRequiresListenerForRemotePeers(t *testing.T) {
	if _, err := NewHybTransport(HybConfig{
		Rank: 0, JobID: 9005, Locs: []string{"here#1", "elsewhere#1"},
		Addrs: []string{"127.0.0.1:1", "127.0.0.1:2"},
	}); err == nil {
		t.Error("hyb endpoint with remote peers accepted a nil listener")
	}
	// The failed join must not leak hub state: the same rank can join again.
	loc := ProcessLocality()
	ep, err := NewHybTransport(HybConfig{Rank: 0, JobID: 9005, Locs: []string{loc, loc}})
	if err != nil {
		t.Fatalf("rejoining after a failed construction: %v", err)
	}
	ep.Close()
}

func TestHostOf(t *testing.T) {
	for key, want := range map[string]string{
		"node7#4242": "node7",
		"a#b#9":      "a#b",
		"":           "",
		"node7":      "",
		"#4242":      "",
	} {
		if got := HostOf(key); got != want {
			t.Errorf("HostOf(%q) = %q, want %q", key, got, want)
		}
	}
	if key := ProcessLocality(); HostOf(key) == "" {
		t.Errorf("HostOf(%q) is empty: ProcessLocality's own keys must parse", key)
	}
}

// TestDescribePeers: the pids of a description are the ranks on this
// rank's host that do not share its address space, read off their keys.
func TestDescribePeers(t *testing.T) {
	locs := []string{"h#10", "h#10", "h#11", "g#12", "h#x", "", "h#0", "unknown"}
	for _, tc := range []struct {
		rank  int
		local []bool
		pids  string
	}{
		{0, nil, "[0 10 11 0 0 0 0 0]"},               // rank 1 shares the process key, not the address space
		{0, []bool{true, true}, "[0 0 11 0 0 0 0 0]"}, // ... unless the transport says it does
		{3, nil, "[]"}, // alone on its host
		{5, nil, "[]"}, // its own key unknown
		{7, nil, "[]"}, // its own key not ProcessLocality's
	} {
		p := DescribePeers(DeviceHyb, tc.rank, locs, tc.local)
		if got := fmt.Sprint(p.Pids); got != tc.pids || p.Device != DeviceHyb || len(p.Locs) != len(locs) {
			t.Errorf("rank %d, local %v: %s pids %s, want %s", tc.rank, tc.local, p.Device, got, tc.pids)
		}
	}
}
