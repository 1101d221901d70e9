package transport

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"mpj/internal/wire"
)

// joinHubMesh returns np started endpoints of hub job jobID, every rank
// keyed by this process's locality, as slaves that share it build them.
func joinHubMesh(t *testing.T, jobID uint64, np int) ([]*ChanTransport, []*collector) {
	t.Helper()
	locs := make([]string, np)
	for i := range locs {
		locs[i] = ProcessLocality()
	}
	eps := make([]*ChanTransport, np)
	cols := make([]*collector, np)
	for i := range eps {
		ep, err := JoinHub(jobID, i, locs)
		if err != nil {
			t.Fatalf("JoinHub rank %d: %v", i, err)
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

// TestHybAllLocalPingPong: slaves whose table keys are all this process's
// share the hub's channel mesh, every rank local to every other.
func TestHybAllLocalPingPong(t *testing.T) {
	eps, cols := joinHubMesh(t, 9001, 2)
	for _, ep := range eps {
		p := ep.Peers()
		if p.Device != DeviceChan || len(p.Locs) != 2 || p.Locs[0] != ProcessLocality() || p.Pids != nil {
			t.Errorf("rank %d: Peers() = %+v, want the chan device, the table, no pids", ep.Rank(), p)
		}
		for dst := 0; dst < 2; dst++ {
			if !p.Local[dst] {
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
	if err := eps[0].Send(0, mkFrame(0, 1, "self")); err != nil {
		t.Fatal(err)
	}
	cols[0].waitN(t, 1)
}

// TestHybMixedLocalityRouting: a locality table that puts some ranks in
// one process and the rest elsewhere — which only synthetic keys produce,
// as here, where one process carries them all — builds the full TCP mesh:
// every pair has its socket, no rank shares the address space, the
// description names the co-host processes, and the all-to-all traffic
// arrives exactly once each.
func TestHybMixedLocalityRouting(t *testing.T) {
	const np = 4
	a, b := fmt.Sprintf("hostA#%d", os.Getpid()), fmt.Sprintf("hostB#%d", os.Getpid())
	locs := []string{a, a, b, b}
	eps, cols, _ := buildTCPMeshAt(t, np, locs)
	for i, ep := range eps {
		p := ep.Peers()
		if p.Device != DeviceTCP || fmt.Sprint(p.Locs) != fmt.Sprint(locs) || p.Local != nil {
			t.Errorf("rank %d: Peers() = %+v, want tcp, the table, no local rank", i, p)
		}
		mate := i ^ 1
		for j := 0; j < np; j++ {
			if hasConn := ep.conns[j] != nil; hasConn != (j != i) {
				t.Errorf("rank %d: TCP conn to %d = %v, want %v", i, j, hasConn, j != i)
			}
			if want := map[bool]int{true: os.Getpid()}[j == mate]; p.Pids[j] != want {
				t.Errorf("rank %d: Pids[%d] = %d, want %d", i, j, p.Pids[j], want)
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
			if got, want := string(wire.Payload(f.frame)), fmt.Sprintf("%d->%d", f.src, j); got != want {
				t.Errorf("rank %d got payload %q, want %q", j, got, want)
			}
		}
		col.mu.Unlock()
		if len(seen) != np {
			t.Errorf("rank %d heard from %d distinct sources, want %d", j, len(seen), np)
		}
	}
}

// TestHybAbortNotifiesCoLocatedPeers: a hub endpoint's abort reaches the
// job's other ranks as the channel mesh's report.
func TestHybAbortNotifiesCoLocatedPeers(t *testing.T) {
	locs := []string{ProcessLocality(), ProcessLocality()}
	failures := make(chan peerFailure, 4)
	eps := make([]*ChanTransport, 2)
	for i := range eps {
		ep, err := JoinHub(9003, i, locs)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
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
	ep, err := JoinHub(9004, 0, []string{loc, loc})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, err := JoinHub(9004, 0, []string{loc, loc}); err == nil {
		t.Error("duplicate rank joined the hub twice")
	}
	if _, err := JoinHub(9004, 1, []string{loc, loc, loc}); err == nil {
		t.Error("hub accepted a joiner with a conflicting job size")
	}
	if _, err := JoinHub(9004, 2, []string{loc, loc}); err == nil {
		t.Error("hub accepted a rank outside the table")
	}
}

// TestHybRequiresListenerForRemotePeers: a rank of a table that spans
// hosts builds the TCP mesh, which refuses to start without the listener
// its higher peers dial.
func TestHybRequiresListenerForRemotePeers(t *testing.T) {
	if _, err := NewTCPMesh(0, 9005, []string{"127.0.0.1:1", "127.0.0.1:2"}, nil, []string{"here#1", "elsewhere#1"}); err == nil {
		t.Error("a TCP mesh with peers to accept took a nil listener")
	}
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
		rank int
		pids string
	}{
		{0, "[0 10 11 0 0 0 0 0]"}, // rank 1 shares the process key, not the address space
		{3, "[]"},                  // alone on its host
		{5, "[]"},                  // its own key unknown
		{7, "[]"},                  // its own key not ProcessLocality's
	} {
		p := DescribePeers(DeviceTCP, tc.rank, locs)
		if got := fmt.Sprint(p.Pids); got != tc.pids || p.Device != DeviceTCP || len(p.Locs) != len(locs) || p.Local != nil {
			t.Errorf("rank %d: %+v, pids %s, want %s and no local rank", tc.rank, p, got, tc.pids)
		}
	}
}
