package mpj

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mpj/internal/job"
	"mpj/internal/transport"
)

// registerDevselApp registers a ring ping-pong that also asserts which
// transport the slave actually built, and that it routes messages
// correctly.
func registerDevselApp(name string, check func(transport.Transport) error) {
	Register(name, func(w *Comm) error {
		if err := check(w.Device().Transport()); err != nil {
			return err
		}
		rank, size := w.Rank(), w.Size()
		right, left := (rank+1)%size, (rank+size-1)%size
		out := []int32{int32(rank)}
		in := make([]int32, 1)
		rr, err := w.Irecv(in, 0, 1, INT, left, 7)
		if err != nil {
			return err
		}
		if err := w.Send(out, 0, 1, INT, right, 7); err != nil {
			return err
		}
		if _, err := rr.Wait(); err != nil {
			return err
		}
		if int(in[0]) != left {
			return fmt.Errorf("rank %d received token %d, want %d", rank, in[0], left)
		}
		return nil
	})
}

// TestDeviceSelection: there is no device to choose. Slaves that all run
// in this process — the slaves of in-process daemons — take the process
// hub's channel mesh, on which every peer shares the address space.
func TestDeviceSelection(t *testing.T) {
	wantChan := func(tr transport.Transport) error {
		c, ok := tr.(*transport.ChanTransport)
		if !ok {
			return fmt.Errorf("a slave built %T, want *transport.ChanTransport", tr)
		}
		for dst := 0; dst < c.Size(); dst++ {
			if !c.Peers().Local[dst] {
				return fmt.Errorf("rank %d does not share its address space with rank %d", c.Rank(), dst)
			}
		}
		return nil
	}
	t.Run("default", func(t *testing.T) {
		registerDevselApp("devsel-default", wantChan)
		reg, _ := testEnv(t, 2, NewFuncSpawner())
		err := Run(JobConfig{
			NP:       4,
			App:      "devsel-default",
			Locators: []string{reg.Addr()},
			LeaseDur: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("job failed: %v", err)
		}
	})
}

// builtByTheRule checks that w's rank built the transport a job's slaves
// build: the channel mesh when every rank runs in this process, else the
// TCP mesh, whose locality table names this process as the rank's.
func builtByTheRule(w *Comm) error {
	self := transport.ProcessLocality()
	keys := w.LocalityTable()
	shared := true
	for _, k := range keys {
		shared = shared && k == self
	}
	switch w.Device().Transport().(type) {
	case *transport.ChanTransport:
		if shared {
			return nil
		}
	case *transport.TCPTransport:
		if !shared && w.Rank() < len(keys) && keys[w.Rank()] == self {
			return nil
		}
	}
	return fmt.Errorf("rank %d built %T over the locality table %q", w.Rank(), w.Device().Transport(), keys)
}

// TestMeshTransportRefusesIncompleteTable: a bootstrap table that does not
// give every rank a locality key builds no transport, and the error names
// the first rank without one.
func TestMeshTransportRefusesIncompleteTable(t *testing.T) {
	self := transport.ProcessLocality()
	addrs := []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}
	for _, tc := range []struct {
		locs []string
		rank string
	}{
		{[]string{self, "", self}, "rank 1"},
		{[]string{self}, "rank 1"},
		{nil, "rank 0"},
	} {
		tr, err := meshTransport(0, 0x7ab1e, job.Table{Addrs: addrs, Locs: tc.locs}, nil)
		if err == nil || !strings.Contains(err.Error(), tc.rank) {
			t.Errorf("table %q: built %T, error %v, want an error naming %s", tc.locs, tr, err, tc.rank)
		}
	}
}
