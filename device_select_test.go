package mpj

import (
	"fmt"
	"testing"
	"time"

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

// TestDeviceSelection: there is no device to choose. Every slave builds
// the hybrid transport, which picks each pair's medium from the locality
// table; in a job of in-process slaves every peer is co-located.
func TestDeviceSelection(t *testing.T) {
	wantHyb := func(tr transport.Transport) error {
		h, ok := tr.(*transport.HybTransport)
		if !ok {
			return fmt.Errorf("a slave built %T", tr)
		}
		for dst := 0; dst < h.Size(); dst++ {
			if !h.Peers().Local[dst] {
				return fmt.Errorf("hyb rank %d routes co-located rank %d remotely", h.Rank(), dst)
			}
		}
		return nil
	}
	t.Run("default", func(t *testing.T) {
		registerDevselApp("devsel-default", wantHyb)
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
