package mpj

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mpj/internal/transport"
)

// registerDevselApp registers a ring ping-pong that also asserts which
// transport the slave actually built: proof that the -device /
// JobConfig.Device / MPJ_DEVICE surface reaches the mesh, and that the
// selected device routes messages correctly.
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

func TestDeviceSelection(t *testing.T) {
	wantChan := func(tr transport.Transport) error {
		if _, ok := tr.(*transport.HybTransport); !ok {
			return fmt.Errorf("device chan built %T", tr)
		}
		return nil
	}
	wantTCP := func(tr transport.Transport) error {
		if _, ok := tr.(*transport.TCPTransport); !ok {
			return fmt.Errorf("device tcp built %T", tr)
		}
		return nil
	}
	wantHyb := func(tr transport.Transport) error {
		h, ok := tr.(*transport.HybTransport)
		if !ok {
			return fmt.Errorf("device hyb built %T", tr)
		}
		// Every rank of this in-process job is co-located: the hybrid
		// router must classify all peers as channel-reachable.
		for dst := 0; dst < h.Size(); dst++ {
			if !h.Peers().Local[dst] {
				return fmt.Errorf("hyb rank %d routes co-located rank %d remotely", h.Rank(), dst)
			}
		}
		return nil
	}

	cases := []struct {
		device string
		check  func(transport.Transport) error
	}{
		{"chan", wantChan},
		{"tcp", wantTCP},
		{"hyb", wantHyb},
		{"", wantHyb}, // default is the hybrid device
	}
	for _, c := range cases {
		name := c.device
		if name == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			app := "devsel-" + name
			registerDevselApp(app, c.check)
			reg, _ := testEnv(t, 2, NewFuncSpawner())
			err := Run(JobConfig{
				NP:       4,
				App:      app,
				Device:   c.device,
				Locators: []string{reg.Addr()},
				LeaseDur: 2 * time.Second,
			})
			if err != nil {
				t.Fatalf("job under device %q failed: %v", c.device, err)
			}
		})
	}
}

func TestDeviceSelectionEnvDefault(t *testing.T) {
	// With no device in the JobConfig, slaves fall back to MPJ_DEVICE.
	t.Setenv("MPJ_DEVICE", "tcp")
	app := "devsel-env-tcp"
	registerDevselApp(app, func(tr transport.Transport) error {
		if _, ok := tr.(*transport.TCPTransport); !ok {
			return fmt.Errorf("MPJ_DEVICE=tcp built %T", tr)
		}
		return nil
	})
	reg, _ := testEnv(t, 1, NewFuncSpawner())
	err := Run(JobConfig{
		NP:       2,
		App:      app,
		Locators: []string{reg.Addr()},
		LeaseDur: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("job under MPJ_DEVICE=tcp failed: %v", err)
	}
}

func TestDeviceSelectionRejectsUnknownNames(t *testing.T) {
	// Unknown names must fail fast — before discovery, daemons or spawns.
	err := Run(JobConfig{NP: 2, App: "sum", Device: "niodev"})
	if err == nil {
		t.Fatal("job with unknown device reported success")
	}
	if !strings.Contains(err.Error(), "unknown device") {
		t.Errorf("error %q does not name the unknown device", err)
	}

	// A bad MPJ_DEVICE fails at the slave instead, and still kills the job.
	t.Setenv("MPJ_DEVICE", "bogusdev")
	reg, _ := testEnv(t, 1, NewFuncSpawner())
	err = Run(JobConfig{
		NP:       2,
		App:      "sum",
		Locators: []string{reg.Addr()},
		LeaseDur: 2 * time.Second,
	})
	if err == nil {
		t.Fatal("job with unknown MPJ_DEVICE reported success")
	}
}
