package mpj

import (
	"fmt"
	"testing"
	"time"

	"mpj/internal/daemon"
)

// driveReadyTag is the tag of the ready messages driveBcast sends root 0.
const driveReadyTag = 6

// driveBcast posts the Ibcast every program of TestBlockedRanksDriveCollectives
// runs: the root sends only once ranks 1 and 2 have posted theirs, so the
// payload reaches them after they posted, and forwarding it to rank 3 takes
// a later pass over their schedules.
func driveBcast(w *Comm) (*CollRequest, []int64, error) {
	data, ready := make([]int64, 64), make([]int64, 1)
	if w.Rank() == 0 {
		for _, src := range []int{1, 2} {
			if _, err := Recv(w, ready, src, driveReadyTag); err != nil {
				return nil, nil, err
			}
		}
		for i := range data {
			data[i] = int64(i) + 1
		}
	}
	req, err := Ibcast(w, data, 0)
	if err == nil && (w.Rank() == 1 || w.Rank() == 2) {
		err = Send(w, ready, 0, driveReadyTag)
	}
	return req, data, err
}

// driveBcastDone waits for driveBcast's Ibcast and checks what it
// delivered.
func driveBcastDone(req *CollRequest, data []int64) error {
	if _, err := req.Wait(); err != nil {
		return err
	}
	for i, v := range data {
		if v != int64(i)+1 {
			return fmt.Errorf("ibcast element %d = %d", i, v)
		}
	}
	return nil
}

// TestBlockedRanksDriveCollectives: a rank blocked in Probe, in a window's
// Fence or at a host-area barrier keeps its in-flight non-blocking
// collectives moving, as MPI's progress rule asks. Every rank posts an
// Ibcast from root 0; ranks 1 and 2 then block, while rank 3 finishes its
// Ibcast — which needs one of them to forward the payload — before it sends
// the message they probe for, or enters the fence or the Allreduce they
// wait in. A blocked rank that stops driving its schedule wedges the job.
// The proc rows run on process slaves, whose large allreduces walk through
// a host area (hostarea_test.go): a blocking Allreduce whose barrier ranks
// wait at, and an Iallreduce whose barriers ranks blocked in Probe or Fence
// must pass.
func TestBlockedRanksDriveCollectives(t *testing.T) {
	const np, tag, limit = 4, 5, 20 * time.Second
	programs := []struct {
		name string
		run  func(w *Comm) error
	}{
		{"Probe", func(w *Comm) error {
			req, data, err := driveBcast(w)
			if err != nil {
				return err
			}
			msg := []int64{int64(w.Rank())}
			switch w.Rank() {
			case 1, 2:
				st, err := w.Probe(3, tag)
				if err != nil {
					return err
				}
				if st.Source != 3 || st.Tag != tag {
					return fmt.Errorf("probe matched source %d tag %d", st.Source, st.Tag)
				}
				if _, err := Recv(w, msg, 3, tag); err != nil {
					return err
				}
			case 3:
				if err := driveBcastDone(req, data); err != nil {
					return err
				}
				for _, dst := range []int{1, 2} {
					if err := Send(w, msg, dst, tag); err != nil {
						return err
					}
				}
			}
			return driveBcastDone(req, data)
		}},
		{"Fence", func(w *Comm) error {
			rank := w.Rank()
			slots := make([]int64, np)
			win, err := w.WinCreate(slots, 1)
			if err != nil {
				return err
			}
			req, data, err := driveBcast(w)
			if err != nil {
				return err
			}
			if err := PutT(win, []int64{int64(rank) + 1}, (rank+1)%np, rank); err != nil {
				return err
			}
			if rank == 3 {
				if err := driveBcastDone(req, data); err != nil {
					return err
				}
			}
			if err := win.Fence(); err != nil {
				return err
			}
			if left := (rank + np - 1) % np; slots[left] != int64(left)+1 {
				return fmt.Errorf("after the fence slot %d holds %d", left, slots[left])
			}
			if err := driveBcastDone(req, data); err != nil {
				return err
			}
			return win.Free()
		}},
	}
	for _, dev := range []string{"chan", "hyb"} {
		for _, p := range programs {
			t.Run(dev+"/"+p.name, func(t *testing.T) {
				runWorldsWithin(t, np, dev, limit, p.run)
			})
		}
	}
	for _, row := range []struct{ name, app string }{
		{"proc/Allreduce", "drive-host-allreduce"},
		{"proc/Iallreduce/Probe", "drive-host-iallreduce-probe"},
		{"proc/Iallreduce/Fence", "drive-host-iallreduce-fence"},
	} {
		t.Run(row.name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("spawns OS processes")
			}
			reg, _ := testEnv(t, 2, daemon.ProcSpawner{})
			cfg := JobConfig{NP: np, App: row.app, Locators: []string{reg.Addr()}, LeaseDur: 5 * time.Second, Prof: "counters"}
			if err := runJobWithin(cfg, 2*limit); err != nil {
				t.Fatal(err)
			}
		})
	}
}
