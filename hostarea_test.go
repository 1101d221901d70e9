package mpj

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"mpj/internal/daemon"
)

// registerHostApps registers the host-area applications; called from
// registerTestApps so slave processes can resolve them too.
func registerHostApps() {
	Register("host-allreduce", hostAllreduceApp)
	Register("drive-host-allreduce", driveHostAllreduceApp)
	Register("drive-host-iallreduce-probe", driveHostIallreduceApp(false))
	Register("drive-host-iallreduce-fence", driveHostIallreduceApp(true))
}

// hostVector is rank's 1 MiB of random non-integer float64.
func hostVector(rank int) []float64 {
	rng := rand.New(rand.NewSource(int64(rank) + 1))
	v := make([]float64, 1<<17)
	for i := range v {
		v[i] = rng.Float64()*2000 - 1000
	}
	return v
}

// hostAllreduceApp runs on process slaves of one host with counters on: a
// 1 MiB float64 Allreduce walks through the world's host area — four
// chunks, two schedule rounds each, no message — with exactly the bits the
// message schedule Iallreduce compiled before the area was set up returns,
// and the rank's /debug/vars status names the world's path "host" and
// counts the operations.
func hostAllreduceApp(w *Comm) error {
	in := hostVector(w.Rank())
	want, got := make([]float64, len(in)), make([]float64, len(in))
	req, err := Iallreduce(w, in, want, Sum[float64]())
	if err != nil {
		return err
	}
	if _, err := req.Wait(); err != nil {
		return err
	}
	if err := Allreduce(w, in, got, Sum[float64]()); err != nil { // sets the area up
		return err
	}
	const ops = 3
	a := w.ProfSnapshot()
	for i := 0; i < ops; i++ {
		if err := Allreduce(w, in, got, Sum[float64]()); err != nil {
			return err
		}
	}
	b := w.ProfSnapshot()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("rank %d: element %d is %v, Iallreduce's %v", w.Rank(), i, got[i], want[i])
		}
	}
	if d := b.HostOps - a.HostOps; d != ops || b.HostChunks-a.HostChunks != 4*ops {
		return fmt.Errorf("rank %d: %d host operations, %d chunks; want %d, %d", w.Rank(), d, b.HostChunks-a.HostChunks, ops, 4*ops)
	}
	if msgs, rounds := b.SentMsgs()-a.SentMsgs(), b.CollRounds-a.CollRounds; msgs != 0 || rounds != 2*4*ops {
		return fmt.Errorf("rank %d: %d messages and %d schedule rounds in host operations, want 0 and %d", w.Rank(), msgs, rounds, 2*4*ops)
	}
	st, ok := w.Device().Profiler().Status().(map[string]any)
	if !ok {
		return fmt.Errorf("rank %d: no status", w.Rank())
	}
	paths, _ := st["allreduce"].(map[string]string)
	counts, _ := st["hostArea"].(map[string]int64)
	key := fmt.Sprintf("context 0 (%d members)", w.Size())
	fmt.Printf("rank %d: allreduce paths %v, host area %v\n", w.Rank(), paths, counts)
	if paths[key] != "host" || counts["ops"] != ops+1 || counts["chunks"] != 4*(ops+1) {
		return fmt.Errorf("rank %d: status allreduce %v, hostArea %v; want the world on host with %d operations", w.Rank(), paths, counts, ops+1)
	}
	return nil
}

// driveHostAllreduceApp is TestBlockedRanksDriveCollectives' host-area
// row: ranks 0–2 enter a host-path Allreduce while rank 3 first waits for
// an Ibcast that rank 2, blocked at the area's barrier, must forward.
func driveHostAllreduceApp(w *Comm) error {
	in := hostVector(0)
	out := make([]float64, len(in))
	if err := Allreduce(w, in, out, Sum[float64]()); err != nil { // sets the area up
		return err
	}
	before := w.ProfSnapshot().HostOps
	req, data, err := driveBcast(w)
	if err != nil {
		return err
	}
	if w.Rank() == 3 {
		if err := driveBcastDone(req, data); err != nil {
			return err
		}
	}
	if err := Allreduce(w, in, out, Sum[float64]()); err != nil {
		return err
	}
	if err := driveBcastDone(req, data); err != nil {
		return err
	}
	if ops := w.ProfSnapshot().HostOps - before; ops != 1 {
		return fmt.Errorf("rank %d: %d host operations, want the Allreduce on the host path", w.Rank(), ops)
	}
	return nil
}

// driveHostIallreduceApp is TestBlockedRanksDriveCollectives' rows of an
// Iallreduce on the host area: every rank starts a 1 MiB Iallreduce once a
// blocking Allreduce has set the area up; ranks 1 and 2 then block in a
// Probe for a message from rank 3 (or, with fence, ranks 0–2 in a window's
// Fence rank 3 has not entered), and rank 3 completes its Iallreduce — whose
// barriers need theirs — before it sends that message or enters the fence.
func driveHostIallreduceApp(fence bool) App {
	const tag = 5
	return func(w *Comm) error {
		rank, np := w.Rank(), w.Size()
		in := hostVector(rank)
		out, want := make([]float64, len(in)), make([]float64, len(in))
		if err := Allreduce(w, in, want, Sum[float64]()); err != nil { // sets the area up
			return err
		}
		var win *Win
		slots := make([]int64, np)
		if fence {
			var err error
			if win, err = w.WinCreate(slots, 1); err != nil {
				return err
			}
		}
		before := w.ProfSnapshot()
		req, err := Iallreduce(w, in, out, Sum[float64]())
		if err != nil {
			return err
		}
		msg := []int64{int64(rank)}
		switch {
		case fence:
			if err := PutT(win, []int64{int64(rank) + 1}, (rank+1)%np, rank); err != nil {
				return err
			}
			if rank == 3 {
				if _, err := req.Wait(); err != nil {
					return err
				}
			}
			if err := win.Fence(); err != nil {
				return err
			}
			if left := (rank + np - 1) % np; slots[left] != int64(left)+1 {
				return fmt.Errorf("rank %d: after the fence slot %d holds %d", rank, left, slots[left])
			}
		case rank == 1 || rank == 2:
			if _, err := w.Probe(3, tag); err != nil {
				return err
			}
			if _, err := Recv(w, msg, 3, tag); err != nil {
				return err
			}
		case rank == 3:
			if _, err := req.Wait(); err != nil {
				return err
			}
			for _, dst := range []int{1, 2} {
				if err := Send(w, msg, dst, tag); err != nil {
					return err
				}
			}
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		after := w.ProfSnapshot()
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("rank %d: element %d is %v, Allreduce's %v", rank, i, out[i], want[i])
			}
		}
		if ops := after.HostOps - before.HostOps; ops != 1 {
			return fmt.Errorf("rank %d: %d host operations, want the Iallreduce on the area", rank, ops)
		}
		if win != nil {
			return win.Free()
		}
		return nil
	}
}

// runJobWithin runs a distributed job and fails it when it has not ended
// within limit (its slaves are left to the test's daemons to reap).
func runJobWithin(cfg JobConfig, limit time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- Run(cfg) }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		return fmt.Errorf("job %s np=%d still running after %v", cfg.App, cfg.NP, limit)
	}
}

// TestHostAreaProcessSlaves runs hostAllreduceApp on process slaves of
// this host, which is what a daemon starts: np=4 folds in the halving
// tree's order, np=3 in the ring's.
func TestHostAreaProcessSlaves(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	for _, np := range []int{3, 4} {
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			reg, _ := testEnv(t, 2, daemon.ProcSpawner{})
			cfg := JobConfig{NP: np, App: "host-allreduce", Locators: []string{reg.Addr()}, LeaseDur: 5 * time.Second, Prof: "counters"}
			if err := runJobWithin(cfg, time.Minute); err != nil {
				t.Fatal(err)
			}
		})
	}
}
