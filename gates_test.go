package mpj

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// TestRetiredGateBounds holds the timing bounds of the fault-tolerance,
// elastic-recovery, one-sided and instrumentation paths on in-process
// jobs over the channel mesh. Each cell measures one statistic and checks
// it against a constant:
//
//   - a recovery step (Agree, Shrink, detecting a death, rebuilding the
//     world) takes at most 10 ms on average;
//   - a co-located 64 KiB Put with its Fence takes no longer than the
//     matching Send/Recv, the memmove against the wire;
//   - a 4 KiB ping-pong hop with the counters on takes at most 10% + 200 ns
//     over the same hop with profiling off.
//
// The last two compare two timings, so they alternate the sides and take
// the median over pairs of the difference: load from the other packages
// go test runs meanwhile weighs on both members of a pair, where a minimum
// over a few runs of each side compared one side's quiet moment with the
// other's busy one.
func TestRetiredGateBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("timing bounds: the race detector slows every path")
	}
	const recovery = 10 * time.Millisecond
	const pairs = 40
	for _, c := range []struct {
		name string
		// measure returns the statistic and the limit it must not exceed.
		measure func(t *testing.T) (got, limit time.Duration)
	}{
		{"agree/np4/mean-of-20", func(t *testing.T) (time.Duration, time.Duration) {
			return meanAgree(t, 4, 20), recovery
		}},
		{"shrink/np4/mean-of-5", func(t *testing.T) (time.Duration, time.Duration) {
			return meanShrink(t, 4, 5), recovery
		}},
		{"elastic-detect/np4/mean-of-5", func(t *testing.T) (time.Duration, time.Duration) {
			detect, _ := meanElasticCycle(t, 4, 5)
			return detect, recovery
		}},
		{"elastic-rebuild/np4/mean-of-5", func(t *testing.T) (time.Duration, time.Duration) {
			_, rebuild := meanElasticCycle(t, 4, 5)
			return rebuild, recovery
		}},
		{"put64k-minus-sendrecv/np2/median-of-40", func(t *testing.T) (time.Duration, time.Duration) {
			return median(putMinusSendrecv(t, pairs)), 0
		}},
		{"counters-minus-1.1off/pingpong4k/median-of-40", func(t *testing.T) (time.Duration, time.Duration) {
			var d []time.Duration
			for r := 0; r < pairs; r++ {
				off := pingPongHop(t, "")
				d = append(d, pingPongHop(t, "counters")-off-off/10)
			}
			return median(d), 200 * time.Nanosecond
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, limit := c.measure(t)
			t.Logf("%v (limit %v)", got, limit)
			if got > limit {
				t.Errorf("%v exceeds the limit %v", got, limit)
			}
		})
	}
}

// median is the middle of ds (the upper one of an even count).
func median(ds []time.Duration) time.Duration {
	ds = slices.Clone(ds)
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// meanAgree is rank 0's mean time of one healthy-world Agree over iters
// back-to-back agreements on an np-rank job, after one to warm up.
func meanAgree(t *testing.T, np, iters int) time.Duration {
	var per time.Duration
	err := RunLocal(np, func(w *Comm) error {
		if _, err := w.Agree(^uint64(0)); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := w.Agree(^uint64(0)); err != nil {
				return err
			}
		}
		if w.Rank() == 0 {
			per = time.Since(start) / time.Duration(iters)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return per
}

// meanShrink is rank 0's mean Shrink time over jobs fresh np-rank jobs
// whose last rank dies: from the survivor's device recording the death to
// it holding the shrunken communicator.
func meanShrink(t *testing.T, np, jobs int) time.Duration {
	victim := np - 1
	var total time.Duration
	for k := 0; k < jobs; k++ {
		var lat time.Duration
		err := RunLocal(np, func(w *Comm) error {
			if w.Rank() == victim {
				w.Device().Die(errors.New("bound kill"))
				return nil
			}
			for !w.Device().RankFailed(victim) {
				time.Sleep(10 * time.Microsecond)
			}
			start := time.Now()
			nc, err := w.Shrink()
			if err != nil {
				return err
			}
			if w.Rank() == 0 {
				lat = time.Since(start)
			}
			return nc.Barrier()
		})
		if err != nil {
			t.Fatalf("job %d: %v", k, err)
		}
		total += lat
	}
	return total / time.Duration(jobs)
}

// meanElasticCycle runs jobs fresh np-rank elastic cycles whose last rank
// dies and returns rank 0's mean detect time (the death to the typed
// ErrRankFailed) and rebuild time (that to a verified full-size world
// again: Shrink, Spawn, Merge, ground truth).
func meanElasticCycle(t *testing.T, np, jobs int) (detect, rebuild time.Duration) {
	victim := np - 1
	for k := 0; k < jobs; k++ {
		var killed, observed, rebuilt time.Time
		err := RunLocal(np, func(w *Comm) error {
			if w.Spawned() {
				return elasticGroundTruth(w)
			}
			if w.Rank() == victim {
				killed = time.Now()
				w.Device().Die(errors.New("bound kill"))
				return nil
			}
			if err := elasticDetect(w); err != nil {
				return err
			}
			if w.Rank() == 0 {
				observed = time.Now()
			}
			if err := elasticRebuild(w, np); err != nil {
				return err
			}
			if w.Rank() == 0 {
				rebuilt = time.Now()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("job %d: %v", k, err)
		}
		detect += observed.Sub(killed)
		rebuild += rebuilt.Sub(observed)
	}
	return detect / time.Duration(jobs), rebuild / time.Duration(jobs)
}

// putMinusSendrecv runs pairs of batches of 120 operations on one 2-rank
// job, after one of each to warm up, and returns per pair rank 0's mean
// time of a 64 KiB Put into rank 1's window with the Fence that completes
// it, less that of the matching blocking Send to rank 1.
func putMinusSendrecv(t *testing.T, pairs int) []time.Duration {
	const elems, iters = 64 << 10 / 8, 120
	var diffs []time.Duration
	err := RunLocal(2, func(w *Comm) error {
		buf := make([]float64, elems)
		win, err := w.WinCreate(buf, 1)
		if err != nil {
			return err
		}
		putEpoch := win.Fence // the target only takes part in the epoch
		send := func() error { _, err := w.Recv(buf, 0, elems, DOUBLE, 0, 0); return err }
		if w.Rank() == 0 {
			putEpoch = func() error {
				if err := win.Put(buf, 0, elems, DOUBLE, 1, 0); err != nil {
					return err
				}
				return win.Fence()
			}
			send = func() error { return w.Send(buf, 0, elems, DOUBLE, 1, 0) }
		}
		batch := func(body func() error) (time.Duration, error) {
			if err := w.Barrier(); err != nil {
				return 0, err
			}
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := body(); err != nil {
					return 0, err
				}
			}
			return time.Since(start) / iters, nil
		}
		if err := putEpoch(); err != nil {
			return err
		}
		if err := send(); err != nil {
			return err
		}
		for r := 0; r < pairs; r++ {
			s, err := batch(send)
			if err != nil {
				return err
			}
			p, err := batch(putEpoch)
			if err != nil {
				return err
			}
			if w.Rank() == 0 {
				diffs = append(diffs, p-s)
			}
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	return diffs
}

// pingPongHop is rank 0's mean time of one 4 KiB hop (half a round trip)
// over 500 round trips on a 2-rank job run with MPJ_PROF=spec, after one
// to warm up.
func pingPongHop(t *testing.T, spec string) time.Duration {
	const size, iters = 4 << 10, 500
	t.Setenv("MPJ_PROF", spec)
	t.Setenv("MPJ_PROF_ADDR", "")
	var per time.Duration
	err := RunLocal(2, func(w *Comm) error {
		buf := make([]byte, size)
		roundTrip := func() error {
			if w.Rank() == 0 {
				if err := w.Send(buf, 0, size, BYTE, 1, 0); err != nil {
					return err
				}
				_, err := w.Recv(buf, 0, size, BYTE, 1, 0)
				return err
			}
			if _, err := w.Recv(buf, 0, size, BYTE, 0, 0); err != nil {
				return err
			}
			return w.Send(buf, 0, size, BYTE, 0, 0)
		}
		if err := roundTrip(); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := roundTrip(); err != nil {
				return err
			}
		}
		if w.Rank() == 0 {
			per = time.Since(start) / (2 * iters)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("MPJ_PROF=%q: %v", spec, err)
	}
	return per
}
