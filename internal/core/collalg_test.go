package core

import (
	"fmt"
	"testing"

	"mpj/internal/transport"
)

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic, got none", name)
		}
	}()
	fn()
}

// SetCollAlg's doc contract: out-of-domain values panic, valid ones stick.
func TestCollSettersValidate(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		if w.Rank() == 0 {
			mustPanic(t, "SetCollAlg(99)", func() { w.SetCollAlg(CollAlg(99)) })
			mustPanic(t, "SetCollAlg(-1)", func() { w.SetCollAlg(CollAlg(-1)) })
		}
		w.SetCollAlg(CollAlgRing)
		if got := w.collAlgChoice(); got != CollAlgRing {
			return expect(false, "collAlgChoice after Set(ring) = %v", got)
		}
		w.SetCollAlg(CollAlgAuto)
		return nil
	})
}

// Forcing CollAlgRing on a 2-rank communicator must fall back to the
// classic schedules: the large-message paths assume at least three members
// (auto always refused them below that floor), and force means family
// preference, not schedule identity.
func TestForcedFamilyRespectsMemberFloor(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		w.SetCollAlg(CollAlgRing)
		if w.collLarge(1 << 20) {
			return expect(false, "np=2 forced ring: collLarge(1 MiB) = true, want classic fallback")
		}
		w.SetCollAlg(CollAlgAuto)
		if w.collLarge(1 << 20) {
			return expect(false, "np=2 auto: collLarge(1 MiB) = true, want classic below member floor")
		}
		return nil
	})
}

// Every forced family must produce byte-identical collective results at
// np=2, where the large-message and hierarchical schedules all degenerate
// to classic. Exercises Bcast, Allreduce, Reduce and Allgather under each
// family in turn on the same communicator.
func TestForcedFamilyEquivalenceNP2(t *testing.T) {
	families := []CollAlg{CollAlgAuto, CollAlgClassic, CollAlgRing, CollAlgHier}
	const n = 96 << 10 // 768 KiB of float64: above every large-message threshold

	runRanks(t, 2, func(w *Comm) error {
		for _, alg := range families {
			w.SetCollAlg(alg)

			buf := make([]float64, n)
			if w.Rank() == 1 {
				for i := range buf {
					buf[i] = float64(i%911) + 0.5
				}
			}
			if err := w.Bcast(buf, 0, n, Double, 1); err != nil {
				return fmt.Errorf("%v bcast: %w", alg, err)
			}
			for i := 0; i < n; i += 509 {
				if want := float64(i%911) + 0.5; buf[i] != want {
					return expect(false, "%v bcast: buf[%d] = %v, want %v", alg, i, buf[i], want)
				}
			}

			sbuf := make([]float64, n)
			for i := range sbuf {
				sbuf[i] = float64(w.Rank()*n + i)
			}
			rbuf := make([]float64, n)
			if err := w.Allreduce(sbuf, 0, rbuf, 0, n, Double, SumOp); err != nil {
				return fmt.Errorf("%v allreduce: %w", alg, err)
			}
			for i := 0; i < n; i += 509 {
				if want := float64(i) + float64(n+i); rbuf[i] != want {
					return expect(false, "%v allreduce: rbuf[%d] = %v, want %v", alg, i, rbuf[i], want)
				}
			}

			red := make([]float64, n)
			if err := w.Reduce(sbuf, 0, red, 0, n, Double, SumOp, 0); err != nil {
				return fmt.Errorf("%v reduce: %w", alg, err)
			}
			if w.Rank() == 0 {
				for i := 0; i < n; i += 1021 {
					if want := float64(i) + float64(n+i); red[i] != want {
						return expect(false, "%v reduce: red[%d] = %v, want %v", alg, i, red[i], want)
					}
				}
			}

			const gc = 512
			gs := make([]float64, gc)
			for i := range gs {
				gs[i] = float64(w.Rank()*gc + i)
			}
			gr := make([]float64, 2*gc)
			if err := w.Allgather(gs, 0, gc, Double, gr, 0, gc, Double); err != nil {
				return fmt.Errorf("%v allgather: %w", alg, err)
			}
			for i := 0; i < 2*gc; i += 97 {
				if gr[i] != float64(i) {
					return expect(false, "%v allgather: gr[%d] = %v", alg, i, gr[i])
				}
			}

			if err := w.Barrier(); err != nil {
				return fmt.Errorf("%v barrier: %w", alg, err)
			}
		}
		w.SetCollAlg(CollAlgAuto)
		return nil
	})
}

// tableSweep compares collective results under automatic selection against
// an explicitly forced family on a second pass; both must be
// byte-identical.
func tableSweep(w *Comm, forced CollAlg) error {
	np := w.Size()
	const n = 6144 // 48 KiB of float64

	run := func() ([]float64, []float64, error) {
		b := make([]float64, n)
		if w.Rank() == 0 {
			for i := range b {
				b[i] = float64(i%773) + 0.25
			}
		}
		if err := w.Bcast(b, 0, n, Double, 0); err != nil {
			return nil, nil, fmt.Errorf("bcast: %w", err)
		}
		s := make([]float64, n)
		for i := range s {
			s[i] = float64((w.Rank()+1)*1000 + i%97)
		}
		r := make([]float64, n)
		if err := w.Allreduce(s, 0, r, 0, n, Double, SumOp); err != nil {
			return nil, nil, fmt.Errorf("allreduce: %w", err)
		}
		return b, r, nil
	}

	w.SetCollAlg(CollAlgAuto)
	ab, ar, err := run()
	if err != nil {
		return fmt.Errorf("auto np=%d: %w", np, err)
	}
	w.SetCollAlg(forced)
	fb, fr, err := run()
	if err != nil {
		return fmt.Errorf("forced %v np=%d: %w", forced, np, err)
	}
	w.SetCollAlg(CollAlgAuto)

	for i := range ab {
		if ab[i] != fb[i] {
			return fmt.Errorf("np=%d forced %v: bcast[%d] %v != auto %v", np, forced, i, fb[i], ab[i])
		}
		if ar[i] != fr[i] {
			return fmt.Errorf("np=%d forced %v: allreduce[%d] %v != auto %v", np, forced, i, fr[i], ar[i])
		}
	}
	return nil
}

// Property: with the large-message threshold scaled down to one byte, as
// the shape table scales it down (so the large and hier paths engage at
// test-sized payloads), auto and every explicitly forced family still
// produce byte-identical collective results, across np in {2, 3, 5, 8} on
// both chan and hyb.
func TestTableAutoMatchesForced(t *testing.T) {
	families := []CollAlg{CollAlgClassic, CollAlgRing, CollAlgHier}
	for _, np := range []int{2, 3, 5, 8} {
		np := np
		// Alternating keys: multi-group from np>=3 members, so hier engages
		// where it can and falls back where it cannot.
		keys := make([]string, np)
		for i := range keys {
			keys[i] = []string{"A", "B"}[i%2]
		}
		sweep := func(w *Comm) error {
			w.proc.largeMin = 1
			for _, f := range families {
				if err := tableSweep(w, f); err != nil {
					return err
				}
			}
			return nil
		}

		t.Run(fmt.Sprintf("chan-np%d", np), func(t *testing.T) {
			runRanksLaidOut(t, keys, sweep)
		})

		t.Run(fmt.Sprintf("hyb-np%d", np), func(t *testing.T) {
			loc := transport.ProcessLocality()
			locs := make([]string, np)
			for i := range locs {
				locs[i] = loc
			}
			jobID := 0x7ab1<<32 | hierJobSeq.Add(1)
			runRanksOn(t, np, func(i int) (transport.Transport, error) {
				tr, err := transport.NewHybTransport(transport.HybConfig{Rank: i, JobID: jobID, Locs: locs})
				return laidOut{tr, keys}, err
			}, sweep)
		})
	}
}
