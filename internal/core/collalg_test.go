package core

import (
	"fmt"
	"testing"
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

// Forcing CollAlgSegmented or CollAlgRing on a 2-rank communicator must
// fall back to the classic schedules: the large-message paths assume at
// least three members (auto always refused them below that floor), and
// force means family preference, not schedule identity.
func TestForcedFamilyRespectsMemberFloor(t *testing.T) {
	runRanks(t, 2, func(w *Comm) error {
		for _, alg := range []CollAlg{CollAlgSegmented, CollAlgRing} {
			w.SetCollAlg(alg)
			if w.collLarge(1 << 20) {
				return expect(false, "np=2 forced %v: collLarge(1 MiB) = true, want classic fallback", alg)
			}
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
	families := []CollAlg{CollAlgAuto, CollAlgClassic, CollAlgSegmented, CollAlgRing, CollAlgHier}
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

// Every selection threshold resolves through one consult chain — measured
// table, built-in constant: a table entry that sets the knob must win, and
// a table without it must leave the constant in force.
func TestCollKnobConsultOrder(t *testing.T) {
	runRanks(t, 4, func(w *Comm) error {
		knobs := []struct {
			name  string
			get   func() int
			def   int
			table func(d *DeviceCrossovers, v int)
		}{
			{"large_min", w.largeMin, defLargeCollMin,
				func(d *DeviceCrossovers, v int) { d.LargeMin = v }},
			{"large_min per np", w.largeMin, defLargeCollMin,
				func(d *DeviceCrossovers, v int) {
					d.LargeMin = 7 // the exact-np entry outranks the device-wide one
					d.PerNP = []NPCrossover{{NP: 3, LargeMin: 9}, {NP: w.Size(), LargeMin: v}}
				}},
			{"large_min_np", w.largeMinNP, defLargeCollMinNP,
				func(d *DeviceCrossovers, v int) { d.LargeMinNP = v }},
			{"hier_min", w.hierMin, 0,
				func(d *DeviceCrossovers, v int) { d.HierMin = v }},
		}
		for _, k := range knobs {
			want := func(step string, v int) error {
				return expect(k.get() == v, "%s, %s: resolved %d, want %d", k.name, step, k.get(), v)
			}
			w.proc.collDev = nil
			if err := want("no table", k.def); err != nil {
				return err
			}
			d := &DeviceCrossovers{}
			w.proc.collDev = d
			if err := want("table without the knob", k.def); err != nil {
				return err
			}
			k.table(d, 111)
			if err := want("table", 111); err != nil {
				return err
			}
		}
		w.proc.collDev = nil
		return nil
	})
}
