package bench

import (
	"fmt"
	"time"

	"mpj/internal/core"
)

// The autotuner behind `mpjbench -tune`: it measures, per device, where
// the large-message schedules actually overtake the classic trees on THIS
// machine, and writes the result as a crossover table (colltab.go) that
// the selection layer in collalg.go consults ahead of its built-in
// constants. Allreduce classic-vs-ring is the probe: it is the collective
// whose crossover moves the most between an in-process channel mesh and a
// TCP-backed one, and the same threshold moves the broadcast onto its
// in-place plan.
//
// The sweep is deliberately coarse — a handful of payload sizes per
// (device, np) — because the table only needs to place a threshold
// between two powers of two, not measure bandwidth precisely. For the
// hybrid device it additionally probes the hierarchical family on a
// cyclic 2-group layout to place hier_min.

// tunePoint is one measured (classic, alternative) pair.
type tunePoint struct {
	bytes   int
	classic float64 // ns/op
	alt     float64 // ns/op
}

// tuneCrossover returns the smallest measured payload from which the
// alternative algorithm wins and keeps winning, or 0 when it never
// settles ahead (the table then stays silent and defaults apply).
func tuneCrossover(pts []tunePoint) int {
	for i := range pts {
		won := true
		for _, p := range pts[i:] {
			if p.alt <= 0 || p.classic <= 0 || p.alt >= p.classic {
				won = false
				break
			}
		}
		if won {
			return pts[i].bytes
		}
	}
	return 0
}

// tuneSweep measures classic vs alt for one op on one mesh across sizes; ran
// is alt with the schedule it compiled beside it (CollBenchRow.label).
func tuneSweep(run jobRunner, op string, np int, sizes []int, alt string) (pts []tunePoint, ran string, err error) {
	pts = make([]tunePoint, 0, len(sizes))
	for _, bytes := range sizes {
		cl, err := measureColl(run, op, np, bytes, "classic")
		if err != nil {
			return nil, "", fmt.Errorf("tune %s np=%d bytes=%d classic: %w", op, np, bytes, err)
		}
		al, err := measureColl(run, op, np, bytes, alt)
		if err != nil {
			return nil, "", fmt.Errorf("tune %s np=%d bytes=%d %s: %w", op, np, bytes, alt, err)
		}
		pts = append(pts, tunePoint{bytes: bytes, classic: cl.NsPerOp, alt: al.NsPerOp})
		ran = al.label()
	}
	return pts, ran, nil
}

// Tune sweeps payload x np x algorithm per device and derives the
// crossover table. quick trims the sweep to a smoke-sized subset (the CI
// step: the table must still be derivable and loadable, its values are
// not asserted). The returned table is what the caller writes to
// MPJ_COLL_TABLE / ~/.mpj/colltab.json.
func Tune(quick bool) (*core.CollTable, *Table, error) {
	sizes := []int{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 1 << 20}
	nps := []int{4, 8}
	hierNP := 8
	if quick {
		sizes = []int{32 << 10, 256 << 10}
		nps = []int{4}
		hierNP = 4
	}

	tab := core.NewCollTable()
	rep := &Table{
		Title:   "TUNE: measured algorithm crossovers (allreduce classic vs ring; hier on cyclic 2-group hyb)",
		Headers: []string{"device", "np", "probe", "crossover", "detail"},
	}

	devices := []struct {
		name string
		run  jobRunner
	}{
		{"chan", runJob},
		{"hyb", runJobHyb},
	}
	for _, dev := range devices {
		d := &core.DeviceCrossovers{}
		for _, np := range nps {
			pts, ran, err := tuneSweep(dev.run, "allreduce", np, sizes, "ring")
			if err != nil {
				return nil, nil, err
			}
			x := tuneCrossover(pts)
			if x > 0 {
				d.PerNP = append(d.PerNP, core.NPCrossover{NP: np, LargeMin: x})
				if d.LargeMin == 0 || x < d.LargeMin {
					d.LargeMin = x
				}
			}
			detail := ran + " never settles ahead; defaults apply"
			if x > 0 {
				detail = fmt.Sprintf("%s wins from %s up", ran, fmtSize(x))
			}
			rep.Rows = append(rep.Rows, Row{dev.name, fmt.Sprintf("%d", np), "large_min", fmtSize(x), detail})
		}
		if d.LargeMin > 0 || len(d.PerNP) > 0 {
			tab.Devices[dev.name] = d
		}
	}

	// hier_min: where the two-level schedule overtakes single-level
	// classic on a layout that actually spans groups. Only meaningful for
	// the hybrid device — chan and tcp meshes are locality-flat.
	hierRun := func(np int, fn func(w *core.Comm) error) error { return runJobHybGroups(np, 2, fn) }
	pts, _, err := tuneSweep(hierRun, "allreduce@2g", hierNP, sizes, "hier")
	if err != nil {
		return nil, nil, err
	}
	if x := tuneCrossover(pts); x > 0 {
		if tab.Devices["hyb"] == nil {
			tab.Devices["hyb"] = &core.DeviceCrossovers{}
		}
		tab.Devices["hyb"].HierMin = x
		rep.Rows = append(rep.Rows, Row{"hyb", fmt.Sprintf("%d", hierNP), "hier_min", fmtSize(x),
			fmt.Sprintf("hier wins from %s up on a cyclic 2-group layout", fmtSize(x))})
	} else {
		rep.Rows = append(rep.Rows, Row{"hyb", fmt.Sprintf("%d", hierNP), "hier_min", "-",
			"hier never settles ahead; defaults apply"})
	}

	return tab, rep, nil
}

// TuneAndWrite runs the sweep, writes the table at path, and re-loads it
// to prove the artifact is consumable — the `mpjbench -tune` entry point
// and the CI smoke assertion.
func TuneAndWrite(path string, quick bool) (*Table, error) {
	start := time.Now()
	tab, rep, err := Tune(quick)
	if err != nil {
		return nil, err
	}
	if err := tab.WriteFile(path); err != nil {
		return nil, fmt.Errorf("writing crossover table: %w", err)
	}
	if _, err := core.LoadCollTable(path); err != nil {
		return nil, fmt.Errorf("round-trip check of written table: %w", err)
	}
	rep.Title += fmt.Sprintf(" -> %s (%.1fs)", path, time.Since(start).Seconds())
	return rep, nil
}
