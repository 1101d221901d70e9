package bench

import (
	"encoding/json"
	"fmt"
	"time"

	"mpj/internal/core"
)

// The VCOLL experiment: varying-count collectives on the schedule engine.
// It sweeps Alltoallv (balanced and skewed per-peer layouts — the skewed
// layout gives rank r's peers blocks proportional to their distance, the
// shape classic alltoall cannot express) and ReduceScatter with the
// algorithm family forced classic (reduce-at-root + linear scatter)
// versus ring (chunked ring reduce-scatter) on the chan device. The
// recorded table (BENCH_vcoll.json) documents the measured win of the
// ring path and backs the CI smoke: the -quick run re-measures a subset
// and fails when the classic-vs-ring reduce-scatter speedup falls more
// than 20% below the committed value (capped at 2x, like the COLL gate,
// so a core-starved runner cannot flake a healthy result).

// VcollBenchRow is one measured configuration, recorded in
// BENCH_vcoll.json.
type VcollBenchRow struct {
	Op      string  `json:"op"`     // "alltoallv" | "reduce_scatter"
	Layout  string  `json:"layout"` // "balanced" | "skewed" (alltoallv only)
	Alg     string  `json:"alg"`    // "classic" | "ring" | "linear"
	NP      int     `json:"np"`
	Bytes   int     `json:"bytes"` // payload bytes per rank
	NsPerOp float64 `json:"ns_per_op"`
	MiBps   float64 `json:"mib_per_s"`
}

// VcollBenchResult is the JSON document mpjbench -exp vcoll writes.
type VcollBenchResult struct {
	Experiment string          `json:"experiment"`
	Device     string          `json:"device"`
	Note       string          `json:"note"`
	Rows       []VcollBenchRow `json:"rows"`
}

// vcollLayout builds the per-peer count matrix row for one rank: balanced
// gives every peer elems/np elements; skewed gives peer d a share
// proportional to 1+((r+d) mod np), so totals stay comparable while
// block sizes vary by up to np: 1.
func vcollLayout(layout string, np, rank, elems int) []int {
	counts := make([]int, np)
	if layout == "balanced" {
		for d := range counts {
			counts[d] = elems / np
		}
		return counts
	}
	weights := 0
	for d := 0; d < np; d++ {
		weights += 1 + (rank+d)%np
	}
	for d := 0; d < np; d++ {
		counts[d] = elems * (1 + (rank+d)%np) / weights
	}
	return counts
}

// measureAlltoallv times one Alltoallv configuration on an np-rank chan
// job. bytes is the per-rank payload (float64 elements split across
// peers).
func measureAlltoallv(np, bytes int, layout string) (VcollBenchRow, error) {
	row := VcollBenchRow{Op: "alltoallv", Layout: layout, Alg: "linear", NP: np, Bytes: bytes}
	elems := bytes / 8
	iters := collIters(bytes)
	err := runJob(np, func(w *core.Comm) error {
		me := w.Rank()
		scounts := vcollLayout(layout, np, me, elems)
		// The matrix (r+d) mod np is symmetric, so using row r for both
		// sides keeps every send paired with a matching receive.
		rcounts := scounts
		prefix := func(row []int) ([]int, int) {
			p := make([]int, len(row))
			cur := 0
			for i, n := range row {
				p[i] = cur
				cur += n
			}
			return p, cur
		}
		sdispls, stotal := prefix(scounts)
		rdispls, rtotal := prefix(rcounts)
		in := make([]float64, stotal)
		out := make([]float64, rtotal)
		for i := range in {
			in[i] = float64(me + i)
		}
		body := func() error {
			return w.Alltoallv(in, 0, scounts, sdispls, core.Double, out, 0, rcounts, rdispls, core.Double)
		}
		for i := 0; i < 2; i++ {
			if err := body(); err != nil {
				return err
			}
		}
		if me == 0 {
			ns, _, err := measureOnRank0(w, iters, 3, body)
			if err != nil {
				return err
			}
			row.NsPerOp = ns
			row.MiBps = float64(bytes) / (1 << 20) / (ns / 1e9)
			return nil
		}
		return runOther(w, iters, 3, body)
	})
	return row, err
}

// measureReduceScatter times one ReduceScatter configuration with the
// algorithm family forced.
func measureReduceScatter(np, bytes int, algName string) (VcollBenchRow, error) {
	row := VcollBenchRow{Op: "reduce_scatter", Alg: algName, NP: np, Bytes: bytes}
	elems := bytes / 8
	iters := collIters(bytes)
	err := runJob(np, func(w *core.Comm) error {
		core.ForceCollAlg(w, collAlgFor(algName))
		me := w.Rank()
		rcounts := make([]int, np)
		for r := range rcounts {
			rcounts[r] = elems / np
		}
		in := make([]float64, elems/np*np)
		out := make([]float64, rcounts[me])
		for i := range in {
			in[i] = float64(me + i)
		}
		body := func() error {
			return w.ReduceScatter(in, 0, out, 0, rcounts, core.Double, core.SumOp)
		}
		for i := 0; i < 2; i++ {
			if err := body(); err != nil {
				return err
			}
		}
		if me == 0 {
			ns, _, err := measureOnRank0(w, iters, 3, body)
			if err != nil {
				return err
			}
			row.NsPerOp = ns
			row.MiBps = float64(bytes) / (1 << 20) / (ns / 1e9)
			return nil
		}
		return runOther(w, iters, 3, body)
	})
	return row, err
}

// VcollSweep generates the varying-count collective table and its JSON
// record. The quick run re-measures the 1 MiB np=4 reduce-scatter pair
// plus one alltoallv point, for the CI smoke gate.
func VcollSweep(quick bool) (*Table, *VcollBenchResult, error) {
	sizes := []int{64 << 10, 256 << 10, 1 << 20, 4 << 20}
	rsNps := []int{4, 5, 8}
	a2aNps := []int{4, 8}
	if quick {
		sizes = []int{1 << 20}
		rsNps = []int{4}
		a2aNps = []int{4}
	}
	res := &VcollBenchResult{
		Experiment: "vcoll",
		Device:     "chan",
		Note: "float64 payloads, min of 3 reps; 'bytes' is the per-rank payload (split across " +
			"peers for alltoallv, the full contributed vector for reduce_scatter). alltoallv is " +
			"the single-round linear schedule under balanced vs skewed per-peer layouts; " +
			"reduce_scatter compares classic (binomial reduce to rank 0 + linear scatter) vs the " +
			"chunked ring reduce-scatter. The classic/ring speedup per (np, bytes) is the CI " +
			"regression baseline for mpjbench -exp vcoll -quick",
	}
	t := &Table{
		Title:   "VCOLL: varying-count collectives (chan device)",
		Headers: []string{"op", "layout/alg", "np", "bytes", "ns/op", "MiB/s", "speedup"},
	}

	for _, np := range a2aNps {
		for _, bytes := range sizes {
			for _, layout := range []string{"balanced", "skewed"} {
				r, err := measureAlltoallv(np, bytes, layout)
				if err != nil {
					return nil, nil, fmt.Errorf("vcoll alltoallv np=%d bytes=%d %s: %w", np, bytes, layout, err)
				}
				res.Rows = append(res.Rows, r)
				t.Rows = append(t.Rows, Row{
					"alltoallv", layout, fmt.Sprintf("%d", np), fmtSize(bytes),
					fmtDur(time.Duration(r.NsPerOp)), fmt.Sprintf("%.0f", r.MiBps), "",
				})
			}
		}
	}
	for _, np := range rsNps {
		for _, bytes := range sizes {
			cl, err := measureReduceScatter(np, bytes, "classic")
			if err != nil {
				return nil, nil, fmt.Errorf("vcoll reduce_scatter np=%d bytes=%d classic: %w", np, bytes, err)
			}
			rg, err := measureReduceScatter(np, bytes, "ring")
			if err != nil {
				return nil, nil, fmt.Errorf("vcoll reduce_scatter np=%d bytes=%d ring: %w", np, bytes, err)
			}
			res.Rows = append(res.Rows, cl, rg)
			t.Rows = append(t.Rows, Row{
				"reduce_scatter", "classic", fmt.Sprintf("%d", np), fmtSize(bytes),
				fmtDur(time.Duration(cl.NsPerOp)), fmt.Sprintf("%.0f", cl.MiBps), "",
			})
			t.Rows = append(t.Rows, Row{
				"reduce_scatter", "ring", fmt.Sprintf("%d", np), fmtSize(bytes),
				fmtDur(time.Duration(rg.NsPerOp)), fmt.Sprintf("%.0f", rg.MiBps),
				fmt.Sprintf("%.2fx", cl.NsPerOp/rg.NsPerOp),
			})
		}
	}
	return t, res, nil
}

// MarshalVcollResult renders the result the way BENCH_vcoll.json stores
// it.
func MarshalVcollResult(res *VcollBenchResult) ([]byte, error) {
	js, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(js, '\n'), nil
}

// vcollSpeedups indexes classic-vs-ring reduce-scatter speedup ratios by
// configuration.
func vcollSpeedups(res *VcollBenchResult) map[string]float64 {
	classic := map[string]float64{}
	ring := map[string]float64{}
	for _, r := range res.Rows {
		if r.Op != "reduce_scatter" {
			continue
		}
		key := fmt.Sprintf("np%d/%d", r.NP, r.Bytes)
		if r.Alg == "classic" {
			classic[key] = r.NsPerOp
		} else {
			ring[key] = r.NsPerOp
		}
	}
	out := map[string]float64{}
	for key, cns := range classic {
		if rns, ok := ring[key]; ok && rns > 0 {
			out[key] = cns / rns
		}
	}
	return out
}

// CompareVcollBaseline fails when a measured classic-vs-ring
// reduce-scatter speedup falls more than tol below the committed
// baseline's, with the requirement capped at 2.0x (the acceptance claim)
// so slower CI hardware showing a healthy >=2x win never flakes.
func CompareVcollBaseline(cur, baseline *VcollBenchResult, tol float64) error {
	base := vcollSpeedups(baseline)
	meas := vcollSpeedups(cur)
	var bad []string
	checked := 0
	for key, want := range base {
		got, ok := meas[key]
		if !ok {
			continue
		}
		checked++
		need := min(want*(1-tol), 2.0)
		if got < need {
			bad = append(bad, fmt.Sprintf("reduce_scatter %s: speedup %.2fx < required %.2fx (baseline %.2fx - %.0f%%)",
				key, got, need, want, tol*100))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("varying-count collective regression vs committed BENCH_vcoll.json: %v", bad)
	}
	if checked == 0 {
		return fmt.Errorf("no overlapping configurations between run and baseline")
	}
	return nil
}
