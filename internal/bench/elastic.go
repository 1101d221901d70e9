package bench

import (
	"encoding/json"
	"fmt"
	"time"
)

// The elastic experiment: cost of the full elastic-recovery cycle. Each
// sample is a fresh in-process job in which one rank dies mid-collective;
// rank 0 measures two latencies:
//
//   - detect: from the victim's death to the survivor holding the typed
//     ErrRankFailed (the transport's report plus pending-op failure), and
//   - rebuild: from that observation to a verified full-size world again
//     (Shrink → Spawn → Merge → ground-truth collective).
//
// The cycle itself is supplied as a callback because the elastic runtime
// lives in the top-level mpj package, which this package cannot import
// (mpj's internal test files import bench).
//
// The recorded table (BENCH_elastic.json) documents the recovery cost;
// the -quick run re-measures a subset and fails when a latency exceeds
// three times the committed value (with a 10ms grace floor, so a loaded
// CI runner cannot flake a healthy microsecond-scale result).

// ElasticCycleFunc runs one detect → Shrink → Spawn → Merge → verify
// cycle on a fresh np-rank local job and returns rank 0's observed
// detection and rebuild latencies.
type ElasticCycleFunc func(np int) (detect, rebuild time.Duration, err error)

// ElasticBenchRow is one measured configuration, recorded in
// BENCH_elastic.json.
type ElasticBenchRow struct {
	Op      string  `json:"op"` // "detect" | "rebuild"
	NP      int     `json:"np"`
	NsPerOp float64 `json:"ns_per_op"`
}

// ElasticBenchResult is the JSON document mpjbench -exp elastic writes.
type ElasticBenchResult struct {
	Experiment string            `json:"experiment"`
	Device     string            `json:"device"`
	Note       string            `json:"note"`
	Rows       []ElasticBenchRow `json:"rows"`
}

// ElasticSweep runs the elastic-recovery micro-experiment. quick trims
// the sweep to the subset the CI smoke gate re-measures.
func ElasticSweep(quick bool, cycle ElasticCycleFunc) (*Table, *ElasticBenchResult, error) {
	nps := []int{3, 4, 8}
	iters := 10
	if quick {
		nps = []int{4}
		iters = 5
	}
	res := &ElasticBenchResult{
		Experiment: "elastic",
		Device:     "chan",
		Note:       "detect: victim death to typed ErrRankFailed at a survivor; rebuild: Shrink+Spawn+Merge to a verified full-size world (fresh job per sample)",
	}
	t := &Table{
		Title:   "ELASTIC: detect and Shrink+Spawn+Merge rebuild latency (chan device)",
		Headers: []string{"op", "np", "latency"},
	}
	for _, np := range nps {
		var detTotal, rebTotal time.Duration
		for it := 0; it < iters; it++ {
			det, reb, err := cycle(np)
			if err != nil {
				return nil, nil, fmt.Errorf("elastic np=%d sample %d: %w", np, it, err)
			}
			detTotal += det
			rebTotal += reb
		}
		det := ElasticBenchRow{Op: "detect", NP: np,
			NsPerOp: float64(detTotal.Nanoseconds()) / float64(iters)}
		reb := ElasticBenchRow{Op: "rebuild", NP: np,
			NsPerOp: float64(rebTotal.Nanoseconds()) / float64(iters)}
		res.Rows = append(res.Rows, det, reb)
		t.Rows = append(t.Rows,
			Row{"detect", fmt.Sprintf("%d", np), fmtDur(time.Duration(det.NsPerOp))},
			Row{"rebuild", fmt.Sprintf("%d", np), fmtDur(time.Duration(reb.NsPerOp))},
		)
	}
	return t, res, nil
}

// MarshalElasticResult renders the result the way BENCH_elastic.json
// stores it.
func MarshalElasticResult(res *ElasticBenchResult) ([]byte, error) {
	js, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(js, '\n'), nil
}

// CompareElasticBaseline fails when a measured latency exceeds factor
// times the committed baseline's, with a 10ms grace floor so
// microsecond-scale baselines never flake on a loaded runner.
func CompareElasticBaseline(cur, baseline *ElasticBenchResult, factor float64) error {
	base := map[string]float64{}
	for _, r := range baseline.Rows {
		base[fmt.Sprintf("%s/np%d", r.Op, r.NP)] = r.NsPerOp
	}
	const floorNs = 10e6
	var bad []string
	checked := 0
	for _, r := range cur.Rows {
		key := fmt.Sprintf("%s/np%d", r.Op, r.NP)
		want, ok := base[key]
		if !ok {
			continue
		}
		checked++
		limit := want * factor
		if limit < floorNs {
			limit = floorNs
		}
		if r.NsPerOp > limit {
			bad = append(bad, fmt.Sprintf("%s: %s > limit %s (baseline %s x%.1f)",
				key, fmtDur(time.Duration(r.NsPerOp)), fmtDur(time.Duration(limit)),
				fmtDur(time.Duration(want)), factor))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("elastic recovery latency regression vs committed BENCH_elastic.json: %v", bad)
	}
	if checked == 0 {
		return fmt.Errorf("no overlapping configurations between run and baseline")
	}
	return nil
}
