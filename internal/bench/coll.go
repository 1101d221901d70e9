package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"mpj/internal/core"
	"mpj/internal/device"
	"mpj/internal/transport"
)

// The COLL experiment: large-message collective algorithms. It sweeps
// Allreduce payloads from 64 KiB to 4 MiB across communicator sizes
// (including the non-power-of-two np=5) with the algorithm family forced
// classic versus ring, on the chan device. The recorded table
// (BENCH_coll.json) is the measurement behind the algorithm-selection
// thresholds in collalg.go, and its speedup ratios are the regression
// baseline: the -quick run re-measures a subset and fails when a speedup
// falls more than 20% below the committed value (ratios, not absolute
// times, so the check is stable across machines).

// CollBenchRow is one measured configuration, recorded in BENCH_coll.json.
type CollBenchRow struct {
	Op      string  `json:"op"`  // "allreduce"
	Alg     string  `json:"alg"` // the forced family: "classic" | "ring"
	NP      int     `json:"np"`
	Bytes   int     `json:"bytes"` // payload bytes per rank
	NsPerOp float64 `json:"ns_per_op"`
	MiBps   float64 `json:"mib_per_s"` // payload bytes / time (algorithm bandwidth)

	sched string // allreduce: the algorithm the schedule says it compiled (label)
}

// CollBenchResult is the JSON document mpjbench -exp coll writes.
type CollBenchResult struct {
	Experiment string         `json:"experiment"`
	Device     string         `json:"device"`
	Note       string         `json:"note"`
	Rows       []CollBenchRow `json:"rows"`
}

// collIters scales iteration counts down as payloads grow.
func collIters(bytes int) int {
	switch {
	case bytes <= 64<<10:
		return 120
	case bytes <= 256<<10:
		return 40
	case bytes <= 1<<20:
		return 14
	default:
		return 5
	}
}

// collAlgFor maps the sweep's algorithm column to the forced family.
func collAlgFor(name string) core.CollAlg {
	if name == "classic" {
		return core.CollAlgClassic
	}
	return core.CollAlgRing
}

// label names a row's algorithm for the tables: the family it forced and,
// where the schedule names something else (the large allreduce family
// compiles "halving-doubling" or "ring" by communicator size), what ran.
func (r CollBenchRow) label() string {
	if r.sched == "" || r.sched == r.Alg {
		return r.Alg
	}
	return r.Alg + "/" + r.sched
}

// schedAlg extracts the algorithm name a schedule reports about itself
// (CollRequest.String: "... alg=<name> round=...").
func schedAlg(req *core.CollRequest) string {
	_, rest, _ := strings.Cut(req.String(), "alg=")
	name, _, _ := strings.Cut(rest, " ")
	return name
}

// measureColl times one Allreduce configuration on an np-rank job over the
// channel mesh.
func measureColl(np, bytes int, algName string) (CollBenchRow, error) {
	row := CollBenchRow{Op: "allreduce", Alg: algName, NP: np, Bytes: bytes}
	elems := bytes / 8
	iters := collIters(bytes)
	err := runJob(np, func(w *core.Comm) error {
		core.ForceCollAlg(w, collAlgFor(algName))
		in := make([]float64, elems)
		out := make([]float64, elems)
		for i := range in {
			in[i] = float64(w.Rank() + i)
		}
		body := func() error { return w.Allreduce(in, 0, out, 0, elems, core.Double, core.SumOp) }
		// One extra warm-up through the non-blocking form, whose request
		// says which schedule the selection compiled.
		req, err := w.Iallreduce(in, 0, out, 0, elems, core.Double, core.SumOp)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		if w.Rank() == 0 {
			row.sched = schedAlg(req)
		}
		for i := 0; i < 2; i++ { // warm up pools, routes, schedules
			if err := body(); err != nil {
				return err
			}
		}
		if w.Rank() == 0 {
			ns, err := measureOnRank0(w, iters, 3, body)
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

// runJob runs an np-rank in-process job over the channel mesh, handing
// each rank to fn. The first rank to fail aborts every device, so peers
// blocked in a collective (or the final barrier) error out instead of
// hanging the harness.
func runJob(np int, fn func(w *core.Comm) error) error {
	eps := transport.NewChanMesh(np)
	devs := make([]*device.Device, np)
	worlds := make([]*core.Comm, np)
	abortAll := func() {
		for _, d := range devs {
			if d != nil {
				d.Abort()
			}
		}
	}
	for i, ep := range eps {
		var err error
		if devs[i], err = device.Open(ep); err != nil {
			abortAll()
			return err
		}
		if worlds[i], err = core.NewWorld(devs[i]); err != nil {
			abortAll()
			return err
		}
	}
	var abortOnce sync.Once
	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(worlds[i]); err != nil {
				errs[i] = err
				abortOnce.Do(abortAll)
				return
			}
			errs[i] = worlds[i].Barrier()
		}()
	}
	wg.Wait()
	for _, d := range devs {
		d.Close()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// measureOnRank0 times reps runs of iters calls of body on rank 0 and
// reports the fastest run's ns/op: min-of-reps strips scheduler jitter.
func measureOnRank0(w *core.Comm, iters, reps int, body func() error) (float64, error) {
	best := 0.0
	for rep := 0; rep < reps; rep++ {
		if err := w.Barrier(); err != nil {
			return 0, err
		}
		runtime.GC()
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := body(); err != nil {
				return 0, err
			}
		}
		per := float64(time.Since(start).Nanoseconds()) / float64(iters)
		if rep == 0 || per < best {
			best = per
		}
	}
	return best, nil
}

// runOther drives the non-measuring ranks through the same rep/iter
// structure as measureOnRank0.
func runOther(w *core.Comm, iters, reps int, body func() error) error {
	for rep := 0; rep < reps; rep++ {
		if err := w.Barrier(); err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if err := body(); err != nil {
				return err
			}
		}
	}
	return nil
}

// CollAlgSweep generates the large-message collective algorithm table and
// its JSON record. The acceptance rows are the 4 MiB Allreduce at np>=4:
// the large-vector schedules must run at >=2x the classic trees'
// throughput.
func CollAlgSweep(quick bool) (*Table, *CollBenchResult, error) {
	sizes := []int{64 << 10, 256 << 10, 1 << 20, 4 << 20}
	nps := []int{4, 5, 8}
	if quick {
		// The 1 MiB point: large enough that the speedup ratio is stable
		// across runs (the -quick regression check compares ratios against the
		// committed full sweep), small enough for a smoke step.
		sizes, nps = []int{1 << 20}, []int{4}
	}

	res := &CollBenchResult{
		Experiment: "coll",
		Device:     "chan",
		Note: "float64 payloads, min of 3 reps. 'bytes' is the payload per rank; MiB/s " +
			"divides it by ns/op (algorithm bandwidth). classic = recursive doubling or reduce+bcast moving " +
			"whole payloads per edge; ring = whole-chunk reduce-scatter+allgather. Speedup ratios per " +
			"(op, np, bytes, alg) are the CI regression baseline for mpjbench -exp coll -quick",
	}
	t := &Table{
		Title:   "COLL: large-message Allreduce algorithms, classic vs ring (chan device)",
		Headers: []string{"op", "np", "bytes", "classic ns/op", "classic MiB/s", "alg", "alg ns/op", "alg MiB/s", "speedup"},
	}
	for _, np := range nps {
		for _, bytes := range sizes {
			cl, err := measureColl(np, bytes, "classic")
			if err != nil {
				return nil, nil, fmt.Errorf("coll allreduce np=%d bytes=%d classic: %w", np, bytes, err)
			}
			lg, err := measureColl(np, bytes, "ring")
			if err != nil {
				return nil, nil, fmt.Errorf("coll allreduce np=%d bytes=%d ring: %w", np, bytes, err)
			}
			res.Rows = append(res.Rows, cl, lg)
			t.Rows = append(t.Rows, Row{
				lg.Op, fmt.Sprintf("%d", np), fmtSize(bytes),
				fmtDur(time.Duration(cl.NsPerOp)), fmt.Sprintf("%.0f", cl.MiBps),
				lg.label(),
				fmtDur(time.Duration(lg.NsPerOp)), fmt.Sprintf("%.0f", lg.MiBps),
				fmt.Sprintf("%.2fx", cl.NsPerOp/lg.NsPerOp),
			})
		}
	}
	return t, res, nil
}

// MarshalCollResult renders the result the way BENCH_coll.json stores it.
func MarshalCollResult(res *CollBenchResult) ([]byte, error) {
	js, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(js, '\n'), nil
}

// collSpeedups indexes classic-vs-alternative speedup ratios by
// configuration. The key carries the non-classic algorithm's name.
func collSpeedups(res *CollBenchResult) map[string]float64 {
	classic := map[string]float64{}
	for _, r := range res.Rows {
		if r.Alg == "classic" {
			classic[fmt.Sprintf("%s/np%d/%d", r.Op, r.NP, r.Bytes)] = r.NsPerOp
		}
	}
	out := map[string]float64{}
	for _, r := range res.Rows {
		if r.Alg == "classic" || r.NsPerOp <= 0 {
			continue
		}
		key := fmt.Sprintf("%s/np%d/%d", r.Op, r.NP, r.Bytes)
		if cns, ok := classic[key]; ok {
			out[key+"/"+r.Alg] = cns / r.NsPerOp
		}
	}
	return out
}

// CompareCollBaseline fails when a measured classic-vs-large speedup falls
// more than tol (fractionally, e.g. 0.2 = 20%) below the committed
// baseline's speedup for the same configuration. Ratios self-normalize
// across machines, so the check tracks algorithmic regressions rather than
// hardware differences; additionally the required speedup is capped at
// 2.0x — the acceptance claim — so a core-starved CI runner that still
// shows a healthy >=2x win never flakes just because the dev-machine
// baseline recorded a larger one. Configurations missing from either side
// are skipped.
func CompareCollBaseline(cur, baseline *CollBenchResult, tol float64) error {
	base := collSpeedups(baseline)
	meas := collSpeedups(cur)
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
			bad = append(bad, fmt.Sprintf("%s: speedup %.2fx < required %.2fx (baseline %.2fx - %.0f%%)",
				key, got, need, want, tol*100))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("collective algorithm regression vs committed BENCH_coll.json: %v", bad)
	}
	if checked == 0 {
		return fmt.Errorf("no overlapping configurations between run and baseline")
	}
	return nil
}
