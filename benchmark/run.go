package main

// Running a workload: as many reps — fresh jobs of the fixed operation
// count — as fit in the time given, every metric computed per rep and
// reported as the median over reps.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"
)

// minReps is the fewest reps a run reports a median of, whatever the time
// budget says.
const minReps = 3

// stat is a metric as reported: the median over reps with its quartiles.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

func statOf(unit string, samples []float64) stat {
	q := quartilesOf(samples)
	return stat{Value: q.Median, Unit: unit, Q1: q.Q1, Q3: q.Q3, N: q.N}
}

// workloadRun is one workload's run: its reps and what they add up to.
type workloadRun struct {
	Workload  string `json:"workload"`
	Why       string `json:"why"`
	NP        int    `json:"np"`
	Placement string `json:"placement"`
	Seed      int64  `json:"seed"`
	Ops       int    `json:"ops_per_rep"`
	Warm      int    `json:"warmup_ops_per_rep"`

	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Correct   bool `json:"correct"`
	// FailShare is Failed ÷ Attempted. It is not a metric of BENCHMARK.json,
	// whose metrics must never read 0; the contract's line carries the two
	// counts, and any failed operation makes the run incorrect.
	FailShare float64 `json:"fail_share"`

	// Where the ranks ran, from the first good rep: with process slaves
	// the pids are all different and no peer is reachable through memory.
	Pids         []int64 `json:"pids"`
	MultiProcess bool    `json:"multi_process"`
	LocalPeers   int     `json:"rank0_local_peers"`
	Device       string  `json:"device"`

	Metrics map[string]stat `json:"metrics"`
	Ref     *refSolve       `json:"reference_solve,omitempty"`
	Reps    []rep           `json:"reps"`
}

func placementOf(w workload) string {
	if w.Proc {
		return "one OS process per rank; hyb device over loopback TCP (loopback, not a real link)"
	}
	return "goroutine ranks in the launcher's process; hyb device over the channel mesh"
}

// runReps runs fresh jobs of w until the time is used up (and at least
// least reps). variant picks rep i's parameters and JobConfig.Prof. A job
// that overruns its deadline costs the stack, which is rebuilt.
func runReps(w workload, until time.Time, least int, variant func(i int) (appParams, string)) ([]rep, error) {
	s, err := newStack(w.Proc)
	if err != nil {
		return nil, err
	}
	defer func() { s.close() }()
	var reps []rep
	start := time.Now()
	for i := 0; ; i++ {
		if i >= least {
			perRep := time.Since(start) / time.Duration(i)
			if time.Now().Add(perRep).After(until) {
				break
			}
		}
		p, prof := variant(i)
		r, err := s.runRep(w, p, prof)
		switch {
		case errors.Is(err, errDeadline):
			r.Err = err.Error()
			fresh, err := newStack(w.Proc)
			if err != nil {
				return nil, err
			}
			s.close()
			s = fresh
		case err != nil:
			return nil, err
		}
		// Samples are pooled by the caller, not kept per rep in result.json.
		r.samples, r.Result.SampleNs = r.Result.SampleNs, nil
		if r.Err == "" && p.Spans != "" {
			raw, err := os.ReadFile(p.Spans)
			if err != nil {
				return nil, err
			}
			if err := json.Unmarshal(raw, &r.Spans); err != nil {
				return nil, fmt.Errorf("%s: %w", p.Spans, err)
			}
		}
		reps = append(reps, r)
	}
	if n := s.d.SlaveCount(); n != 0 {
		return nil, fmt.Errorf("%s: %d slave(s) left alive after the run", w.Name, n)
	}
	return reps, nil
}

// tally counts attempted and failed operations over reps. A job that died
// or overran counts all its operations as failed.
func tally(w workload, reps []rep) (attempted, failed int) {
	for _, r := range reps {
		attempted += w.Ops
		if r.Err != "" {
			failed += w.Ops
		} else {
			failed += r.Result.Failed
		}
	}
	return attempted, failed
}

func goodReps(reps []rep) []rep {
	var good []rep
	for _, r := range reps {
		if r.Err == "" {
			good = append(good, r)
		}
	}
	return good
}

func column(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// endToEnd measures the workload's end-to-end metrics for about budget,
// with tracing and profiling off.
func endToEnd(w workload, seed int64, budget time.Duration, dir string) (*workloadRun, error) {
	p, ref, err := w.prepare(seed, filepath.Join(dir, "inputs"))
	if err != nil {
		return nil, err
	}
	reps, err := runReps(w, time.Now().Add(budget), minReps, func(int) (appParams, string) { return p, "" })
	if err != nil {
		return nil, err
	}
	run := &workloadRun{
		Workload: w.Name, Why: w.Why, NP: w.NP, Placement: placementOf(w),
		Seed: seed, Ops: p.Ops, Warm: p.Warm, Reps: reps,
	}
	if ref.Steps > 0 {
		run.Ref = &ref
	}
	run.Attempted, run.Failed = tally(w, reps)
	run.Correct = run.Failed == 0
	run.FailShare = float64(run.Failed) / float64(run.Attempted)
	good := goodReps(reps)
	if len(good) == 0 {
		return run, fmt.Errorf("%s: none of %d jobs finished: %s", w.Name, len(reps), reps[0].Err)
	}
	first := good[0].Result
	run.Pids, run.LocalPeers, run.Device = first.Pids, first.LocalPeers, first.Device
	distinct := map[int64]bool{}
	for _, pid := range first.Pids {
		distinct[pid] = true
	}
	run.MultiProcess = len(distinct) == w.NP && w.NP > 1
	if w.Proc && (!run.MultiProcess || run.LocalPeers != 0) {
		return run, fmt.Errorf("%s: ranks did not run as separate processes over TCP (pids %v, %d local peers)",
			w.Name, first.Pids, first.LocalPeers)
	}
	run.Metrics = map[string]stat{
		"op_p50_us":   statOf("us", column(good, func(r rep) float64 { return r.Result.P50Ns / 1e3 })),
		"wall_s":      statOf("s", column(good, func(r rep) float64 { return float64(r.Result.WallNs) / 1e9 })),
		"setup_s":     statOf("s", column(good, func(r rep) float64 { return r.SetupS })),
		"cpu_s":       statOf("s", column(good, func(r rep) float64 { return r.CPUS })),
		"peak_rss_mb": statOf("MB", column(good, func(r rep) float64 { return float64(r.Result.MaxRSSKB) / 1024 })),
	}
	return run, nil
}

// tracedRun is a workload's traced run: reps alternate between the plain
// job and the same job with profiling counters on and a span kept per
// operation, so the two medians give the tracing overhead.
type tracedRun struct {
	Workload     string          `json:"workload"`
	Attempted    int             `json:"attempted"`
	Failed       int             `json:"failed"`
	CountsRepeat bool            `json:"counts_repeat"` // every traced rep counted the same
	Counts       profDelta       `json:"rank0_counts_per_rep"`
	Metrics      map[string]stat `json:"metrics"`
	Reps         []rep           `json:"reps"`
}

// counts strips the one counter that is a time, not a count.
func counts(d profDelta) profDelta {
	d.WaitNs = 0
	return d
}

func traced(w workload, seed int64, until time.Time, dir string, rec *recorder) (*tracedRun, error) {
	p, _, err := w.prepare(seed, filepath.Join(dir, "inputs"))
	if err != nil {
		return nil, err
	}
	spanDir := filepath.Join(dir, "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	spanFile, err := filepath.Abs(filepath.Join(spanDir, w.Name+".json"))
	if err != nil {
		return nil, err
	}
	reps, err := runReps(w, until, 2*minReps, func(i int) (appParams, string) {
		tp := p
		if i%2 == 0 {
			tp.Samples = true
			return tp, ""
		}
		tp.Spans = spanFile
		return tp, "counters"
	})
	if err != nil {
		return nil, err
	}
	tr := &tracedRun{Workload: w.Name, Reps: reps, CountsRepeat: true}
	tr.Attempted, tr.Failed = tally(w, reps)
	var plain, withTrace []rep
	good := goodReps(reps)
	if len(good) == 0 {
		return tr, fmt.Errorf("%s: none of %d traced jobs finished: %s", w.Name, len(reps), reps[0].Err)
	}
	// A rep that overran its deadline has no stamps; the group spans the good ones.
	group := rec.span(w.Name, "job", 0, 0, good[0].RunStart, good[len(good)-1].RunEnd)
	for i, r := range reps {
		if r.Err != "" {
			continue
		}
		if i%2 == 0 {
			plain = append(plain, r)
			continue
		}
		if !r.Result.Prof.Enabled {
			return tr, fmt.Errorf("%s: JobConfig.Prof=counters did not enable profiling on rank 0", w.Name)
		}
		if len(withTrace) == 0 {
			tr.Counts = counts(r.Result.Prof)
		} else if !reflect.DeepEqual(tr.Counts, counts(r.Result.Prof)) {
			tr.CountsRepeat = false
		}
		withTrace = append(withTrace, r)
		rec.jobSpans(w.Name, group, i, r)
	}
	if len(plain) == 0 || len(withTrace) == 0 {
		return tr, fmt.Errorf("%s: traced run has %d plain and %d traced good reps of %d", w.Name, len(plain), len(withTrace), len(reps))
	}
	ops := float64(p.Ops)
	perOp := func(f func(profDelta) int64) []float64 {
		return column(withTrace, func(r rep) float64 { return float64(f(r.Result.Prof)) / ops })
	}
	plainP50 := median(column(plain, func(r rep) float64 { return r.Result.P50Ns }))
	tracedP50 := median(column(withTrace, func(r rep) float64 { return r.Result.P50Ns }))
	var pooled []float64
	for _, r := range plain {
		pooled = append(pooled, r.samples...)
	}
	pct, tailNs, _ := tailPercentile(pooled)
	tail := stat{Value: tailNs / 1e3, Unit: "us", N: len(pooled),
		Note: fmt.Sprintf("p%d of %d samples pooled over %d plain reps: the highest percentile with %d samples beyond it",
			pct, len(pooled), len(plain), tailBeyond)}
	tr.Metrics = map[string]stat{
		"device.msgs_per_op":  statOf("count", perOp(func(d profDelta) int64 { return d.Msgs + d.RmaOps })),
		"device.bytes_per_op": statOf("B", perOp(func(d profDelta) int64 { return d.Bytes + d.RmaBytes })),
		"device.rdv_share": statOf("ratio", column(withTrace, func(r rep) float64 {
			if r.Result.Prof.Msgs == 0 {
				return 0
			}
			return float64(r.Result.Prof.RdvMsgs) / float64(r.Result.Prof.Msgs)
		})),
		"core.rounds_per_op": statOf("count", perOp(func(d profDelta) int64 { return d.Rounds })),
		"core.fences_per_op": statOf("count", perOp(func(d profDelta) int64 { return d.Fences })),
		"core.wait_share": statOf("ratio", column(withTrace, func(r rep) float64 {
			return float64(r.Result.Prof.WaitNs) / float64(r.Result.WallNs)
		})),
		"mpj.op_p99_us": tail,
		"mpj.goodput_MBps": statOf("MB/s", column(plain, func(r rep) float64 {
			return float64(w.Bytes) * ops / 1e6 / (float64(r.Result.WallNs) / 1e9)
		})),
		"mpj.trace_overhead_share": {Value: tracedP50/plainP50 - 1, Unit: "ratio", N: len(withTrace),
			Note: fmt.Sprintf("traced op_p50 %.3f us over plain %.3f us, minus 1", tracedP50/1e3, plainP50/1e3)},
	}
	return tr, nil
}
