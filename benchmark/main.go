// Command benchmark is the repository's end-to-end benchmark: five
// workloads launched as real jobs through an in-process lookup registrar
// and MPJ daemon (three of them as one OS process per rank over loopback
// TCP), five gated end-to-end metrics, and a traced run that prices every
// layer of the stack from the outside. README.md explains the workloads,
// the metrics and how to read them; ../BENCHMARK.json is the contract.
//
//	go run . [-workload NAME] [-seed N] [-seconds S]   end-to-end metrics
//	go run . -trace 1 [-workload NAME]                  per-layer metrics
//	go run . -repeat                                    two sets, compared
//
// The binary re-enters itself through mpj.Main() as the slave of the jobs
// it launches. Everything it writes goes to ./out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mpj"
)

// environment is where the numbers were taken.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of the launcher; process slaves start with Go's default too
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Link       string `json:"link"`
}

func describeEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Link:       "loopback interface of one host, not a real link",
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		env.Kernel = string(b)
	}
	return env
}

// report is what out/result.json holds.
type report struct {
	Env      environment    `json:"environment"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Runs     []*workloadRun `json:"end_to_end,omitempty"`
	Ladder   *ladderResult  `json:"ladder,omitempty"`
	Traced   []*tracedRun   `json:"traced,omitempty"`
	Finished string         `json:"finished"`
}

// outcome is the last line of standard output: the driver's contract.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tracedNames are the per-layer metrics a traced workload run yields, in
// print order.
var tracedNames = []string{
	"device.msgs_per_op", "device.bytes_per_op", "device.rdv_share",
	"core.rounds_per_op", "core.wait_share", "core.fences_per_op",
	"mpj.op_p99_us", "mpj.goodput_MBps", "mpj.trace_overhead_share",
}

var endToEndNames = []string{"op_p50_us", "wall_s", "setup_s", "cpu_s", "peak_rss_mb"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeat   bool
	out      string
	bounds   string
}

func main() {
	mpj.Register(appName, benchApp)
	if mpj.Main() {
		return // ran as a slave process of one of the jobs below
	}
	os.Exit(launcher())
}

func launcher() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "how long one workload measures")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run (layer ladder and traced workloads) instead of the end-to-end metrics")
	flag.BoolVar(&o.repeat, "repeat", false, "run everything twice and check that the two sets agree within the bounds")
	flag.StringVar(&o.out, "out", "out", "directory for result.json, trace.json and generated inputs")
	flag.StringVar(&o.bounds, "bounds", filepath.Join("..", "BENCHMARK.json"), "contract file -repeat takes the bounds from")
	flag.Parse()
	if flag.NArg() != 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		return 2
	}
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q; have:", o.workload)
			for _, w := range workloads {
				fmt.Fprintf(os.Stderr, " %s", w.Name)
			}
			fmt.Fprintln(os.Stderr)
			return 2
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// Every exit path tears the control plane down, slaves included: the
	// normal ones through the stacks' own close, an interrupt through here.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopChildren()
		closeAllStacks()
		os.Exit(130)
	}()

	var err error
	switch {
	case o.repeat:
		err = repeatCheck(o, selected)
	case len(selected) > 1:
		err = fanOut(o, selected)
	default:
		// Only a process that launches jobs itself adjusts its environment;
		// a parent of child benchmarks must hand theirs on untouched.
		if err = isolate(o.out); err != nil {
			break
		}
		if o.trace == 1 {
			err = tracedMode(o, selected[0])
		} else {
			err = endToEndMode(o, selected[0])
		}
		closeAllStacks()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// isolate removes what would make two runs of the same code differ: MPJ_*
// tuning inherited from the caller's environment and a measured collective
// crossover table in the caller's home directory. Slaves inherit the
// launcher's environment, so this reaches them too. GOMAXPROCS is left
// alone: process slaves run as mpjd launches them, with Go's default.
func isolate(out string) error {
	for _, name := range []string{
		"MPJ_COLL_ALG", "MPJ_COLL_SEG", "MPJ_DEVICE", "MPJ_EAGER_LIMIT",
		"MPJ_FAULT", "MPJ_PROF", "MPJ_PROF_ADDR", "MPJ_RMA_TIMEOUT",
	} {
		if err := os.Unsetenv(name); err != nil {
			return err
		}
	}
	none, err := filepath.Abs(filepath.Join(out, "no-collective-table.json"))
	if err != nil {
		return err
	}
	return os.Setenv("MPJ_COLL_TABLE", none)
}

func writeJSON(path string, v any) error {
	js, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

func printStat(scope, name string, s stat) {
	fmt.Printf("%-16s %-28s %14.6g %-6s q1 %-12.6g q3 %-12.6g n %d", scope, name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
	if s.Note != "" {
		fmt.Printf("  (%s)", s.Note)
	}
	fmt.Println()
}

// printFailedReps names every job that died or overran: its operations
// are already counted as failed, this says why.
func printFailedReps(name string, reps []rep) {
	for i, r := range reps {
		if r.Err != "" {
			fmt.Printf("# %s rep %d FAILED: %s\n", name, i, r.Err)
		}
	}
}

// finish prints the contract's last line.
func finish(out outcome) error {
	js, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	return nil
}

// endToEndMode is the default mode for one workload: measure and print
// the gated metrics, write out/result.json, close with the contract's line.
func endToEndMode(o options, w workload) error {
	env := describeEnvironment()
	fmt.Printf("# end-to-end metrics, tracing off; seed %d, %d s; %d CPUs, GOMAXPROCS %d, %s, kernel %s; %s\n",
		o.seed, o.seconds, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Kernel, env.Link)
	run, err := endToEnd(w, o.seed, time.Duration(o.seconds)*time.Second, o.out)
	rep := report{Env: env, Seed: o.seed, Seconds: o.seconds, Finished: time.Now().UTC().Format(time.RFC3339)}
	if run != nil {
		rep.Runs = []*workloadRun{run}
	}
	if werr := writeJSON(filepath.Join(o.out, "result.json"), rep); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	fmt.Printf("# %s: np=%d, %s; %d reps of %d ops (+%d warm-up); pids %v; failed %d of %d\n",
		w.Name, w.NP, run.Placement, len(run.Reps), run.Ops, run.Warm, run.Pids, run.Failed, run.Attempted)
	out := outcome{Correct: run.Correct, Attempted: run.Attempted, Failed: run.Failed, Metrics: map[string]metricValue{}}
	for _, name := range endToEndNames {
		printStat(w.Name, name, run.Metrics[name])
		out.Metrics[name] = metricValue{run.Metrics[name].Value, run.Metrics[name].Unit}
	}
	fmt.Printf("%-16s %-28s %14.6g %-6s failed %d of %d attempted\n", w.Name, "fail_share", run.FailShare, "ratio", run.Failed, run.Attempted)
	printFailedReps(w.Name, run.Reps)
	return finish(out)
}

// tracedMode is -trace 1 for one workload: the layer ladder, then the
// workload's traced run; out/result.json, out/trace.json and the
// contract's line, which carries every per-layer metric.
func tracedMode(o options, w workload) error {
	start := time.Now()
	env := describeEnvironment()
	rep := report{Env: env, Seed: o.seed, Seconds: o.seconds}
	out := outcome{Correct: true, Metrics: map[string]metricValue{}}
	rec := &recorder{}
	fmt.Printf("# traced run: layer ladder (self = rung - rung below), then the traced workload; seed %d; %d CPUs, GOMAXPROCS %d, %s, kernel %s; %s\n",
		o.seed, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Kernel, env.Link)
	ladder, err := runLadder(rec, o.seed, filepath.Join(o.out, "inputs"))
	if err != nil {
		return err
	}
	rep.Ladder = ladder
	for _, m := range ladder.Metrics {
		printStat(m.Layer, m.Name, m.stat)
		out.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	// The ladder is a fixed amount of work; the workload gets what is left
	// of the time, and never fewer than its minimum of reps.
	tr, err := traced(w, o.seed, start.Add(time.Duration(o.seconds)*time.Second), o.out, rec)
	if tr != nil {
		rep.Traced = []*tracedRun{tr}
	}
	rep.Finished = time.Now().UTC().Format(time.RFC3339)
	if werr := writeJSON(filepath.Join(o.out, "result.json"), rep); werr != nil && err == nil {
		err = werr
	}
	if werr := rec.write(filepath.Join(o.out, "trace.json")); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	fmt.Printf("# %s traced: %d reps, plain and traced alternating; failed %d of %d; counts repeat across reps: %v\n",
		w.Name, len(tr.Reps), tr.Failed, tr.Attempted, tr.CountsRepeat)
	for _, name := range tracedNames {
		printStat(w.Name, name, tr.Metrics[name])
		out.Metrics[name] = metricValue{tr.Metrics[name].Value, tr.Metrics[name].Unit}
	}
	printFailedReps(w.Name, tr.Reps)
	out.Attempted, out.Failed = tr.Attempted, tr.Failed
	out.Correct = tr.Failed == 0 && tr.CountsRepeat
	return finish(out)
}
