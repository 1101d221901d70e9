package main

// The smoke test runs everything the benchmark runs, with tiny counts: all
// five workloads as real jobs, the ladder, the traced run. A change to a
// public function the benchmark times breaks this test instead of silently
// rotting the yardstick, and the names in ../BENCHMARK.json are checked
// against the names the program prints.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"mpj"
)

// TestMain doubles as the slave entry point: process-slave jobs re-execute
// the test binary, which dispatches into the application here.
func TestMain(m *testing.M) {
	mpj.Register(appName, benchApp)
	if mpj.Main() {
		return
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("out", "test-")
	if err != nil {
		panic(err)
	}
	if err := isolate(dir); err != nil {
		panic(err)
	}
	testDir = dir
	code := m.Run()
	closeAllStacks()
	os.RemoveAll(dir)
	os.Exit(code)
}

// testDir holds generated inputs and results of the tests; it is under
// out/ like everything the benchmark writes, and removed afterwards.
var testDir string

// tiny scales a workload down to a few milliseconds.
func tiny(w workload) workload {
	return w.scaled(map[string]int{"pp4k_tcp": 100, "pp1m_tcp": 10, "allreduce1m_tcp": 6, "halo_chan": 25, "rma4k_chan": 100}[w.Name])
}

func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.Name, func(t *testing.T) {
			if w.Proc && testing.Short() {
				t.Skip("spawns OS processes")
			}
			run, err := endToEnd(w, 7, 0, testDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Reps) != minReps {
				t.Errorf("%d reps with no time budget, want the minimum %d", len(run.Reps), minReps)
			}
			if !run.Correct || run.Failed != 0 || run.Attempted != minReps*w.Ops {
				t.Errorf("correct=%v failed=%d attempted=%d, want all %d ops to pass", run.Correct, run.Failed, run.Attempted, minReps*w.Ops)
			}
			if run.MultiProcess != w.Proc {
				t.Errorf("multi-process = %v for pids %v, want %v", run.MultiProcess, run.Pids, w.Proc)
			}
			if wantLocal := map[bool]int{true: 0, false: w.NP - 1}[w.Proc]; run.LocalPeers != wantLocal {
				t.Errorf("rank 0 reaches %d peers through memory, want %d", run.LocalPeers, wantLocal)
			}
			for _, name := range endToEndNames {
				if s, ok := run.Metrics[name]; !ok || !(s.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value", name, s)
				}
			}
			for i, r := range run.Reps {
				if r.SetupS <= r.LaunchS || r.LaunchS <= 0 || r.Teardown <= 0 || r.TotalS < r.SetupS {
					t.Errorf("rep %d: launch %v, setup %v, teardown %v, total %v are out of order", i, r.LaunchS, r.SetupS, r.Teardown, r.TotalS)
				}
			}
		})
	}
}

// A wrong expectation must surface as failed operations, never as a pass.
func TestVerificationFailureIsCounted(t *testing.T) {
	w, _ := findWorkload("halo_chan")
	w = tiny(w)
	p, _, err := w.prepare(7, filepath.Join(testDir, "inputs"))
	if err != nil {
		t.Fatal(err)
	}
	p.WantSum++
	reps, err := runReps(w, time.Now(), 1, func(int) (appParams, string) { return p, "" })
	if err != nil {
		t.Fatal(err)
	}
	if attempted, failed := tally(w, reps); attempted != w.Ops || failed != w.Ops {
		t.Errorf("failed %d of %d with a wrong reference sum, want every step to count as failed", failed, attempted)
	}

	// The same for an element-wise comparison: flip one bit of the
	// Allreduce's expected sum.
	a, _ := findWorkload("allreduce1m_tcp")
	a = tiny(a)
	a.Proc = false
	ap, _, err := a.prepare(7, filepath.Join(testDir, "inputs"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ap.Input)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40 // the last element of the expected sum
	if err := os.WriteFile(ap.Input, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	reps, err = runReps(a, time.Now(), 1, func(int) (appParams, string) { return ap, "" })
	if err != nil {
		t.Fatal(err)
	}
	if _, failed := tally(a, reps); failed != a.Ops {
		t.Errorf("failed %d of %d with a wrong expected sum, want all", failed, a.Ops)
	}
}

// A job that cannot run counts all its operations as failed and says why.
func TestDeadJobCountsAllOps(t *testing.T) {
	w, _ := findWorkload("rma4k_chan")
	w = tiny(w)
	p, _, err := w.prepare(7, filepath.Join(testDir, "inputs"))
	if err != nil {
		t.Fatal(err)
	}
	p.Kind = "no-such-kind"
	reps, err := runReps(w, time.Now(), 1, func(int) (appParams, string) { return p, "" })
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Err == "" {
		t.Fatal("a job whose application errs reported no error")
	}
	if attempted, failed := tally(w, reps); failed != attempted || failed != w.Ops {
		t.Errorf("failed %d of %d, want all %d", failed, attempted, w.Ops)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		read := func(seed int64, dir string) []byte {
			p, _, err := w.prepare(seed, filepath.Join(testDir, dir))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(p.Input)
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		a, b, c := read(3, "a"), read(3, "b"), read(4, "c")
		if string(a) != string(b) {
			t.Errorf("%s: seed 3 gave different inputs twice", w.Name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", w.Name)
		}
	}
}

// contractFile is ../BENCHMARK.json as far as the names go.
type contractFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func TestLadderTracedRunAndContractNames(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	defer func(reps, div int) { ladderReps, ladderDiv = reps, div }(ladderReps, ladderDiv)
	ladderReps, ladderDiv = 2, 40

	rec := &recorder{}
	ladder, err := runLadder(rec, 7, filepath.Join(testDir, "inputs"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range ladder.Metrics {
		got[m.Name] = true
		if m.Value < 0 {
			t.Errorf("%s = %v: a negative cost got through", m.Name, m.Value)
		}
	}
	// By construction the bottom rung and the self times above it add up
	// to the top rung, unless a crossing was clamped (and flagged).
	for _, bottom := range bottoms {
		for _, pr := range probes {
			suffix := "." + bottom + "." + pr.name
			sum, clamped := ladder.find("transport.hop_ns"+suffix).Value, false
			for _, r := range rungs[1:] {
				m := ladder.find(r + ".self_ns" + suffix)
				sum += m.Value
				clamped = clamped || m.Clamped
			}
			if top := ladder.find("mpj.hop_ns" + suffix).Value; !clamped && !near(sum, top) {
				t.Errorf("ladder%s: rungs add up to %v, top rung is %v", suffix, sum, top)
			}
		}
	}

	w, _ := findWorkload("rma4k_chan")
	tr, err := traced(tiny(w), 7, time.Now(), testDir, rec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Failed != 0 || !tr.CountsRepeat {
		t.Errorf("traced rma4k_chan: failed=%d counts repeat=%v", tr.Failed, tr.CountsRepeat)
	}
	if f := tr.Metrics["core.fences_per_op"].Value; f != 1 {
		t.Errorf("core.fences_per_op = %v, want exactly 1 fence per epoch", f)
	}
	for _, name := range tracedNames {
		if _, ok := tr.Metrics[name]; !ok {
			t.Errorf("traced run lacks %s", name)
		}
		got[name] = true
	}

	// Spans: every parent exists, and each ladder probe has its chain of
	// derived rungs, top rung outermost.
	ids := map[int]span{}
	for _, s := range rec.spans {
		ids[s.ID] = s
	}
	ops := 0
	for _, s := range rec.spans {
		if s.Parent != 0 {
			if _, ok := ids[s.Parent]; !ok {
				t.Fatalf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
			}
		}
		if s.Derived && s.Layer != "mpj" && ids[s.Parent].Name != s.Name {
			t.Errorf("derived span %d (%s, %s) is not the child of the rung above", s.ID, s.Name, s.Layer)
		}
		if s.Name == "op" {
			ops++
		}
	}
	if ops == 0 {
		t.Error("the traced run recorded no operation span")
	}
	tracePath := filepath.Join(testDir, "trace.json")
	if err := rec.write(tracePath); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contractFile
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	names := func(list []struct{ Name string }) []string {
		out := make([]string, len(list))
		for i, e := range list {
			out[i] = e.Name
		}
		sort.Strings(out)
		return out
	}
	same := func(what string, contract, program []string) {
		sort.Strings(program)
		if len(contract) != len(program) {
			t.Errorf("%s: BENCHMARK.json has %d names %v, the program %d %v", what, len(contract), contract, len(program), program)
			return
		}
		for i := range contract {
			if contract[i] != program[i] {
				t.Errorf("%s: BENCHMARK.json has %q where the program has %q", what, contract[i], program[i])
			}
		}
	}
	var workloadNames []string
	for _, w := range workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	same("workloads", names(c.Workloads), workloadNames)
	same("end_to_end", names(c.EndToEnd), append([]string(nil), endToEndNames...))
	var perLayer []string
	for name := range got {
		perLayer = append(perLayer, name)
	}
	same("per_layer", names(c.PerLayer), perLayer)
}
