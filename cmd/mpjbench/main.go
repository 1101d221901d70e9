// mpjbench regenerates the experiment tables (the -exp names below) and the
// committed BENCH_*.json files some of them write:
//
//	mpjbench                 # run everything
//	mpjbench -exp F1         # one experiment (F1 F2 E1 E2 E3 E4 E5 E7 A2 BW PP ICOLL TYPED COLL VCOLL)
//	mpjbench -exp pingpong   # alias for PP: ping-pong per device (chan/hyb/tcp)
//	mpjbench -exp icoll      # blocking vs non-blocking collective overlap
//	mpjbench -exp typed      # typed generics facade vs Datatype facade (writes BENCH_typed.json)
//	mpjbench -exp coll       # large-message collective algorithms (writes BENCH_coll.json;
//	                         # with -quick: regression check against the committed file)
//	mpjbench -exp vcoll      # varying-count collectives: Alltoallv layouts + ReduceScatter
//	                         # classic vs the forced large family, labelled "ring"
//	                         # (writes BENCH_vcoll.json; with -quick: regression check
//	                         # against the committed file)
//	mpjbench -exp ft         # fault tolerance: agreement and shrink latency (writes
//	                         # BENCH_ft.json; with -quick: regression check against
//	                         # the committed file)
//	mpjbench -exp prof       # instrumentation overhead: off vs counters vs trace
//	                         # (writes BENCH_prof.json and per-rank Chrome trace files
//	                         # under BENCH_prof_trace/; with -quick: fails when the
//	                         # counters mode costs >10% over off)
//	mpjbench -exp rma        # one-sided Put/Get/Accumulate+Fence vs two-sided
//	                         # Send/Recv, 4 KiB - 4 MiB (writes BENCH_rma.json; with
//	                         # -quick: regression check against the committed file)
//	mpjbench -exp elastic    # elastic recovery: failure-detection latency and the
//	                         # Shrink+Spawn+Merge rebuild turnaround (writes
//	                         # BENCH_elastic.json; with -quick: regression check
//	                         # against the committed file)
//
// -hold keeps the process alive for the given duration after the
// experiments finish, so the /debug/vars endpoint served under MPJ_PROF_ADDR
// stays curl-able (the CI observability smoke).
//
// The experiment index is the list above; README.md ("Benchmarks",
// "Tuning") and the committed BENCH_*.json files hold the recorded results
// and their interpretation.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"mpj"
	"mpj/internal/bench"
	"mpj/internal/daemon"
)

// quick trims sweeps for a fast smoke run.
var quick = flag.Bool("quick", false, "smaller sweeps for a quick run")

func main() {
	exp := flag.String("exp", "", "experiment id (empty = all): F1 F2 E1 E2 E3 E4 E5 E7 A2 BW PP ICOLL TYPED COLL VCOLL FT PROF RMA ELASTIC (alias: pingpong)")
	hold := flag.Duration("hold", 0, "keep the process alive this long after the experiments (for curling an MPJ_PROF_ADDR endpoint)")
	flag.Parse()
	if strings.EqualFold(*exp, "pingpong") {
		*exp = "PP"
	}

	if mpj.Main() {
		return // never happens: mpjbench spawns no process slaves
	}

	sizes := bench.DefaultSizes
	nps := []int{2, 4, 8, 16}
	counts := []int{256, 1024, 4096, 16384, 65536}
	icollCounts := []int{1 << 10, 8 << 10, 64 << 10}
	icollIters := 50
	if *quick {
		sizes = []int{64, 4096, 65536}
		nps = []int{2, 4, 8}
		counts = []int{256, 4096}
		icollCounts = []int{8 << 10}
		icollIters = 20
	}

	experiments := []struct {
		id  string
		run func() (*bench.Table, error)
	}{
		{"F1", func() (*bench.Table, error) { return bench.F1LayerDecomposition(sizes) }},
		{"E1", func() (*bench.Table, error) { return bench.E1ProtocolCrossover(sizes) }},
		{"E2", func() (*bench.Table, error) { return bench.E2ModeLatency([]int{64, 4096, 65536}) }},
		{"E3", func() (*bench.Table, error) { return bench.E3ThreadEconomy(nps) }},
		{"E4", func() (*bench.Table, error) { return bench.E4CollectiveScaling(nps, 128) }},
		{"E5", runE5},
		{"E7", func() (*bench.Table, error) { return bench.E7SerializationOverhead(counts) }},
		{"A2", func() (*bench.Table, error) {
			return bench.A2EagerThresholdSweep(64<<10, []int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10})
		}},
		{"F2", runF2},
		{"BW", func() (*bench.Table, error) { return bench.BandwidthTable(sizes) }},
		{"PP", func() (*bench.Table, error) { return bench.PPDeviceCompare(sizes) }},
		{"ICOLL", func() (*bench.Table, error) { return bench.IcollOverlap(4, icollCounts, icollIters) }},
		{"TYPED", func() (*bench.Table, error) {
			t, js, err := bench.TypedCompare(*quick)
			if err != nil {
				return nil, err
			}
			if werr := os.WriteFile("BENCH_typed.json", js, 0o644); werr != nil {
				return nil, fmt.Errorf("writing BENCH_typed.json: %w", werr)
			}
			fmt.Println("  (results recorded in BENCH_typed.json)")
			return t, nil
		}},
		{"COLL", runColl},
		{"VCOLL", runVcoll},
		{"FT", runFT},
		{"PROF", runProf},
		{"RMA", runRma},
		{"ELASTIC", runElastic},
	}

	ran := 0
	for _, e := range experiments {
		if *exp != "" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		ran++
		start := time.Now()
		t, err := e.run()
		if err != nil {
			log.Fatalf("experiment %s: %v", e.id, err)
		}
		t.Print(os.Stdout)
		fmt.Printf("  (%s completed in %.1fs)\n", e.id, time.Since(start).Seconds())
	}
	if ran == 0 {
		log.Fatalf("unknown experiment %q", *exp)
	}
	if *hold > 0 {
		fmt.Printf("holding for %s (MPJ_PROF_ADDR endpoint stays up)\n", *hold)
		time.Sleep(*hold)
	}
}

// runColl runs the large-message collective algorithm sweep. The full run
// records BENCH_coll.json; the -quick run instead re-measures a subset and
// fails when a classic-vs-ring/hier speedup regresses more than 20%
// against the committed file — the CI smoke gate for the algorithm layer.
func runColl() (*bench.Table, error) {
	t, res, err := bench.CollAlgSweep(*quick)
	if err != nil {
		return nil, err
	}
	if !*quick {
		js, err := bench.MarshalCollResult(res)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile("BENCH_coll.json", js, 0o644); err != nil {
			return nil, fmt.Errorf("writing BENCH_coll.json: %w", err)
		}
		fmt.Println("  (results recorded in BENCH_coll.json)")
		return t, nil
	}
	raw, err := os.ReadFile("BENCH_coll.json")
	if err != nil {
		fmt.Println("  (no committed BENCH_coll.json; skipping regression check)")
		return t, nil
	}
	var baseline bench.CollBenchResult
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return nil, fmt.Errorf("parsing BENCH_coll.json: %w", err)
	}
	if err := bench.CompareCollBaseline(res, &baseline, 0.2); err != nil {
		return nil, err
	}
	fmt.Println("  (speedups within 20% of committed BENCH_coll.json)")
	return t, nil
}

// runVcoll runs the varying-count collective sweep. The full run records
// BENCH_vcoll.json; the -quick run re-measures the 1 MiB np=4 subset and
// fails when the classic-vs-ring reduce-scatter speedup regresses more
// than 20% against the committed file — the CI smoke gate for the V
// schedules.
func runVcoll() (*bench.Table, error) {
	t, res, err := bench.VcollSweep(*quick)
	if err != nil {
		return nil, err
	}
	if !*quick {
		js, err := bench.MarshalVcollResult(res)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile("BENCH_vcoll.json", js, 0o644); err != nil {
			return nil, fmt.Errorf("writing BENCH_vcoll.json: %w", err)
		}
		fmt.Println("  (results recorded in BENCH_vcoll.json)")
		return t, nil
	}
	raw, err := os.ReadFile("BENCH_vcoll.json")
	if err != nil {
		fmt.Println("  (no committed BENCH_vcoll.json; skipping regression check)")
		return t, nil
	}
	var baseline bench.VcollBenchResult
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return nil, fmt.Errorf("parsing BENCH_vcoll.json: %w", err)
	}
	if err := bench.CompareVcollBaseline(res, &baseline, 0.2); err != nil {
		return nil, err
	}
	fmt.Println("  (speedups within 20% of committed BENCH_vcoll.json)")
	return t, nil
}

// runFT runs the fault-tolerance micro-experiment. The full run records
// agreement and shrink latency in BENCH_ft.json; the -quick run
// re-measures the np=4 subset and fails when the latency exceeds three
// times the committed value — the CI smoke gate for the recovery path.
func runFT() (*bench.Table, error) {
	t, res, err := bench.FTSweep(*quick)
	if err != nil {
		return nil, err
	}
	if !*quick {
		js, err := bench.MarshalFTResult(res)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile("BENCH_ft.json", js, 0o644); err != nil {
			return nil, fmt.Errorf("writing BENCH_ft.json: %w", err)
		}
		fmt.Println("  (results recorded in BENCH_ft.json)")
		return t, nil
	}
	raw, err := os.ReadFile("BENCH_ft.json")
	if err != nil {
		fmt.Println("  (no committed BENCH_ft.json; skipping regression check)")
		return t, nil
	}
	var baseline bench.FTBenchResult
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return nil, fmt.Errorf("parsing BENCH_ft.json: %w", err)
	}
	if err := bench.CompareFTBaseline(res, &baseline, 3.0); err != nil {
		return nil, err
	}
	fmt.Println("  (latencies within 3x of committed BENCH_ft.json)")
	return t, nil
}

// runProf runs the instrumentation overhead matrix. The full run records
// BENCH_prof.json and keeps the trace mode's per-rank timelines under
// BENCH_prof_trace/; the -quick run is the CI smoke gate — it fails when
// the counters mode costs more than 10% over profiling-off on the
// ping-pong (the ≤10% always-on budget from DESIGN).
func runProf() (*bench.Table, error) {
	t, res, err := bench.ProfSweep(*quick)
	if err != nil {
		return nil, err
	}
	if *quick {
		fmt.Println("  (counters within the 10% ping-pong overhead budget)")
		return t, nil
	}
	js, err := bench.MarshalProfResult(res)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile("BENCH_prof.json", js, 0o644); err != nil {
		return nil, fmt.Errorf("writing BENCH_prof.json: %w", err)
	}
	fmt.Println("  (results recorded in BENCH_prof.json, traces in BENCH_prof_trace/)")
	return t, nil
}

// runRma runs the one-sided vs two-sided sweep. The full run records
// BENCH_rma.json; the -quick run re-measures the 64 KiB subset and fails
// when the put-vs-sendrecv ratio regresses more than 20% against the
// committed file — the CI smoke gate for the window layer.
func runRma() (*bench.Table, error) {
	t, res, err := bench.RmaSweep(*quick)
	if err != nil {
		return nil, err
	}
	if !*quick {
		js, err := bench.MarshalRmaResult(res)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile("BENCH_rma.json", js, 0o644); err != nil {
			return nil, fmt.Errorf("writing BENCH_rma.json: %w", err)
		}
		fmt.Println("  (results recorded in BENCH_rma.json)")
		return t, nil
	}
	raw, err := os.ReadFile("BENCH_rma.json")
	if err != nil {
		fmt.Println("  (no committed BENCH_rma.json; skipping regression check)")
		return t, nil
	}
	var baseline bench.RmaBenchResult
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return nil, fmt.Errorf("parsing BENCH_rma.json: %w", err)
	}
	if err := bench.CompareRmaBaseline(res, &baseline, 0.2); err != nil {
		return nil, err
	}
	fmt.Println("  (one-sided ratios within 20% of committed BENCH_rma.json)")
	return t, nil
}

// runElastic runs the elastic-recovery cycle sweep. The full run records
// detection and rebuild latency in BENCH_elastic.json; the -quick run
// re-measures the np=4 subset and fails when a latency exceeds three
// times the committed value — the CI smoke gate for the elastic runtime.
func runElastic() (*bench.Table, error) {
	t, res, err := bench.ElasticSweep(*quick, elasticCycle)
	if err != nil {
		return nil, err
	}
	if !*quick {
		js, err := bench.MarshalElasticResult(res)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile("BENCH_elastic.json", js, 0o644); err != nil {
			return nil, fmt.Errorf("writing BENCH_elastic.json: %w", err)
		}
		fmt.Println("  (results recorded in BENCH_elastic.json)")
		return t, nil
	}
	raw, err := os.ReadFile("BENCH_elastic.json")
	if err != nil {
		fmt.Println("  (no committed BENCH_elastic.json; skipping regression check)")
		return t, nil
	}
	var baseline bench.ElasticBenchResult
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return nil, fmt.Errorf("parsing BENCH_elastic.json: %w", err)
	}
	if err := bench.CompareElasticBaseline(res, &baseline, 3.0); err != nil {
		return nil, err
	}
	fmt.Println("  (latencies within 3x of committed BENCH_elastic.json)")
	return t, nil
}

// elasticCycle runs one fresh in-process elastic job: the last rank dies
// (device.Die) mid-collective, and rank 0 times the
// typed-failure observation (detect) and the Shrink → Spawn → Merge →
// verify turnaround (rebuild).
func elasticCycle(np int) (detect, rebuild time.Duration, err error) {
	victim := np - 1
	var mu sync.Mutex
	var killed time.Time
	app := func(w *mpj.Comm) error {
		if w.Spawned() {
			return elasticGround(w)
		}
		if w.Rank() == victim {
			mu.Lock()
			killed = time.Now()
			mu.Unlock()
			w.Device().Die(errors.New("bench kill"))
			return nil
		}
		out := []int64{0}
		cerr := w.Allreduce([]int64{1}, 0, out, 0, 1, mpj.LONG, mpj.SUM)
		if cerr == nil {
			return fmt.Errorf("allreduce over a dead member succeeded")
		}
		if !errors.Is(cerr, mpj.ErrRankFailed) {
			return fmt.Errorf("want ErrRankFailed, got: %w", cerr)
		}
		observed := time.Now()
		sw, serr := w.Shrink()
		if serr != nil {
			return fmt.Errorf("shrink: %w", serr)
		}
		ic, serr := sw.Spawn(np - sw.Size())
		if serr != nil {
			return fmt.Errorf("spawn: %w", serr)
		}
		w2, serr := ic.Merge(false)
		if serr != nil {
			return fmt.Errorf("merge: %w", serr)
		}
		if verr := elasticGround(w2); verr != nil {
			return verr
		}
		if w.Rank() == 0 {
			mu.Lock()
			detect = observed.Sub(killed)
			mu.Unlock()
			rebuild = time.Since(observed)
		}
		return nil
	}
	if rerr := mpj.RunLocal(np, app); rerr != nil {
		return 0, 0, rerr
	}
	return detect, rebuild, nil
}

// elasticGround verifies a rebuilt world with a closed-form collective.
func elasticGround(w *mpj.Comm) error {
	n, r := w.Size(), w.Rank()
	out := []int64{0}
	if err := w.Allreduce([]int64{int64(r + 1)}, 0, out, 0, 1, mpj.LONG, mpj.SUM); err != nil {
		return fmt.Errorf("rebuilt-world allreduce: %w", err)
	}
	if want := int64(n) * int64(n+1) / 2; out[0] != want {
		return fmt.Errorf("rebuilt-world allreduce = %d, want %d", out[0], want)
	}
	return w.Barrier()
}

// slaveBody adapts the public runtime for the in-process slaves the F2/E5
// scenarios spawn.
func slaveBody(spec daemon.SlaveSpec, daemonAddr string, stop <-chan struct{}) error {
	return mpj.RunSlave(spec, "", stop)
}

func runF2() (*bench.Table, error) {
	mpj.Register("f2-work", func(w *mpj.Comm) error {
		// A token collective so the slaves genuinely communicate.
		sum := make([]int64, 1)
		return w.Allreduce([]int64{int64(w.Rank())}, 0, sum, 0, 1, mpj.LONG, mpj.SUM)
	})
	return bench.F2DiscoverySpawn(slaveBody, func(locators []string) error {
		return mpj.Run(mpj.JobConfig{
			NP: 4, App: "f2-work", Locators: locators, LeaseDur: 5 * time.Second,
		})
	})
}

func runE5() (*bench.Table, error) {
	mpj.Register("e5-crasher", func(w *mpj.Comm) error {
		if w.Rank() == 1 {
			return fmt.Errorf("injected crash")
		}
		buf := make([]int32, 1)
		_, err := w.Recv(buf, 0, 1, mpj.INT, 1, 0)
		return err
	})
	return bench.E5AbortLatency(slaveBody, func(locators []string) error {
		return mpj.Run(mpj.JobConfig{
			NP: 4, App: "e5-crasher", Locators: locators, LeaseDur: 5 * time.Second,
		})
	})
}
