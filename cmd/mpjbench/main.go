// mpjbench runs the two sweeps the collective-selection model is fitted
// and checked against:
//
//	mpjbench                 # run both
//	mpjbench -exp pingpong   # PP: device-level ping-pong per device (chan/tcp)
//	mpjbench -exp coll       # COLL: large-message Allreduce, classic vs ring
//	                         # (writes BENCH_coll.json; with -quick: regression
//	                         # check against the committed file)
//
// The end-to-end yardstick, with spread and per-layer rows, is the
// benchmark/ module; README.md ("Benchmarks") interprets both.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mpj/internal/bench"
)

// quick trims sweeps for a fast smoke run.
var quick = flag.Bool("quick", false, "smaller sweeps for a quick run")

func main() {
	exp := flag.String("exp", "", "experiment id (empty = all): PP COLL (alias: pingpong)")
	flag.Parse()
	if strings.EqualFold(*exp, "pingpong") {
		*exp = "PP"
	}

	sizes := bench.DefaultSizes
	if *quick {
		sizes = []int{64, 4096, 65536}
	}

	experiments := []struct {
		id  string
		run func() (*bench.Table, error)
	}{
		{"PP", func() (*bench.Table, error) { return bench.PPDeviceCompare(sizes) }},
		{"COLL", runColl},
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
}

// runColl runs the large-message collective algorithm sweep. The full run
// records BENCH_coll.json; the -quick run instead re-measures a subset and
// fails when a classic-vs-ring speedup regresses more than 20% against the
// committed file: a regression check of the algorithm layer, run by hand.
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
