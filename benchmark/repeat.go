package main

// -repeat: the benchmark checking itself. Two full sets of runs of the same
// code, back to back, must agree within the bounds the contract fixes —
// otherwise the benchmark could not tell a regression from its own noise.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
)

// contract is the part of BENCHMARK.json the self-check needs.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return &c, nil
}

// verdict compares a metric's two medians. gap is how much worse the
// second set is than the first, as a share of the first (negative: better).
//
//	FAIL        the second median is worse by more than the bound
//	unresolved  the medians agree, but the reps of a set scatter wider than
//	            the bound, so the agreement is weak evidence
//	ok          otherwise
func verdict(first, second stat, better string, bound float64) (gap float64, word string) {
	gap = (second.Value - first.Value) / first.Value
	if better == "higher" {
		gap = -gap
	}
	spread := func(s stat) float64 { return quartiles{Q1: s.Q1, Median: s.Value, Q3: s.Q3}.spread() }
	switch {
	case gap > bound:
		return gap, "FAIL"
	case spread(first) > bound || spread(second) > bound:
		return gap, "unresolved"
	}
	return gap, "ok"
}

// repeatCheck runs the end-to-end metrics and the traced run of every
// selected workload twice, each run in a fresh process as the contract's
// driver does, and compares the two sets. It fails on any FAIL verdict,
// any failed operation, and any traced count that differs between the sets.
func repeatCheck(o options, selected []workload) error {
	c, err := readContract(o.bounds)
	if err != nil {
		return fmt.Errorf("-repeat needs the contract's bounds: %w", err)
	}
	type set struct {
		runs   []*workloadRun
		traced []*tracedRun
	}
	var sets [2]set
	for i := range sets {
		fmt.Printf("## set %d of 2\n", i+1)
		for _, w := range selected {
			dir := filepath.Join(o.out, "repeat", fmt.Sprintf("set%d", i+1), w.Name)
			plain, _, err := runChild(o, w, 0, dir)
			if err != nil {
				return err
			}
			withTrace, _, err := runChild(o, w, 1, filepath.Join(dir, "traced"))
			if err != nil {
				return err
			}
			sets[i].runs = append(sets[i].runs, plain.Runs...)
			sets[i].traced = append(sets[i].traced, withTrace.Traced...)
		}
	}

	fmt.Printf("## two sets of the same code compared\n")
	fmt.Printf("%-16s %-12s %14s %14s %8s %6s  %s\n", "workload", "metric", "first", "second", "gap", "bound", "verdict")
	bad := 0
	for k, w := range selected {
		a, b := sets[0].runs[k], sets[1].runs[k]
		for _, m := range c.EndToEnd {
			gap, word := verdict(a.Metrics[m.Name], b.Metrics[m.Name], m.Better, m.Bound)
			if word == "FAIL" {
				bad++
			}
			fmt.Printf("%-16s %-12s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, a.Metrics[m.Name].Value, b.Metrics[m.Name].Value, 100*gap, 100*m.Bound, word)
		}
		// fail_share has bound 0: any failed operation fails the check.
		ta, tb := sets[0].traced[k], sets[1].traced[k]
		word := "ok"
		if a.Failed+b.Failed+ta.Failed+tb.Failed > 0 {
			word = "FAIL"
			bad++
		}
		fmt.Printf("%-16s %-12s %14.6g %14.6g %8s %5.0f%%  %s (traced runs failed %d and %d)\n",
			w.Name, "fail_share", a.FailShare, b.FailShare, "", 0.0, word, ta.Failed, tb.Failed)
		same := ta.CountsRepeat && tb.CountsRepeat && reflect.DeepEqual(ta.Counts, tb.Counts)
		word = "ok"
		if !same {
			word = "FAIL"
			bad++
		}
		fmt.Printf("%-16s traced counts per rep %+v  identical in both sets: %v  %s\n", w.Name, ta.Counts, same, word)
	}
	if bad > 0 {
		return fmt.Errorf("-repeat: %d check(s) failed: two sets of the same code disagree beyond the bounds", bad)
	}
	fmt.Println("## -repeat: every pair within its bound, no failed operation, traced counts identical")
	return nil
}
