package main

// The benchmark's own span recorder. Spans are kept in memory and written
// to out/trace.json when the run ends. They are recorded from the outside,
// around calls into each layer; nothing inside the library emits them.

import (
	"encoding/json"
	"os"
	"sync"
)

// span is one interval at a layer boundary. Parent is the id of the span
// that caused it (0: none); spans of one operation share Op. Measured
// spans carry same-host Unix nanoseconds. Derived spans (the ladder's
// per-hop rungs, built from medians of separately timed loops) start at 0
// and last as long as the rung's median hop.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Op      int    `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// recorder collects spans. A nil recorder records nothing, so untraced
// runs pass nil.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// span records one measured span and returns its id.
func (r *recorder) span(name, layer string, parent, op int, start, end int64) int {
	return r.add(span{Parent: parent, Name: name, Layer: layer, Op: op, StartNs: start, EndNs: end})
}

// derived records a span built from a median: it starts at 0 and lasts ns.
func (r *recorder) derived(name, layer string, parent int, ns float64) int {
	return r.add(span{Parent: parent, Name: name, Layer: layer, EndNs: int64(ns), Derived: true})
}

// jobSpans records one rep: the job from Run called to Run returned, its
// phases as children (launch, first barrier, application, teardown — the
// control plane's share), and under the application every operation span
// rank 0 kept.
func (r *recorder) jobSpans(name string, parent, index int, rp rep) {
	if r == nil {
		return
	}
	res := rp.Result
	job := r.span(name, "job", parent, index, rp.RunStart, rp.RunEnd)
	r.span("launch", "job", job, index, rp.RunStart, res.EnterNs)
	r.span("first_barrier", "job", job, index, res.EnterNs, res.BarrierNs)
	app := r.span("application", "mpj", job, index, res.BarrierNs, res.ExitNs)
	r.span("teardown", "job", job, index, res.ExitNs, rp.RunEnd)
	for _, s := range rp.Spans {
		r.span("op", "mpj", app, s.Op, s.Start, s.End)
	}
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	js, err := json.Marshal(map[string]any{
		"note":  "spans recorded by the benchmark around calls into each layer; derived spans are per-hop medians, parent = the rung above, self = span minus child",
		"spans": r.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, js, 0o644)
}
