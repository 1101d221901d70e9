package prof

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// This file implements the Chrome trace_event timeline writer behind
// MPJ_PROF=trace:<prefix>. Each rank buffers complete ("X") events in
// memory and writes one JSON file — <prefix>.rank<N>.trace.json — when
// its device closes; the files load directly in chrome://tracing or
// Perfetto (https://ui.perfetto.dev), one process track per rank.
//
// Only "X" (complete) events are emitted: schedules on different
// communicators overlap freely, and begin/end pairs would force Chrome's
// strict stack nesting onto a DAG that has none. Each span is recorded
// at its end, when both endpoints are known, and the buffer is sorted by
// start timestamp at flush — the order the format expects.

// Trace lane (tid) assignment within a rank's process track.
const (
	laneColl  = 1 // whole-collective spans
	laneRound = 2 // per-round spans
	laneWait  = 3 // WaitProgress parks
	laneRma   = 4 // one-sided epoch spans (fence-to-fence, lock-to-unlock)
)

// traceEvent is one trace_event entry in Chrome's JSON schema.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds from trace origin
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level JSON object of a trace file.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// collKey identifies an in-flight schedule: every compiled collective
// gets a fresh tag on its communicator's collective context, so the pair
// is unique among concurrently open spans.
type collKey struct{ ctx, tag int }

// openColl is a schedule whose end has not been seen yet.
type openColl struct {
	start      time.Time
	roundStart time.Time // rounds are sequential per schedule
	name, alg  string
	rounds     int
}

// tracer buffers the events of one rank. All methods take tr.mu: tracing
// is the explicitly-requested expensive mode, counters stay lock-free.
type tracer struct {
	rank   int
	prefix string
	origin time.Time

	mu     sync.Mutex
	open   map[collKey]*openColl
	events []traceEvent
}

func newTracer(rank int, prefix string) *tracer {
	return &tracer{
		rank:   rank,
		prefix: prefix,
		origin: time.Now(),
		open:   make(map[collKey]*openColl),
	}
}

// ts converts an absolute time to trace microseconds.
func (tr *tracer) ts(t time.Time) float64 {
	return float64(t.Sub(tr.origin)) / float64(time.Microsecond)
}

func (tr *tracer) collStart(ctx, tag int, name, alg string, rounds int) {
	tr.mu.Lock()
	tr.open[collKey{ctx, tag}] = &openColl{
		start: time.Now(), name: name, alg: alg, rounds: rounds,
	}
	tr.mu.Unlock()
}

func (tr *tracer) roundStart(ctx, tag, round int) {
	tr.mu.Lock()
	if oc := tr.open[collKey{ctx, tag}]; oc != nil {
		oc.roundStart = time.Now()
	}
	tr.mu.Unlock()
}

func (tr *tracer) roundEnd(ctx, tag, round int) {
	now := time.Now()
	tr.mu.Lock()
	if oc := tr.open[collKey{ctx, tag}]; oc != nil && !oc.roundStart.IsZero() {
		tr.events = append(tr.events, traceEvent{
			Name: fmt.Sprintf("%s r%d", oc.name, round),
			Ph:   "X",
			TS:   tr.ts(oc.roundStart),
			Dur:  float64(now.Sub(oc.roundStart)) / float64(time.Microsecond),
			PID:  tr.rank,
			TID:  laneRound,
			Args: map[string]any{"tag": tag, "round": round},
		})
	}
	tr.mu.Unlock()
}

func (tr *tracer) collEnd(ctx, tag int, failed bool) {
	now := time.Now()
	key := collKey{ctx, tag}
	tr.mu.Lock()
	if oc := tr.open[key]; oc != nil {
		delete(tr.open, key)
		name := oc.name
		if oc.alg != "" {
			name += ":" + oc.alg
		}
		args := map[string]any{
			"tag": tag, "ctx": ctx, "rounds": oc.rounds,
		}
		if oc.alg != "" {
			args["alg"] = oc.alg
		}
		if failed {
			args["failed"] = true
		}
		tr.events = append(tr.events, traceEvent{
			Name: name,
			Ph:   "X",
			TS:   tr.ts(oc.start),
			Dur:  float64(now.Sub(oc.start)) / float64(time.Microsecond),
			PID:  tr.rank,
			TID:  laneColl,
			Args: args,
		})
	}
	tr.mu.Unlock()
}

func (tr *tracer) waitSpan(start time.Time, d time.Duration) {
	tr.mu.Lock()
	tr.events = append(tr.events, traceEvent{
		Name: "wait",
		Ph:   "X",
		TS:   tr.ts(start),
		Dur:  float64(d) / float64(time.Microsecond),
		PID:  tr.rank,
		TID:  laneWait,
	})
	tr.mu.Unlock()
}

func (tr *tracer) rmaEpoch(ctx int, name string, start time.Time, d time.Duration) {
	tr.mu.Lock()
	tr.events = append(tr.events, traceEvent{
		Name: name,
		Ph:   "X",
		TS:   tr.ts(start),
		Dur:  float64(d) / float64(time.Microsecond),
		PID:  tr.rank,
		TID:  laneRma,
		Args: map[string]any{"ctx": ctx},
	})
	tr.mu.Unlock()
}

// flush sorts the buffered events by start time and writes the rank's
// trace file. Called once, from Recorder.Close.
func (tr *tracer) flush() error {
	tr.mu.Lock()
	events := tr.events
	tr.events = nil
	tr.mu.Unlock()

	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })

	// Process/thread name metadata first — Perfetto labels the tracks.
	meta := []traceEvent{
		{Name: "process_name", Ph: "M", PID: tr.rank,
			Args: map[string]any{"name": fmt.Sprintf("mpj rank %d", tr.rank)}},
		{Name: "thread_name", Ph: "M", PID: tr.rank, TID: laneColl,
			Args: map[string]any{"name": "collectives"}},
		{Name: "thread_name", Ph: "M", PID: tr.rank, TID: laneRound,
			Args: map[string]any{"name": "rounds"}},
		{Name: "thread_name", Ph: "M", PID: tr.rank, TID: laneWait,
			Args: map[string]any{"name": "waits"}},
		{Name: "thread_name", Ph: "M", PID: tr.rank, TID: laneRma,
			Args: map[string]any{"name": "rma epochs"}},
	}
	out := traceFile{
		TraceEvents:     append(meta, events...),
		DisplayTimeUnit: "ms",
	}
	js, err := json.Marshal(&out)
	if err != nil {
		return fmt.Errorf("prof: encoding trace for rank %d: %w", tr.rank, err)
	}
	path := TracePath(tr.prefix, tr.rank)
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("prof: creating trace directory: %w", err)
		}
	}
	if err := os.WriteFile(path, js, 0o644); err != nil {
		return fmt.Errorf("prof: writing trace for rank %d: %w", tr.rank, err)
	}
	return nil
}

// TracePath returns the trace file path for rank under prefix — the name
// Recorder.Close writes and tools should glob for.
func TracePath(prefix string, rank int) string {
	return fmt.Sprintf("%s.rank%d.trace.json", prefix, rank)
}
