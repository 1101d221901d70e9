package prof

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		raw  string
		want Spec
		err  bool
	}{
		{"", Spec{}, false},
		{"counters", Spec{Counters: true}, false},
		{"on", Spec{Counters: true}, false},
		{"1", Spec{Counters: true}, false},
		{"trace:/tmp/run", Spec{Counters: true, TracePrefix: "/tmp/run"}, false},
		{"trace:", Spec{}, true},
		{"bogus", Spec{}, true},
		{"TRACE:/tmp/run", Spec{}, true}, // case-sensitive, like the rest of the env knobs
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.raw)
		if tc.err {
			if err == nil {
				t.Errorf("ParseSpec(%q): no error", tc.raw)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.raw, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.raw, got, tc.want)
		}
		// String must round-trip so the job layer can ship specs to slaves.
		if rt, err := ParseSpec(got.String()); err != nil || rt != got {
			t.Errorf("ParseSpec(%q).String() = %q does not round-trip (%+v, %v)",
				tc.raw, got.String(), rt, err)
		}
	}
}

func TestSpecEnabled(t *testing.T) {
	if (Spec{}).Enabled() {
		t.Error("zero spec reports enabled")
	}
	if !(Spec{Counters: true}).Enabled() || !(Spec{TracePrefix: "x"}).Enabled() {
		t.Error("non-zero spec reports disabled")
	}
	if New(0, Spec{}) != nil {
		t.Error("New with a disabled spec must return nil — the hook sites branch on it")
	}
}

func TestRecorderCounters(t *testing.T) {
	r := New(3, Spec{Counters: true})
	if r == nil {
		t.Fatal("New returned nil for an enabled spec")
	}
	if r.Rank() != 3 {
		t.Fatalf("Rank() = %d, want 3", r.Rank())
	}

	const ctxA, ctxB = 7, 9
	r.Send(ctxA, 100, true)
	r.Send(ctxA, 2000, false)
	r.Send(ctxB, 30, true)
	r.RecvPost(ctxA)
	r.Arrive(ctxA, 100, true)
	r.Arrive(ctxB, 2000, false)
	r.CollStart(ctxB, 1, "ibcast", "binomial", 2)
	r.RoundStart(ctxB, 1, 0)
	r.RoundEnd(ctxB, 1, 0)
	r.CollEnd(ctxB, 1, false)
	r.CollStart(ctxB, 2, "ibcast", "", 1)
	r.CollEnd(ctxB, 2, true)
	r.WaitSpan(ctxB, time.Now().Add(-time.Millisecond))

	s := r.Snapshot()
	if s.SendOps != 3 || s.RecvOps != 1 {
		t.Errorf("ops: %d sends %d recvs, want 3/1", s.SendOps, s.RecvOps)
	}
	if s.EagerSent != 2 || s.EagerSentBytes != 130 || s.RdvSent != 1 || s.RdvSentBytes != 2000 {
		t.Errorf("send split: %+v", s)
	}
	if s.EagerRecv != 1 || s.EagerRecvBytes != 100 || s.RdvRecv != 1 || s.RdvRecvBytes != 2000 {
		t.Errorf("recv split: %+v", s)
	}
	if s.CollStarted != 2 || s.CollDone != 1 || s.CollFailed != 1 || s.CollRounds != 1 {
		t.Errorf("collectives: %+v", s)
	}
	if s.WaitNs < int64(time.Millisecond) {
		t.Errorf("WaitNs = %d, want at least 1ms", s.WaitNs)
	}
	if s.SentBytes() != 2130 || s.RecvBytes() != 2100 || s.SentMsgs() != 3 || s.RecvMsgs() != 2 {
		t.Errorf("totals: sent %d/%d recv %d/%d", s.SentMsgs(), s.SentBytes(), s.RecvMsgs(), s.RecvBytes())
	}

	// The per-context slices must partition the totals.
	a, b := r.CtxSnapshot(ctxA), r.CtxSnapshot(ctxB)
	if a.SendOps != 2 || b.SendOps != 1 {
		t.Errorf("ctx send ops: A %d B %d, want 2/1", a.SendOps, b.SendOps)
	}
	if a.CollStarted != 0 || b.CollStarted != 2 {
		t.Errorf("ctx collectives: A %d B %d, want 0/2", a.CollStarted, b.CollStarted)
	}
	both := r.CtxSnapshot(ctxA, ctxB)
	if both.SendOps != s.SendOps || both.SentBytes() != s.SentBytes() {
		t.Errorf("ctx sum %+v does not cover the global %+v", both, s)
	}
	if missing := r.CtxSnapshot(42); missing != (Snapshot{}) {
		t.Errorf("unknown context snapshot is non-zero: %+v", missing)
	}
}

func TestRecorderStatus(t *testing.T) {
	r := New(0, Spec{Counters: true})
	if r.Status() != nil {
		t.Error("status before SetStatus is non-nil")
	}
	r.SetStatus(func() any { return map[string]any{"failedRanks": []int{2}} })
	st, ok := r.Status().(map[string]any)
	if !ok || st["failedRanks"] == nil {
		t.Errorf("status = %v, want the installed map", r.Status())
	}
}

// TestTrackVarsRetire exercises the endpoint registry: a tracked recorder
// appears in the per-rank block, and closing it folds its totals into the
// cumulative sum instead of dropping them. The registry is process-wide,
// so all assertions are relative deltas.
func TestTrackVarsRetire(t *testing.T) {
	asMap := func() map[string]any { return Vars().(map[string]any) }
	before := asMap()
	beforeTotal := before["total"].(Snapshot)
	beforeClosed := before["closed"].(int)

	r := New(17, Spec{Counters: true})
	Track(r)
	Track(r) // double-track must not duplicate the entry
	r.Send(5, 123, true)

	mid := asMap()
	if _, ok := mid["ranks"].(map[string]any)["17"]; !ok {
		t.Fatalf("tracked rank 17 missing from Vars: %v", mid["ranks"])
	}
	if got := mid["total"].(Snapshot).EagerSentBytes - beforeTotal.EagerSentBytes; got != 123 {
		t.Errorf("live total moved by %d bytes, want 123", got)
	}

	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	after := asMap()
	if _, ok := after["ranks"].(map[string]any)["17"]; ok {
		t.Error("closed rank 17 still listed as live")
	}
	if got := after["closed"].(int) - beforeClosed; got != 1 {
		t.Errorf("closed count moved by %d, want 1", got)
	}
	if got := after["total"].(Snapshot).EagerSentBytes - beforeTotal.EagerSentBytes; got != 123 {
		t.Errorf("retired total moved by %d bytes, want 123 — retirement dropped the counters", got)
	}
}

// TestServeEndpoint starts the expvar server and checks the "mpj" block
// is served as JSON on /debug/vars, and that a second Serve on the same
// requested address reuses the first listener.
func TestServeEndpoint(t *testing.T) {
	PublishMPJ()
	r := New(23, Spec{Counters: true})
	Track(r)
	defer r.Close()
	r.Send(1, 77, true)

	bound, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	again, err := Serve("127.0.0.1:0")
	if err != nil || again != bound {
		t.Fatalf("second Serve = %q, %v; want the first server %q back", again, err, bound)
	}

	resp, err := http.Get("http://" + bound + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	var vars struct {
		MPJ struct {
			Ranks  map[string]json.RawMessage `json:"ranks"`
			Total  Snapshot                   `json:"total"`
			Closed int                        `json:"closed"`
		} `json:"mpj"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	if _, ok := vars.MPJ.Ranks["23"]; !ok {
		t.Errorf("rank 23 missing from the served mpj block: %s", body)
	}
	if vars.MPJ.Total.EagerSentBytes < 77 {
		t.Errorf("served total %d bytes, want at least 77", vars.MPJ.Total.EagerSentBytes)
	}
}

// TestTraceFlush drives the schedule hooks on a tracing recorder and
// validates the flushed file: metadata plus time-sorted complete events
// carrying the algorithm and round metadata.
func TestTraceFlush(t *testing.T) {
	prefix := t.TempDir() + "/run"
	r := New(2, Spec{Counters: true, TracePrefix: prefix})

	r.CollStart(4, 11, "iallreduce", "recursive-doubling", 2)
	r.RoundStart(4, 11, 0)
	r.RoundEnd(4, 11, 0)
	r.RoundStart(4, 11, 1)
	r.RoundEnd(4, 11, 1)
	r.WaitSpan(4, time.Now())
	r.CollEnd(4, 11, false)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	raw, err := os.ReadFile(TracePath(prefix, 2))
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	var sawColl, sawRounds, sawWait bool
	lastTS := -1.0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
			if ev.PID != 2 {
				t.Errorf("event %q: pid %d, want 2", ev.Name, ev.PID)
			}
			if ev.TS < lastTS {
				t.Errorf("event %q out of ts order", ev.Name)
			}
			lastTS = ev.TS
			switch ev.TID {
			case laneColl:
				sawColl = true
				if ev.Name != "iallreduce:recursive-doubling" {
					t.Errorf("collective span named %q", ev.Name)
				}
				if ev.Args["alg"] != "recursive-doubling" || ev.Args["rounds"] != 2.0 {
					t.Errorf("collective span args %v", ev.Args)
				}
			case laneRound:
				sawRounds = true
			case laneWait:
				sawWait = true
			default:
				t.Errorf("event %q on unknown lane %d", ev.Name, ev.TID)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if !sawColl || !sawRounds || !sawWait {
		t.Errorf("missing lanes: coll %v rounds %v wait %v", sawColl, sawRounds, sawWait)
	}
}
