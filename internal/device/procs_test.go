package device

import (
	"runtime"
	"testing"
)

func TestProcShare(t *testing.T) {
	const self = "n0#10"
	for _, tc := range []struct {
		name string
		base int
		locs []string
		want int // 0: untouched
	}{
		{"2 ranks, 2 CPUs", 2, []string{self, "n0#11"}, 1},
		{"4 ranks, 2 CPUs", 2, []string{self, "n0#11", "n0#12", "n0#13"}, 1},
		{"2 ranks, 8 CPUs", 8, []string{"n0#11", self}, 4},
		{"3 ranks, 8 CPUs", 8, []string{self, "n0#11", "n0#12"}, 2},
		{"one rank per host", 8, []string{self, "n1#10"}, 8},
		{"all ranks in this process", 8, []string{self, self, self}, 8},
		{"2 here + 2 other processes, 8 CPUs", 8, []string{self, "n0#11", self, "n0#12", "n1#10"}, 4},
		{"more ranks than CPUs", 2, []string{self, "n0#11", "n0#12"}, 1},
		{"empty table (old master)", 8, nil, 0},
		{"table without this rank", 8, []string{"n0#11", "n0#12"}, 0},
		{"a rank that did not say where it is", 8, []string{self, ""}, 0},
		{"a key with no #", 8, []string{self, "n0"}, 0},
	} {
		if got, _, _ := procShare(tc.base, tc.locs, self); got != tc.want {
			t.Errorf("%s: share %d, want %d", tc.name, got, tc.want)
		}
	}
	if got, _, _ := procShare(8, []string{"n0", "n0"}, "n0"); got != 0 {
		t.Errorf("own key with no #: share %d, want 0 (untouched)", got)
	}
	if _, proc, host := procShare(8, []string{self, "n0#11", self, "n1#10"}, self); proc != 2 || host != 3 {
		t.Errorf("counts: %d in process, %d on host; want 2, 3", proc, host)
	}
}

// The state machine around the rule, driven on this process's real
// scheduler (no test here is parallel with it) and restored afterwards: a
// process nobody adopted is never touched; an adopted one takes its share,
// rises to two Ps at the first fruitless poll, keeps that floor across
// re-sizings, and is left alone once the application sets its own value.
func TestSizeSchedulerAndPollFloor(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(before)
		sched.mu.Lock()
		sched.base, sched.set, sched.procRanks, sched.hostRanks, sched.floor = 0, 0, 0, 0, false
		sched.mu.Unlock()
		sched.onePoll.Store(false)
	})
	two, four := []string{"n0#1", "n0#2"}, []string{"n0#1", "n0#2", "n0#3", "n0#4"}
	step := func(what string, want SchedStatus) {
		t.Helper()
		if got := Scheduler(); got != want {
			t.Fatalf("%s: %+v, want %+v", what, got, want)
		}
	}

	SizeScheduler(two, "n0#1")
	PollMiss()
	step("not adopted", SchedStatus{GOMAXPROCS: before})

	t.Setenv("GOMAXPROCS", "3")
	OwnScheduler()
	SizeScheduler(two, "n0#1")
	step("GOMAXPROCS in the environment", SchedStatus{GOMAXPROCS: before})

	t.Setenv("GOMAXPROCS", "")
	runtime.GOMAXPROCS(2)
	OwnScheduler()
	SizeScheduler(nil, "n0#1")
	step("old master", SchedStatus{GOMAXPROCS: 2, BaseProcs: 2})
	SizeScheduler(two, "n0#1")
	step("sized", SchedStatus{GOMAXPROCS: 1, BaseProcs: 2, ProcRanks: 1, HostRanks: 2})
	PollMiss()
	PollMiss()
	step("polled", SchedStatus{GOMAXPROCS: 2, BaseProcs: 2, ProcRanks: 1, HostRanks: 2, PollFloor: true})
	SizeScheduler(four, "n0#1")
	step("re-sized", SchedStatus{GOMAXPROCS: 2, BaseProcs: 2, ProcRanks: 1, HostRanks: 4, PollFloor: true})
	runtime.GOMAXPROCS(3)
	SizeScheduler(two, "n0#1")
	PollMiss()
	step("application's own value", SchedStatus{GOMAXPROCS: 3, BaseProcs: 2, ProcRanks: 1, HostRanks: 4, PollFloor: true})
}
