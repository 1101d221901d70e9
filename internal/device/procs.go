package device

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"mpj/internal/transport"
)

// Scheduler sizing for process slaves. A daemon execs one OS process per
// rank and each starts with one scheduler thread (P) per CPU; on a fully
// subscribed host the ranks' spare Ps spin and futex-wake each other on
// cores a peer rank needs. A process that exists to run ranks (SlaveMain
// says so with OwnScheduler) therefore keeps only its share of the host,
// computed from the bootstrap table each time it joins a mesh. A process
// that never called OwnScheduler — a launcher, a RunLocal program, a
// daemon hosting goroutine ranks — is never touched, and neither is one
// with GOMAXPROCS in its environment or whose application changed the
// value after us.
//
// One P is classic single-threaded MPI progress: socket readers run when
// the application goroutine parks (every blocking entry point does) or at
// the runtime's 10 ms preemption tick. An application that polls instead
// starves its own reader — runtime.Gosched does not help, a yielded
// goroutine is found before the network is polled — so the first public
// completion query answering "not yet" raises a one-P process to two, for
// good (PollMiss).
var sched struct {
	onePoll atomic.Bool // on the one P set here, floor not raised: PollMiss has work

	mu                   sync.Mutex
	base                 int  // GOMAXPROCS as OwnScheduler found it; 0: hands off
	set                  int  // what this file last asked the runtime for; 0: nothing yet
	procRanks, hostRanks int  // of the last sizing
	floor                bool // a poll raised the process to two Ps; re-sizings keep that
}

// OwnScheduler declares that this process exists to run MPJ ranks, so its
// GOMAXPROCS is the runtime's to size. The value found now is the base
// every later share divides — a cgroup-aware runtime's or an operator's
// choice, never an already-shrunk one. A GOMAXPROCS environment variable
// means hands off.
func OwnScheduler() {
	if os.Getenv("GOMAXPROCS") != "" {
		return
	}
	sched.mu.Lock()
	sched.base = runtime.GOMAXPROCS(0)
	sched.mu.Unlock()
}

// procShare is the rule: this process's share of its host's Ps, by rank
// count. locs are the bootstrap table's locality keys (host#pid), self
// this process's own. share 0 means the table cannot tell — it is empty or
// does not list self (an old master), or some rank did not say where it
// runs — and the scheduler must be left alone.
func procShare(base int, locs []string, self string) (share, procRanks, hostRanks int) {
	host := transport.HostOf(self)
	for _, key := range locs {
		h := transport.HostOf(key)
		if h == "" {
			return 0, 0, 0
		}
		if h == host {
			hostRanks++
		}
		if key == self {
			procRanks++
		}
	}
	if procRanks == 0 {
		return 0, 0, 0
	}
	return max(1, base*procRanks/hostRanks), procRanks, hostRanks
}

// ringGate is the rule for co-host rings (see polls.go): the host runs at
// most a rank per CPU of the base, so a waiter that polls takes no CPU a
// peer rank needs. A process this file does not size has no base, and no
// rings.
func ringGate(locs []string, self string) bool {
	sched.mu.Lock()
	base := sched.base
	sched.mu.Unlock()
	_, _, hostRanks := procShare(base, locs, self)
	return base > 0 && hostRanks > 0 && hostRanks <= base
}

// SizeScheduler applies procShare to an owned process. It runs once per
// mesh generation, between the bootstrap table and the device open.
func SizeScheduler(locs []string, self string) {
	sched.mu.Lock()
	defer sched.mu.Unlock()
	if sched.base == 0 {
		return
	}
	now := runtime.GOMAXPROCS(0)
	if sched.set != 0 && now != sched.set {
		return // the application set its own value after us: it wins
	}
	n, procRanks, hostRanks := procShare(sched.base, locs, self)
	if n == 0 {
		return
	}
	if sched.floor {
		n = max(n, 2)
	}
	runtime.GOMAXPROCS(n) // no stop-the-world when n is already the value
	sched.set, sched.procRanks, sched.hostRanks = n, procRanks, hostRanks
	sched.onePoll.Store(n == 1)
}

// PollMiss is called by the public non-blocking completion queries (core's
// Test forms and Iprobe) on the path that answers "not yet"; internal
// progress loops use the device-level tests and never reach it. It costs
// one atomic load unless this process was sized to one P.
func PollMiss() {
	if !sched.onePoll.Load() {
		return
	}
	sched.mu.Lock()
	defer sched.mu.Unlock()
	if sched.onePoll.Swap(false) && runtime.GOMAXPROCS(0) == sched.set {
		runtime.GOMAXPROCS(2)
		sched.set, sched.floor = 2, true
	}
}

// SchedStatus is the process's sizing state as the expvar endpoint serves
// it. BaseProcs is 0 in a process this file does not size.
type SchedStatus struct {
	GOMAXPROCS, BaseProcs, ProcRanks, HostRanks int
	PollFloor                                   bool
}

// Scheduler reports the sizing state.
func Scheduler() SchedStatus {
	sched.mu.Lock()
	defer sched.mu.Unlock()
	return SchedStatus{runtime.GOMAXPROCS(0), sched.base, sched.procRanks, sched.hostRanks, sched.floor}
}
