package daemon

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"mpj/internal/lease"
)

// FailureRegistry is the per-job failure detector of the fault-tolerant
// runtime: every rank of a job holds a liveness lease and renews it by
// heartbeat; a rank whose lease lapses is marked dead — permanently, a
// dead rank never resurrects — and every subscriber is told. In a
// distributed job the daemon's subscription destroys the slave the
// verdict names; its peers' transports report the break, which the
// communicator layer sees as the typed ErrRankFailed failures it recovers
// from with Revoke/Shrink/Agree.
//
// This extends the paper's leasing discipline (§3.4) from whole-job
// reclamation to per-rank detection: the same landlord/holder mechanics,
// but the expiry verdict now names a single rank instead of dooming the
// job. The registry trusts its leases — a rank is declared dead only when
// its lease truly lapsed, and a heartbeat that lands before the deadline
// always postpones it — which is the accuracy the agreement protocol
// requires of the detector.
type FailureRegistry struct {
	table *lease.Table

	mu      sync.Mutex
	byRank  map[int]string // rank → live lease id
	dead    map[int]error
	subs    []func(rank int, err error)
	pending []deadRank // verdicts to deliver outside mu
}

// deadRank is one expiry verdict awaiting delivery.
type deadRank struct {
	rank int
	err  error
}

// NewFailureRegistry creates a registry on the real clock: ranks expire
// in the background as their leases lapse.
func NewFailureRegistry() *FailureRegistry {
	fr := newFailureRegistry()
	fr.table = lease.NewTable(fr.onExpire)
	return fr
}

// NewFailureRegistryWithClock creates a registry on an injected clock
// with no background sweeper: ranks expire only when Poll is called, and
// only by the clock's reckoning. Built for deterministic tests.
func NewFailureRegistryWithClock(now func() time.Time) *FailureRegistry {
	fr := newFailureRegistry()
	fr.table = lease.NewTableWithClock(fr.onExpire, now)
	return fr
}

func newFailureRegistry() *FailureRegistry {
	return &FailureRegistry{
		byRank: make(map[int]string),
		dead:   make(map[int]error),
	}
}

// Subscribe registers a callback invoked once per dead rank, after the
// verdict is recorded. Callbacks run outside the registry lock.
func (fr *FailureRegistry) Subscribe(f func(rank int, err error)) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.subs = append(fr.subs, f)
}

// Track starts watching rank under a d-long liveness lease. Tracking an
// already-dead rank is a no-op: death is final.
func (fr *FailureRegistry) Track(rank int, d time.Duration) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if _, gone := fr.dead[rank]; gone {
		return
	}
	if _, ok := fr.byRank[rank]; ok {
		return
	}
	info := fr.table.Grant(rank, d)
	fr.byRank[rank] = info.ID
}

// Heartbeat renews rank's lease for d from now. A heartbeat from a rank
// already declared dead fails — the verdict stands, the rank must not
// rejoin — and a heartbeat from an untracked rank reports the unknown
// lease.
func (fr *FailureRegistry) Heartbeat(rank int, d time.Duration) error {
	fr.mu.Lock()
	if err, gone := fr.dead[rank]; gone {
		fr.mu.Unlock()
		return fmt.Errorf("daemon: heartbeat from dead rank %d: %w", rank, err)
	}
	id, ok := fr.byRank[rank]
	fr.mu.Unlock()
	if !ok {
		return fmt.Errorf("daemon: heartbeat from untracked rank %d: %w", rank, lease.ErrUnknownLease)
	}
	// The renew may still race an in-flight expiry of the same lease; if
	// it does, the expiry verdict wins and the error says so.
	if _, err := fr.table.Renew(id, d); err != nil {
		return fmt.Errorf("daemon: rank %d: %w", rank, err)
	}
	return nil
}

// Kill declares rank dead immediately, without waiting for its lease to
// lapse. It is the registry's entry point for deaths the daemon observes
// directly — a slave process exiting — where the verdict is certain and
// waiting out the lease would only delay propagation. Killing an
// already-dead rank is a no-op: the first verdict stands.
func (fr *FailureRegistry) Kill(rank int, err error) {
	fr.mu.Lock()
	if id, ok := fr.byRank[rank]; ok {
		delete(fr.byRank, rank)
		_ = fr.table.Cancel(id)
	}
	if _, gone := fr.dead[rank]; gone {
		fr.mu.Unlock()
		return
	}
	if err == nil {
		err = fmt.Errorf("daemon: rank %d killed", rank)
	}
	fr.dead[rank] = err
	fr.pending = append(fr.pending, deadRank{rank: rank, err: err})
	fr.mu.Unlock()
	fr.deliver()
}

// DeadSet returns a snapshot of every rank declared dead so far with its
// verdict. Lease-renewal replies carry this set to the job's client.
func (fr *FailureRegistry) DeadSet() map[int]error {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make(map[int]error, len(fr.dead))
	for rank, err := range fr.dead {
		out[rank] = err
	}
	return out
}

// Poll expires overdue leases now (clock-driven registries only; real-
// clock registries sweep in the background) and returns how many ranks
// were newly declared dead.
func (fr *FailureRegistry) Poll() int {
	n := fr.table.Poll()
	fr.deliver()
	return n
}

// onExpire is the lease table's expiry callback: record the verdict. The
// table invokes it from Poll or its sweeper goroutine; delivery to
// subscribers happens right after (deliver), outside fr.mu.
func (fr *FailureRegistry) onExpire(id string, payload any) {
	rank := payload.(int)
	fr.mu.Lock()
	if fr.byRank[rank] == id {
		delete(fr.byRank, rank)
	}
	if _, gone := fr.dead[rank]; !gone {
		err := fmt.Errorf("daemon: rank %d liveness lease expired", rank)
		fr.dead[rank] = err
		fr.pending = append(fr.pending, deadRank{rank: rank, err: err})
	}
	fr.mu.Unlock()
	fr.deliver()
}

// deliver flushes pending verdicts to the subscribers.
func (fr *FailureRegistry) deliver() {
	for {
		fr.mu.Lock()
		if len(fr.pending) == 0 {
			fr.mu.Unlock()
			return
		}
		v := fr.pending[0]
		fr.pending = fr.pending[1:]
		var subs []func(rank int, err error)
		subs = append(subs, fr.subs...)
		fr.mu.Unlock()
		for _, f := range subs {
			f(v.rank, v.err)
		}
	}
}

// Dead reports whether rank has been declared dead, and why.
func (fr *FailureRegistry) Dead(rank int) (error, bool) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	err, ok := fr.dead[rank]
	return err, ok
}

// Tracked reports whether rank currently holds a live lease.
func (fr *FailureRegistry) Tracked(rank int) bool {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	_, ok := fr.byRank[rank]
	return ok
}

// Vars returns a JSON-marshalable snapshot of the registry — tracked
// ranks with live leases and declared-dead ranks with their verdicts —
// for the /debug/vars endpoint (see internal/prof and README "Observability").
func (fr *FailureRegistry) Vars() any {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	tracked := make([]int, 0, len(fr.byRank))
	for rank := range fr.byRank {
		tracked = append(tracked, rank)
	}
	sort.Ints(tracked)
	dead := make(map[string]string, len(fr.dead))
	for rank, err := range fr.dead {
		dead[strconv.Itoa(rank)] = err.Error()
	}
	return map[string]any{
		"tracked": tracked,
		"dead":    dead,
	}
}

// Close stops the registry's lease table. No further verdicts fire.
func (fr *FailureRegistry) Close() { fr.table.Close() }
