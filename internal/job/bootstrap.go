// Package job implements the client-side MPJ runtime: the machinery
// behind the paper's mpjrun program. It discovers daemons through the
// lookup service, creates the "reliable cocoon" of slave processes,
// wires them into an all-to-all TCP mesh, merges their output streams,
// renews leases for the life of the job, and converts any partial
// failure (slave crash, daemon death, lost client) into a clean total
// failure.
//
// See ARCHITECTURE.md at the repository root for where this package sits in
// the layer stack.
package job

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mpj/internal/core"
	"mpj/internal/daemon"
	"mpj/internal/transport"
)

// Bootstrap wire messages, exchanged over a plain TCP connection between
// each slave and the job master using gob (the control plane's
// serialization, standing in for RMI).
type (
	// Hello is the slave's first message: who it is, where its mesh
	// listener is, and which process it lives in (its locality key:
	// slaves that all share one process build the channel mesh, others
	// the TCP mesh).
	Hello struct {
		JobID uint64
		Rank  int
		Addr  string
		Loc   string
	}
	// Table is the master's answer once all slaves are in: the full
	// address book for building the all-to-all mesh plus the locality key
	// of every rank.
	Table struct {
		Addrs []string
		Locs  []string
	}
	// Done is the slave's final message: its application outcome.
	Done struct {
		Rank int
		Err  string
		// Dead marks a self-declared death: the rank's own failure
		// registry condemned it (see device.Die) and it unwound instead of
		// crashing.
		// Elastic jobs excuse such a report once the daemon verdict
		// confirms it, like a vanished rank; an ordinary Err stays fatal.
		Dead bool
		// Consequence marks an Err that is another rank's failure reaching
		// this one: a peer's death or a revoked communicator. The job error
		// names a rank whose Err is not one, where there is such a rank.
		Consequence bool
	}
)

// BootstrapTimeout bounds the slave gathering phase.
var BootstrapTimeout = 60 * time.Second

// master coordinates the bootstrap of one job.
type master struct {
	jobID uint64
	np    int
	ln    net.Listener

	// grace is how long await waits for a vanished rank's death verdict
	// to arrive through the renewers before calling the silence an error.
	// Zero keeps the classic semantics: a vanished rank fails the job.
	grace time.Duration

	mu       sync.Mutex
	conns    []net.Conn
	decs     []*gob.Decoder
	gathered bool           // table sent; await owns the connections
	dead     map[int]string // original-epoch dead ranks, by rank

	// own is the first report, in arrival order, of a rank that failed of
	// its own accord (not Done.Consequence); ownIn closes as it is set.
	own   error
	ownIn chan struct{}
}

// newMaster starts the bootstrap server.
func newMaster(jobID uint64, np int) (*master, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("job: bootstrap listener: %w", err)
	}
	return &master{
		jobID: jobID,
		np:    np,
		ln:    ln,
		conns: make([]net.Conn, np),
		decs:  make([]*gob.Decoder, np),
		dead:  make(map[int]string),
		ownIn: make(chan struct{}),
	}, nil
}

// addr returns the bootstrap server address for slave specs.
func (m *master) addr() string { return m.ln.Addr().String() }

// gather accepts all np slaves, collects their mesh addresses, and
// broadcasts the completed address table.
func (m *master) gather() error {
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := m.ln.(deadliner); ok {
		_ = d.SetDeadline(time.Now().Add(BootstrapTimeout))
	}
	addrs := make([]string, m.np)
	locs := make([]string, m.np)
	for got := 0; got < m.np; {
		conn, err := m.ln.Accept()
		if err != nil {
			return fmt.Errorf("job: gathering slaves (%d of %d arrived): %w", got, m.np, err)
		}
		dec := gob.NewDecoder(conn)
		var hello Hello
		if err := dec.Decode(&hello); err != nil {
			conn.Close()
			continue
		}
		if hello.JobID != m.jobID || hello.Rank < 0 || hello.Rank >= m.np || m.conns[hello.Rank] != nil {
			conn.Close()
			continue
		}
		m.mu.Lock()
		m.conns[hello.Rank] = conn
		m.decs[hello.Rank] = dec
		m.mu.Unlock()
		addrs[hello.Rank] = hello.Addr
		locs[hello.Rank] = hello.Loc
		got++
	}
	table := Table{Addrs: addrs, Locs: locs}
	for r := 0; r < m.np; r++ {
		if err := gob.NewEncoder(m.conns[r]).Encode(table); err != nil {
			return fmt.Errorf("job: sending address table to rank %d: %w", r, err)
		}
	}
	m.mu.Lock()
	m.gathered = true
	m.mu.Unlock()
	return nil
}

// recordDead records the death verdicts of the job's original mesh (the
// renewers feed it from RenewJob replies of elastic jobs), so await
// excuses those ranks' missing reports. Once the table is out it also
// closes a dead rank's bootstrap connection, so an await blocked on that
// rank's report unblocks.
func (m *master) recordDead(dead []daemon.DeadRank) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, dr := range dead {
		if dr.Epoch != m.jobID || dr.Rank < 0 || dr.Rank >= m.np {
			continue
		}
		m.dead[dr.Rank] = dr.Cause
		if c := m.conns[dr.Rank]; c != nil && m.gathered {
			c.Close()
		}
	}
}

// deadRank reports the recorded verdict for an original-epoch rank.
func (m *master) deadRank(rank int) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cause, ok := m.dead[rank]
	return cause, ok
}

// await collects the Done report of every slave. It returns the error of
// the lowest rank that failed of its own accord — not of a peer's failure
// or a revocation reaching it (Done.Consequence) — or, when every error is
// such a consequence, the lowest rank's.
//
// Elastic jobs (grace > 0) treat a vanished rank differently: its broken
// connection races the daemon's death verdict, so await waits up to grace
// for the renewers to confirm the death before calling the silence an
// error. A confirmed-dead rank's missing report is not a failure — the
// job's outcome is decided by the ranks that survived it (which, after a
// successful Shrink/Spawn recovery, all report success).
func (m *master) await() error {
	errs := make([]error, m.np)
	consequence := make([]bool, m.np)
	vanished := make([]bool, m.np)
	var wg sync.WaitGroup
	for r := 0; r < m.np; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			var done Done
			if err := m.decs[r].Decode(&done); err != nil {
				vanished[r] = true
				errs[r] = fmt.Errorf("job: rank %d vanished before reporting: %w", r, err)
				return
			}
			if done.Dead {
				// A self-declared death is excused like a vanish once the
				// daemon verdict confirms it; without confirmation (or in a
				// non-elastic job, grace == 0) it stays an error, and one of
				// the rank's own accord: the MPJAbort its exit raises names
				// the job's failure worse.
				vanished[r] = true
				errs[r] = fmt.Errorf("job: rank %d reported itself dead: %s", r, done.Err)
				m.noteOwn(errs[r])
				return
			}
			if done.Err != "" {
				errs[r] = fmt.Errorf("job: rank %d failed: %s", r, done.Err)
				consequence[r] = done.Consequence
				if !done.Consequence {
					m.noteOwn(errs[r])
				}
			}
		}()
	}
	wg.Wait()
	if m.grace > 0 {
		deadline := time.Now().Add(m.grace)
		for {
			waiting := false
			for r := 0; r < m.np; r++ {
				if !vanished[r] || errs[r] == nil {
					continue
				}
				if _, dead := m.deadRank(r); dead {
					errs[r] = nil
				} else {
					waiting = true
				}
			}
			if !waiting || time.Now().After(deadline) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	var first error
	for r, err := range errs {
		if err != nil && !consequence[r] {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// noteOwn records the report of a rank that failed of its own accord, if
// it is the first.
func (m *master) noteOwn(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.own == nil {
		m.own = err
		close(m.ownIn)
	}
}

// ownFailure returns the first report of a rank that failed of its own
// accord, waiting for it at most grace; nil if none arrived.
func (m *master) ownFailure(grace time.Duration) error {
	t := time.NewTimer(grace)
	defer t.Stop()
	select {
	case <-m.ownIn:
	case <-t.C:
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.own
}

// close releases the bootstrap server and its connections.
func (m *master) close() {
	m.ln.Close()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.conns {
		if c != nil {
			c.Close()
		}
	}
}

// SlaveConn is the slave's side of the bootstrap connection.
type SlaveConn struct {
	conn net.Conn
	rank int

	mu  sync.Mutex // guards enc (writes share the conn with nothing else)
	enc *gob.Encoder
}

// SlaveBootstrap runs a slave's half of the bootstrap: listen for the
// mesh, announce to the master (including this process's locality key, so
// the completed table tells every rank which peers it is co-located with),
// and receive the address table. The returned listener must be passed to
// the transport constructor, and the returned SlaveConn used to report
// completion.
func SlaveBootstrap(masterAddr string, jobID uint64, rank int) (*SlaveConn, Table, net.Listener, error) {
	meshLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, Table{}, nil, fmt.Errorf("job: slave mesh listener: %w", err)
	}
	conn, err := net.DialTimeout("tcp", masterAddr, BootstrapTimeout)
	if err != nil {
		meshLn.Close()
		return nil, Table{}, nil, fmt.Errorf("job: slave dialing master %s: %w", masterAddr, err)
	}
	sc := &SlaveConn{
		conn: conn,
		enc:  gob.NewEncoder(conn),
		rank: rank,
	}
	hello := Hello{
		JobID: jobID,
		Rank:  rank,
		Addr:  meshLn.Addr().String(),
		Loc:   transport.ProcessLocality(),
	}
	if err := sc.enc.Encode(hello); err != nil {
		conn.Close()
		meshLn.Close()
		return nil, Table{}, nil, fmt.Errorf("job: slave hello: %w", err)
	}
	var table Table
	_ = conn.SetReadDeadline(time.Now().Add(BootstrapTimeout))
	if err := gob.NewDecoder(conn).Decode(&table); err != nil {
		conn.Close()
		meshLn.Close()
		return nil, Table{}, nil, fmt.Errorf("job: slave receiving address table: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	return sc, table, meshLn, nil
}

// ReportDone sends the slave's outcome to the master.
func (sc *SlaveConn) ReportDone(appErr error) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	msg := Done{Rank: sc.rank}
	if appErr != nil {
		msg.Err = appErr.Error()
		msg.Consequence = errors.Is(appErr, core.ErrRankFailed) || errors.Is(appErr, core.ErrRevoked)
	}
	return sc.enc.Encode(msg)
}

// ReportDead reports a self-declared death: this rank's own registry
// condemned it, so its outcome must not decide the job — the survivors'
// will, once the daemon verdict confirms the death.
func (sc *SlaveConn) ReportDead(cause error) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	msg := Done{Rank: sc.rank, Dead: true}
	if cause != nil {
		msg.Err = cause.Error()
	}
	return sc.enc.Encode(msg)
}

// Close releases the bootstrap connection.
func (sc *SlaveConn) Close() { sc.conn.Close() }

// SpawnMaster is a scoped bootstrap master for one Comm.Spawn epoch: the
// leader survivor stands it up inside its own process, replacement slaves
// and re-joining survivors bootstrap against it exactly like an original
// job bootstraps against the client's master, and it is torn down once
// the new mesh is wired. Reusing the Hello/Table exchange keeps spawn
// re-bootstrap on the same code path — and the same BootstrapTimeout
// bound — as first bootstrap.
type SpawnMaster struct {
	m *master

	mu  sync.Mutex
	err error
}

// NewSpawnMaster starts a bootstrap master for np members of mesh epoch
// epoch and begins gathering in the background.
func NewSpawnMaster(epoch uint64, np int) (*SpawnMaster, error) {
	m, err := newMaster(epoch, np)
	if err != nil {
		return nil, err
	}
	sm := &SpawnMaster{m: m}
	go func() {
		err := m.gather()
		sm.mu.Lock()
		sm.err = err
		sm.mu.Unlock()
	}()
	return sm, nil
}

// Addr returns the bootstrap endpoint replacement specs and re-joining
// survivors dial.
func (sm *SpawnMaster) Addr() string { return sm.m.addr() }

// Err reports the gather outcome so far (nil while still gathering).
func (sm *SpawnMaster) Err() error {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.err
}

// Close tears the spawn master down. Safe at any point: members still
// bootstrapping observe a closed connection and fail within their own
// timeout instead of hanging.
func (sm *SpawnMaster) Close() { sm.m.close() }
