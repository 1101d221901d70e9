package job

import (
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"mpj/internal/daemon"
	"mpj/internal/lease"
	"mpj/internal/lookup"
	"mpj/internal/prof"
)

// Config describes one parallel job, mirroring the paper's goal that the
// mpjrun program need only the application (class) name and the number of
// processes: everything else has workable defaults.
type Config struct {
	NP   int      // number of processes (required)
	App  string   // registered application name (required)
	Args []string // application arguments

	// Prof is the job's instrumentation, resolved and checked by the
	// caller (see mpj.JobConfig); it travels in every slave's spec.
	Prof prof.Spec

	// Discovery: explicit registrar addresses (unicast), or group
	// discovery on UDPPort when empty.
	Locators []string
	UDPPort  int

	// Binary is the executable daemons spawn for process slaves;
	// defaults to the current executable (which re-enters SlaveMain).
	Binary string

	// LeaseDur is the job lease granted by each daemon; the client
	// renews it at half-life. Defaults to 10s.
	LeaseDur time.Duration

	// Elastic switches the job to the elastic failure model: a dead
	// slave no longer aborts the job. Daemons record per-rank death
	// verdicts instead, survivors observe them as typed ErrRankFailed
	// failures, and the application recovers with Shrink/Spawn/Merge.
	// The job succeeds iff every rank not declared dead reports success.
	Elastic bool

	// LivenessDur is the per-rank liveness lease of elastic jobs: a
	// slave that stops heartbeating its daemon for this long is declared
	// dead. Zero picks the daemon default (10s).
	LivenessDur time.Duration

	// Output receives the merged stdout/stderr of all slaves; defaults
	// to os.Stdout.
	Output io.Writer

	// JobID overrides the generated job id (tests).
	JobID uint64
}

// Run executes one parallel job to completion: the programmatic mpjrun.
func Run(cfg Config) error {
	if cfg.NP <= 0 {
		return fmt.Errorf("job: NP must be positive, got %d", cfg.NP)
	}
	if cfg.App == "" {
		return fmt.Errorf("job: no application name")
	}
	if cfg.LeaseDur <= 0 {
		cfg.LeaseDur = 10 * time.Second
	}
	if cfg.Output == nil {
		cfg.Output = os.Stdout
	}
	if cfg.Binary == "" {
		bin, err := os.Executable()
		if err != nil {
			return fmt.Errorf("job: cannot determine slave binary: %w", err)
		}
		cfg.Binary = bin
	}
	jobID := cfg.JobID
	if jobID == 0 {
		jobID = uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32
	}

	// 1. Find daemons via the lookup service (Figure 2 of the paper).
	registrars, err := lookup.Discover(cfg.Locators, cfg.UDPPort, 2*time.Second)
	if err != nil {
		return err
	}
	daemons, err := collectDaemons(registrars)
	if err != nil {
		return err
	}

	// 2. Stand up the client-side services: bootstrap master, output
	// collector, abort event receiver.
	m, err := newMaster(jobID, cfg.NP)
	if err != nil {
		return err
	}
	if cfg.Elastic {
		// Grace for a vanished rank's death verdict: the renewers run at
		// lease half-life, so one full lease covers a push cycle with
		// margin.
		m.grace = cfg.LeaseDur
	}
	defer m.close()

	collector, err := newCollector(cfg.Output)
	if err != nil {
		return err
	}
	defer collector.close()
	// A rank reports done only after its application returned, so all it
	// printed is in its pipe by then; after teardown, which runs first,
	// wait for the daemons to forward what is left, or Run would hand the
	// output back without a slave's last lines.
	forwarded, finished := 0, false // slaves whose output streams to the collector
	defer func() {
		if finished {
			collector.await(forwarded, outputGrace)
		}
	}()

	abort := make(chan daemon.Event, cfg.NP)
	recv, err := daemon.NewReceiver(func(ev daemon.Event) {
		if ev.Type == daemon.TypeAbort && ev.JobID == jobID {
			abort <- ev
		}
	})
	if err != nil {
		return err
	}
	defer recv.Close()

	// 3. Create slaves round-robin across daemons, leasing each daemon's
	// services for the job (§3.4).
	placement := make([]*daemon.Client, cfg.NP)
	clients := make(map[string]*daemon.Client)
	var renewers []*lease.Renewer
	defer func() {
		for _, r := range renewers {
			r.Stop()
		}
		for _, c := range clients {
			// Orderly teardown doubles as cleanup on failure: daemons
			// ignore DestroyJob for jobs they no longer track.
			_ = c.DestroyJob(jobID, "job teardown")
			c.Close()
		}
	}()

	for rank := 0; rank < cfg.NP; rank++ {
		addr := daemons[rank%len(daemons)].Addr
		client, ok := clients[addr]
		if !ok {
			client, err = daemon.DialDaemonRetry(addr)
			if err != nil {
				return err
			}
			clients[addr] = client
		}
		placement[rank] = client
		spec := daemon.SlaveSpec{
			JobID:      jobID,
			Rank:       rank,
			Size:       cfg.NP,
			App:        cfg.App,
			Args:       cfg.Args,
			Prof:       cfg.Prof,
			MasterAddr: m.addr(),
			OutputAddr: collector.addr(),
			EventAddr:  recv.Addr(),
			Binary:     cfg.Binary,
			LeaseMs:    cfg.LeaseDur.Milliseconds(),
			Elastic:    cfg.Elastic,
			LivenessMs: cfg.LivenessDur.Milliseconds(),
		}
		info, err := client.CreateSlave(spec)
		if err != nil {
			return fmt.Errorf("job: creating rank %d on %s: %w", rank, addr, err)
		}
		if info.Forwarded {
			forwarded++
		}
	}
	for _, client := range clients {
		c := client
		renewers = append(renewers, lease.NewRenewer(cfg.LeaseDur, func(d time.Duration) error {
			dead, err := c.RenewJob(jobID, d)
			if err != nil {
				return err
			}
			// Elastic jobs: the reply carries the daemon's death verdicts,
			// which excuse the dead ranks' missing reports.
			m.recordDead(dead)
			return nil
		}, nil))
	}

	// 4. Bootstrap the mesh, then wait for completion or abort.
	gatherErr := make(chan error, 1)
	go func() {
		if err := m.gather(); err != nil {
			gatherErr <- err
			return
		}
		gatherErr <- m.await()
	}()

	select {
	case ev := <-abort:
		// A rank that fails of its own accord reports why before its
		// process exits with the status the daemon's abort carries, and
		// that exit may be another rank's, dying of the first one's: the
		// report names the job's failure better.
		if err := m.ownFailure(reportGrace); err != nil {
			return err
		}
		return fmt.Errorf("job: aborted: %s", ev.Message)
	case err := <-gatherErr:
		finished = err == nil
		return err
	}
}

// reportGrace bounds how long an aborted job waits for the report of a
// rank that failed of its own accord, which its process sent before it
// exited.
const reportGrace = 200 * time.Millisecond

// outputGrace bounds how long a finished job waits for its slaves' output
// streams to end once teardown has destroyed them.
const outputGrace = 5 * time.Second

// collectDaemons looks up MPJService items on all registrars, de-duplicated
// by address.
func collectDaemons(registrars []string) ([]lookup.ServiceItem, error) {
	seen := make(map[string]bool)
	var items []lookup.ServiceItem
	for _, addr := range registrars {
		client, err := lookup.Dial(addr)
		if err != nil {
			continue // a dead registrar must not kill the job
		}
		found, err := client.Lookup(lookup.Template{Type: daemon.ServiceType})
		client.Close()
		if err != nil {
			continue
		}
		for _, it := range found {
			if !seen[it.Addr] {
				seen[it.Addr] = true
				items = append(items, it)
			}
		}
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("job: no MPJ daemons found via %d registrar(s)", len(registrars))
	}
	return items, nil
}

// collector merges slave output streams onto one writer, tagged by rank —
// the paper's non-deterministic stdout merge. ended counts the streams
// that have reached their end, and ping (one slot) tells await it moved.
type collector struct {
	ln net.Listener

	mu    sync.Mutex
	out   io.Writer
	ended int
	ping  chan struct{}
}

func newCollector(out io.Writer) (*collector, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("job: output collector: %w", err)
	}
	c := &collector{ln: ln, out: out, ping: make(chan struct{}, 1)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go c.drain(conn)
		}
	}()
	return c, nil
}

func (c *collector) addr() string { return c.ln.Addr().String() }

func (c *collector) drain(conn net.Conn) {
	defer c.end()
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	for {
		var line daemon.OutLine
		if err := dec.Decode(&line); err != nil {
			return
		}
		c.mu.Lock()
		fmt.Fprintf(c.out, "[rank %d %s] %s\n", line.Rank, line.Stream, line.Text)
		c.mu.Unlock()
	}
}

// end counts one stream that reached its end, every line of it written.
func (c *collector) end() {
	c.mu.Lock()
	c.ended++
	c.mu.Unlock()
	select {
	case c.ping <- struct{}{}:
	default:
	}
}

// await waits until n streams have ended, or for at most bound.
func (c *collector) await(n int, bound time.Duration) {
	timeout := time.NewTimer(bound)
	defer timeout.Stop()
	for {
		c.mu.Lock()
		ended := c.ended
		c.mu.Unlock()
		if ended >= n {
			return
		}
		select {
		case <-c.ping:
		case <-timeout.C:
			return
		}
	}
}

func (c *collector) close() { c.ln.Close() }
