package mpj

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"mpj/internal/core"
	"mpj/internal/daemon"
	"mpj/internal/device"
	"mpj/internal/fault"
	"mpj/internal/job"
	"mpj/internal/transport"
)

// App is a parallel application: it runs on every rank of a job with the
// world communicator, the analogue of the paper's class extending
// MPJApplication (MPI_INIT/MPI_FINALIZE are absorbed into the runtime
// around this call, exactly as §3.1 prescribes).
type App func(world *Comm) error

// appRegistry maps names to applications; the stand-in for downloading
// user classes (Go binaries are statically linked, so "which code to run"
// is resolved by name instead of by class loading).
var appRegistry = struct {
	sync.Mutex
	m map[string]App
}{m: make(map[string]App)}

// Register records an application under a name for Run/SlaveMain
// dispatch. Register before calling Main.
func Register(name string, app App) {
	appRegistry.Lock()
	defer appRegistry.Unlock()
	appRegistry.m[name] = app
}

// Apps lists the registered application names, sorted.
func Apps() []string {
	appRegistry.Lock()
	defer appRegistry.Unlock()
	names := make([]string, 0, len(appRegistry.m))
	for n := range appRegistry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// lookupApp resolves a registered application.
func lookupApp(name string) (App, error) {
	appRegistry.Lock()
	app, ok := appRegistry.m[name]
	appRegistry.Unlock()
	if !ok {
		return nil, fmt.Errorf("mpj: no application %q registered (have %v)", name, Apps())
	}
	return app, nil
}

// RunLocal executes app on np ranks inside the calling process, each rank
// a goroutine, connected by the in-memory transport. It returns nil, or the
// job's failure as localFailure names it. This is the quickest way to
// develop and test MPJ programs; the same code runs unchanged under the
// distributed runtime.
//
// Like the distributed runtime, RunLocal takes the job's instrumentation
// from the calling process's MPJ_PROF (see README "Observability").
func RunLocal(np int, app App) error {
	if np <= 0 {
		return fmt.Errorf("mpj: np must be positive, got %d", np)
	}
	ps, err := resolveProf(JobConfig{})
	if err != nil {
		return err
	}
	// MPJ_FAULT interposes the fault-injection domain between the mesh and
	// the devices (see internal/fault): kill/mute/delay one rank to
	// exercise the fault-tolerance surface without a distributed runtime.
	spec, err := fault.ParseSpec(os.Getenv("MPJ_FAULT"))
	if err != nil {
		return fmt.Errorf("mpj: MPJ_FAULT: %w", err)
	}
	if ps, err = serveProf(ps); err != nil {
		return err
	}
	eps := transport.NewChanMesh(np)
	trs := make([]transport.Transport, np)
	var fd *fault.Domain
	for i := 0; i < np; i++ {
		trs[i] = eps[i]
	}
	if spec != nil {
		fd = fault.NewDomain()
		for i := 0; i < np; i++ {
			trs[i] = fd.Wrap(eps[i])
		}
	}
	devs := make([]*device.Device, np)
	worlds := make([]*core.Comm, np)
	for i := 0; i < np; i++ {
		dev, err := openDevice(trs[i], i, ps)
		if err != nil {
			for _, d := range devs {
				if d != nil {
					d.Abort()
				}
			}
			return fmt.Errorf("mpj: opening device for rank %d: %w", i, err)
		}
		devs[i] = dev
		world, err := core.NewWorld(dev)
		if err != nil {
			for _, d := range devs {
				if d != nil {
					d.Abort()
				}
			}
			return fmt.Errorf("mpj: building world for rank %d: %w", i, err)
		}
		worlds[i] = world
	}
	if fd != nil {
		for i, d := range devs {
			fd.Bind(i, d)
		}
		if err := fd.Arm(spec); err != nil {
			for _, d := range devs {
				d.Abort()
			}
			return fmt.Errorf("mpj: MPJ_FAULT: %w", err)
		}
	}

	// Dynamic process creation: Comm.Spawn on any of these worlds runs
	// replacements as fresh goroutines of this same process (see
	// localRespawner in elastic.go).
	lr := newLocalRespawner(app, ps)
	for i := 0; i < np; i++ {
		worlds[i].SetRespawner(lr)
	}

	// The local analogue of the paper's failure model: the first rank to
	// fail aborts every device, unblocking peers that would otherwise
	// wait forever on the failed rank. Under fault injection the model is
	// the fault-tolerant one instead — an injected death must NOT take the
	// job down, that is the point — so only uninjected errors abort.
	var abortOnce sync.Once
	abortAll := func() {
		abortOnce.Do(func() {
			for _, d := range devs {
				d.Abort()
			}
		})
	}

	appErrs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := app(worlds[i]); err != nil {
				appErrs[i] = err
				if fd == nil || !fd.Killed(i) {
					abortAll()
				}
			}
		}()
	}
	wg.Wait()
	if err := localFailure(appErrs, devs); err != nil {
		if fd != nil {
			for _, d := range devs {
				d.Abort()
			}
		}
		lr.abort()
		return err
	}

	// All ranks succeeded: finalize with a world barrier (draining all
	// in-flight traffic), then close the mesh. A rank whose device has
	// recorded failures skips the barrier — its original world can no
	// longer complete a collective; an elastic application that survived
	// a death synchronized on the rebuilt world before returning.
	finErrs := make([]error, np)
	for i := 0; i < np; i++ {
		i := i
		if devs[i].FailEpoch() > 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			finErrs[i] = worlds[i].Barrier()
		}()
	}
	wg.Wait()
	for _, d := range devs {
		if d.FailEpoch() > 0 {
			d.Abort()
		} else {
			d.Close()
		}
	}
	// Wait out replacement ranks spawned during the run (no-op when the
	// application never called Spawn) and surface their failures.
	if err := lr.wait(); err != nil {
		return err
	}
	for i, err := range finErrs {
		if err != nil {
			return fmt.Errorf("mpj: rank %d finalize: %w", i, err)
		}
	}
	return nil
}

// localFailure names the failure of a RunLocal job whose ranks returned
// errs, nil if none failed: the first rank that failed of its own accord;
// else, every failure being a consequence of a death (ErrRankFailed,
// ErrRevoked), the first rank condemned in its own registry — by
// Comm.Abort, say — whose death it was; else the first failure. The job
// master names a distributed job's failure by the same rule.
func localFailure(errs []error, devs []*device.Device) error {
	first := -1
	for i, err := range errs {
		switch {
		case err == nil:
		case !errors.Is(err, ErrRankFailed) && !errors.Is(err, ErrRevoked):
			return fmt.Errorf("mpj: rank %d: %w", i, err)
		case first < 0:
			first = i
		}
	}
	if first < 0 {
		return nil
	}
	for i, d := range devs {
		if d.RankFailed(i) {
			return fmt.Errorf("mpj: rank %d: %w", i, d.RankError(i))
		}
	}
	return fmt.Errorf("mpj: rank %d: %w", first, errs[first])
}

// JobConfig configures a distributed job; see job.Config for field
// semantics. The zero value plus NP and App suffices.
//
// Prof enables the instrumentation layer on every slave — "counters" for
// the atomic per-communicator counters behind Comm.ProfSnapshot, or
// "trace:<path-prefix>" to additionally write one Chrome trace_event
// JSON timeline per rank (the prefix is resolved on each slave's host);
// see README "Observability". It is resolved once, in the client that
// calls Run: the field, else the client's MPJ_PROF, else off. The value
// is checked before any daemon is contacted and travels in every slave's
// spec, so all ranks run with it whatever their hosts' environments say.
// Every other value a rank runs with — the eager limit, the RMA epoch
// deadline, the daemon dial timeout — is a constant of the runtime.
type JobConfig struct {
	NP       int
	App      string
	Args     []string
	Prof     string
	Locators []string
	UDPPort  int
	Binary   string
	LeaseDur time.Duration
	Output   io.Writer // merged slave output (default os.Stdout)

	// Elastic switches the job to the elastic failure model: a dead slave
	// no longer takes the job down. Daemons record per-rank death
	// verdicts, survivors observe them as typed ErrRankFailed failures,
	// and the application recovers with Comm.Shrink / Comm.Spawn /
	// Intercomm.Merge (see README "Elastic jobs"). The job succeeds iff
	// every rank not declared dead reports success.
	Elastic bool

	// LivenessDur is the per-rank liveness lease of elastic jobs: a slave
	// that stops heartbeating its daemon for this long is declared dead.
	// Zero picks the daemon default (10s).
	LivenessDur time.Duration
}

// Run launches a distributed job through MPJ daemons — the programmatic
// mpjrun. Slave processes re-execute this binary; their main must call
// Main (or SlaveMain) after registering applications.
func Run(cfg JobConfig) error {
	ps, err := resolveProf(cfg)
	if err != nil {
		return err
	}
	return job.Run(job.Config{
		NP:          cfg.NP,
		App:         cfg.App,
		Args:        cfg.Args,
		Prof:        ps,
		Locators:    cfg.Locators,
		UDPPort:     cfg.UDPPort,
		Binary:      cfg.Binary,
		LeaseDur:    cfg.LeaseDur,
		Output:      cfg.Output,
		Elastic:     cfg.Elastic,
		LivenessDur: cfg.LivenessDur,
	})
}

// IsSlave reports whether this process was spawned as an MPJ slave. Such a
// process belongs to the runtime: SlaveMain sizes its Go scheduler to its
// share of the host and terminates it when the application returns.
func IsSlave() bool { return os.Getenv("MPJ_SLAVE") != "" }

// Main dispatches to SlaveMain when running as a spawned slave and
// returns false otherwise, letting one binary serve as both launcher and
// slave:
//
//	func main() {
//	    mpj.Register("app", run)
//	    if mpj.Main() {
//	        return // ran as a slave
//	    }
//	    // launcher / CLI behaviour
//	}
func Main() bool {
	if !IsSlave() {
		return false
	}
	SlaveMain()
	return true
}

// SlaveMain is the entry point of a spawned slave process (the paper's
// MPJSlave): it bootstraps against the job master, joins the TCP mesh,
// runs the registered application, reports the outcome, and exits. It
// terminates the process.
//
// The process's scheduler is sized to its share of the host: once the
// bootstrap table shows how many ranks the host carries, GOMAXPROCS
// becomes max(1, GOMAXPROCS × ranks in this process ÷ ranks on this host)
// — one rank per host keeps every CPU, a fully subscribed host gives each
// rank one scheduler thread. A GOMAXPROCS variable in the slave's
// environment turns this off, and an application that calls
// runtime.GOMAXPROCS itself runs later and wins. See README "Process
// slaves and CPUs" for the progress model at one thread.
func SlaveMain() {
	device.OwnScheduler()
	spec, daemonAddr, err := daemon.DecodeSlaveEnv(os.Getenv("MPJ_SLAVE"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpj slave:", err)
		os.Exit(2)
	}
	appErr := RunSlave(spec, daemonAddr, nil)
	if appErr != nil {
		fmt.Fprintln(os.Stderr, "mpj slave:", appErr)
		os.Exit(1)
	}
	os.Exit(0)
}

// watchdogInterval is the longest a slave waits between probes of its
// daemon; an elastic slave beats four times per liveness lease when that
// is sooner.
// After three consecutive failures a process slave self-destructs (the
// paper's daemon-leases-its-own-slaves rule, §3.4).
const watchdogInterval = 2 * time.Second

// watchdog ties a slave to its daemon: at once and then every interval it
// dials the daemon and runs probe on the connection, until stop closes.
// The first probe does not wait an interval, so an elastic slave's first
// beat renews the lease the daemon started at its creation well within
// it. After three consecutive failures the daemon is gone, and a process
// slave (orphan true) exits.
func watchdog(daemonAddr string, interval time.Duration, orphan bool, stop <-chan struct{}, probe func(*daemon.Client) error) {
	failures := 0
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		client, err := daemon.DialDaemon(daemonAddr)
		if err == nil {
			err = probe(client)
			client.Close()
		}
		if err == nil {
			failures = 0
		} else if failures++; failures >= 3 && orphan {
			fmt.Fprintln(os.Stderr, "mpj slave: daemon unreachable, self-destructing")
			os.Exit(3)
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// ping is the watchdog probe of a slave that only checks its daemon lives.
func ping(c *daemon.Client) error {
	_, err := c.Ping()
	return err
}

// RunSlave executes one slave's life cycle over real TCP: bootstrap,
// mesh, application, report. stop (may be nil) aborts the slave
// cooperatively; it is used by in-process slave simulations. A non-empty
// daemonAddr arms the watchdog: a process slave's self-destruct rule and,
// in an elastic job, every slave's liveness heartbeat.
func RunSlave(spec daemon.SlaveSpec, daemonAddr string, stop <-chan struct{}) error {
	app, err := lookupApp(spec.App)
	if err != nil {
		return err
	}
	// MPJ_PROF_ADDR serves this process's /debug/vars endpoint. A serve
	// failure is only warned about: several slaves of one host may
	// inherit the same fixed port, and losing an endpoint must not kill a
	// rank.
	var perr error
	if spec.Prof, perr = serveProf(spec.Prof); perr != nil {
		fmt.Fprintln(os.Stderr, "mpj slave:", perr)
	}

	// Elastic jobs: the daemon holds a liveness lease on this slave from
	// the moment it created it, so the heartbeats start before the
	// bootstrap. The membership comes from the spec; a spawned slave's
	// is its rank in the spawn epoch.
	var live *liveTracker
	probe := ping
	if spec.Elastic {
		live = &liveTracker{}
		live.register(spec.MeshEpoch(), spec.Rank, nil)
		probe = live.heartbeat(spec.JobID)
	}
	if daemonAddr != "" && (stop == nil || live != nil) {
		interval := watchdogInterval
		if live != nil {
			interval = min(interval, spec.Liveness()/4)
		}
		watchdogStop := make(chan struct{})
		defer close(watchdogStop)
		go watchdog(daemonAddr, interval, stop == nil, watchdogStop, probe)
	}

	if spec.Epoch != 0 {
		// A replacement slave created by Comm.Spawn: bootstrap against the
		// scoped spawn master and enter the application through the merge
		// choreography instead of the original world.
		return runSpawnedSlave(spec, daemonAddr, app, stop, live)
	}
	dev, sc, err := joinMesh(spec)
	if err != nil {
		return err
	}
	defer sc.Close()
	world, err := core.NewWorld(dev)
	if err != nil {
		dev.Close()
		_ = sc.ReportDone(err)
		return err
	}
	// Elastic jobs: install the daemon-backed respawner behind Comm.Spawn.
	var respawn *distRespawner
	if live != nil {
		respawn = &distRespawner{spec: spec, daemonAddr: daemonAddr, live: live}
		world.SetRespawner(respawn)
	}

	appErr := runApp(app, world, dev, stop)
	if appErr == nil && dev.FailEpoch() == 0 {
		// Finalize: drain in-flight traffic before tearing down. A device
		// with recorded failures skips the barrier — the original world
		// cannot complete a collective any more; an elastic application
		// that survived a death synchronized on the rebuilt world before
		// returning.
		appErr = world.Barrier()
	}
	if appErr != nil {
		// Abrupt teardown: peers must see a failure (broken mesh
		// connection), not an orderly goodbye, so the abort cascades.
		dev.Abort()
	} else if dev.FailEpoch() > 0 {
		dev.Abort()
	} else {
		dev.Close()
	}
	if live != nil {
		live.closeSpawned()
		respawn.close()
	}
	if appErr == nil && dev.RankFailed(dev.Rank()) {
		// This rank is condemned in its own registry (see device.Die) yet
		// unwound cleanly: exit as a death, not a success. The master
		// excuses the report once the daemon's exit verdict confirms it.
		appErr = fmt.Errorf("mpj: rank %d is recorded dead: %w", dev.Rank(), dev.RankError(dev.Rank()))
		_ = sc.ReportDead(appErr)
		return appErr
	}
	if rerr := sc.ReportDone(appErr); rerr != nil && appErr == nil {
		appErr = rerr
	}
	return appErr
}

// runSpawnedSlave is the life cycle of a replacement slave: join the
// spawn generation's mesh against the scoped spawn master, run the
// child-side merge choreography (core.JoinSpawned), then enter the
// application afresh on the merged full-size world with Spawned()
// reporting true.
func runSpawnedSlave(spec daemon.SlaveSpec, daemonAddr string, app App, stop <-chan struct{}, live *liveTracker) error {
	dev, sc, err := joinMesh(spec)
	if err != nil {
		return err
	}
	defer sc.Close()
	merged, err := core.JoinSpawned(dev, spec.SpawnBase)
	if err != nil {
		dev.Abort()
		_ = sc.ReportDone(err)
		return err
	}
	respawn := &distRespawner{spec: spec, daemonAddr: daemonAddr, live: live}
	merged.SetRespawner(respawn)

	appErr := runApp(app, merged, dev, stop)
	if dev.FailEpoch() > 0 {
		dev.Abort()
	} else {
		dev.Close()
	}
	live.closeSpawned()
	respawn.close()
	_ = sc.ReportDone(appErr)
	return appErr
}

// runApp runs the application on world and returns its outcome. A
// cooperative stop (in-process slaves destroyed by their daemon; nil
// never fires) aborts the device, as a killed process's would end: pending
// operations error out, the app unwinds, and the peers' transports report
// the death.
func runApp(app App, world *Comm, dev *device.Device, stop <-chan struct{}) error {
	appDone := make(chan error, 1)
	go func() { appDone <- app(world) }()
	select {
	case err := <-appDone:
		return err
	case <-stop:
		dev.Abort()
		return <-appDone
	}
}

// NewFuncSpawner adapts RunSlave for in-process (goroutine) slaves: the
// hermetic slave mode used by tests and single-machine simulations. The
// daemon address is passed through so elastic jobs can place replacement
// slaves (Comm.Spawn) and renew their liveness leases, but the cooperative
// stop channel keeps the self-destruct rule off — the daemon shares the
// process, it cannot silently die.
func NewFuncSpawner() daemon.FuncSpawner {
	return daemon.FuncSpawner{
		Run: func(spec daemon.SlaveSpec, daemonAddr string, stop <-chan struct{}) error {
			return RunSlave(spec, daemonAddr, stop)
		},
	}
}
