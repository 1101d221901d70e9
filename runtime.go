package mpj

import (
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"mpj/internal/core"
	"mpj/internal/daemon"
	"mpj/internal/device"
	"mpj/internal/fault"
	"mpj/internal/job"
	"mpj/internal/prof"
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
// a goroutine, connected by the in-memory transport. It returns the first
// rank error. This is the quickest way to develop and test MPJ programs;
// the same code runs unchanged under the distributed runtime.
//
// Like the distributed runtime, RunLocal honours the MPJ_EAGER_LIMIT
// environment variable as the eager/rendezvous protocol threshold.
func RunLocal(np int, app App) error {
	var opts []device.Option
	if limit, err := eagerLimitFromEnv(); err != nil {
		return err
	} else if limit > 0 {
		opts = append(opts, device.WithEagerLimit(limit))
	}
	return runLocalOpts(np, opts, app)
}

// eagerLimitFromEnv parses the MPJ_EAGER_LIMIT environment variable; zero
// means unset.
func eagerLimitFromEnv() (int, error) {
	limit, err := device.ParseEagerLimit(os.Getenv("MPJ_EAGER_LIMIT"))
	if err != nil {
		return 0, fmt.Errorf("mpj: MPJ_EAGER_LIMIT: %w", err)
	}
	return limit, nil
}

// profFromEnv resolves this process's profiling configuration: raw is
// the spec string already in hand (a SlaveSpec field; empty falls back
// to MPJ_PROF), and a set MPJ_PROF_ADDR implies counters even when no
// spec asks for them — an endpoint with nothing behind it would be
// useless. The returned addr is empty when no endpoint was requested.
func profFromEnv(raw string) (prof.Spec, string, error) {
	if raw == "" {
		raw = os.Getenv("MPJ_PROF")
	}
	spec, err := prof.ParseSpec(raw)
	if err != nil {
		return prof.Spec{}, "", fmt.Errorf("mpj: MPJ_PROF: %w", err)
	}
	addr := os.Getenv("MPJ_PROF_ADDR")
	if addr != "" && !spec.Enabled() {
		spec.Counters = true
	}
	return spec, addr, nil
}

// profStatus builds the status callback served next to a rank's counters
// on the /debug/vars endpoint: the device's failure-registry view, the
// fault-tolerance state an operator wants next to the traffic numbers,
// the process's scheduler size with what it was derived from (baseProcs 0:
// not a process slave, or GOMAXPROCS was in its environment), the road
// each peer's rendezvous payloads take to this rank ("memory", "pull",
// "wire", "wire: <why the system refused a pull>"), and beside it how
// frames to each peer travel ("memory", "ring", "socket", "socket: <why
// the ring was refused>").
func profStatus(dev *device.Device) func() any {
	return func() any {
		sched := device.Scheduler()
		return map[string]any{
			"failedRanks": dev.FailedRanks(),
			"failEpoch":   dev.FailEpoch(),
			"gomaxprocs":  sched.GOMAXPROCS,
			"baseProcs":   sched.BaseProcs,
			"procRanks":   sched.ProcRanks,
			"hostRanks":   sched.HostRanks,
			"pollFloor":   sched.PollFloor,
			"peerPaths":   dev.PeerPaths(),
			"frameMedia":  dev.FrameMedia(),
		}
	}
}

// RunLocalEager is RunLocal with an explicit eager/rendezvous threshold,
// used by protocol experiments.
func RunLocalEager(np, eagerLimit int, app App) error {
	return runLocalOpts(np, []device.Option{device.WithEagerLimit(eagerLimit)}, app)
}

func runLocalOpts(np int, opts []device.Option, app App) error {
	if np <= 0 {
		return fmt.Errorf("mpj: np must be positive, got %d", np)
	}
	// MPJ_FAULT interposes the fault-injection domain between the mesh and
	// the devices (see internal/fault): kill/mute/delay one rank to
	// exercise the fault-tolerance surface without a distributed runtime.
	spec, err := fault.ParseSpec(os.Getenv("MPJ_FAULT"))
	if err != nil {
		return fmt.Errorf("mpj: MPJ_FAULT: %w", err)
	}
	// MPJ_PROF / MPJ_PROF_ADDR: per-rank instrumentation recorders and the
	// optional /debug/vars endpoint (see internal/prof and README
	// "Observability").
	pspec, profAddr, err := profFromEnv("")
	if err != nil {
		return err
	}
	if profAddr != "" {
		prof.PublishMPJ()
		if _, err := prof.Serve(profAddr); err != nil {
			return fmt.Errorf("mpj: MPJ_PROF_ADDR: %w", err)
		}
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
		devOpts := opts
		rec := prof.New(i, pspec)
		if rec != nil {
			devOpts = append(opts[:len(opts):len(opts)], device.WithProfiler(rec))
		}
		dev, err := device.Open(trs[i], devOpts...)
		if err != nil {
			for _, d := range devs {
				if d != nil {
					d.Abort()
				}
			}
			return fmt.Errorf("mpj: opening device for rank %d: %w", i, err)
		}
		devs[i] = dev
		if rec != nil {
			rec.SetStatus(profStatus(dev))
			prof.Track(rec)
		}
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
	lr := newLocalRespawner(app)
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
	for i, err := range appErrs {
		if err != nil {
			if fd != nil {
				for _, d := range devs {
					d.Abort()
				}
			}
			lr.abort()
			return fmt.Errorf("mpj: rank %d: %w", i, err)
		}
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

// JobConfig configures a distributed job; see job.Config for field
// semantics. The zero value plus NP and App suffices.
//
// Device selects the transport each slave builds — "chan" (in-process
// channel mesh; requires all ranks co-located), "tcp" (all-to-all TCP
// mesh), or "hyb" (the hybrid device: channels to co-located ranks, TCP to
// remote ones). Empty falls back to the slave's MPJ_DEVICE environment
// variable and then the built-in default ("hyb").
//
// EagerLimit overrides every slave device's eager/rendezvous protocol
// threshold in bytes (see DefaultEagerLimit). Zero falls back to each
// slave's MPJ_EAGER_LIMIT environment variable and then the built-in
// default.
//
// CollAlg forces the collective algorithm family on every slave —
// "classic", "ring" or "hier"; "auto" restores size-based selection.
// Empty falls back to each slave's MPJ_COLL_ALG environment variable.
// Shipping it in the job config keeps the choice identical on every rank,
// which collective schedules require.
//
// Prof enables the instrumentation layer on every slave — "counters" for
// the atomic per-communicator counters behind Comm.ProfSnapshot, or
// "trace:<path-prefix>" to additionally write one Chrome trace_event
// JSON timeline per rank (the prefix is resolved on each slave's host).
// Empty falls back to each slave's MPJ_PROF environment variable and
// finally off; see README "Observability".
type JobConfig struct {
	NP         int
	App        string
	Args       []string
	Device     string
	EagerLimit int
	CollAlg    string
	Prof       string
	Locators   []string
	UDPPort    int
	Binary     string
	LeaseDur   time.Duration
	Output     io.Writer // merged slave output (default os.Stdout)

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

	// ConnectTimeout bounds daemon dials with exponential backoff and
	// jitter (see daemon.DialDaemonRetry); a daemon restarting mid-launch
	// is retried until the deadline instead of failing the job. Zero
	// keeps single-attempt dials.
	ConnectTimeout time.Duration
}

// Run launches a distributed job through MPJ daemons — the programmatic
// mpjrun. Slave processes re-execute this binary; their main must call
// Main (or SlaveMain) after registering applications.
func Run(cfg JobConfig) error {
	// Validate the collective knob here, where the parser lives, so a
	// typo fails before any slave spawns (the device name gets the same
	// treatment inside job.Run).
	if _, err := core.ParseCollAlg(cfg.CollAlg); err != nil {
		return fmt.Errorf("mpj: JobConfig.CollAlg: %w", err)
	}
	if _, err := prof.ParseSpec(cfg.Prof); err != nil {
		return fmt.Errorf("mpj: JobConfig.Prof: %w", err)
	}
	return job.Run(job.Config{
		NP:             cfg.NP,
		App:            cfg.App,
		Args:           cfg.Args,
		Device:         cfg.Device,
		EagerLimit:     cfg.EagerLimit,
		CollAlg:        cfg.CollAlg,
		Prof:           cfg.Prof,
		Locators:       cfg.Locators,
		UDPPort:        cfg.UDPPort,
		Binary:         cfg.Binary,
		LeaseDur:       cfg.LeaseDur,
		Output:         cfg.Output,
		Elastic:        cfg.Elastic,
		LivenessDur:    cfg.LivenessDur,
		ConnectTimeout: cfg.ConnectTimeout,
	})
}

// IsSlave reports whether this process was spawned as an MPJ slave. Such a
// process belongs to the runtime: SlaveMain sizes its Go scheduler to its
// share of the host and terminates it when the application returns.
func IsSlave() bool { return os.Getenv("MPJ_SLAVE") == "1" }

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
	spec, daemonAddr, err := daemon.ParseSlaveEnv(os.Getenv)
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

// watchdogInterval is how often a process slave pings its daemon; after
// three consecutive failures the slave self-destructs (the paper's
// daemon-leases-its-own-slaves rule, §3.4).
var watchdogInterval = 2 * time.Second

// RunSlave executes one slave's life cycle over real TCP: bootstrap,
// mesh, application, report. stop (may be nil) aborts the slave
// cooperatively; it is used by in-process slave simulations. A non-empty
// daemonAddr arms the self-destruct watchdog.
func RunSlave(spec daemon.SlaveSpec, daemonAddr string, stop <-chan struct{}) error {
	app, err := lookupApp(spec.App)
	if err != nil {
		return err
	}
	if spec.Epoch != 0 {
		// A replacement slave created by Comm.Spawn: bootstrap against the
		// scoped spawn master and enter the application through the merge
		// choreography instead of the original world.
		return runSpawnedSlave(spec, daemonAddr, app, stop)
	}
	// Profiling: the spec (mpjrun -prof or JobConfig.Prof) wins, then the
	// slave's MPJ_PROF environment. MPJ_PROF_ADDR additionally serves the
	// /debug/vars endpoint; a serve failure is only warned about — several
	// slaves of one host may inherit the same fixed port, and losing an
	// endpoint must not kill a rank.
	pspec, profAddr, err := profFromEnv(spec.Prof)
	if err != nil {
		return err
	}
	var profOpts []device.Option
	rec := prof.New(spec.Rank, pspec)
	if rec != nil {
		profOpts = append(profOpts, device.WithProfiler(rec))
	}
	if profAddr != "" {
		prof.PublishMPJ()
		if _, serr := prof.Serve(profAddr); serr != nil {
			fmt.Fprintf(os.Stderr, "mpj slave: MPJ_PROF_ADDR: %v\n", serr)
		}
	}
	dev, sc, err := joinMesh(spec, profOpts...)
	if err != nil {
		return err
	}
	defer sc.Close()
	if rec != nil {
		rec.SetStatus(profStatus(dev))
		prof.Track(rec)
	}
	world, err := core.NewWorld(dev)
	if err != nil {
		dev.Close()
		_ = sc.ReportDone(err)
		return err
	}

	// Elastic jobs: track this slave's mesh memberships, install the
	// daemon-backed respawner behind Comm.Spawn, and pump death verdicts
	// the master pushes down the bootstrap connection into the mesh.
	var live *liveTracker
	var respawn *distRespawner
	if spec.Elastic {
		live = newLiveTracker()
		live.register(spec.JobID, spec.Rank, dev)
		respawn = &distRespawner{spec: spec, daemonAddr: daemonAddr, live: live}
		world.SetRespawner(respawn)
		go obitReader(sc, live)
	}

	// Watchdog: a slave whose daemon has died must destroy itself. In
	// elastic jobs the probe doubles as the liveness heartbeat — it renews
	// this slave's per-rank leases and fans the reply's death verdicts
	// into the mesh devices.
	watchdogStop := make(chan struct{})
	if daemonAddr != "" && stop == nil {
		if spec.Elastic {
			go elasticWatchdog(daemonAddr, spec.JobID, live, watchdogStop, func() {
				fmt.Fprintln(os.Stderr, "mpj slave: daemon unreachable, self-destructing")
				os.Exit(3)
			})
		} else {
			go func() {
				failures := 0
				tick := time.NewTicker(watchdogInterval)
				defer tick.Stop()
				for {
					select {
					case <-watchdogStop:
						return
					case <-tick.C:
						client, err := daemon.DialDaemon(daemonAddr)
						if err == nil {
							_, err = client.Ping()
							client.Close()
						}
						if err != nil {
							failures++
							if failures >= 3 {
								fmt.Fprintln(os.Stderr, "mpj slave: daemon unreachable, self-destructing")
								os.Exit(3)
							}
						} else {
							failures = 0
						}
					}
				}
			}()
		}
	}

	appErr := runApp(app, world, dev, stop)
	close(watchdogStop)

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
		live.closeSpawned(dev)
		respawn.close()
	}
	if appErr == nil && dev.RankFailed(dev.Rank()) {
		// This rank is condemned in its own registry (it announced its
		// own obituary, or a verdict reached it) yet unwound cleanly. Its
		// queued mesh obituaries may have died with its device, so exit
		// as a death, not a success: the daemon's exit verdict is the
		// reliable path that reaches every survivor, and the master
		// excuses the self-declared report once that verdict confirms it.
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
func runSpawnedSlave(spec daemon.SlaveSpec, daemonAddr string, app App, stop <-chan struct{}) error {
	dev, sc, err := joinMesh(spec)
	if err != nil {
		return err
	}
	defer sc.Close()
	live := newLiveTracker()
	live.register(spec.Epoch, spec.Rank, dev)
	go obitReader(sc, live)

	watchdogStop := make(chan struct{})
	defer close(watchdogStop)
	if daemonAddr != "" && stop == nil {
		go elasticWatchdog(daemonAddr, spec.JobID, live, watchdogStop, func() {
			fmt.Fprintln(os.Stderr, "mpj slave: daemon unreachable, self-destructing")
			os.Exit(3)
		})
	}

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
	live.closeSpawned(dev)
	respawn.close()
	_ = sc.ReportDone(appErr)
	return appErr
}

// runApp runs the application on world and returns its outcome. A
// cooperative stop (in-process slave simulations; nil never fires) closes
// the device so pending operations error out and the app unwinds.
func runApp(app App, world *Comm, dev *device.Device, stop <-chan struct{}) error {
	appDone := make(chan error, 1)
	go func() { appDone <- app(world) }()
	select {
	case err := <-appDone:
		return err
	case <-stop:
		dev.Close()
		return <-appDone
	}
}

// deviceOptions resolves a slave's device tuning. The eager/rendezvous
// threshold follows the same precedence as device selection: the spec
// (set by mpjrun -eager-limit or JobConfig.EagerLimit), then the
// MPJ_EAGER_LIMIT environment variable (a daemon- or host-wide default),
// then the built-in DefaultEagerLimit.
func deviceOptions(spec daemon.SlaveSpec) ([]device.Option, error) {
	limit := spec.EagerLimit
	if limit == 0 {
		var err error
		if limit, err = eagerLimitFromEnv(); err != nil {
			return nil, err
		}
	}
	if limit <= 0 {
		return nil, nil
	}
	return []device.Option{device.WithEagerLimit(limit)}, nil
}

// openTransport builds the transport a slave was asked for. Selection
// order: the spec's device (set by the client's -device flag or JobConfig),
// then the MPJ_DEVICE environment variable (a daemon- or host-wide
// default), then transport.DefaultDevice.
func openTransport(spec daemon.SlaveSpec, table job.Table, ln net.Listener) (transport.Transport, error) {
	sel := spec.Device
	if sel == "" {
		sel = os.Getenv("MPJ_DEVICE")
	}
	name, err := transport.ParseDeviceName(sel)
	if err != nil {
		return nil, err
	}
	switch name {
	case transport.DeviceTCP:
		return transport.NewTCPTransport(spec.Rank, spec.JobID, table.Addrs, ln)
	case transport.DeviceChan:
		// The multicore device: legal only when the whole job shares one
		// process, so frames never need a socket at all.
		self := transport.ProcessLocality()
		for r := 0; r < spec.Size; r++ {
			if r >= len(table.Locs) || table.Locs[r] != self {
				return nil, fmt.Errorf("mpj: device %q needs all ranks in one process; rank %d is not co-located with rank %d", name, r, spec.Rank)
			}
		}
		return transport.NewHybTransport(transport.HybConfig{
			Rank:  spec.Rank,
			JobID: spec.JobID,
			Locs:  table.Locs,
		})
	case transport.DeviceHyb:
		return transport.NewHybTransport(transport.HybConfig{
			Rank:     spec.Rank,
			JobID:    spec.JobID,
			Locs:     table.Locs,
			Addrs:    table.Addrs,
			Listener: ln,
		})
	}
	return nil, fmt.Errorf("mpj: unhandled device %q", name)
}

// NewFuncSpawner adapts RunSlave for in-process (goroutine) slaves: the
// hermetic slave mode used by tests and single-machine simulations. The
// daemon address is passed through so elastic jobs can place replacement
// slaves (Comm.Spawn), but the cooperative stop channel keeps the ping
// watchdog off — the daemon shares the process, it cannot silently die.
func NewFuncSpawner() daemon.FuncSpawner {
	return daemon.FuncSpawner{
		Run: func(spec daemon.SlaveSpec, daemonAddr string, stop <-chan struct{}) error {
			return RunSlave(spec, daemonAddr, stop)
		},
	}
}
