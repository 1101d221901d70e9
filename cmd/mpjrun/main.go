// mpjrun launches a parallel MPJ job — the paper's mpjrun program, whose
// "only required parameters should be the class name for the application
// and the number of processors":
//
//	mpjrun -np 8 -app heat2d -binary ./heat2d
//
// The binary must register the named application and call mpj.Main (all
// programs in examples/ follow this pattern). Daemons are found through
// the lookup service: by group discovery by default, or restricted to
// explicit registrars with -registrars.
//
// Slaves that all share one process build the channel mesh, all others
// the TCP mesh, which moves each pair of co-host processes' frames over
// the fastest medium their placement allows (see README "Devices");
// there is no device to choose.
//
// The job's tuning is resolved once, here in the client, and travels in
// every slave's spec, so all ranks run with the same values whatever
// their hosts' environments say: each flag, else the client's MPJ_*
// variable, else the default (see mpj.JobConfig). -eager-limit sets the
// devices' eager/rendezvous protocol threshold in bytes
// ($MPJ_EAGER_LIMIT). -prof enables the instrumentation layer on every
// slave: "counters" for the per-communicator counters behind
// Comm.ProfSnapshot, or "trace:<path-prefix>" to additionally write one
// Chrome trace_event JSON timeline per rank, resolved on each slave's
// host ($MPJ_PROF; see README "Observability"). The windows' epoch
// deadline comes from $MPJ_RMA_TIMEOUT. A malformed value fails the job
// before any daemon is contacted.
//
// -elastic switches the job to the elastic failure model: a dead slave
// surfaces as a typed ErrRankFailed on survivors (within the -liveness
// lease) instead of aborting the job, and the application recovers with
// Shrink/Spawn/Merge — see README "Elastic jobs". -connect-timeout makes
// daemon dials retry with exponential backoff and jitter until the
// deadline, tolerating daemons that restart mid-launch.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mpj"
)

func main() {
	np := flag.Int("np", 0, "number of processes (required)")
	app := flag.String("app", "", "registered application name (required)")
	binary := flag.String("binary", "", "slave executable (default: this binary)")
	eagerLimit := flag.Int("eager-limit", 0, "eager/rendezvous protocol threshold in bytes (default: $MPJ_EAGER_LIMIT, then 16384)")
	profSpec := flag.String("prof", "", "instrumentation on every slave: counters or trace:<path-prefix> (default: $MPJ_PROF, then off)")
	registrars := flag.String("registrars", "", "comma-separated registrar addresses (unicast discovery)")
	port := flag.Int("discovery-port", 0, "UDP discovery port when -registrars is empty")
	leaseDur := flag.Duration("lease", 10*time.Second, "job lease duration")
	elastic := flag.Bool("elastic", false, "elastic failure model: a dead slave raises ErrRankFailed on survivors instead of aborting the job (recover with Shrink/Spawn/Merge)")
	liveness := flag.Duration("liveness", 0, "per-rank liveness lease of elastic jobs (default: the daemon default, 10s)")
	connectTimeout := flag.Duration("connect-timeout", 0, "retry daemon dials with exponential backoff and jitter until this deadline (default: single attempt)")
	flag.Parse()

	if *np <= 0 || *app == "" {
		fmt.Fprintln(os.Stderr, "usage: mpjrun -np N -app NAME [-binary PATH] [args...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	var locators []string
	if *registrars != "" {
		locators = strings.Split(*registrars, ",")
	}
	err := mpj.Run(mpj.JobConfig{
		NP:         *np,
		App:        *app,
		Args:       flag.Args(),
		EagerLimit: *eagerLimit,
		Prof:       *profSpec,
		Locators:   locators,
		UDPPort:    *port,
		Binary:     *binary,
		LeaseDur:   *leaseDur,

		Elastic:        *elastic,
		LivenessDur:    *liveness,
		ConnectTimeout: *connectTimeout,
	})
	if err != nil {
		log.Fatalf("mpjrun: %v", err)
	}
	fmt.Printf("mpjrun: job %q on %d processes completed\n", *app, *np)
}
