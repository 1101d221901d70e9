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
// -prof enables the instrumentation layer on every slave: "counters" for
// the per-communicator counters behind Comm.ProfSnapshot, or
// "trace:<path-prefix>" to additionally write one Chrome trace_event JSON
// timeline per rank, resolved on each slave's host (default $MPJ_PROF;
// see README "Observability"). It is resolved once, here in the client,
// and travels in every slave's spec; a malformed value fails the job
// before any daemon is contacted. Nothing else a rank runs with is a
// setting: the eager limit, the RMA epoch deadline and the daemon dial
// timeout are the runtime's constants.
//
// -elastic switches the job to the elastic failure model: a dead slave
// surfaces as a typed ErrRankFailed on survivors (within the -liveness
// lease) instead of aborting the job, and the application recovers with
// Shrink/Spawn/Merge — see README "Elastic jobs".
//
// mpjrun exits 0 when the job completes. A job that a rank ended with
// Comm.Abort(code) exits with code when it is 1 to 255; every other failed
// job, and an abort whose code is outside that range, exits 1. A usage
// error exits 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mpj"
)

func main() {
	np := flag.Int("np", 0, "number of processes (required)")
	app := flag.String("app", "", "registered application name (required)")
	binary := flag.String("binary", "", "slave executable (default: this binary)")
	profSpec := flag.String("prof", "", "instrumentation on every slave: counters or trace:<path-prefix> (default: $MPJ_PROF, then off)")
	registrars := flag.String("registrars", "", "comma-separated registrar addresses (unicast discovery)")
	port := flag.Int("discovery-port", 0, "UDP discovery port when -registrars is empty")
	leaseDur := flag.Duration("lease", 10*time.Second, "job lease duration")
	elastic := flag.Bool("elastic", false, "elastic failure model: a dead slave raises ErrRankFailed on survivors instead of aborting the job (recover with Shrink/Spawn/Merge)")
	liveness := flag.Duration("liveness", 0, "per-rank liveness lease of elastic jobs (default: the daemon default, 10s)")
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
		NP:       *np,
		App:      *app,
		Args:     flag.Args(),
		Prof:     *profSpec,
		Locators: locators,
		UDPPort:  *port,
		Binary:   *binary,
		LeaseDur: *leaseDur,

		Elastic:     *elastic,
		LivenessDur: *liveness,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpjrun: %v\n", err)
		os.Exit(exitStatus(err))
	}
	fmt.Printf("mpjrun: job %q on %d processes completed\n", *app, *np)
}

// exitStatus is the status of a job that failed with err: an abort's code
// when it is 1 to 255, else 1.
func exitStatus(err error) int {
	var rf *mpj.RankFailedError
	if errors.As(err, &rf) && rf.Aborted && rf.Code >= 1 && rf.Code <= 255 {
		return rf.Code
	}
	return 1
}
