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
// The transport every slave builds is selected with -device (chan | tcp |
// hyb), defaulting to the MPJ_DEVICE environment variable and then to the
// hybrid device, which routes co-located ranks over in-process channels
// and remote ranks over TCP. -eager-limit sets the devices'
// eager/rendezvous protocol threshold in bytes (default: the client's
// MPJ_EAGER_LIMIT environment variable, then each slave's own
// MPJ_EAGER_LIMIT, then the built-in default). -coll-alg forces the
// collective algorithm family on every slave (classic | ring | hier; auto
// restores size-based selection); it defaults to the
// client's MPJ_COLL_ALG and travels in the slave spec so all ranks agree,
// as collective schedules require.
//
// -prof enables the instrumentation layer on every slave: "counters" for
// the per-communicator counters behind Comm.ProfSnapshot, or
// "trace:<path-prefix>" to additionally write one Chrome trace_event JSON
// timeline per rank (resolved on each slave's host). It defaults to the
// client's MPJ_PROF and travels in the slave spec; see README
// "Observability".
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
	"mpj/internal/core"
	dev "mpj/internal/device"
	"mpj/internal/prof"
	"mpj/internal/transport"
)

func main() {
	np := flag.Int("np", 0, "number of processes (required)")
	app := flag.String("app", "", "registered application name (required)")
	binary := flag.String("binary", "", "slave executable (default: this binary)")
	device := flag.String("device", os.Getenv("MPJ_DEVICE"), "transport device: chan, tcp or hyb (default: $MPJ_DEVICE, then hyb)")
	eagerLimit := flag.Int("eager-limit", 0, "eager/rendezvous protocol threshold in bytes (default: $MPJ_EAGER_LIMIT, then each slave's default)")
	collAlg := flag.String("coll-alg", os.Getenv("MPJ_COLL_ALG"), "collective algorithm family: auto, classic, ring or hier (default: $MPJ_COLL_ALG, then auto)")
	profSpec := flag.String("prof", os.Getenv("MPJ_PROF"), "instrumentation on every slave: counters or trace:<path-prefix> (default: $MPJ_PROF, then off)")
	registrars := flag.String("registrars", "", "comma-separated registrar addresses (unicast discovery)")
	port := flag.Int("discovery-port", 0, "UDP discovery port when -registrars is empty")
	leaseDur := flag.Duration("lease", 10*time.Second, "job lease duration")
	elastic := flag.Bool("elastic", false, "elastic failure model: a dead slave raises ErrRankFailed on survivors instead of aborting the job (recover with Shrink/Spawn/Merge)")
	liveness := flag.Duration("liveness", 0, "per-rank liveness lease of elastic jobs (default: the daemon default, 10s)")
	connectTimeout := flag.Duration("connect-timeout", 0, "retry daemon dials with exponential backoff and jitter until this deadline (default: single attempt)")
	flag.Parse()

	if _, err := transport.ParseDeviceName(*device); err != nil {
		fmt.Fprintln(os.Stderr, "mpjrun:", err)
		os.Exit(2)
	}
	if *eagerLimit < 0 {
		fmt.Fprintln(os.Stderr, "mpjrun: -eager-limit must be non-negative")
		os.Exit(2)
	}
	// Like -device and $MPJ_DEVICE, an unset flag falls back to the
	// client's environment.
	if *eagerLimit == 0 {
		v, err := dev.ParseEagerLimit(os.Getenv("MPJ_EAGER_LIMIT"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpjrun: MPJ_EAGER_LIMIT:", err)
			os.Exit(2)
		}
		*eagerLimit = v
	}
	if _, err := core.ParseCollAlg(*collAlg); err != nil {
		fmt.Fprintln(os.Stderr, "mpjrun:", err)
		os.Exit(2)
	}
	if _, err := prof.ParseSpec(*profSpec); err != nil {
		fmt.Fprintln(os.Stderr, "mpjrun:", err)
		os.Exit(2)
	}

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
		Device:     *device,
		EagerLimit: *eagerLimit,
		CollAlg:    *collAlg,
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
