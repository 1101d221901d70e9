// mpjd is the MPJ service daemon (the paper's MPJService): install one on
// every machine that may host MPJ slaves. It spawns slave processes on
// request, monitors them, forwards their output, raises MPJAbort events
// when they die, and reclaims them when job leases expire.
//
//	mpjd -registrars host1:4161,host2:4161
//	mpjd                         # group discovery on the default UDP port
//
// -prof-addr serves a JSON endpoint (GET /debug/vars) publishing the
// daemon's job/slave/lease state under "mpjd" and — because slaves spawned
// by this daemon inherit MPJ_PROF_ADDR only if set in its environment —
// any co-resident in-process instrumentation under "mpj". It defaults to
// the daemon's MPJ_PROF_ADDR environment variable; see README
// "Observability".
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"mpj/internal/daemon"
	"mpj/internal/lookup"
	"mpj/internal/prof"
)

func main() {
	registrars := flag.String("registrars", "", "comma-separated registrar addresses (unicast discovery)")
	port := flag.Int("discovery-port", lookup.DefaultDiscoveryPort, "UDP discovery port when -registrars is empty")
	leaseDur := flag.Duration("lease", 30*time.Second, "lookup registration lease duration")
	profAddr := flag.String("prof-addr", os.Getenv("MPJ_PROF_ADDR"), "serve the counters as JSON on GET /debug/vars at this address (default: $MPJ_PROF_ADDR, then off)")
	flag.Parse()

	var locators []string
	if *registrars != "" {
		locators = strings.Split(*registrars, ",")
	}
	found, err := lookup.Discover(locators, *port, 2*time.Second)
	if err != nil {
		log.Fatalf("mpjd: %v", err)
	}

	d, err := daemon.New()
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	if *profAddr != "" {
		prof.PublishMPJ()
		prof.Publish("mpjd", d.Vars)
		bound, err := prof.Serve(*profAddr)
		if err != nil {
			log.Fatalf("mpjd: -prof-addr: %v", err)
		}
		fmt.Printf("mpjd: /debug/vars endpoint on http://%s/debug/vars\n", bound)
	}
	if err := d.Announce(found, *leaseDur); err != nil {
		log.Fatalf("mpjd: %v", err)
	}
	fmt.Printf("mpjd: serving on %s, registered with %d lookup service(s)\n", d.Addr(), len(found))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("mpjd: shutting down")
}
