package bench

import (
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sync"
	"time"

	"mpj/internal/daemon"
	"mpj/internal/device"
	"mpj/internal/lookup"
	"mpj/internal/transport"
)

// E3ThreadEconomy verifies the paper's §3.5(1–2) claim empirically: the
// TCP device runs with exactly one receive goroutine per inbound
// connection. It builds real TCP meshes of increasing size and reports
// the goroutine budget per rank against the predicted formula.
func E3ThreadEconomy(nps []int) (*Table, error) {
	t := &Table{
		Title: "E3: goroutine economy of the TCP mesh (per rank: np-1 readers, np writers, 1 loopback)",
		Headers: []string{"np", "goroutines before", "after", "delta",
			"predicted (np ranks x 2np)", "per-rank readers"},
	}
	for _, np := range nps {
		runtime.GC()
		before := runtime.NumGoroutine()

		lns := make([]net.Listener, np)
		addrs := make([]string, np)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			lns[i] = ln
			addrs[i] = ln.Addr().String()
		}
		eps := make([]*transport.TCPTransport, np)
		var wg sync.WaitGroup
		errs := make([]error, np)
		for i := 0; i < np; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				eps[i], errs[i] = transport.NewTCPTransport(i, 1, addrs, lns[i])
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		devs := make([]*device.Device, np)
		for i, ep := range eps {
			d, err := device.Open(ep)
			if err != nil {
				return nil, err
			}
			devs[i] = d
		}
		// Let bootstrap goroutines settle.
		time.Sleep(50 * time.Millisecond)
		runtime.GC()
		after := runtime.NumGoroutine()

		for _, d := range devs {
			d.Close()
		}
		for _, ln := range lns {
			ln.Close()
		}

		delta := after - before
		// Per rank: np-1 reader goroutines (one per inbound connection,
		// the paper's requirement), np writer goroutines (one per peer
		// queue, incl. loopback).
		predicted := np * (2*np - 1)
		t.Rows = append(t.Rows, Row{
			fmt.Sprintf("%d", np),
			fmt.Sprintf("%d", before),
			fmt.Sprintf("%d", after),
			fmt.Sprintf("%d", delta),
			fmt.Sprintf("%d", predicted),
			fmt.Sprintf("%d", np-1),
		})
	}
	return t, nil
}

// F2DiscoverySpawn reproduces Figure 2 as a timed scenario: independent
// clients find MPJService daemons through the lookup service and each
// daemon spawns several slaves. It reports the time of each phase of job
// creation under the in-process slave runtime. slaveRun is invoked for
// every spawned slave (the bench cannot import the root package, so the
// caller supplies the slave body — cmd/mpjbench passes mpj.RunSlave).
func F2DiscoverySpawn(runSlave func(spec daemon.SlaveSpec, daemonAddr string, stop <-chan struct{}) error,
	jobFn func(locators []string) error) (*Table, error) {
	t := &Table{
		Title:   "F2: discovery, spawn and teardown phases (2 daemons, 4 slaves)",
		Headers: []string{"phase", "time"},
	}
	quiet := log.New(io.Discard, "", 0)

	start := time.Now()
	reg, err := lookup.NewRegistrar(0)
	if err != nil {
		return nil, err
	}
	defer reg.Close()
	regUp := time.Since(start)

	start = time.Now()
	var daemons []*daemon.Daemon
	for i := 0; i < 2; i++ {
		d, err := daemon.New(
			daemon.WithSpawner(daemon.FuncSpawner{Run: runSlave}),
			daemon.WithLogger(quiet),
		)
		if err != nil {
			return nil, err
		}
		defer d.Close()
		if err := d.Announce([]string{reg.Addr()}, time.Minute); err != nil {
			return nil, err
		}
		daemons = append(daemons, d)
	}
	announce := time.Since(start)

	start = time.Now()
	locators, err := lookup.Discover([]string{reg.Addr()}, 0, time.Second)
	if err != nil {
		return nil, err
	}
	client, err := lookup.Dial(locators[0])
	if err != nil {
		return nil, err
	}
	items, err := client.Lookup(lookup.Template{Type: daemon.ServiceType})
	client.Close()
	if err != nil {
		return nil, err
	}
	if len(items) != 2 {
		return nil, fmt.Errorf("lookup found %d daemons, want 2", len(items))
	}
	discovery := time.Since(start)

	start = time.Now()
	if err := jobFn([]string{reg.Addr()}); err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	jobTime := time.Since(start)

	start = time.Now()
	deadline := time.Now().Add(10 * time.Second)
	for daemons[0].SlaveCount()+daemons[1].SlaveCount() > 0 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("slaves not reaped")
		}
		time.Sleep(time.Millisecond)
	}
	teardown := time.Since(start)

	t.Rows = append(t.Rows, Row{"registrar start", fmtDur(regUp)})
	t.Rows = append(t.Rows, Row{"2 daemons announce", fmtDur(announce)})
	t.Rows = append(t.Rows, Row{"client discovery + lookup", fmtDur(discovery)})
	t.Rows = append(t.Rows, Row{"4-slave job spawn+run+finish", fmtDur(jobTime)})
	t.Rows = append(t.Rows, Row{"slave reap after job", fmtDur(teardown)})
	return t, nil
}

// E5AbortLatency measures how quickly one slave's death kills the whole
// job: the elapsed time between the crashing rank's failure and the
// client's Run returning an error. The paper's requirement is only that
// partial failure becomes total failure; the latency shows it is prompt.
func E5AbortLatency(runSlave func(spec daemon.SlaveSpec, daemonAddr string, stop <-chan struct{}) error,
	jobFn func(locators []string) error) (*Table, error) {
	t := &Table{
		Title:   "E5: partial failure -> total failure conversion (4 slaves, rank 1 crashes)",
		Headers: []string{"measure", "value"},
	}
	quiet := log.New(io.Discard, "", 0)
	reg, err := lookup.NewRegistrar(0)
	if err != nil {
		return nil, err
	}
	defer reg.Close()
	d, err := daemon.New(daemon.WithSpawner(daemon.FuncSpawner{Run: runSlave}), daemon.WithLogger(quiet))
	if err != nil {
		return nil, err
	}
	defer d.Close()
	if err := d.Announce([]string{reg.Addr()}, time.Minute); err != nil {
		return nil, err
	}

	aborts := 0
	recv, err := daemon.NewReceiver(func(ev daemon.Event) {
		if ev.Type == daemon.TypeAbort {
			aborts++
		}
	})
	if err != nil {
		return nil, err
	}
	defer recv.Close()

	start := time.Now()
	jobErr := jobFn([]string{reg.Addr()})
	elapsed := time.Since(start)
	if jobErr == nil {
		return nil, fmt.Errorf("crashing job reported success")
	}

	deadline := time.Now().Add(10 * time.Second)
	for d.SlaveCount() > 0 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("orphan slaves remain")
		}
		time.Sleep(time.Millisecond)
	}
	reap := time.Since(start)

	t.Rows = append(t.Rows, Row{"job start -> client sees failure", fmtDur(elapsed)})
	t.Rows = append(t.Rows, Row{"job start -> all slaves reaped", fmtDur(reap)})
	t.Rows = append(t.Rows, Row{"orphan slaves after abort", "0"})
	return t, nil
}
