package main

// The layer ladder: the same two probes — one hop of a 4 KiB and of a
// 1 MiB message — driven in-process at each layer's public boundary, over
// both bottom layers (the channel mesh and a TCP mesh on loopback). A
// rung's cost minus the cost of the rung below is that layer's own share
// of the hop (the paper's Figure 1 read as a budget). Around the ladder sit
// the prices of single mechanisms: a frame through `wire`, Pack/Unpack, a
// Put and a Fence, a mesh set-up, a job launch.
//
// Everything here calls public functions from the outside; nothing inside
// the library is instrumented.

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpj"
	"mpj/internal/core"
	"mpj/internal/daemon"
	"mpj/internal/device"
	"mpj/internal/lookup"
	"mpj/internal/transport"
	"mpj/internal/wire"
)

// ladderReps is how many times each ladder measurement repeats; every
// reported value is the median of that many. ladderDiv divides every
// iteration count of the ladder. Only the smoke test changes either.
var (
	ladderReps = 10
	ladderDiv  = 1
)

// iters scales an iteration count of the ladder.
func iters(n int) int { return max(n/ladderDiv, 2) }

// probe is one message size of the ladder with its round trips per rep,
// sized so that a rep takes a few tens of milliseconds on either bottom.
type probe struct {
	name   string
	bytes  int
	trips  map[string]int // by bottom
	frames int            // wire round trips per rep
}

var probes = []probe{
	{name: "4k", bytes: 4 << 10, trips: map[string]int{"chan": 8000, "tcp": 800}, frames: 20000},
	{name: "1m", bytes: 1 << 20, trips: map[string]int{"chan": 60, "tcp": 12}, frames: 100},
}

var bottoms = []string{"chan", "tcp"}

// rungs of the ladder, bottom first.
var rungs = []string{"transport", "device", "core", "mpj"}

// ladderCtx is the device context the device rung talks on; the world
// communicators built over the same devices own contexts 0 and 1.
const ladderCtx = 1000

// ladderJobSeq gives every TCP mesh of the ladder its own job id, which
// the mesh handshake checks.
var ladderJobSeq atomic.Uint64

// layerMetric is one per-layer number of the ladder: a stat with the
// layer it prices.
type layerMetric struct {
	Name  string `json:"name"`
	Layer string `json:"layer"`
	stat
	// Clamped marks a self time whose two rungs crossed; it reads 0.
	Clamped bool `json:"clamped,omitempty"`
}

// ladderResult is everything the ladder measured.
type ladderResult struct {
	Metrics []layerMetric `json:"metrics"`
}

func (l *ladderResult) add(m layerMetric) { l.Metrics = append(l.Metrics, m) }

func (l *ladderResult) addSamples(name, layer, unit string, samples []float64) {
	l.add(layerMetric{Name: name, Layer: layer, stat: statOf(unit, samples)})
}

// find returns the named metric, or a zero one.
func (l *ladderResult) find(name string) layerMetric {
	for _, m := range l.Metrics {
		if m.Name == name {
			return m
		}
	}
	return layerMetric{}
}

// newMesh builds an unstarted np-endpoint mesh of the named bottom.
// cleanup releases what the transports do not own (TCP listeners) and is
// called after the transports are closed.
func newMesh(bottom string, np int) (eps []transport.Transport, cleanup func(), err error) {
	switch bottom {
	case "chan":
		for _, ep := range transport.NewChanMesh(np) {
			eps = append(eps, ep)
		}
		return eps, func() {}, nil
	case "tcp":
		lns := make([]net.Listener, 0, np)
		cleanup = func() {
			for _, ln := range lns {
				ln.Close()
			}
		}
		addrs := make([]string, np)
		for i := 0; i < np; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			lns = append(lns, ln)
			addrs[i] = ln.Addr().String()
		}
		jobID := 0xbe9c<<48 | ladderJobSeq.Add(1)
		tcps := make([]*transport.TCPTransport, np)
		errs := make([]error, np)
		var wg sync.WaitGroup
		for i := 0; i < np; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tcps[i], errs[i] = transport.NewTCPTransport(i, jobID, addrs, lns[i])
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				for _, t := range tcps {
					if t != nil {
						t.Abort()
					}
				}
				cleanup()
				return nil, nil, err
			}
		}
		for _, t := range tcps {
			eps = append(eps, t)
		}
		return eps, cleanup, nil
	}
	return nil, nil, fmt.Errorf("no mesh for bottom %q", bottom)
}

// worlds opens a device and a world communicator on every endpoint.
func worlds(eps []transport.Transport) ([]*device.Device, []*core.Comm, error) {
	devs := make([]*device.Device, len(eps))
	comms := make([]*core.Comm, len(eps))
	for i, ep := range eps {
		d, err := device.Open(ep)
		if err != nil {
			for _, d := range devs[:i] {
				d.Abort()
			}
			return nil, nil, err
		}
		devs[i] = d
		if comms[i], err = core.NewWorld(d); err != nil {
			for _, d := range devs[:i+1] {
				d.Abort()
			}
			return nil, nil, err
		}
	}
	return devs, comms, nil
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// together runs one function per rank concurrently and returns the first
// error. f(0) runs on the caller's goroutine, where the timing is.
func together(np int, f func(rank int) error) error {
	errs := make([]error, np)
	var wg sync.WaitGroup
	for r := 1; r < np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = f(r)
		}(r)
	}
	errs[0] = f(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// roundTrips times n round trips: ping is rank 0's half (send, then
// receive the echo), pong rank 1's (receive, then echo). A tenth of n
// runs first, untimed. It returns nanoseconds per hop — half a round trip.
func roundTrips(n int, ping, pong func() error) (float64, error) {
	warm := max(n/10, 1)
	var took time.Duration
	err := together(2, func(rank int) error {
		if rank == 1 {
			for i := 0; i < warm+n; i++ {
				if err := pong(); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < warm; i++ {
			if err := ping(); err != nil {
				return err
			}
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := ping(); err != nil {
				return err
			}
		}
		took = time.Since(start)
		return nil
	})
	return float64(took) / float64(2*n), err
}

// wireFrames prices one frame through `wire` alone: header encode and
// pooled copy (NewFrame), length-prefixed write, read back into a pooled
// buffer, both buffers returned — through memory, no transport.
func wireFrames(l *ladderResult, pr probe) {
	payload := make([]byte, pr.bytes)
	var pipe bytes.Buffer
	pipe.Grow(pr.bytes + wire.HeaderLen + 8)
	h := wire.Header{Kind: wire.KindEager, Src: 0, Tag: 1, Len: int32(pr.bytes)}
	one := func() error {
		h.Seq++
		frame := wire.NewFrame(&h, payload)
		pipe.Reset()
		if err := wire.WriteFrame(&pipe, frame); err != nil {
			return err
		}
		wire.PutBuf(frame)
		back, err := wire.ReadFrame(&pipe)
		if err != nil {
			return err
		}
		wire.PutBuf(back)
		return nil
	}
	var ns, allocs []float64
	frames := iters(pr.frames)
	for rep := 0; rep < ladderReps; rep++ {
		for i := 0; i < frames/10; i++ {
			_ = one() // writes to memory cannot fail
		}
		m0 := mallocs()
		start := time.Now()
		for i := 0; i < frames; i++ {
			_ = one()
		}
		took := time.Since(start)
		ns = append(ns, float64(took)/float64(frames))
		allocs = append(allocs, float64(mallocs()-m0)/float64(frames))
	}
	l.addSamples("wire.frame_ns."+pr.name, "wire", "ns", ns)
	l.addSamples("wire.allocs_per_frame."+pr.name, "wire", "count", allocs)
}

// transportRung measures a hop at the transport boundary over a fresh
// mesh: rank 0 sends a pooled frame, rank 1's handler sends the frame it
// was handed straight back, rank 0's handler releases it.
func transportRung(bottom string, pr probe) (hop, allocs float64, err error) {
	eps, cleanup, err := newMesh(bottom, 2)
	if err != nil {
		return 0, 0, err
	}
	defer cleanup()
	back := make(chan struct{}, 1)
	eps[0].SetHandler(func(src int, frame []byte) {
		wire.PutBuf(frame)
		back <- struct{}{}
	})
	var echoErr atomic.Value
	eps[1].SetHandler(func(src int, frame []byte) {
		if err := eps[1].Send(0, frame); err != nil {
			echoErr.Store(err)
		}
	})
	for _, ep := range eps {
		if err := ep.Start(); err != nil {
			return 0, 0, err
		}
		defer ep.Close()
	}
	payload := make([]byte, pr.bytes)
	h := wire.Header{Kind: wire.KindEager, Src: 0, Tag: 1, Len: int32(pr.bytes)}
	trip := func() error {
		if err := eps[0].Send(1, wire.NewFrame(&h, payload)); err != nil {
			return err
		}
		select {
		case <-back:
			return nil
		case <-time.After(jobDeadline):
			return fmt.Errorf("transport echo over %s: %w", bottom, errDeadline)
		}
	}
	n := iters(pr.trips[bottom])
	for i := 0; i < max(n/10, 1); i++ {
		if err := trip(); err != nil {
			return 0, 0, err
		}
	}
	m0 := mallocs()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := trip(); err != nil {
			return 0, 0, err
		}
	}
	took := time.Since(start)
	if err, _ := echoErr.Load().(error); err != nil {
		return 0, 0, err
	}
	return float64(took) / float64(2*n), float64(mallocs()-m0) / float64(2*n), nil
}

// upperRungs measures the device, core and mpj rungs one after the other
// over one fresh mesh, so that whatever differs between two meshes (which
// connection got which core) cancels out of their differences.
func upperRungs(bottom string, pr probe) (hops map[string]float64, devAllocs float64, err error) {
	eps, cleanup, err := newMesh(bottom, 2)
	if err != nil {
		return nil, 0, err
	}
	defer cleanup()
	devs, comms, err := worlds(eps)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		for _, d := range devs {
			d.Close()
		}
	}()
	n, size := iters(pr.trips[bottom]), pr.bytes
	msg, got, echo := make([]byte, size), make([]byte, size), make([]byte, size)
	d0, d1, w0, w1 := devs[0], devs[1], comms[0], comms[1]

	type rung struct {
		name       string
		ping, pong func() error
	}
	ladder := []rung{
		{"device", func() error {
			rr, err := d0.Irecv(got, 1, 1, ladderCtx)
			if err != nil {
				return err
			}
			sr, err := d0.Isend(msg, 1, 1, ladderCtx, device.ModeStandard)
			if err != nil {
				return err
			}
			if _, err := sr.Wait(); err != nil {
				return err
			}
			_, err = rr.Wait()
			return err
		}, func() error {
			rr, err := d1.Irecv(echo, 0, 1, ladderCtx)
			if err != nil {
				return err
			}
			if _, err := rr.Wait(); err != nil {
				return err
			}
			sr, err := d1.Isend(echo, 0, 1, ladderCtx, device.ModeStandard)
			if err != nil {
				return err
			}
			_, err = sr.Wait()
			return err
		}},
		{"core", func() error {
			if err := w0.Send(msg, 0, size, core.Byte, 1, 1); err != nil {
				return err
			}
			_, err := w0.Recv(got, 0, size, core.Byte, 1, 1)
			return err
		}, func() error {
			if _, err := w1.Recv(echo, 0, size, core.Byte, 0, 1); err != nil {
				return err
			}
			return w1.Send(echo, 0, size, core.Byte, 0, 1)
		}},
		{"mpj", func() error {
			if err := mpj.Send(w0, msg, 1, 1); err != nil {
				return err
			}
			_, err := mpj.Recv(w0, got, 1, 1)
			return err
		}, func() error {
			if _, err := mpj.Recv(w1, echo, 0, 1); err != nil {
				return err
			}
			return mpj.Send(w1, echo, 0, 1)
		}},
	}
	hops = make(map[string]float64)
	for _, r := range ladder {
		m0 := mallocs()
		hop, err := roundTrips(n, r.ping, r.pong)
		if err != nil {
			return nil, 0, fmt.Errorf("%s rung over %s: %w", r.name, bottom, err)
		}
		if r.name == "device" {
			// Warm-up round trips are in the count too.
			devAllocs = float64(mallocs()-m0) / float64(2*(n+max(n/10, 1)))
		}
		hops[r.name] = hop
	}
	return hops, devAllocs, nil
}

// hopLadder fills in every hop_ns and self_ns of one probe over one
// bottom. Every rep builds its meshes afresh, so the medians are over
// meshes as well as over time.
func hopLadder(l *ladderResult, rec *recorder, bottom string, pr probe) error {
	suffix := "." + bottom + "." + pr.name
	hops := make(map[string][]float64)
	var trAllocs, devAllocs []float64
	for rep := 0; rep < ladderReps; rep++ {
		hop, allocs, err := transportRung(bottom, pr)
		if err != nil {
			return err
		}
		hops["transport"] = append(hops["transport"], hop)
		trAllocs = append(trAllocs, allocs)
		upper, allocs, err := upperRungs(bottom, pr)
		if err != nil {
			return err
		}
		for r, hop := range upper {
			hops[r] = append(hops[r], hop)
		}
		devAllocs = append(devAllocs, allocs)
	}
	for _, r := range rungs {
		l.addSamples(r+".hop_ns"+suffix, r, "ns", hops[r])
	}
	if bottom == "tcp" && pr.name == "4k" {
		l.addSamples("transport.allocs_per_hop.tcp.4k", "transport", "count", trAllocs)
	}
	if bottom == "chan" && pr.name == "4k" {
		l.addSamples("device.allocs_per_hop.chan.4k", "device", "count", devAllocs)
	}
	// Self time from the reported medians, so that the rungs' self times
	// and the bottom rung add up to the top rung by construction; the
	// quartiles beside it are of the per-rep differences.
	chain := make([]float64, len(rungs))
	for i, r := range rungs {
		chain[i] = l.find(r + ".hop_ns" + suffix).Value
		if i == 0 {
			continue
		}
		self, clamped := selfTime(chain[i], chain[i-1])
		diffs := make([]float64, ladderReps)
		for k := range diffs {
			diffs[k] = hops[r][k] - hops[rungs[i-1]][k]
		}
		m := layerMetric{Name: r + ".self_ns" + suffix, Layer: r, stat: statOf("ns", diffs), Clamped: clamped}
		m.Value = self
		if clamped {
			m.Note = fmt.Sprintf("CLAMPED to 0: rung %.0f ns is below the rung under it, %.0f ns: the difference is inside the noise", chain[i], chain[i-1])
		}
		l.add(m)
	}
	// One derived span per rung, each the child of the rung above and as
	// long as that rung's median hop: self time is a span minus its child.
	parent := 0
	for i := len(rungs) - 1; i >= 0; i-- {
		parent = rec.derived("hop"+suffix, rungs[i], parent, chain[i])
	}
	return nil
}

// allreduceNoSockets prices the schedule engine alone: the allreduce1m
// operation on four goroutine ranks over the channel mesh.
func allreduceNoSockets(l *ladderResult) error {
	const np = 4
	ops := iters(6)
	eps, cleanup, err := newMesh("chan", np)
	if err != nil {
		return err
	}
	defer cleanup()
	devs, comms, err := worlds(eps)
	if err != nil {
		return err
	}
	defer func() {
		for _, d := range devs {
			d.Close()
		}
	}()
	in := make([][]float64, np)
	out := make([][]float64, np)
	for r := range in {
		in[r] = make([]float64, reduceCount)
		out[r] = make([]float64, reduceCount)
		for i := range in[r] {
			in[r][i] = float64(r + i%7)
		}
	}
	var samples []float64
	for rep := 0; rep < ladderReps+1; rep++ {
		var took time.Duration
		err := together(np, func(r int) error {
			start := time.Now()
			for i := 0; i < ops; i++ {
				if err := comms[r].Allreduce(in[r], 0, out[r], 0, reduceCount, core.Double, core.SumOp); err != nil {
					return err
				}
			}
			if r == 0 {
				took = time.Since(start)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if rep > 0 { // the first rep warms the pools
			samples = append(samples, float64(took)/float64(ops))
		}
	}
	l.addSamples("core.allreduce_ns.chan.1m.np4", "core", "ns", samples)
	return nil
}

// packDoubles prices Pack plus Unpack of the allreduce vector.
func packDoubles(l *ladderResult) error {
	ops := iters(20)
	src := make([]float64, reduceCount)
	dst := make([]float64, reduceCount)
	for i := range src {
		src[i] = float64(i)
	}
	var packed []byte
	var samples []float64
	for rep := 0; rep < ladderReps+1; rep++ {
		start := time.Now()
		for i := 0; i < ops; i++ {
			var err error
			if packed, err = core.Pack(packed[:0], src, 0, reduceCount, core.Double); err != nil {
				return err
			}
			if _, err := core.Unpack(packed, dst, 0, reduceCount, core.Double); err != nil {
				return err
			}
		}
		if rep > 0 {
			samples = append(samples, float64(time.Since(start))/float64(ops))
		}
	}
	if dst[reduceCount-1] != src[reduceCount-1] {
		return fmt.Errorf("pack/unpack round trip lost data")
	}
	l.addSamples("core.pack_ns.1m", "core", "ns", samples)
	return nil
}

// putAndFence prices the one-sided pieces apart: an empty-epoch Fence,
// and a 4 KiB Put as the epoch with it minus the epoch without.
func putAndFence(l *ladderResult) error {
	epochs := iters(4000)
	eps, cleanup, err := newMesh("chan", 2)
	if err != nil {
		return err
	}
	defer cleanup()
	devs, comms, err := worlds(eps)
	if err != nil {
		return err
	}
	defer func() {
		for _, d := range devs {
			d.Close()
		}
	}()
	wins := make([]*core.Win, 2)
	bufs := [][]byte{make([]byte, 4<<10), make([]byte, 4<<10)}
	if err := together(2, func(r int) (err error) {
		wins[r], err = comms[r].WinCreate(bufs[r], 1)
		return err
	}); err != nil {
		return err
	}
	payload := [][]byte{make([]byte, 4<<10), make([]byte, 4<<10)}
	loop := func(put bool) (float64, error) {
		var took time.Duration
		err := together(2, func(r int) error {
			start := time.Now()
			for i := 0; i < epochs; i++ {
				if put {
					if err := wins[r].Put(payload[r], 0, 4<<10, core.Byte, 1-r, 0); err != nil {
						return err
					}
				}
				if err := wins[r].Fence(); err != nil {
					return err
				}
			}
			if r == 0 {
				took = time.Since(start)
			}
			return nil
		})
		return float64(took) / float64(epochs), err
	}
	var fence, epoch []float64
	for rep := 0; rep < ladderReps+1; rep++ {
		f, err := loop(false)
		if err != nil {
			return err
		}
		e, err := loop(true)
		if err != nil {
			return err
		}
		if rep > 0 {
			fence, epoch = append(fence, f), append(epoch, e)
		}
	}
	if err := together(2, func(r int) error { return wins[r].Free() }); err != nil {
		return err
	}
	l.addSamples("core.fence_ns.chan", "core", "ns", fence)
	put, clamped := selfTime(median(epoch), median(fence))
	diffs := make([]float64, len(epoch))
	for i := range diffs {
		diffs[i] = epoch[i] - fence[i]
	}
	m := layerMetric{Name: "core.put_ns.chan.4k", Layer: "core", stat: statOf("ns", diffs), Clamped: clamped}
	m.Value, m.Note = put, "Put+Fence epoch minus empty-epoch Fence"
	if clamped {
		m.Note = "CLAMPED to 0: the " + m.Note + " came out negative"
	}
	l.add(m)
	return nil
}

// meshSetup prices building and starting a 4-rank TCP mesh on loopback.
func meshSetup(l *ladderResult) error {
	var samples []float64
	for rep := 0; rep < ladderReps; rep++ {
		start := time.Now()
		eps, cleanup, err := newMesh("tcp", 4)
		if err != nil {
			return err
		}
		for _, ep := range eps {
			ep.SetHandler(func(int, []byte) {})
			if err := ep.Start(); err != nil {
				return err
			}
		}
		samples = append(samples, float64(time.Since(start))/1e6)
		for _, ep := range eps {
			ep.Close()
		}
		cleanup()
	}
	l.addSamples("transport.mesh_setup_ms.tcp.np4", "transport", "ms", samples)
	return nil
}

// jobPhases prices the control plane with an application that does
// nothing: discovery, launch, the first barrier and teardown, for process
// slaves and for goroutine slaves.
func jobPhases(l *ladderResult, rec *recorder, dir string) error {
	noop := workload{Name: "noop", NP: 2, Kind: "noop", Ops: 2, Batch: 1}
	for _, placement := range []string{"proc", "func"} {
		noop.Proc = placement == "proc"
		p, _, err := noop.prepare(0, dir)
		if err != nil {
			return err
		}
		s, err := newStack(noop.Proc)
		if err != nil {
			return err
		}
		var launch, barrier, teardown []float64
		for i := 0; i < ladderReps/2+1; i++ {
			r, err := s.runRep(noop, p, "")
			if err == nil && r.Err != "" {
				err = fmt.Errorf("%s", r.Err)
			}
			if err != nil {
				s.close()
				return fmt.Errorf("noop job (%s slaves): %w", placement, err)
			}
			if i == 0 {
				continue // the first launch pages the binary in
			}
			rec.jobSpans("noop."+placement, 0, i, r)
			launch = append(launch, r.LaunchS*1e3)
			barrier = append(barrier, (r.SetupS-r.LaunchS)*1e3)
			teardown = append(teardown, r.Teardown*1e3)
		}
		if placement == "proc" {
			var discover []float64
			for i := 0; i < 2*ladderReps; i++ {
				start := time.Now()
				if err := discoverDaemons(s.reg.Addr()); err != nil {
					s.close()
					return err
				}
				discover = append(discover, float64(time.Since(start))/1e6)
			}
			l.addSamples("lookup.discover_ms", "job", "ms", discover)
		}
		s.close()
		l.addSamples("job.launch_ms."+placement, "job", "ms", launch)
		l.addSamples("job.first_barrier_ms."+placement, "job", "ms", barrier)
		l.addSamples("job.teardown_ms."+placement, "job", "ms", teardown)
	}
	return nil
}

// discoverDaemons is the discovery step of a job launch: resolve the
// registrars, ask one for the MPJ daemons it knows.
func discoverDaemons(locator string) error {
	regs, err := lookup.Discover([]string{locator}, 0, time.Second)
	if err != nil {
		return err
	}
	c, err := lookup.Dial(regs[0])
	if err != nil {
		return err
	}
	defer c.Close()
	items, err := c.Lookup(lookup.Template{Type: daemon.ServiceType})
	if err != nil {
		return err
	}
	if len(items) == 0 {
		return fmt.Errorf("registrar %s knows no daemon", locator)
	}
	return nil
}

// haloSpeedup compares a short halo solve on four goroutine ranks with
// the plain single-threaded solve of the same plate.
func haloSpeedup(l *ladderResult, seed int64, dir string) error {
	w, _ := findWorkload("halo_chan")
	w = w.scaled(10 * ladderDiv)
	p, ref, err := w.prepare(seed, dir)
	if err != nil {
		return err
	}
	s, err := newStack(false)
	if err != nil {
		return err
	}
	defer s.close()
	var speedups []float64
	// The reference timed warm-up and steps alike; so must the job.
	perStep := ref.Took.Seconds() / float64(ref.Steps)
	for i := 0; i < 3; i++ {
		r, err := s.runRep(w, p, "")
		if err == nil && r.Err != "" {
			err = fmt.Errorf("%s", r.Err)
		}
		if err == nil && r.Result.Failed > 0 {
			err = fmt.Errorf("%d of %d steps failed verification", r.Result.Failed, r.Result.Ops)
		}
		if err != nil {
			return fmt.Errorf("halo speed-up probe: %w", err)
		}
		speedups = append(speedups, perStep*float64(r.Result.Ops)/(float64(r.Result.WallNs)/1e9))
	}
	l.addSamples("mpj.halo_speedup_np4", "mpj", "ratio", speedups)
	return nil
}

// runLadder measures every workload-independent per-layer metric.
func runLadder(rec *recorder, seed int64, dir string) (*ladderResult, error) {
	l := &ladderResult{}
	for _, pr := range probes {
		wireFrames(l, pr)
	}
	for _, bottom := range bottoms {
		for _, pr := range probes {
			if err := hopLadder(l, rec, bottom, pr); err != nil {
				return nil, fmt.Errorf("ladder %s.%s: %w", bottom, pr.name, err)
			}
		}
	}
	for _, step := range []func(*ladderResult) error{meshSetup, allreduceNoSockets, packDoubles, putAndFence} {
		if err := step(l); err != nil {
			return nil, err
		}
	}
	if err := jobPhases(l, rec, dir); err != nil {
		return nil, err
	}
	if err := haloSpeedup(l, seed, dir); err != nil {
		return nil, err
	}
	return l, nil
}
