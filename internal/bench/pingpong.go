package bench

import (
	"fmt"
	"sync"
	"time"

	"mpj/internal/core"
	"mpj/internal/device"
	"mpj/internal/transport"
	"mpj/internal/wire"
)

// TransportPingPong measures the raw channel-transport round trip: one
// frame each way per iteration, no device or matching engine — the floor
// of the F1 layer decomposition.
func TransportPingPong(size, iters int) (time.Duration, error) {
	eps := transport.NewChanMesh(2)
	sig0 := make(chan []byte, 1)
	sig1 := make(chan []byte, 1)
	eps[0].SetHandler(func(src int, frame []byte) { sig0 <- frame })
	eps[1].SetHandler(func(src int, frame []byte) { sig1 <- frame })
	for _, ep := range eps {
		if err := ep.Start(); err != nil {
			return 0, err
		}
	}
	defer eps[0].Close()
	defer eps[1].Close()

	// Echo goroutine for rank 1.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < iters; i++ {
			frame := <-sig1
			if err := eps[1].Send(0, frame); err != nil {
				return
			}
		}
	}()

	frame := wire.NewFrame(&wire.Header{Kind: wire.KindEager, Len: int32(size)}, make([]byte, size))
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := eps[0].Send(1, frame); err != nil {
			return 0, err
		}
		<-sig0
	}
	elapsed := time.Since(start)
	<-done
	return elapsed / time.Duration(iters), nil
}

// DevicePingPong measures the device-level round trip (isend/irecv with
// matching engine) over the channel mesh under the given protocol mode.
func DevicePingPong(size, iters, eagerLimit int, mode device.Mode) (time.Duration, error) {
	eps := transport.NewChanMesh(2)
	return DevicePingPongOver(eps[0], eps[1], size, iters, eagerLimit, mode)
}

// DevicePingPongOver is DevicePingPong over an arbitrary transport pair —
// the workhorse behind the PP device-comparison experiment. The devices
// take ownership of (and close) both transports.
func DevicePingPongOver(t0, t1 transport.Transport, size, iters, eagerLimit int, mode device.Mode) (time.Duration, error) {
	opts := []device.Option{}
	if eagerLimit >= 0 {
		opts = append(opts, device.WithEagerLimit(eagerLimit))
	}
	d0, err := device.Open(t0, opts...)
	if err != nil {
		return 0, err
	}
	defer d0.Close()
	d1, err := device.Open(t1, opts...)
	if err != nil {
		return 0, err
	}
	defer d1.Close()

	msg := make([]byte, size)
	errCh := make(chan error, 1)
	go func() { // echo side
		buf := make([]byte, size)
		for i := 0; i < iters; i++ {
			rr, err := d1.Irecv(buf, 0, 0, 0)
			if err != nil {
				errCh <- err
				return
			}
			if _, err := rr.Wait(); err != nil {
				errCh <- err
				return
			}
			sr, err := d1.Isend(buf, 0, 0, 0, mode)
			if err != nil {
				errCh <- err
				return
			}
			if _, err := sr.Wait(); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()

	buf := make([]byte, size)
	start := time.Now()
	for i := 0; i < iters; i++ {
		rr, err := d0.Irecv(buf, 1, 0, 0)
		if err != nil {
			return 0, err
		}
		sr, err := d0.Isend(msg, 1, 0, 0, mode)
		if err != nil {
			return 0, err
		}
		if _, err := sr.Wait(); err != nil {
			return 0, err
		}
		if _, err := rr.Wait(); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if err := <-errCh; err != nil {
		return 0, err
	}
	return elapsed / time.Duration(iters), nil
}

// runPair runs a 2-rank in-process job and hands each rank to fn.
func runPair(eagerLimit int, fn func(w *core.Comm) error) error {
	eps := transport.NewChanMesh(2)
	opts := []device.Option{}
	if eagerLimit >= 0 {
		opts = append(opts, device.WithEagerLimit(eagerLimit))
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := device.Open(eps[i], opts...)
			if err != nil {
				errs[i] = err
				return
			}
			defer d.Close()
			w, err := core.NewWorld(d)
			if err != nil {
				errs[i] = err
				return
			}
			if err := fn(w); err != nil {
				errs[i] = err
				return
			}
			errs[i] = w.Barrier()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CorePingPong measures the full-stack round trip through the MPJ API
// with the given datatype. bufFor builds a count-element buffer; count
// elements are sent each way.
func CorePingPong(dt core.Datatype, count, iters, eagerLimit int) (time.Duration, error) {
	var per time.Duration
	err := runPair(eagerLimit, func(w *core.Comm) error {
		buf := dt.Alloc(count)
		if w.Rank() == 0 {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := w.Send(buf, 0, count, dt, 1, 0); err != nil {
					return err
				}
				if _, err := w.Recv(buf, 0, count, dt, 1, 0); err != nil {
					return err
				}
			}
			per = time.Since(start) / time.Duration(iters)
			return nil
		}
		for i := 0; i < iters; i++ {
			if _, err := w.Recv(buf, 0, count, dt, 0, 0); err != nil {
				return err
			}
			if err := w.Send(buf, 0, count, dt, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	return per, err
}

// ModePingPong measures per-send-mode round trips through the MPJ API.
func ModePingPong(mode string, size, iters int) (time.Duration, error) {
	var per time.Duration
	err := runPair(-1, func(w *core.Comm) error {
		buf := make([]byte, size)
		send := func(dst, tag int) error {
			switch mode {
			case "standard":
				return w.Send(buf, 0, size, core.Byte, dst, tag)
			case "sync":
				return w.Ssend(buf, 0, size, core.Byte, dst, tag)
			case "ready":
				return w.Rsend(buf, 0, size, core.Byte, dst, tag)
			case "buffered":
				return w.Bsend(buf, 0, size, core.Byte, dst, tag)
			default:
				return fmt.Errorf("unknown mode %q", mode)
			}
		}
		if mode == "buffered" {
			if err := w.BufferAttach((size + 64) * 2); err != nil {
				return err
			}
			defer w.BufferDetach()
		}
		if w.Rank() == 0 {
			start := time.Now()
			for i := 0; i < iters; i++ {
				// Pre-post the reply receive so ready mode is legal.
				rr, err := w.Irecv(buf, 0, size, core.Byte, 1, 1)
				if err != nil {
					return err
				}
				if err := send(1, 0); err != nil {
					return err
				}
				if _, err := rr.Wait(); err != nil {
					return err
				}
			}
			per = time.Since(start) / time.Duration(iters)
			return nil
		}
		for i := 0; i < iters; i++ {
			if _, err := w.Recv(buf, 0, size, core.Byte, 0, 0); err != nil {
				return err
			}
			if err := send(0, 1); err != nil {
				return err
			}
		}
		return nil
	})
	return per, err
}

// F1LayerDecomposition builds the Figure-1 experiment: the cost of one
// round trip at each layer of the stack, per message size.
func F1LayerDecomposition(sizes []int) (*Table, error) {
	t := &Table{
		Title:   "F1: cost of one round trip at each architecture layer (Figure 1)",
		Headers: []string{"size", "transport", "device", "MPJ BYTE", "MPJ DOUBLE", "MPJ OBJECT"},
	}
	for _, size := range sizes {
		iters := itersFor(size)
		tr, err := TransportPingPong(size, iters)
		if err != nil {
			return nil, fmt.Errorf("transport %d: %w", size, err)
		}
		dev, err := DevicePingPong(size, iters, -1, device.ModeStandard)
		if err != nil {
			return nil, fmt.Errorf("device %d: %w", size, err)
		}
		byteT, err := CorePingPong(core.Byte, size, iters, -1)
		if err != nil {
			return nil, fmt.Errorf("byte %d: %w", size, err)
		}
		dblT, err := CorePingPong(core.Double, size/8+1, iters, -1)
		if err != nil {
			return nil, fmt.Errorf("double %d: %w", size, err)
		}
		objCount := size/8 + 1
		objIters := iters
		if objIters > 300 {
			objIters = 300 // serialization is slow; keep sweeps bounded
		}
		objT, err := objectPingPong(objCount, objIters)
		if err != nil {
			return nil, fmt.Errorf("object %d: %w", size, err)
		}
		t.Rows = append(t.Rows, Row{
			fmtSize(size), fmtDur(tr), fmtDur(dev), fmtDur(byteT), fmtDur(dblT), fmtDur(objT),
		})
	}
	return t, nil
}

// objectPingPong bounces count boxed float64s via OBJECT serialization.
func objectPingPong(count, iters int) (time.Duration, error) {
	var per time.Duration
	err := runPair(-1, func(w *core.Comm) error {
		buf := make([]any, count)
		for i := range buf {
			buf[i] = float64(i)
		}
		if w.Rank() == 0 {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := w.Send(buf, 0, count, core.Object, 1, 0); err != nil {
					return err
				}
				if _, err := w.Recv(buf, 0, count, core.Object, 1, 0); err != nil {
					return err
				}
			}
			per = time.Since(start) / time.Duration(iters)
			return nil
		}
		for i := 0; i < iters; i++ {
			if _, err := w.Recv(buf, 0, count, core.Object, 0, 0); err != nil {
				return err
			}
			if err := w.Send(buf, 0, count, core.Object, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	return per, err
}

// E1ProtocolCrossover compares forced-eager, forced-rendezvous and the
// auto threshold across message sizes (paper §3.5(3)).
func E1ProtocolCrossover(sizes []int) (*Table, error) {
	t := &Table{
		Title:   "E1: eager vs rendezvous protocol (device round trip)",
		Headers: []string{"size", "eager", "rendezvous", "auto(16KiB)", "winner"},
	}
	for _, size := range sizes {
		iters := itersFor(size)
		eager, err := DevicePingPong(size, iters, 1<<30, device.ModeStandard)
		if err != nil {
			return nil, err
		}
		rdv, err := DevicePingPong(size, iters, 0, device.ModeStandard)
		if err != nil {
			return nil, err
		}
		auto, err := DevicePingPong(size, iters, -1, device.ModeStandard)
		if err != nil {
			return nil, err
		}
		winner := "eager"
		if rdv < eager {
			winner = "rendezvous"
		}
		t.Rows = append(t.Rows, Row{
			fmtSize(size), fmtDur(eager), fmtDur(rdv), fmtDur(auto), winner,
		})
	}
	return t, nil
}

// E2ModeLatency compares the four MPI send modes built on the device's
// minimal operation set (paper §3.5(4)).
func E2ModeLatency(sizes []int) (*Table, error) {
	t := &Table{
		Title:   "E2: send-mode round trips through the full MPJ API",
		Headers: []string{"size", "standard", "sync", "ready", "buffered"},
	}
	for _, size := range sizes {
		iters := itersFor(size)
		row := Row{fmtSize(size)}
		for _, mode := range []string{"standard", "sync", "ready", "buffered"} {
			d, err := ModePingPong(mode, size, iters)
			if err != nil {
				return nil, fmt.Errorf("%s %d: %w", mode, size, err)
			}
			row = append(row, fmtDur(d))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// E7SerializationOverhead quantifies the §2 remark that marshalling is
// the pain point of pure-Java (here pure-Go) message passing: raw DOUBLE
// arrays vs gob OBJECT boxing, plus the raw serializer cost.
func E7SerializationOverhead(counts []int) (*Table, error) {
	t := &Table{
		Title:   "E7: primitive arrays vs object serialization (round trip, n float64)",
		Headers: []string{"elements", "DOUBLE", "OBJECT", "ratio", "gob encode only"},
	}
	for _, count := range counts {
		iters := itersFor(count * 8)
		dbl, err := CorePingPong(core.Double, count, iters, -1)
		if err != nil {
			return nil, err
		}
		objIters := iters
		if objIters > 200 {
			objIters = 200
		}
		obj, err := objectPingPong(count, objIters)
		if err != nil {
			return nil, err
		}
		// Serializer-only cost for the same payload: OBJECT's Pack, the gob
		// encode and one append.
		elems := make([]any, count)
		for i := range elems {
			elems[i] = float64(i)
		}
		start := time.Now()
		const encIters = 50
		for i := 0; i < encIters; i++ {
			if _, err := core.Object.Pack(nil, elems, 0, count); err != nil {
				return nil, err
			}
		}
		encT := time.Since(start) / encIters
		ratio := float64(obj) / float64(dbl)
		t.Rows = append(t.Rows, Row{
			fmt.Sprintf("%d", count), fmtDur(dbl), fmtDur(obj),
			fmt.Sprintf("%.1fx", ratio), fmtDur(encT),
		})
	}
	return t, nil
}

// A2EagerThresholdSweep measures the auto protocol at one message size
// under different eager limits — the ablation for the threshold choice.
func A2EagerThresholdSweep(size int, limits []int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("A2: eager-limit ablation (%s device round trip)", fmtSize(size)),
		Headers: []string{"eager limit", "protocol taken", "latency"},
	}
	for _, limit := range limits {
		iters := itersFor(size)
		d, err := DevicePingPong(size, iters, limit, device.ModeStandard)
		if err != nil {
			return nil, err
		}
		proto := "rendezvous"
		if size <= limit {
			proto = "eager"
		}
		t.Rows = append(t.Rows, Row{fmtSize(limit), proto, fmtDur(d)})
	}
	return t, nil
}
