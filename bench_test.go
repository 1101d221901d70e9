package mpj

// Benchmarks regenerating the mpjbench experiment tables as testing.B
// targets (one family per table/figure; `mpjbench -exp <name>` prints the
// same results as formatted tables):
//
//	F1 — layer decomposition of a round trip (Figure 1)
//	E1 — eager vs rendezvous protocol (paper §3.5(3))
//	E2 — send modes built on the minimal device ops (§3.5(4))
//	E4 — collective scaling (high-level layer)
//	E7 — object serialization overhead (§2)
//	A2 — eager threshold ablation
//	F2 — full job lifecycle through daemons (Figure 2)
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"io"
	"log"
	"sync"
	"testing"
	"time"

	"mpj/internal/bench"
	"mpj/internal/core"
	"mpj/internal/daemon"
	"mpj/internal/device"
	"mpj/internal/lookup"
	"mpj/internal/transport"
	"mpj/internal/wire"
)

// benchQuietLogger silences daemon logs during benchmarks.
func benchQuietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// benchSizes is the message-size sweep for the latency benchmarks.
var benchSizes = []int{64, 4096, 65536}

const stopTag = 99

// echoPair is a 2-rank in-process session whose rank 1 echoes every
// message back until it receives the stop sentinel.
type echoPair struct {
	w0    *core.Comm
	devs  []*device.Device
	wg    sync.WaitGroup
	count int
	dt    core.Datatype
}

func newEchoPair(b *testing.B, eagerLimit, count int, dt core.Datatype) *echoPair {
	b.Helper()
	eps := transport.NewChanMesh(2)
	var opts []device.Option
	if eagerLimit >= 0 {
		opts = append(opts, device.WithEagerLimit(eagerLimit))
	}
	p := &echoPair{count: count, dt: dt}
	worlds := make([]*core.Comm, 2)
	for i := 0; i < 2; i++ {
		d, err := device.Open(eps[i], opts...)
		if err != nil {
			b.Fatal(err)
		}
		w, err := core.NewWorld(d)
		if err != nil {
			b.Fatal(err)
		}
		p.devs = append(p.devs, d)
		worlds[i] = w
	}
	p.w0 = worlds[0]
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		w1 := worlds[1]
		buf := dt.Alloc(count)
		for {
			st, err := w1.Recv(buf, 0, count, dt, 0, core.AnyTag)
			if err != nil {
				return
			}
			if st.Tag == stopTag {
				return
			}
			if err := w1.Send(buf, 0, count, dt, 0, 0); err != nil {
				return
			}
		}
	}()
	return p
}

func (p *echoPair) close(b *testing.B) {
	b.Helper()
	buf := p.dt.Alloc(p.count)
	if err := p.w0.Send(buf, 0, 0, p.dt, 1, stopTag); err != nil {
		b.Fatal(err)
	}
	p.wg.Wait()
	for _, d := range p.devs {
		d.Close()
	}
}

// roundTrips drives b.N full-API round trips of count elements of dt.
func roundTrips(b *testing.B, eagerLimit, count int, dt core.Datatype, bytes int) {
	b.Helper()
	p := newEchoPair(b, eagerLimit, count, dt)
	buf := dt.Alloc(count)
	b.SetBytes(int64(2 * bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.w0.Send(buf, 0, count, dt, 1, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := p.w0.Recv(buf, 0, count, dt, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	p.close(b)
}

// BenchmarkF1Transport measures the raw channel-transport round trip —
// the bottom layer of Figure 1.
func BenchmarkF1Transport(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			eps := transport.NewChanMesh(2)
			sig0 := make(chan []byte, 1)
			sig1 := make(chan []byte, 1)
			eps[0].SetHandler(func(src int, frame []byte) { sig0 <- frame })
			eps[1].SetHandler(func(src int, frame []byte) { sig1 <- frame })
			for _, ep := range eps {
				if err := ep.Start(); err != nil {
					b.Fatal(err)
				}
			}
			defer eps[0].Close()
			defer eps[1].Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					frame, ok := <-sig1
					if !ok {
						return
					}
					if eps[1].Send(0, frame) != nil {
						return
					}
				}
			}()
			frame := wire.NewFrame(&wire.Header{Kind: wire.KindEager, Len: int32(size)}, make([]byte, size))
			b.SetBytes(int64(2 * size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eps[0].Send(1, frame); err != nil {
					b.Fatal(err)
				}
				<-sig0
			}
			b.StopTimer()
			close(sig1)
			<-done
		})
	}
}

// BenchmarkF1Device measures the device-level (isend/irecv/matching)
// round trip — the MPJ device layer of Figure 1.
func BenchmarkF1Device(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			benchDevicePingPong(b, size, -1, device.ModeStandard)
		})
	}
}

func benchDevicePingPong(b *testing.B, size, eagerLimit int, mode device.Mode) {
	b.Helper()
	eps := transport.NewChanMesh(2)
	benchDevicePingPongOver(b, eps[0], eps[1], size, eagerLimit, mode)
}

func benchDevicePingPongOver(b *testing.B, t0, t1 transport.Transport, size, eagerLimit int, mode device.Mode) {
	b.Helper()
	var opts []device.Option
	if eagerLimit >= 0 {
		opts = append(opts, device.WithEagerLimit(eagerLimit))
	}
	d0, err := device.Open(t0, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer d0.Close()
	d1, err := device.Open(t1, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer d1.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, size)
		for {
			rr, err := d1.Irecv(buf, 0, 0, 0)
			if err != nil {
				return
			}
			st, err := rr.Wait()
			if err != nil || st.Count == 0 {
				return
			}
			sr, err := d1.Isend(buf, 0, 0, 0, mode)
			if err != nil {
				return
			}
			if _, err := sr.Wait(); err != nil {
				return
			}
		}
	}()

	msg := make([]byte, size)
	buf := make([]byte, size)
	b.SetBytes(int64(2 * size))
	b.ReportAllocs() // the eager path is pooled; regressions show up here
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := d0.Irecv(buf, 1, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		sr, err := d0.Isend(msg, 1, 0, 0, mode)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sr.Wait(); err != nil {
			b.Fatal(err)
		}
		if _, err := rr.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Zero-length message ends the echo loop.
	sr, err := d0.Isend(nil, 1, 0, 0, device.ModeStandard)
	if err == nil {
		_, _ = sr.Wait()
	}
	<-done
}

// BenchmarkF1ByteAPI measures the full MPJ API round trip with BYTE data.
func BenchmarkF1ByteAPI(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			roundTrips(b, -1, size, core.Byte, size)
		})
	}
}

// BenchmarkF1DoubleAPI measures the full API round trip with DOUBLE data
// (adds datatype encode/decode to F1ByteAPI).
func BenchmarkF1DoubleAPI(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			roundTrips(b, -1, size/8, core.Double, size)
		})
	}
}

// BenchmarkF1ObjectAPI measures the full API round trip with OBJECT
// (gob-serialized) data — the top of the F1 stack.
func BenchmarkF1ObjectAPI(b *testing.B) {
	for _, size := range []int{64, 4096} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			count := size / 8
			buf := make([]any, count)
			for i := range buf {
				buf[i] = float64(i)
			}
			p := newEchoPair(b, -1, count, core.Object)
			b.SetBytes(int64(2 * size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.w0.Send(buf, 0, count, core.Object, 1, 0); err != nil {
					b.Fatal(err)
				}
				if _, err := p.w0.Recv(buf, 0, count, core.Object, 1, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			p.close(b)
		})
	}
}

// BenchmarkPPDevices runs the device-level round trip over each device a
// job's slaves build (cmd/mpjbench -exp pingpong prints the same
// comparison as a table): tcp shows the loopback-socket tax that slaves
// sharing one process avoid.
func BenchmarkPPDevices(b *testing.B) {
	for _, name := range []transport.DeviceName{transport.DeviceChan, transport.DeviceTCP} {
		name := name
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("dev=%s/size=%d", name, size), func(b *testing.B) {
				t0, t1, cleanup, err := bench.TransportPair(name)
				if err != nil {
					b.Fatal(err)
				}
				defer cleanup()
				benchDevicePingPongOver(b, t0, t1, size, -1, device.ModeStandard)
			})
		}
	}
}

// BenchmarkE1Eager forces the eager protocol at every size.
func BenchmarkE1Eager(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			benchDevicePingPong(b, size, 1<<30, device.ModeStandard)
		})
	}
}

// BenchmarkE1Rendezvous forces the rendezvous protocol at every size.
func BenchmarkE1Rendezvous(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			benchDevicePingPong(b, size, 0, device.ModeStandard)
		})
	}
}

// BenchmarkE2Modes measures the four send modes at 1 KiB.
func BenchmarkE2Modes(b *testing.B) {
	const size = 1024
	for _, mode := range []string{"standard", "sync", "ready", "buffered"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			p := newEchoPair(b, -1, size, core.Byte)
			if mode == "buffered" {
				if err := p.w0.BufferAttach(4 * size); err != nil {
					b.Fatal(err)
				}
				defer p.w0.BufferDetach()
			}
			buf := make([]byte, size)
			send := map[string]func() error{
				"standard": func() error { return p.w0.Send(buf, 0, size, core.Byte, 1, 0) },
				"sync":     func() error { return p.w0.Ssend(buf, 0, size, core.Byte, 1, 0) },
				"ready":    func() error { return p.w0.Rsend(buf, 0, size, core.Byte, 1, 0) },
				"buffered": func() error { return p.w0.Bsend(buf, 0, size, core.Byte, 1, 0) },
			}[mode]
			b.SetBytes(2 * size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := send(); err != nil {
					b.Fatal(err)
				}
				if _, err := p.w0.Recv(buf, 0, size, core.Byte, 1, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			p.close(b)
		})
	}
}

// collSession runs np ranks; rank 0 executes the benchmark loop while the
// others mirror it exactly b.N times. mkOp builds one rank-local closure
// per rank so buffers are never shared between rank goroutines.
func collSession(b *testing.B, np int, mkOp func(w *core.Comm) func() error) {
	b.Helper()
	eps := transport.NewChanMesh(np)
	devs := make([]*device.Device, np)
	worlds := make([]*core.Comm, np)
	for i := 0; i < np; i++ {
		d, err := device.Open(eps[i])
		if err != nil {
			b.Fatal(err)
		}
		devs[i] = d
		w, err := core.NewWorld(d)
		if err != nil {
			b.Fatal(err)
		}
		worlds[i] = w
	}
	var wg sync.WaitGroup
	for r := 1; r < np; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := mkOp(worlds[r])
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					return
				}
			}
		}()
	}
	op := mkOp(worlds[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	wg.Wait()
	for _, d := range devs {
		d.Close()
	}
}

// BenchmarkE4Collectives measures the core collectives at np=8 with a
// 1 KiB payload.
func BenchmarkE4Collectives(b *testing.B) {
	const np = 8
	const count = 128 // float64 elements = 1 KiB
	b.Run("barrier", func(b *testing.B) {
		collSession(b, np, func(w *core.Comm) func() error { return w.Barrier })
	})
	b.Run("bcast", func(b *testing.B) {
		collSession(b, np, func(w *core.Comm) func() error {
			buf := make([]float64, count)
			return func() error { return w.Bcast(buf, 0, count, core.Double, 0) }
		})
	})
	b.Run("allreduce", func(b *testing.B) {
		collSession(b, np, func(w *core.Comm) func() error {
			in := make([]float64, count)
			out := make([]float64, count)
			return func() error { return w.Allreduce(in, 0, out, 0, count, core.Double, core.SumOp) }
		})
	})
	b.Run("allgather", func(b *testing.B) {
		collSession(b, np, func(w *core.Comm) func() error {
			in := make([]float64, count)
			out := make([]float64, count*np)
			return func() error { return w.Allgather(in, 0, count, core.Double, out, 0, count, core.Double) }
		})
	})
	b.Run("alltoall", func(b *testing.B) {
		collSession(b, np, func(w *core.Comm) func() error {
			in := make([]float64, count*np)
			out := make([]float64, count*np)
			return func() error { return w.Alltoall(in, 0, count, core.Double, out, 0, count, core.Double) }
		})
	})
}

// BenchmarkE7Serialization compares DOUBLE and OBJECT transport of the
// same 1024 float64s.
func BenchmarkE7Serialization(b *testing.B) {
	const count = 1024
	b.Run("double", func(b *testing.B) {
		roundTrips(b, -1, count, core.Double, count*8)
	})
	b.Run("object", func(b *testing.B) {
		buf := make([]any, count)
		for i := range buf {
			buf[i] = float64(i)
		}
		p := newEchoPair(b, -1, count, core.Object)
		b.SetBytes(2 * count * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.w0.Send(buf, 0, count, core.Object, 1, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := p.w0.Recv(buf, 0, count, core.Object, 1, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		p.close(b)
	})
}

// BenchmarkA2EagerLimit sweeps the eager threshold at a 64 KiB message.
func BenchmarkA2EagerLimit(b *testing.B) {
	const size = 64 << 10
	for _, limit := range []int{1 << 10, 16 << 10, 128 << 10} {
		limit := limit
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			benchDevicePingPong(b, size, limit, device.ModeStandard)
		})
	}
}

// BenchmarkF2JobLifecycle runs one complete daemon-mediated job (4
// in-process slaves over real TCP meshes) per iteration — the Figure 2
// scenario end to end.
func BenchmarkF2JobLifecycle(b *testing.B) {
	reg, err := lookup.NewRegistrar(0)
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	d, err := daemon.New(daemon.WithSpawner(NewFuncSpawner()), daemon.WithLogger(benchQuietLogger()))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if err := d.Announce([]string{reg.Addr()}, time.Minute); err != nil {
		b.Fatal(err)
	}
	Register("bench-noop", func(w *Comm) error { return w.Barrier() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := Run(JobConfig{
			NP:       4,
			App:      "bench-noop",
			Locators: []string{reg.Addr()},
			LeaseDur: 5 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
