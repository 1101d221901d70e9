package bench

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"mpj/internal/device"
	"mpj/internal/transport"
)

// benchJobSeq hands out process-unique job ids for benchmark TCP meshes,
// whose handshake refuses a connection of another job.
var benchJobSeq atomic.Uint64

func benchJobID() uint64 {
	return 0xbe9c<<48 | benchJobSeq.Add(1)
}

// TransportPair builds an unstarted 2-endpoint mesh of the named device,
// ready to hand to device.Open:
//
//   - chan: the in-process channel mesh;
//   - tcp: a real TCP mesh over loopback listeners.
//
// cleanup releases resources the transports do not own (TCP listeners) and
// must be called after both transports are closed.
func TransportPair(name transport.DeviceName) (t0, t1 transport.Transport, cleanup func(), err error) {
	cleanup = func() {}
	switch name {
	case transport.DeviceChan:
		eps := transport.NewChanMesh(2)
		return eps[0], eps[1], cleanup, nil

	case transport.DeviceTCP:
		jobID := benchJobID()
		lns := make([]net.Listener, 2)
		addrs := make([]string, 2)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				if i > 0 {
					lns[0].Close()
				}
				return nil, nil, cleanup, err
			}
			lns[i] = ln
			addrs[i] = ln.Addr().String()
		}
		cleanup = func() {
			lns[0].Close()
			lns[1].Close()
		}
		// Mesh establishment blocks until both sides connect.
		eps := make([]*transport.TCPTransport, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				eps[i], errs[i] = transport.NewTCPTransport(i, jobID, addrs, lns[i])
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				cleanup()
				return nil, nil, func() {}, err
			}
		}
		return eps[0], eps[1], cleanup, nil
	}
	return nil, nil, cleanup, fmt.Errorf("bench: no transport pair for device %q", name)
}

// PPDeviceCompare builds the device-comparison ping-pong table: the same
// device-level round trip over each device a job's slaves build. "tcp"
// pays the loopback socket tax even on one machine.
func PPDeviceCompare(sizes []int) (*Table, error) {
	devices := []transport.DeviceName{transport.DeviceChan, transport.DeviceTCP}
	t := &Table{
		Title:   "PP: device-level round trip per device (chan vs tcp loopback)",
		Headers: []string{"size", "chan", "tcp"},
	}
	for _, size := range sizes {
		iters := itersFor(size)
		row := Row{fmtSize(size)}
		for _, name := range devices {
			t0, t1, cleanup, err := TransportPair(name)
			if err != nil {
				return nil, fmt.Errorf("%s pair: %w", name, err)
			}
			d, err := DevicePingPongOver(t0, t1, size, iters, -1, device.ModeStandard)
			cleanup()
			if err != nil {
				return nil, fmt.Errorf("%s %d: %w", name, size, err)
			}
			row = append(row, fmtDur(d))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
