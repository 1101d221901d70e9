package core

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mpj/internal/device"
	"mpj/internal/transport"
)

// tcpMesh builds a real TCP mesh of np ranks on localhost — the same
// transport the distributed runtime uses, without the daemon layer.
func tcpMesh(t *testing.T, np int) []transport.Transport {
	t.Helper()
	return tcpMeshAt(t, np, nil)
}

// tcpMeshAt is tcpMesh over NewTCPMesh with the locality table locs, from
// which each device finds the co-host processes among its peers.
func tcpMeshAt(t *testing.T, np int, locs []string) []transport.Transport {
	t.Helper()
	lns, addrs := make([]net.Listener, np), make([]string, np)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(func() { ln.Close() })
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	// The mesh forms only with every rank dialling at once.
	trs, errs := make([]transport.Transport, np), make([]error, np)
	var wg sync.WaitGroup
	for i := range trs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			trs[i], errs[i] = transport.NewTCPMesh(i, 7777, addrs, lns[i], locs)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tcp mesh rank %d: %v", i, err)
		}
	}
	return trs
}

// runRanksTCP executes fn on np ranks connected by a real TCP mesh. It
// complements runRanks (channel mesh) so the full API is exercised over
// both transports.
func runRanksTCP(t *testing.T, np int, fn func(w *Comm) error) {
	t.Helper()
	trs := tcpMesh(t, np)
	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := device.Open(trs[i])
			if err != nil {
				errs[i] = err
				return
			}
			defer d.Close()
			w, err := NewWorld(d)
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
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("TCP job wedged")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

// TestFullStackOverTCP drives a representative slice of the API — all
// send modes, wildcards, rendezvous-sized transfers, collectives, comm
// management, topology — over a real TCP mesh.
func TestFullStackOverTCP(t *testing.T) {
	runRanksTCP(t, 4, func(w *Comm) error {
		rank, size := w.Rank(), w.Size()

		// Point-to-point ring with rendezvous-sized payloads.
		n := device.DefaultEagerLimit/8 + 100 // float64 elements > eager limit
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(rank*1000 + i%997)
		}
		in := make([]float64, n)
		right := (rank + 1) % size
		left := (rank - 1 + size) % size
		if _, err := w.Sendrecv(out, 0, n, Double, right, 1, in, 0, n, Double, left, 1); err != nil {
			return err
		}
		for i := 0; i < n; i += 313 {
			if in[i] != float64(left*1000+i%997) {
				return fmt.Errorf("ring payload corrupt at %d", i)
			}
		}

		// Synchronous sends and wildcard receives.
		if rank != 0 {
			if err := w.Ssend([]int32{int32(rank)}, 0, 1, Int, 0, 2); err != nil {
				return err
			}
		} else {
			seen := 0
			for i := 1; i < size; i++ {
				buf := make([]int32, 1)
				st, err := w.Recv(buf, 0, 1, Int, AnySource, 2)
				if err != nil {
					return err
				}
				if int(buf[0]) != st.Source {
					return fmt.Errorf("wildcard recv mismatch: %d from %d", buf[0], st.Source)
				}
				seen++
			}
			if seen != size-1 {
				return fmt.Errorf("saw %d senders", seen)
			}
		}

		// Collectives.
		sum := make([]int64, 1)
		if err := w.Allreduce([]int64{int64(rank + 1)}, 0, sum, 0, 1, Long, SumOp); err != nil {
			return err
		}
		if want := int64(size * (size + 1) / 2); sum[0] != want {
			return fmt.Errorf("allreduce = %d, want %d", sum[0], want)
		}
		gathered := make([]int32, size)
		if err := w.Allgather([]int32{int32(rank)}, 0, 1, Int, gathered, 0, 1, Int); err != nil {
			return err
		}
		for i, v := range gathered {
			if v != int32(i) {
				return fmt.Errorf("allgather[%d] = %d", i, v)
			}
		}

		// Communicator management + topology on top of TCP.
		half, err := w.Split(rank%2, rank)
		if err != nil {
			return err
		}
		if err := half.Barrier(); err != nil {
			return err
		}
		cart, err := w.CreateCart([]int{2, 2}, []bool{true, true}, false)
		if err != nil {
			return err
		}
		src, dst, err := cart.Shift(1, 1)
		if err != nil {
			return err
		}
		tok := []int32{int32(rank)}
		got := make([]int32, 1)
		if _, err := cart.Sendrecv(tok, 0, 1, Int, dst, 3, got, 0, 1, Int, src, 3); err != nil {
			return err
		}
		if got[0] != int32(src) {
			return fmt.Errorf("cart halo got %d from %d", got[0], src)
		}
		return nil
	})
}

// TestObjectMessagingOverTCP sends gob objects across a real socket mesh.
func TestObjectMessagingOverTCP(t *testing.T) {
	runRanksTCP(t, 2, func(w *Comm) error {
		if w.Rank() == 0 {
			return w.Send([]any{"tcp-object", 42, []byte{1, 2, 3}}, 0, 3, Object, 1, 0)
		}
		buf := make([]any, 3)
		if _, err := w.Recv(buf, 0, 3, Object, 0, 0); err != nil {
			return err
		}
		if buf[0] != "tcp-object" || buf[1] != 42 {
			return fmt.Errorf("objects corrupted: %v", buf)
		}
		return nil
	})
}

// TestIntercommOverTCP builds and uses an inter-communicator over TCP.
func TestIntercommOverTCP(t *testing.T) {
	runRanksTCP(t, 4, func(w *Comm) error {
		half, err := w.Split(w.Rank()%2, w.Rank())
		if err != nil {
			return err
		}
		ic, err := half.CreateIntercomm(0, w, 1-w.Rank()%2, 9)
		if err != nil {
			return err
		}
		out := []int32{int32(w.Rank())}
		in := make([]int32, 1)
		rr, err := ic.Irecv(in, 0, 1, Int, ic.Rank(), 4)
		if err != nil {
			return err
		}
		if err := ic.Send(out, 0, 1, Int, ic.Rank(), 4); err != nil {
			return err
		}
		if _, err := rr.Wait(); err != nil {
			return err
		}
		merged, err := ic.Merge(w.Rank()%2 == 1)
		if err != nil {
			return err
		}
		return merged.Barrier()
	})
}
