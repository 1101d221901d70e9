package daemon

import (
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// TestProcSpawnerForwardsLastLine: a slave that prints one line and exits
// at once still has that line forwarded. Waiting for the process before
// the pipe readers had drained lost it about once in thirty runs; 200
// slaves make that a near-certain failure.
func TestProcSpawnerForwardsLastLine(t *testing.T) {
	const echo, slaves = "/bin/echo", 200
	if _, err := os.Stat(echo); err != nil {
		t.Skipf("no %s on this system", echo)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var mu sync.Mutex
	got := make(map[int]string)
	var conns sync.WaitGroup
	conns.Add(slaves) // one forwarder connection per slave
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conns.Done()
				defer conn.Close()
				dec := gob.NewDecoder(conn)
				for {
					var line OutLine
					if dec.Decode(&line) != nil {
						return
					}
					mu.Lock()
					got[line.Rank] = line.Text
					mu.Unlock()
				}
			}()
		}
	}()

	// A few at a time: the race is per slave, not in their number.
	for base := 0; base < slaves; base += 20 {
		var batch []Slave
		for rank := base; rank < base+20; rank++ {
			s, err := ProcSpawner{}.Spawn(SlaveSpec{
				JobID: 1, Rank: rank, Size: slaves,
				Binary: echo, Args: []string{fmt.Sprintf("last words of %d", rank)},
				OutputAddr: ln.Addr().String(),
			}, "")
			if err != nil {
				t.Fatalf("spawn %d: %v", rank, err)
			}
			batch = append(batch, s)
		}
		for _, s := range batch {
			if err := s.Wait(); err != nil {
				t.Fatalf("%s: %v", s.ID(), err)
			}
		}
	}
	// Wait returns after the forwarder closed its connection; the
	// collector has seen every line once every connection has drained.
	drained := make(chan struct{})
	go func() { conns.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("the collector did not see a connection from every slave")
	}
	mu.Lock()
	defer mu.Unlock()
	for rank := 0; rank < slaves; rank++ {
		if want := fmt.Sprintf("last words of %d", rank); got[rank] != want {
			t.Errorf("slave %d: forwarded %q, want %q", rank, got[rank], want)
		}
	}
}
