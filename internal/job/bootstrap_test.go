package job

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mpj/internal/core"
	"mpj/internal/device"
	"mpj/internal/transport"
)

// TestBootstrapGatherAndMesh drives the full bootstrap protocol: np
// slaves announce themselves, receive the address table, and build a real
// TCP mesh from it.
func TestBootstrapGatherAndMesh(t *testing.T) {
	const np = 4
	const jobID = 321
	m, err := newMaster(jobID, np)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()

	gatherErr := make(chan error, 1)
	go func() { gatherErr <- m.gather() }()

	var wg sync.WaitGroup
	slaveErrs := make([]error, np)
	for rank := 0; rank < np; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc, table, ln, err := SlaveBootstrap(m.addr(), jobID, rank)
			if err != nil {
				slaveErrs[rank] = err
				return
			}
			defer sc.Close()
			if len(table.Addrs) != np {
				slaveErrs[rank] = fmt.Errorf("table has %d addrs", len(table.Addrs))
				return
			}
			if len(table.Locs) != np || table.Locs[rank] != transport.ProcessLocality() {
				slaveErrs[rank] = fmt.Errorf("table locs %v missing this process's locality", table.Locs)
				return
			}
			tr, err := transport.NewTCPTransport(rank, jobID, table.Addrs, ln)
			if err != nil {
				slaveErrs[rank] = err
				return
			}
			tr.SetHandler(func(int, []byte) {})
			if err := tr.Start(); err != nil {
				slaveErrs[rank] = err
				return
			}
			defer tr.Close()
			ln.Close()
			slaveErrs[rank] = sc.ReportDone(nil)
		}()
	}
	if err := <-gatherErr; err != nil {
		t.Fatalf("gather: %v", err)
	}
	if err := m.await(); err != nil {
		t.Fatalf("await: %v", err)
	}
	wg.Wait()
	for rank, err := range slaveErrs {
		if err != nil {
			t.Errorf("slave %d: %v", rank, err)
		}
	}
}

func TestAwaitReportsSlaveError(t *testing.T) {
	const np = 2
	m, err := newMaster(1, np)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	go func() { _ = m.gather() }()

	var wg sync.WaitGroup
	for rank := 0; rank < np; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc, _, ln, err := SlaveBootstrap(m.addr(), 1, rank)
			if err != nil {
				t.Errorf("slave %d bootstrap: %v", rank, err)
				return
			}
			ln.Close()
			defer sc.Close()
			var appErr error
			if rank == 1 {
				appErr = errors.New("application exploded")
			}
			_ = sc.ReportDone(appErr)
		}()
	}
	wg.Wait()
	err = m.await()
	if err == nil || !contains(err.Error(), "application exploded") {
		t.Errorf("await = %v, want rank-1 failure", err)
	}
}

// TestAwaitNamesTheFirstFailure: a rank's error that is a peer's failure
// reaching it (ErrRankFailed) or a revocation does not name the job's
// failure while another rank failed of its own accord, whatever their rank
// order; when every error is such a consequence, the lowest rank's stands.
// The dead peer is never the rank holding the error: a RankFailedError
// naming its own holder is that rank's death.
func TestAwaitNamesTheFirstFailure(t *testing.T) {
	peerDied := func(peer int) error {
		return fmt.Errorf("barrier: %w", &device.RankFailedError{Rank: peer, Cause: errors.New("EOF")})
	}
	revoked := fmt.Errorf("allreduce: %w", core.ErrRevoked)
	own := errors.New("application exploded")
	for _, tc := range []struct {
		name string
		errs []error
		want string
	}{
		{"consequences first", []error{peerDied(2), revoked, own}, "job: rank 2 failed: application exploded"},
		{"own error first", []error{own, peerDied(2), own}, "job: rank 0 failed: application exploded"},
		{"only consequences", []error{nil, revoked, peerDied(1)}, "job: rank 1 failed: allreduce: mpj: communicator revoked"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			np := len(tc.errs)
			m, err := newMaster(1, np)
			if err != nil {
				t.Fatal(err)
			}
			defer m.close()
			go func() { _ = m.gather() }()
			var wg sync.WaitGroup
			for rank := 0; rank < np; rank++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sc, _, ln, err := SlaveBootstrap(m.addr(), 1, rank)
					if err != nil {
						t.Errorf("slave %d bootstrap: %v", rank, err)
						return
					}
					ln.Close()
					defer sc.Close()
					_ = sc.ReportDone(tc.errs[rank])
				}()
			}
			wg.Wait()
			if err := m.await(); err == nil || err.Error() != tc.want {
				t.Errorf("await = %v, want %q", err, tc.want)
			}
		})
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestGatherRejectsImposters(t *testing.T) {
	const np = 1
	m, err := newMaster(50, np)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	gatherErr := make(chan error, 1)
	go func() { gatherErr <- m.gather() }()

	// A connection with the wrong job id must be ignored.
	badConn, err := net.Dial("tcp", m.addr())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(badConn, "garbage that is not gob")
	badConn.Close()

	// The real slave still completes the bootstrap.
	done := make(chan error, 1)
	go func() {
		sc, _, ln, err := SlaveBootstrap(m.addr(), 50, 0)
		if err != nil {
			done <- err
			return
		}
		ln.Close()
		defer sc.Close()
		done <- sc.ReportDone(nil)
	}()
	if err := <-gatherErr; err != nil {
		t.Fatalf("gather: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("slave: %v", err)
	}
	if err := m.await(); err != nil {
		t.Fatalf("await: %v", err)
	}
}

func TestSlaveBootstrapMasterGone(t *testing.T) {
	// Dial a dead master: bootstrap must fail quickly, not hang.
	old := BootstrapTimeout
	BootstrapTimeout = 500 * time.Millisecond
	defer func() { BootstrapTimeout = old }()
	start := time.Now()
	_, _, _, err := SlaveBootstrap("127.0.0.1:1", 9, 0)
	if err == nil {
		t.Fatal("bootstrap against dead master succeeded")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("bootstrap failure took too long")
	}
}

func TestRunConfigValidation(t *testing.T) {
	if err := Run(Config{NP: 0, App: "x"}); err == nil {
		t.Error("NP=0 accepted")
	}
	if err := Run(Config{NP: 1}); err == nil {
		t.Error("missing app accepted")
	}
}
