package device

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpj/internal/prof"
	"mpj/internal/transport"
	"mpj/internal/wire"
)

// openPair builds a 2-rank in-process mesh and opens devices on it.
func openPair(t *testing.T, opts ...Option) (*Device, *Device) {
	t.Helper()
	ds := openMesh(t, 2, opts...)
	return ds[0], ds[1]
}

// openMesh builds an np-rank in-process mesh of devices.
func openMesh(t *testing.T, np int, opts ...Option) []*Device {
	t.Helper()
	eps := transport.NewChanMesh(np)
	ds := make([]*Device, np)
	for i, ep := range eps {
		d, err := Open(ep, opts...)
		if err != nil {
			t.Fatalf("Open rank %d: %v", i, err)
		}
		ds[i] = d
	}
	t.Cleanup(func() {
		for _, d := range ds {
			d.Close()
		}
	})
	return ds
}

func payload(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%13)
	}
	return b
}

func TestEagerSendRecv(t *testing.T) {
	d0, d1 := openPair(t)
	msg := payload(64, 1)

	buf := make([]byte, 64)
	rr, err := d1.Irecv(buf, 0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := d0.Isend(msg, 1, 5, 0, ModeStandard)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := sr.Wait(); err != nil || st.Count != 64 {
		t.Fatalf("send wait: st=%+v err=%v", st, err)
	}
	st, err := rr.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != 0 || st.Tag != 5 || st.Count != 64 {
		t.Errorf("recv status = %+v", st)
	}
	if !bytes.Equal(buf, msg) {
		t.Error("payload corrupted")
	}
	if d0.Stats().EagerSent.Load() != 1 || d0.Stats().RTSSent.Load() != 0 {
		t.Error("standard small send did not use the eager protocol")
	}
}

func TestRendezvousLargeStandardSend(t *testing.T) {
	d0, d1 := openPair(t)
	msg := payload(DefaultEagerLimit+1, 2)

	buf := make([]byte, len(msg))
	rr, err := d1.Irecv(buf, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := d0.Isend(msg, 1, 1, 0, ModeStandard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Error("payload corrupted")
	}
	if d0.Stats().RTSSent.Load() != 1 || d0.Stats().DataSent.Load() != 1 {
		t.Errorf("large standard send did not run rendezvous: RTS=%d DATA=%d",
			d0.Stats().RTSSent.Load(), d0.Stats().DataSent.Load())
	}
}

func TestSyncModeAlwaysRendezvous(t *testing.T) {
	d0, d1 := openPair(t)
	msg := payload(8, 3) // tiny, still must go rendezvous

	done := make(chan error, 1)
	go func() {
		sr, err := d0.Isend(msg, 1, 9, 0, ModeSync)
		if err != nil {
			done <- err
			return
		}
		_, err = sr.Wait()
		done <- err
	}()

	// The send must not complete before a matching receive is posted.
	select {
	case err := <-done:
		t.Fatalf("ssend completed with no matching receive (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	buf := make([]byte, 8)
	rr, err := d1.Irecv(buf, 0, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Error("payload corrupted")
	}
	if d0.Stats().RTSSent.Load() != 1 {
		t.Error("sync send did not use rendezvous")
	}
}

func TestReadyModeAlwaysEager(t *testing.T) {
	d0, d1 := openPair(t)
	msg := payload(DefaultEagerLimit*2, 4) // huge, still must go eager

	buf := make([]byte, len(msg))
	rr, err := d1.Irecv(buf, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := d0.Isend(msg, 1, 2, 0, ModeReady)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Error("payload corrupted")
	}
	if d0.Stats().EagerSent.Load() != 1 || d0.Stats().RTSSent.Load() != 0 {
		t.Error("ready send did not use the eager protocol")
	}
}

func TestUnexpectedMessageQueue(t *testing.T) {
	d0, d1 := openPair(t)
	// Send before any receive is posted: must land in the unexpected
	// queue and complete a later receive.
	sr, err := d0.Isend([]byte("early"), 1, 3, 0, ModeStandard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Wait(); err != nil {
		t.Fatal(err)
	}
	// Give the frame time to arrive unexpected.
	waitUntil(t, func() bool { return d1.Stats().Unexpected.Load() == 1 })

	buf := make([]byte, 5)
	rr, err := d1.Irecv(buf, 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rr.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:st.Count]) != "early" {
		t.Errorf("got %q", buf[:st.Count])
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWildcardReceive(t *testing.T) {
	ds := openMesh(t, 4)
	// Ranks 1..3 send to rank 0 with distinct tags.
	for r := 1; r < 4; r++ {
		sr, err := ds[r].Isend([]byte{byte(r)}, 0, r*10, 0, ModeStandard)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sr.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		buf := make([]byte, 1)
		rr, err := ds[0].Irecv(buf, AnySource, AnyTag, 0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := rr.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if st.Tag != st.Source*10 || int(buf[0]) != st.Source {
			t.Errorf("status %+v does not match payload %d", st, buf[0])
		}
		seen[st.Source] = true
	}
	if len(seen) != 3 {
		t.Errorf("heard from %d sources, want 3", len(seen))
	}
}

func TestNonOvertakingOrder(t *testing.T) {
	d0, d1 := openPair(t)
	const n = 100
	for i := 0; i < n; i++ {
		// Alternate eager and rendezvous so protocol choice cannot
		// reorder matching.
		size := 4
		if i%2 == 1 {
			size = DefaultEagerLimit + 4
		}
		msg := make([]byte, size)
		msg[0] = byte(i)
		if _, err := d0.Isend(msg, 1, 7, 0, ModeStandard); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		buf := make([]byte, DefaultEagerLimit+4)
		rr, err := d1.Irecv(buf, 0, 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rr.Wait(); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("receive %d matched message %d: overtaking", i, buf[0])
		}
	}
}

func TestContextIsolation(t *testing.T) {
	d0, d1 := openPair(t)
	// Same (src, tag), different contexts: receives must match only
	// within their context.
	if _, err := d0.Isend([]byte("ctx1"), 1, 0, 1, ModeStandard); err != nil {
		t.Fatal(err)
	}
	if _, err := d0.Isend([]byte("ctx2"), 1, 0, 2, ModeStandard); err != nil {
		t.Fatal(err)
	}
	buf2 := make([]byte, 4)
	rr2, err := d1.Irecv(buf2, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr2.Wait(); err != nil {
		t.Fatal(err)
	}
	if string(buf2) != "ctx2" {
		t.Errorf("context 2 receive got %q", buf2)
	}
	buf1 := make([]byte, 4)
	rr1, err := d1.Irecv(buf1, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr1.Wait(); err != nil {
		t.Fatal(err)
	}
	if string(buf1) != "ctx1" {
		t.Errorf("context 1 receive got %q", buf1)
	}
}

func TestTruncationError(t *testing.T) {
	d0, d1 := openPair(t)
	buf := make([]byte, 4)
	rr, err := d1.Irecv(buf, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d0.Isend(payload(16, 5), 1, 0, 0, ModeStandard); err != nil {
		t.Fatal(err)
	}
	st, err := rr.Wait()
	if !errors.Is(err, ErrTruncate) {
		t.Errorf("got err %v, want ErrTruncate", err)
	}
	if st.Count != 4 {
		t.Errorf("count = %d, want 4 (buffer size)", st.Count)
	}
}

// parkFor is core's park loop over one device: read the generation, look,
// park until it moves. The blocking probe and WaitAny are this loop around
// the non-blocking Iprobe and TestAny.
func parkFor(d *Device, look func() bool) {
	for {
		gen := d.Gen()
		if look() {
			return
		}
		d.WaitProgress(gen)
	}
}

// probe is the blocking probe: Iprobe until a message matches or none can.
func probe(d *Device, src, tag, ctx int) (st Status, err error) {
	parkFor(d, func() (ok bool) {
		st, ok, err = d.Iprobe(src, tag, ctx)
		return ok || err != nil
	})
	return st, err
}

func TestProbeAndIprobe(t *testing.T) {
	d0, d1 := openPair(t)
	if _, ok, err := d1.Iprobe(AnySource, AnyTag, 0); ok || err != nil {
		t.Errorf("Iprobe on empty queue: ok=%v err=%v, want neither", ok, err)
	}
	if _, err := d0.Isend(payload(10, 6), 1, 77, 0, ModeStandard); err != nil {
		t.Fatal(err)
	}
	st, err := probe(d1, 0, 77, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != 0 || st.Tag != 77 || st.Count != 10 {
		t.Errorf("probe status = %+v", st)
	}
	// Probing must not consume: a receive still gets the message.
	buf := make([]byte, 10)
	rr, err := d1.Irecv(buf, 0, 77, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Wait(); err != nil {
		t.Fatal(err)
	}
	// With nothing queued, a dead source ends the look — for AnySource
	// too — and so does the device's end.
	d1.NotifyRankFailed(0, errors.New("test: rank 0 killed"))
	for _, src := range []int{0, AnySource} {
		if _, ok, err := d1.Iprobe(src, 77, 0); ok || !errors.Is(err, ErrRankFailed) {
			t.Errorf("Iprobe(%d) after the source died: ok=%v err=%v, want ErrRankFailed", src, ok, err)
		}
	}
	_ = d1.Close()
	if _, ok, err := d1.Iprobe(0, 77, 0); ok || !errors.Is(err, ErrClosed) {
		t.Errorf("Iprobe on a closed device: ok=%v err=%v, want ErrClosed", ok, err)
	}
}

func TestProbeSeesRendezvousLength(t *testing.T) {
	d0, d1 := openPair(t)
	n := DefaultEagerLimit + 123
	if _, err := d0.Isend(payload(n, 7), 1, 1, 0, ModeStandard); err != nil {
		t.Fatal(err)
	}
	st, err := probe(d1, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != n {
		t.Errorf("probe of rendezvous message reported %d bytes, want %d", st.Count, n)
	}
	buf := make([]byte, n)
	rr, _ := d1.Irecv(buf, 0, 1, 0)
	if _, err := rr.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitAnyStepsThroughCompletions(t *testing.T) {
	d0, d1 := openPair(t)
	const n = 5
	reqs := make([]*Request, n)
	bufs := make([][]byte, n)
	for i := range reqs {
		bufs[i] = make([]byte, 1)
		var err error
		reqs[i], err = d1.Irecv(bufs[i], 0, i, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := d0.Isend([]byte{byte(i)}, 1, i, 0, ModeStandard); err != nil {
			t.Fatal(err)
		}
	}
	// WaitAny is the park loop around TestAny.
	waitAny := func() (idx int, st Status, err error) {
		parkFor(d1, func() (ok bool) {
			idx, st, ok, err = d1.TestAny(reqs)
			return ok
		})
		return idx, st, err
	}
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		idx, st, err := waitAny()
		if err != nil {
			t.Fatal(err)
		}
		if idx < 0 || seen[idx] {
			t.Fatalf("WaitAny returned idx %d (seen=%v)", idx, seen)
		}
		seen[idx] = true
		if st.Tag != idx {
			t.Errorf("request %d completed with tag %d", idx, st.Tag)
		}
	}
	if idx, _, err := waitAny(); idx != -1 || err != nil {
		t.Errorf("WaitAny over consumed requests: idx=%d err=%v, want -1", idx, err)
	}
}

func TestTestAnySemantics(t *testing.T) {
	d0, d1 := openPair(t)
	buf := make([]byte, 1)
	rr, err := d1.Irecv(buf, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := d1.TestAny([]*Request{rr}); ok {
		t.Error("TestAny reported completion for a pending receive")
	}
	if _, err := d0.Isend([]byte{1}, 1, 0, 0, ModeStandard); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return rr.Done() })
	idx, _, ok, err := d1.TestAny([]*Request{rr})
	if !ok || idx != 0 || err != nil {
		t.Errorf("TestAny after completion: idx=%d ok=%v err=%v", idx, ok, err)
	}
	// No active requests left: MPI_Testany semantics say flag=true.
	idx, _, ok, _ = d1.TestAny([]*Request{rr})
	if !ok || idx != -1 {
		t.Errorf("TestAny with no active requests: idx=%d ok=%v, want -1/true", idx, ok)
	}
}

func TestWaitAllAndTestAll(t *testing.T) {
	d0, d1 := openPair(t)
	const n = 4
	reqs := make([]*Request, n+1) // include a nil slot
	for i := 0; i < n; i++ {
		buf := make([]byte, 1)
		var err error
		reqs[i], err = d1.Irecv(buf, 0, i, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := d1.TestAll(reqs); ok {
		t.Error("TestAll reported completion before any send")
	}
	for i := 0; i < n; i++ {
		if _, err := d0.Isend([]byte{byte(i)}, 1, i, 0, ModeStandard); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range reqs[:n] {
		if _, err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	sts, ok, err := d1.TestAll(reqs)
	if !ok || err != nil || len(sts) != n+1 {
		t.Fatalf("TestAll after every Wait: ok=%v err=%v", ok, err)
	}
	for i := 0; i < n; i++ {
		if sts[i].Tag != i {
			t.Errorf("slot %d: status %+v", i, sts[i])
		}
	}
}

func TestSelfSend(t *testing.T) {
	ds := openMesh(t, 1)
	d := ds[0]
	buf := make([]byte, 3)
	rr, err := d.Irecv(buf, 0, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Isend([]byte("abc"), 0, 4, 0, ModeStandard); err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Wait(); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "abc" {
		t.Errorf("self send delivered %q", buf)
	}
}

func TestSelfRendezvous(t *testing.T) {
	ds := openMesh(t, 1)
	d := ds[0]
	n := DefaultEagerLimit * 2
	msg := payload(n, 8)
	buf := make([]byte, n)
	rr, err := d.Irecv(buf, 0, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := d.Isend(msg, 0, 4, 0, ModeStandard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Error("self rendezvous corrupted payload")
	}
}

func TestCancelUnmatchedRecv(t *testing.T) {
	ds := openMesh(t, 2)
	buf := make([]byte, 4)
	rr, err := ds[1].Irecv(buf, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rr.Cancel(); err != nil {
		t.Fatal(err)
	}
	st, err := rr.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cancelled {
		t.Error("cancelled receive did not report Cancelled")
	}
}

func TestCancelPendingRendezvousSend(t *testing.T) {
	d0, d1 := openPair(t)
	msg := payload(DefaultEagerLimit+1, 9)
	sr, err := d0.Isend(msg, 1, 0, 0, ModeStandard)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the RTS is parked unexpected at the receiver, then cancel.
	waitUntil(t, func() bool { return d1.Stats().Unexpected.Load() == 1 })
	if err := sr.Cancel(); err != nil {
		t.Fatal(err)
	}
	st, err := sr.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cancelled {
		t.Error("cancel of unmatched rendezvous send did not take effect")
	}
	// The receiver must no longer see the message.
	if _, ok, _ := d1.Iprobe(0, 0, 0); ok {
		t.Error("cancelled message still probeable at receiver")
	}
}

func TestCancelLosesRaceToMatch(t *testing.T) {
	d0, d1 := openPair(t)
	msg := payload(DefaultEagerLimit+1, 10)
	buf := make([]byte, len(msg))
	rr, err := d1.Irecv(buf, 0, 0, 0) // posted first: match wins
	if err != nil {
		t.Fatal(err)
	}
	sr, err := d0.Isend(msg, 1, 0, 0, ModeStandard)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel races the CTS; whatever the interleaving, the outcome must
	// be consistent: either both sides complete the transfer, or the
	// send is cancelled — but since the receive was already posted,
	// the match must win.
	_ = sr.Cancel()
	st, err := sr.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cancelled {
		t.Fatal("send cancelled even though the receive was already matched")
	}
	if _, err := rr.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Error("payload corrupted")
	}
}

func TestPeerFailureCompletesRequests(t *testing.T) {
	eps := transport.NewChanMesh(2)
	var failedPeer int
	failed := make(chan struct{})
	d0, err := Open(eps[0], WithFailureHandler(func(peer int, err error) {
		failedPeer = peer
		close(failed)
	}))
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Open(eps[1])
	if err != nil {
		t.Fatal(err)
	}
	defer d0.Close()
	defer d1.Close()

	buf := make([]byte, 4)
	rr, err := d0.Irecv(buf, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	eps[0].InjectError(1, errors.New("connection reset"))
	<-failed
	if failedPeer != 1 {
		t.Errorf("failure handler saw peer %d, want 1", failedPeer)
	}
	if _, err := rr.Wait(); !errors.Is(err, ErrRankFailed) {
		t.Errorf("pending receive after failure: err=%v, want ErrRankFailed", err)
	}
	if _, err := d0.Irecv(buf, 1, 0, 0); !errors.Is(err, ErrRankFailed) {
		t.Errorf("new receive after failure: err=%v, want ErrRankFailed", err)
	}
}

func TestCloseCompletesPendingRequests(t *testing.T) {
	ds := openMesh(t, 2)
	buf := make([]byte, 4)
	rr, err := ds[0].Irecv(buf, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ds[0].Close()
	if _, err := rr.Wait(); !errors.Is(err, ErrClosed) {
		t.Errorf("pending receive after close: err=%v, want ErrClosed", err)
	}
	if _, err := ds[0].Isend([]byte{1}, 1, 0, 0, ModeStandard); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: err=%v, want ErrClosed", err)
	}
}

func TestIsendIrecvArgumentValidation(t *testing.T) {
	ds := openMesh(t, 2)
	if _, err := ds[0].Isend(nil, 9, 0, 0, ModeStandard); err == nil {
		t.Error("Isend to out-of-range rank succeeded")
	}
	if _, err := ds[0].Irecv(nil, 9, 0, 0); err == nil {
		t.Error("Irecv from out-of-range rank succeeded")
	}
	if _, err := ds[0].Irecv(nil, AnySource, 0, 0); err != nil {
		t.Errorf("Irecv with AnySource failed: %v", err)
	}
}

func TestCustomEagerLimit(t *testing.T) {
	d0, d1 := openPair(t, WithEagerLimit(8))
	if d0.EagerLimit() != 8 {
		t.Fatalf("EagerLimit = %d", d0.EagerLimit())
	}
	buf := make([]byte, 9)
	rr, err := d1.Irecv(buf, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d0.Isend(payload(9, 11), 1, 0, 0, ModeStandard); err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Wait(); err != nil {
		t.Fatal(err)
	}
	if d0.Stats().RTSSent.Load() != 1 {
		t.Error("9-byte message under 8-byte eager limit did not use rendezvous")
	}
}

// TestRandomizedTraffic drives a randomized all-to-all exchange across
// protocols, tags and sizes and checks every byte.
func TestRandomizedTraffic(t *testing.T) {
	const np = 4
	const msgsPerPair = 30
	ds := openMesh(t, np, WithEagerLimit(512))
	rng := rand.New(rand.NewSource(42))

	type msgSpec struct{ size, tag int }
	specs := make(map[[2]int][]msgSpec) // (src,dst) → ordered messages
	for s := 0; s < np; s++ {
		for r := 0; r < np; r++ {
			for k := 0; k < msgsPerPair; k++ {
				specs[[2]int{s, r}] = append(specs[[2]int{s, r}],
					msgSpec{size: 1 + rng.Intn(2048), tag: k})
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, np*2)
	for me := 0; me < np; me++ {
		me := me
		wg.Add(1)
		go func() { // sender side of rank me
			defer wg.Done()
			for dst := 0; dst < np; dst++ {
				for _, spec := range specs[[2]int{me, dst}] {
					msg := payload(spec.size, byte(me*31+spec.tag))
					mode := ModeStandard
					if spec.tag%5 == 4 {
						mode = ModeSync
					}
					r, err := ds[me].Isend(msg, dst, spec.tag, 0, mode)
					if err != nil {
						errs <- err
						return
					}
					if _, err := r.Wait(); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
		wg.Add(1)
		go func() { // receiver side of rank me
			defer wg.Done()
			for src := 0; src < np; src++ {
				for _, spec := range specs[[2]int{src, me}] {
					buf := make([]byte, spec.size)
					r, err := ds[me].Irecv(buf, src, spec.tag, 0)
					if err != nil {
						errs <- err
						return
					}
					st, err := r.Wait()
					if err != nil {
						errs <- err
						return
					}
					want := payload(spec.size, byte(src*31+spec.tag))
					if st.Count != spec.size || !bytes.Equal(buf, want) {
						errs <- fmt.Errorf("corrupt %d->%d tag %d", src, me, spec.tag)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWaitProgressSeesFailureBeforeParking: a rank failure registered
// after the caller read the wake generation but before it parks is a
// reason for WaitProgress to return, not a wakeup to miss — the collective
// engine looks at its schedules, then parks, and a death in between must
// not leave it waiting on requests that a dead rank's neighbours will
// never complete.
func TestWaitProgressSeesFailureBeforeParking(t *testing.T) {
	ds := openMesh(t, 3)
	rr, err := ds[0].Irecv(make([]byte, 4), 1, 0, 0) // rank 1 lives and never sends
	if err != nil {
		t.Fatal(err)
	}
	gen := ds[0].Gen()
	ds[0].NotifyRankFailed(2, errors.New("lease expired"))
	returnsWithin(t, func() { ds[0].WaitProgress(gen) },
		"WaitProgress parked past a failure registered after its caller read the generation")
	if rr.Done() {
		t.Error("the receive from the live rank completed")
	}
}

// TestWaitProgressSeesCompletionBeforeParking: a completion that lands
// after the caller read the generation is news — WaitProgress returns,
// whether it landed before the park or after. A completion that landed
// before the read is not, or a waiter would spin on it.
func TestWaitProgressSeesCompletionBeforeParking(t *testing.T) {
	ds := openMesh(t, 2)
	never, err := ds[0].Irecv(make([]byte, 4), 1, 7, 0) // rank 1 never sends tag 7
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ds[0].Irecv(make([]byte, 4), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen := ds[0].Gen()
	// The message arrives between the read above and the park below.
	if _, err := ds[1].Isend([]byte{1, 2, 3, 4}, 0, 0, 0, ModeStandard); err != nil {
		t.Fatal(err)
	}
	for !rr.Done() {
		time.Sleep(time.Millisecond)
	}
	returnsWithin(t, func() { ds[0].WaitProgress(gen) },
		"WaitProgress parked past a completion that landed after its caller read the generation")

	// Read after the completion, the generation no longer wakes on it.
	gen = ds[0].Gen()
	parked := make(chan struct{})
	go func() {
		ds[0].WaitProgress(gen)
		close(parked)
	}()
	select {
	case <-parked:
		t.Fatal("WaitProgress returned on a completion that landed before its caller read the generation")
	case <-time.After(50 * time.Millisecond):
	}
	_ = never.Cancel() // completes the request and releases the parked waiter
	<-parked
}

// TestWaitProgressYieldPoll: a wait whose look waits yield-polls it on a
// device the yield-poll is on, and returns at the look's move without
// arming it (yielded); one whose look does not move within yieldBudget
// goes on to arm it and park (slept), and so does every wait where the
// yield-poll is off. A wait whose look does not wait never yield-polls.
// A Wake ends the yield-poll too.
func TestWaitProgressYieldPoll(t *testing.T) {
	const never, wake = -1, 0
	for _, tc := range []struct {
		name            string
		forced, waiting bool
		moveAt          int // the yield-poll's look that reports the move; wake: its first Wakes instead
		yielded, slept  int64
	}{
		{"yield-poll sees the move", true, true, 1, 1, 0},
		{"yield-poll sees a wake", true, true, wake, 1, 0},
		{"yield budget runs out", true, true, never, 0, 1},
		{"yield-poll off", false, true, 3, 0, 1},
		{"look not waiting", true, false, 3, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := prof.New(0, prof.Spec{Counters: true})
			d := openMesh(t, 1, WithProfiler(rec))[0]
			if tc.forced {
				d.ForceYieldPoll()
			}
			var armed atomic.Bool
			looks := 0 // the yield-poll's, all in the waiting goroutine
			d.SetLook(Look{
				Over: func(park bool) (bool, bool) {
					if park {
						armed.Store(true)
						return true, false // the park would wait for a Wake: end it here
					}
					looks++
					if tc.moveAt == wake && looks == 1 {
						go d.Wake()
					}
					return looks == tc.moveAt, false
				},
				Waiting: func() bool { return tc.waiting },
			})
			gen := d.Gen()
			t0 := time.Now()
			returnsWithin(t, func() { d.WaitProgress(gen) }, "WaitProgress did not return")
			took := time.Since(t0)
			s := rec.Snapshot()
			waits := tc.yielded + tc.slept
			if s.HostWaits != waits || s.HostYielded != tc.yielded || s.HostSlept != tc.slept {
				t.Errorf("waits %d, yielded %d, slept %d; want %d, %d, %d", s.HostWaits, s.HostYielded, s.HostSlept, waits, tc.yielded, tc.slept)
			}
			if wantArmed := tc.yielded == 0; armed.Load() != wantArmed {
				t.Errorf("look armed %v, want %v", armed.Load(), wantArmed)
			}
			if tc.moveAt == never && took < yieldBudget {
				t.Errorf("armed the look after %v, before the yield budget %v ran out", took, yieldBudget)
			}
		})
	}
}

// TestWaitProgressYieldLooksAgain: the yield-poll keeps looking, yielding
// between looks, until the look reports the wait over — here at its third
// look, within a budget no scheduling delay runs out — reports a wait the
// look never ends as not over once its budget has passed, and gives itself
// the budget afresh whenever the look saw its state move.
func TestWaitProgressYieldLooksAgain(t *testing.T) {
	d := openMesh(t, 1)[0]
	looks := 0
	l := &Look{Over: func(bool) (bool, bool) { looks++; return looks == 3, false }, Waiting: func() bool { return true }}
	if !d.yieldPoll(d.Gen(), l, time.Minute) || looks != 3 {
		t.Errorf("yield-poll returned after %d looks, want the wait over at the third", looks)
	}
	looks = 0
	l.Over = func(bool) (bool, bool) { looks++; return false, false }
	t0 := time.Now()
	if d.yieldPoll(d.Gen(), l, time.Millisecond) || time.Since(t0) < time.Millisecond {
		t.Errorf("yield-poll ended a wait the look never ends after %v (%d looks)", time.Since(t0), looks)
	}
	// The state moves at every look for 5 budgets, then the wait is over.
	end := time.Now().Add(5 * time.Millisecond)
	l.Over = func(bool) (bool, bool) { moving := time.Now().Before(end); return !moving, moving }
	if !d.yieldPoll(d.Gen(), l, time.Millisecond) {
		t.Errorf("yield-poll gave up on a wait whose state kept moving after %v", time.Since(end.Add(-5*time.Millisecond)))
	}
}

// returnsWithin fails the test with msg unless f returns within 10s.
func returnsWithin(t *testing.T, f func(), msg string) {
	t.Helper()
	returned := make(chan struct{})
	go func() {
		f()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal(msg)
	}
}

// TestHandleEagerAllocationGate: an eager frame through the frame handler
// allocates nothing — the header it decodes stays on the handler's stack —
// whether it meets a posted receive or waits in the unexpected queue, and
// the blocking Recv that then takes it off the queue runs on a pooled
// request.
func TestHandleEagerAllocationGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts on purpose")
	}
	const n, runs = 4 << 10, 200
	d, _ := openPair(t) // d handles frames as if rank 1's reader delivered them
	h := wire.Header{Kind: wire.KindEager, Src: 1, Tag: 3, Len: n}
	msg, buf := payload(n, 1), make([]byte, n)
	deliver := func() { d.handle(1, wire.NewFrame(&h, msg)) }

	queued := func() {
		deliver()
		if _, err := d.Recv(buf, 1, 3, 0, (*Request).Wait); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		queued()
	}
	if allocs := testing.AllocsPerRun(runs, queued); allocs != 0 {
		t.Errorf("an unexpected eager frame and the blocking Recv of it allocate %.2f objects, want 0", allocs)
	}

	// Irecv allocates the requests, so they are posted before counting
	// (AllocsPerRun makes one extra call).
	reqs := make([]*Request, runs+1)
	for i := range reqs {
		reqs[i] = must(d.Irecv(buf, 1, 3, 0))
	}
	if allocs := testing.AllocsPerRun(runs, deliver); allocs != 0 {
		t.Errorf("an eager frame meeting a posted receive allocates %.2f objects, want 0", allocs)
	}
	for _, r := range reqs {
		if st, err := r.Wait(); err != nil || st.Count != n {
			t.Fatalf("posted receive: status %+v, %v", st, err)
		}
	}
	if !bytes.Equal(buf, msg) {
		t.Error("payload corrupted")
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
