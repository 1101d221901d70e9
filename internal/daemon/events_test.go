package daemon

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNotifyDelivers(t *testing.T) {
	got := make(chan Event, 1)
	r, err := NewReceiver(func(ev Event) { got <- ev })
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	want := Event{Type: TypeAbort, JobID: 3, Source: "d1", Seq: 9, Message: "boom"}
	if err := Notify(r.Addr(), want); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-got:
		if ev != want {
			t.Errorf("got %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event")
	}
}

func TestConcurrentNotifiers(t *testing.T) {
	var mu sync.Mutex
	seen := map[uint64]bool{}
	r, err := NewReceiver(func(ev Event) {
		mu.Lock()
		seen[ev.Seq] = true
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const n = 20
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = Notify(r.Addr(), Event{Type: TypeAbort, Seq: uint64(i)})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("notify %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n0 := len(seen)
		mu.Unlock()
		if n0 == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d events delivered", n0, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNotifyAfterClose(t *testing.T) {
	r, err := NewReceiver(func(Event) {})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	if err := Notify(r.Addr(), Event{Type: TypeAbort}); err == nil {
		t.Error("notify to closed receiver succeeded")
	}
}

func TestEventString(t *testing.T) {
	ev := Event{Type: TypeAbort, JobID: 5, Source: "daemon x", Message: "slave died"}
	s := ev.String()
	for _, want := range []string{"MPJAbort", "job=5", "daemon x", "slave died"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
