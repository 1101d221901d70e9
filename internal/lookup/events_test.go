package lookup_test

import (
	"testing"
	"time"

	"mpj/internal/daemon"
)

// The daemon's event receiver, exercised from outside the daemon package:
// the cross-service path a client uses beside lookup.
func TestEventsDelivery(t *testing.T) {
	got := make(chan daemon.Event, 1)
	recv, err := daemon.NewReceiver(func(ev daemon.Event) { got <- ev })
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	want := daemon.Event{Type: daemon.TypeAbort, JobID: 7, Source: "daemon X", Seq: 1, Message: "slave 3 died"}
	if err := daemon.Notify(recv.Addr(), want); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-got:
		if ev != want {
			t.Errorf("got %+v, want %+v", ev, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event not delivered")
	}
}

func TestNotifyUnreachableReceiver(t *testing.T) {
	err := daemon.Notify("127.0.0.1:1", daemon.Event{Type: daemon.TypeAbort})
	if err == nil {
		t.Error("notify to dead address succeeded")
	}
}
