package main

import (
	"testing"
	"time"

	"mpj"
)

// TestQuickstart runs the example at np=4: the ring exchange and the
// allreduce complete without error within a minute.
func TestQuickstart(t *testing.T) {
	defer time.AfterFunc(time.Minute, func() { panic("the ranks did not finish within a minute") }).Stop()
	if err := mpj.RunLocal(4, quickstart); err != nil {
		t.Fatal(err)
	}
}
