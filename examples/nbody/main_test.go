package main

import (
	"testing"
	"time"

	"mpj"
)

// TestNbody runs the example at np=4 on 64 bodies for two steps: the ring
// pipeline and the energy allreduce complete without error within a
// minute.
func TestNbody(t *testing.T) {
	*nBodies, *steps = 64, 2
	defer time.AfterFunc(time.Minute, func() { panic("the ranks did not finish within a minute") }).Stop()
	if err := mpj.RunLocal(4, nbodyApp); err != nil {
		t.Fatal(err)
	}
}
