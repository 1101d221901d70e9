//go:build amd64

package device

import (
	"testing"
	"unsafe"
)

// TestDeviceHotLayout pins where Device's hot fields sit, polls through
// seq, and the struct's size. The benchmark's rma4k_chan is sensitive to
// them: one 8-byte shift of the fields after ringOpt (a field added before
// look) read op_p50_us ×1.02, the change higher in 11 of 12 pairs. A change
// that moves them on purpose updates the numbers below and brings
// alternating parent/change rma4k_chan pairs that show no regression.
func TestDeviceHotLayout(t *testing.T) {
	var d Device
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"polls", unsafe.Offsetof(d.polls), 520},
		{"yields", unsafe.Offsetof(d.yields), 524},
		{"media", unsafe.Offsetof(d.media), 528},
		{"ringOpt", unsafe.Offsetof(d.ringOpt), 552},
		{"look", unsafe.Offsetof(d.look), 560},
		{"ft", unsafe.Offsetof(d.ft), 568},
		{"nextMsgID", unsafe.Offsetof(d.nextMsgID), 576},
		{"seq", unsafe.Offsetof(d.seq), 584},
		{"sizeof(Device)", unsafe.Sizeof(d), 736},
	} {
		if f.got != f.want {
			t.Errorf("%s at %d, want %d", f.name, f.got, f.want)
		}
	}
}
