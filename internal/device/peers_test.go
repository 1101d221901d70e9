package device_test

import (
	"fmt"
	"testing"

	"mpj/internal/fault"
	"mpj/internal/transport"
)

// TestFaultWrapperReports pins what a device reports of its peers, bare and
// behind the fault injector. The injector keeps the device name, the
// locality table and the co-host rings, and hides every other rank's
// address space: a one-sided operation to a peer in memory would move
// bytes around the frames the injector intercepts. A co-host peer's
// payloads stream once the rings are live, and are pulled without them.
func TestFaultWrapperReports(t *testing.T) {
	const np = 3
	one := []string{"one-process", "one-process", "one-process"}
	host := transport.ProcessLocality()
	for _, tc := range []struct {
		flavor, name string
		wrap         bool
		local        bool // every rank shares the address space
		table        []string
		paths, media string // what a rank says of every other rank
	}{
		{"chan", "chan", false, true, nil, "memory", "memory"},
		{"chan", "chan", true, false, nil, "wire", "socket"},
		{"hyb-local", "hyb", false, true, one, "memory", "memory"},
		{"hyb-local", "hyb", true, false, one, "wire", "socket"},
		{"tcp-ring", "tcp", false, false, []string{host, host, host}, "stream", "ring"},
		{"tcp-ring", "tcp", true, false, []string{host, host, host}, "stream", "ring"},
		{"tcp-pull", "tcp", false, false, []string{host, host, host}, "pull", "socket"},
	} {
		name := tc.flavor
		if tc.wrap {
			name += "/fault"
		}
		t.Run(name, func(t *testing.T) {
			var wrap func(transport.Transport) transport.Transport
			if tc.wrap {
				wrap = faulty(fault.NewDomain(), nil)
			}
			ds := openFlavor(t, tc.flavor, np, wrap)
			for r, d := range ds {
				if got := d.Name(); got != tc.name {
					t.Errorf("rank %d: Name() = %q, want %q", r, got, tc.name)
				}
				if got := d.LocalityTable(); fmt.Sprint(got) != fmt.Sprint(tc.table) || (got == nil) != (tc.table == nil) {
					t.Errorf("rank %d: LocalityTable() = %q, want %q", r, got, tc.table)
				}
				local, paths, media := make([]bool, np), make([]string, np), make([]string, np)
				for p := range local {
					local[p], paths[p], media[p] = tc.local, tc.paths, tc.media
				}
				local[r], paths[r], media[r] = true, "memory", "memory"
				for p, want := range local {
					if got := d.LocalPeer(p); got != want {
						t.Errorf("rank %d: LocalPeer(%d) = %v, want %v", r, p, got, want)
					}
				}
				if tc.media == "ring" {
					until(t, "the rings settle", func() bool { return fmt.Sprint(d.FrameMedia()) == fmt.Sprint(media) })
				}
				if got := d.FrameMedia(); fmt.Sprint(got) != fmt.Sprint(media) {
					t.Errorf("rank %d: FrameMedia() = %q, want %q", r, got, media)
				}
				if got := d.PeerPaths(); fmt.Sprint(got) != fmt.Sprint(paths) {
					t.Errorf("rank %d: PeerPaths() = %q, want %q", r, got, paths)
				}
			}
		})
	}
}
