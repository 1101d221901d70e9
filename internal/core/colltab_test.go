package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mpj/internal/transport"
)

func TestCollTableRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "colltab.json")
	in := &CollTable{
		Version: collTableVersion,
		Devices: map[string]*DeviceCrossovers{
			"chan": {LargeMin: 128 << 10, PerNP: []NPCrossover{{NP: 4, LargeMin: 96 << 10}}},
			"hyb":  {LargeMin: 48 << 10, LargeMinNP: 4, HierMin: 1 << 10},
		},
	}
	if err := in.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	out, err := LoadCollTable(path)
	if err != nil {
		t.Fatalf("LoadCollTable: %v", err)
	}
	if fmt.Sprintf("%+v", out.Devices["chan"]) != fmt.Sprintf("%+v", in.Devices["chan"]) ||
		fmt.Sprintf("%+v", out.Devices["hyb"]) != fmt.Sprintf("%+v", in.Devices["hyb"]) {
		t.Fatalf("round-trip mismatch:\n in: %+v / %+v\nout: %+v / %+v",
			in.Devices["chan"], in.Devices["hyb"], out.Devices["chan"], out.Devices["hyb"])
	}
	if got := out.Devices["chan"].largeMinAt(4); got != 96<<10 {
		t.Fatalf("largeMinAt(4) = %d, want per-np 96 KiB", got)
	}
	if got := out.Devices["chan"].largeMinAt(7); got != 128<<10 {
		t.Fatalf("largeMinAt(7) = %d, want device-wide 128 KiB", got)
	}
}

func TestCollTableRejectsBadInput(t *testing.T) {
	dir := t.TempDir()

	mal := filepath.Join(dir, "malformed.json")
	if err := os.WriteFile(mal, []byte(`{"version": 1, "devices": {`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCollTable(mal); err == nil {
		t.Fatal("LoadCollTable(malformed): no error")
	}

	ver := filepath.Join(dir, "version.json")
	if err := os.WriteFile(ver, []byte(`{"version": 99, "devices": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCollTable(ver); err == nil {
		t.Fatal("LoadCollTable(wrong version): no error")
	}

	if _, err := LoadCollTable(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("LoadCollTable(missing): no error")
	}

	for _, p := range []string{mal, ver, filepath.Join(dir, "missing.json")} {
		t.Setenv(CollTableEnv, p)
		if got := loadCollTableEnv(); got != nil {
			t.Fatalf("loadCollTableEnv(%s) = %+v, want nil fallback", p, got)
		}
	}
}

// A malformed table must never take a job down: NewWorld falls back to the
// built-in constants and collectives run normally.
func TestMalformedTableFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "broken.json")
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv(CollTableEnv, path)

	runRanks(t, 3, func(w *Comm) error {
		if w.proc.collDev != nil {
			return expect(false, "collDev = %+v from a malformed table", w.proc.collDev)
		}
		if got := w.largeMin(); got != defLargeCollMin {
			return expect(false, "largeMin = %d, want built-in default", got)
		}
		s := []int32{1}
		r := make([]int32, 1)
		if err := w.Allreduce(s, 0, r, 0, 1, Int, SumOp); err != nil {
			return err
		}
		return expect(r[0] == 3, "allreduce = %d", r[0])
	})
}

// A partial table overrides only what it measured; everything else keeps
// the built-in defaults.
func TestPartialTableFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partial.json")
	tab := &CollTable{
		Version: collTableVersion,
		Devices: map[string]*DeviceCrossovers{"chan": {HierMin: 8 << 10}},
	}
	if err := tab.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	t.Setenv(CollTableEnv, path)

	runRanks(t, 2, func(w *Comm) error {
		if got := w.hierMin(); got != 8<<10 {
			return expect(false, "hierMin = %d, want table's 8 KiB", got)
		}
		if got := w.largeMin(); got != defLargeCollMin {
			return expect(false, "largeMin = %d, want built-in default (not in table)", got)
		}
		return expect(w.largeMinNP() == defLargeCollMinNP, "largeMinNP = %d, want built-in default", w.largeMinNP())
	})
}

// A table written when the format still carried the pipelined broadcast's
// knobs (seg_size, bin_pipe_min, bin_pipe_max) is a stale artifact, not a
// broken one: it loads, the keys the format no longer has are ignored, and
// its large_min and hier_min still steer selection.
func TestStaleTableStillApplies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stale.json")
	stale := `{"version": 1, "devices": {"chan": {"large_min": 4096, "large_min_np": 3,
		"bin_pipe_min": 4096, "bin_pipe_max": 262144, "hier_min": 2048, "seg_size": 32768}}}`
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCollTable(path); err != nil {
		t.Fatalf("LoadCollTable(stale): %v", err)
	}
	t.Setenv(CollTableEnv, path)

	runRanks(t, 4, func(w *Comm) error {
		if w.largeMin() != 4096 || w.hierMin() != 2048 {
			return expect(false, "largeMin %d, hierMin %d: want the stale table's 4096 and 2048", w.largeMin(), w.hierMin())
		}
		// 4 KiB of Int lands in place (large), 2 KiB is adopted (classic);
		// on two interleaved groups 2 KiB is hier, 1 KiB is not.
		for _, tc := range []struct {
			n     int
			keys  []string
			alg   string
			fixed bool
		}{
			{1024, nil, "binomial", true},
			{512, nil, "binomial", false},
			{512, []string{"A", "B", "A", "B"}, "hier", true},
			{256, []string{"A", "B", "A", "B"}, "binomial", false},
		} {
			w.SetLocalityTable(tc.keys)
			buf := make([]int32, tc.n)
			if w.Rank() == 1 {
				for i := range buf {
					buf[i] = int32(3*i + 1)
				}
			}
			req, err := w.Ibcast(buf, 0, tc.n, Int, 1)
			if err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			lands := false
			for _, rd := range req.rounds {
				for _, rs := range rd.recvs {
					lands = lands || rs.buf != nil
				}
			}
			if req.alg != tc.alg || w.Rank() != 1 && lands != tc.fixed {
				return expect(false, "n=%d keys=%v: %s landing in place %v, want %s and %v", tc.n, tc.keys, req.alg, lands, tc.alg, tc.fixed)
			}
			for i, v := range buf {
				if v != int32(3*i+1) {
					return expect(false, "n=%d keys=%v: buf[%d] = %d", tc.n, tc.keys, i, v)
				}
			}
		}
		w.SetLocalityTable(nil)
		return nil
	})
}

// tableSweep compares collective results under automatic selection (with
// whatever table is installed) against an explicitly forced family on a
// second pass; both must be byte-identical.
func tableSweep(w *Comm, forced CollAlg) error {
	np := w.Size()
	const n = 6144 // 48 KiB of float64: crosses the exotic table's thresholds

	run := func() ([]float64, []float64, error) {
		b := make([]float64, n)
		if w.Rank() == 0 {
			for i := range b {
				b[i] = float64(i%773) + 0.25
			}
		}
		if err := w.Bcast(b, 0, n, Double, 0); err != nil {
			return nil, nil, fmt.Errorf("bcast: %w", err)
		}
		s := make([]float64, n)
		for i := range s {
			s[i] = float64((w.Rank()+1)*1000 + i%97)
		}
		r := make([]float64, n)
		if err := w.Allreduce(s, 0, r, 0, n, Double, SumOp); err != nil {
			return nil, nil, fmt.Errorf("allreduce: %w", err)
		}
		return b, r, nil
	}

	w.SetCollAlg(CollAlgAuto)
	ab, ar, err := run()
	if err != nil {
		return fmt.Errorf("auto np=%d: %w", np, err)
	}
	w.SetCollAlg(forced)
	fb, fr, err := run()
	if err != nil {
		return fmt.Errorf("forced %v np=%d: %w", forced, np, err)
	}
	w.SetCollAlg(CollAlgAuto)

	for i := range ab {
		if ab[i] != fb[i] {
			return fmt.Errorf("np=%d forced %v: bcast[%d] %v != auto %v", np, forced, i, fb[i], ab[i])
		}
		if ar[i] != fr[i] {
			return fmt.Errorf("np=%d forced %v: allreduce[%d] %v != auto %v", np, forced, i, fr[i], ar[i])
		}
	}
	return nil
}

// Property: with an exotic measured table steering auto selection (tiny
// thresholds so the large/hier paths engage at test-sized payloads), auto
// and every explicitly forced family still produce byte-identical
// collective results, across np in {2, 3, 5, 8} on both chan and hyb.
func TestTableAutoMatchesForced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exotic.json")
	tab := &CollTable{
		Version: collTableVersion,
		Devices: map[string]*DeviceCrossovers{
			"chan": {LargeMin: 1, LargeMinNP: 2, HierMin: 1},
			"hyb":  {LargeMin: 1, LargeMinNP: 2, HierMin: 1},
		},
	}
	if err := tab.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	t.Setenv(CollTableEnv, path)

	families := []CollAlg{CollAlgClassic, CollAlgSegmented, CollAlgRing, CollAlgHier}
	for _, np := range []int{2, 3, 5, 8} {
		np := np
		// Alternating keys: multi-group from np>=4 members, so hier engages
		// where it can and falls back where it cannot.
		keys := make([]string, np)
		for i := range keys {
			keys[i] = []string{"A", "B"}[i%2]
		}

		t.Run(fmt.Sprintf("chan-np%d", np), func(t *testing.T) {
			runRanks(t, np, func(w *Comm) error {
				if w.proc.collDev == nil || w.proc.collDev.LargeMinNP != 2 {
					return expect(false, "exotic table not loaded: %+v", w.proc.collDev)
				}
				w.SetLocalityTable(keys)
				for _, f := range families {
					if err := tableSweep(w, f); err != nil {
						return err
					}
				}
				w.SetLocalityTable(nil)
				return nil
			})
		})

		t.Run(fmt.Sprintf("hyb-np%d", np), func(t *testing.T) {
			loc := transport.ProcessLocality()
			locs := make([]string, np)
			for i := range locs {
				locs[i] = loc
			}
			jobID := 0x7ab1<<32 | hierJobSeq.Add(1)
			runRanksOn(t, np, func(i int) (transport.Transport, error) {
				return transport.NewHybTransport(transport.HybConfig{Rank: i, JobID: jobID, Locs: locs})
			}, func(w *Comm) error {
				if w.proc.collDev == nil || w.proc.collDev.LargeMinNP != 2 {
					return expect(false, "exotic table not loaded for hyb: %+v", w.proc.collDev)
				}
				w.SetLocalityTable(keys)
				for _, f := range families {
					if err := tableSweep(w, f); err != nil {
						return err
					}
				}
				w.SetLocalityTable(nil)
				return nil
			})
		})
	}
}
