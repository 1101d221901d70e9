package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Measured collective-crossover tables, written by `mpjbench -tune` and
// consulted by the selection layer in collalg.go.
//
// The table is per *device* ("chan", "tcp", "hyb"): the payload size at
// which the large-message schedules overtake the classic trees differs
// by an order of magnitude between an in-process channel mesh and a TCP
// mesh, so one set of constants cannot fit both. A process loads at most
// one table, once, at NewWorld: from the path in MPJ_COLL_TABLE if set,
// else from ~/.mpj/colltab.json if present. A missing, malformed or
// partial table is NOT an error — selection silently falls back to the
// built-in defaults for anything the table does not supply — because a
// stale or truncated tuning artifact must never take a job down; keys the
// format does not know (seg_size, bin_pipe_min and bin_pipe_max in older
// tables) are ignored. (This is deliberately unlike MPJ_COLL_ALG, which
// fails loudly: it states intent for *this* run, the table is a cached
// measurement.)
//
// Consultation order everywhere: table entry > built-in constant.

// CollTableEnv names the environment variable holding the path of the
// measured crossover table.
const CollTableEnv = "MPJ_COLL_TABLE"

// collTableVersion is the format version written and accepted; a table
// with a different version is ignored wholesale (treated as absent).
const collTableVersion = 1

// NewCollTable returns an empty table of the current format version,
// ready for a tuner to fill in.
func NewCollTable() *CollTable {
	return &CollTable{Version: collTableVersion, Devices: map[string]*DeviceCrossovers{}}
}

// CollTable is a measured algorithm-crossover table.
type CollTable struct {
	// Version is the table format version (collTableVersion).
	Version int `json:"version"`
	// Devices maps a device name ("chan", "tcp", "hyb") to its measured
	// crossovers.
	Devices map[string]*DeviceCrossovers `json:"devices"`
}

// DeviceCrossovers holds one device's measured selection thresholds. A
// zero field means "not measured — use the built-in default".
type DeviceCrossovers struct {
	// LargeMin is the packed payload size (bytes) at which the
	// large-message schedules overtake the classic trees.
	LargeMin int `json:"large_min,omitempty"`
	// LargeMinNP is the smallest communicator size where the
	// large-message schedules pay off.
	LargeMinNP int `json:"large_min_np,omitempty"`
	// HierMin is the payload size (bytes) from which the hierarchical
	// two-level schedules are auto-chosen on comms spanning at least two
	// locality groups.
	HierMin int `json:"hier_min,omitempty"`
	// PerNP refines LargeMin at specific communicator sizes.
	PerNP []NPCrossover `json:"per_np,omitempty"`
}

// NPCrossover is a crossover measured at one communicator size.
type NPCrossover struct {
	NP       int `json:"np"`
	LargeMin int `json:"large_min,omitempty"`
}

// largeMinAt returns the large-message threshold for an np-member
// communicator: an exact per-np measurement wins, then the device-wide
// one; 0 means the table has nothing to say.
func (d *DeviceCrossovers) largeMinAt(np int) int {
	for _, e := range d.PerNP {
		if e.NP == np && e.LargeMin > 0 {
			return e.LargeMin
		}
	}
	return d.LargeMin
}

// DefaultCollTablePath returns ~/.mpj/colltab.json, the table location
// used when MPJ_COLL_TABLE is unset ("" when no home directory resolves).
func DefaultCollTablePath() string {
	home, err := os.UserHomeDir()
	if err != nil || home == "" {
		return ""
	}
	return filepath.Join(home, ".mpj", "colltab.json")
}

// collTablePath resolves where to look for (or write) the table.
func collTablePath() string {
	if p := os.Getenv(CollTableEnv); p != "" {
		return p
	}
	return DefaultCollTablePath()
}

// LoadCollTable reads and validates the crossover table at path. Unlike
// loadCollTableEnv it does report what went wrong, for tooling that wants
// to know (mpjbench -tune's round-trip check).
func LoadCollTable(path string) (*CollTable, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t CollTable
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("collective crossover table %s: %w", path, err)
	}
	if t.Version != collTableVersion {
		return nil, fmt.Errorf("collective crossover table %s: version %d, want %d", path, t.Version, collTableVersion)
	}
	return &t, nil
}

// loadCollTableEnv loads the process's crossover table from
// MPJ_COLL_TABLE or the default path. Any failure — no table, unreadable
// file, malformed JSON, wrong version — yields nil: the built-in
// constants apply.
func loadCollTableEnv() *CollTable {
	path := collTablePath()
	if path == "" {
		return nil
	}
	t, err := LoadCollTable(path)
	if err != nil {
		return nil
	}
	return t
}

// WriteFile writes the table as JSON at path, creating parent directories
// as needed (the `mpjbench -tune` output path).
func (t *CollTable) WriteFile(path string) error {
	if path == "" {
		return fmt.Errorf("collective crossover table: empty path")
	}
	raw, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// deviceCrossovers picks the entry for the named device (nil when the
// table is nil or has no entry — defaults apply).
func (t *CollTable) deviceCrossovers(name string) *DeviceCrossovers {
	if t == nil || name == "" {
		return nil
	}
	return t.Devices[name]
}
