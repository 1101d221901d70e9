package main

// The five workloads and their seeded inputs. Names, shapes and operation
// counts are fixed: later changes cite them, and a rep's timed section is
// only comparable across commits because the count does not move.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// workload is one benchmark job shape.
type workload struct {
	Name string
	NP   int
	// Proc places every rank in its own OS process (daemon.ProcSpawner),
	// so the hyb device routes all traffic over loopback TCP. Otherwise
	// the ranks are goroutines of the launcher and hyb routes them over
	// the channel mesh. The launch path is the same.
	Proc  bool
	Kind  string
	Bytes int // payload bytes one operation moves from rank 0 (goodput)
	Count int
	Ops   int // timed operations of one rep; warm-up is a tenth on top
	Batch int // operations per timestamp pair (16 where an op is < 10 µs)
	Why   string
}

const (
	plateEdge   = 256
	reduceCount = 131072
)

// workloads lists the benchmark's jobs. Ops were sized at the seed commit
// so that a rep's timed section is a quarter of a second or so (README.md
// gives the timings): short enough that a run holds fifty or more fresh
// jobs, because the job-to-job scatter (5 % and more) is wider than a
// third of the bound and only a median over many jobs repeats.
var workloads = []workload{
	{
		Name: "pp4k_tcp", NP: 2, Proc: true, Kind: "pp", Bytes: 4 << 10, Ops: 8000, Batch: 1,
		Why: "eager path over loopback sockets: per-message cost in wire and transport dominates",
	},
	{
		Name: "pp1m_tcp", NP: 2, Proc: true, Kind: "pp", Bytes: 1 << 20, Ops: 200, Batch: 1,
		Why: "rendezvous path over loopback sockets: handshake plus byte moving dominates, per-message cost is noise",
	},
	{
		Name: "allreduce1m_tcp", NP: 4, Proc: true, Kind: "allreduce", Bytes: 8 * reduceCount, Count: reduceCount, Ops: 24, Batch: 1,
		Why: "core does the work: algorithm choice, rounds, segmentation, reduction; 4 processes share 2 cores and the slowest rank sets the time",
	},
	{
		Name: "halo_chan", NP: 4, Proc: false, Kind: "halo", Bytes: 2 * 8 * plateEdge, Count: plateEdge, Ops: 3000, Batch: 1,
		Why: "time to solution of a Jacobi solve with compute in the loop over the channel mesh: device matching and wake-up are the communication cost, burning CPU loses",
	},
	{
		Name: "rma4k_chan", NP: 2, Proc: false, Kind: "rma", Bytes: 4 << 10, Ops: 64000, Batch: 16,
		Why: "one-sided Put+Fence epochs over the channel mesh: the data op is a memmove, the two-phase fence is the cost; two-sided changes must not move it",
	},
}

// refSolve is the outcome of the np=1 reference solve of the halo plate.
type refSolve struct {
	Steps         int
	Residual, Sum float64
	Took          time.Duration
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled returns the workload with its operation count divided by div
// (tests and the ladder's short probes), keeping it a multiple of the
// batch and of a round trip.
func (w workload) scaled(div int) workload {
	unit := max(w.Batch, 2)
	w.Ops = max(w.Ops/div/unit, 1) * unit
	return w
}

func (w workload) warm() int {
	unit := max(w.Batch, 2)
	return max(w.Ops/10/unit, 1) * unit
}

func putDoubles(dst []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

// prepare generates the workload's inputs from seed, writes them under
// dir and returns the parameters the slaves get, which also name the file
// rank 0 reports to. The same seed gives the same bytes. For the halo workload it also runs the np=1 reference
// solve, whose duration it returns.
func (w workload) prepare(seed int64, dir string) (appParams, refSolve, error) {
	rng := rand.New(rand.NewSource(seed))
	p := appParams{
		Kind: w.Kind, Bytes: w.Bytes, Count: w.Count,
		Ops: w.Ops, Warm: w.warm(), Batch: w.Batch,
	}
	var ref refSolve
	var raw []byte
	switch w.Kind {
	case "pp":
		raw = make([]byte, w.Bytes)
		rng.Read(raw)
	case "rma":
		raw = make([]byte, 2*w.Bytes) // rank r's payload at r*Bytes
		rng.Read(raw)
	case "allreduce":
		// One vector of whole numbers per rank, then their element-wise
		// sum: exact in float64 whatever order the ranks reduce in.
		n := w.Count
		sum := make([]float64, n)
		raw = make([]byte, 8*n*(w.NP+1))
		vec := make([]float64, n)
		for r := 0; r < w.NP; r++ {
			for i := range vec {
				vec[i] = float64(rng.Intn(2001) - 1000)
				sum[i] += vec[i]
			}
			putDoubles(raw[8*n*r:], vec)
		}
		putDoubles(raw[8*n*w.NP:], sum)
	case "halo":
		n := w.Count
		plate := make([]float64, n*n)
		for i := range plate {
			plate[i] = 100 * rng.Float64()
		}
		raw = make([]byte, 8*len(plate))
		putDoubles(raw, plate)
		ref.Steps = p.Warm + p.Ops
		ref.Residual, ref.Sum, ref.Took = referenceSolve(plate, n, ref.Steps)
		p.WantResidual, p.WantSum = ref.Residual, ref.Sum
	case "noop":
	default:
		return p, ref, fmt.Errorf("workload %s: unknown kind %q", w.Name, w.Kind)
	}
	// Slaves are other processes: they get absolute paths.
	dir, err := filepath.Abs(dir)
	if err != nil {
		return p, ref, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return p, ref, err
	}
	p.Result = filepath.Join(dir, w.Name+".result.json")
	if raw != nil {
		p.Input = filepath.Join(dir, w.Name+".bin")
		if err := os.WriteFile(p.Input, raw, 0o644); err != nil {
			return p, ref, err
		}
	}
	return p, ref, nil
}
