package main

// The slave side: the one application every benchmark job runs. It is
// registered under appName and entered through mpj.Main() when this binary
// is re-executed as a process slave, or through the goroutine spawner when
// the ranks share the launcher's process. It receives nothing but the
// generated inputs: a parameter record in JobConfig.Args and the input
// file that record names.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpj"
)

const (
	appName = "mpjbench"
	ppTag   = 1
	haloTag = 2
	// convergeEvery is how often the halo solve agrees on the largest
	// update, as an application checking convergence would.
	convergeEvery = 10
)

// appParams is what the launcher tells the slaves: which loop to run, how
// many operations, and where the seeded inputs are.
type appParams struct {
	Kind  string `json:"kind"`  // pp | allreduce | halo | rma | noop
	Bytes int    `json:"bytes"` // payload bytes of one op (pp, rma)
	Count int    `json:"count"` // vector length (allreduce), plate edge (halo)
	Ops   int    `json:"ops"`   // timed operations
	Warm  int    `json:"warm"`  // untimed operations before them
	Batch int    `json:"batch"` // operations per timestamp pair
	Input string `json:"input"` // file holding the generated inputs
	// Result is the file rank 0 writes its report to.
	Result string `json:"result"`
	// Spans, when set, makes rank 0 keep a span per timed operation and
	// write them to this file (the traced run).
	Spans string `json:"spans,omitempty"`
	// Samples makes rank 0 report every sample, not only their median, so
	// the launcher can pool them over reps for a tail percentile.
	Samples bool `json:"samples,omitempty"`
	// Halo only: what the np=1 reference solve of the same plate gave.
	WantResidual float64 `json:"want_residual,omitempty"`
	WantSum      float64 `json:"want_sum,omitempty"`
}

// opSpan is one timed operation as rank 0 saw it (Unix nanoseconds).
type opSpan struct {
	Op    int   `json:"op"`
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// profDelta is the change of rank 0's profiling counters over the timed
// section (traced run only; all zero with profiling off).
type profDelta struct {
	Msgs     int64 `json:"msgs"`
	Bytes    int64 `json:"bytes"`
	RdvMsgs  int64 `json:"rdv_msgs"`
	Rounds   int64 `json:"rounds"`
	WaitNs   int64 `json:"wait_ns"`
	Fences   int64 `json:"fences"`
	Enabled  bool  `json:"enabled"`
	RmaOps   int64 `json:"rma_ops"`
	RmaBytes int64 `json:"rma_bytes"`
}

// repResult is rank 0's report of one job.
type repResult struct {
	Ops     int     `json:"ops"`
	Failed  int     `json:"failed"`
	WallNs  int64   `json:"wall_ns"`
	P50Ns   float64 `json:"p50_ns"`
	Samples int     `json:"samples"`
	// SampleNs is every sample (ns per operation), when asked for.
	SampleNs []float64 `json:"sample_ns,omitempty"`

	// Same-host wall-clock stamps (Unix ns): the first rank entering the
	// application, the last rank leaving its first Barrier, the last rank
	// reaching the end of the application.
	EnterNs   int64 `json:"enter_ns"`
	BarrierNs int64 `json:"barrier_ns"`
	ExitNs    int64 `json:"exit_ns"`

	MaxRSSKB   int64     `json:"max_rss_kb"` // largest resident set of any rank's process
	Pids       []int64   `json:"pids"`       // process id of every rank, by rank
	LocalPeers int       `json:"local_peers"`
	Device     string    `json:"device"`
	Prof       profDelta `json:"prof"`
}

// funcArgs carries JobConfig.Args to goroutine slaves, which have no argv
// of their own; the spawner wrapper in launch.go fills it from the
// SlaveSpec each slave was created with. One job runs at a time.
var funcArgs struct {
	sync.Mutex
	args []string
}

func slaveArgs() []string {
	if mpj.IsSlave() {
		return os.Args[1:]
	}
	funcArgs.Lock()
	defer funcArgs.Unlock()
	return funcArgs.args
}

// writeJSONFile writes v to path through a temporary file, so a reader
// never sees half of it.
func writeJSONFile(path string, v any) error {
	js, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, js, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// peakRSSKB is this process's peak resident set in KiB: VmHWM of
// /proc/self/status. Not getrusage's ru_maxrss — that survives fork and
// exec, so a freshly spawned slave would report at least its launcher's.
func peakRSSKB() (int64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/self/status: %q: %w", line, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// benchApp is the application of every benchmark job.
func benchApp(w *mpj.Comm) error {
	enter := time.Now().UnixNano()
	args := slaveArgs()
	if len(args) != 1 {
		return fmt.Errorf("mpjbench app: want 1 argument, got %d", len(args))
	}
	var p appParams
	if err := json.Unmarshal([]byte(args[0]), &p); err != nil {
		return fmt.Errorf("mpjbench app: parameters: %w", err)
	}

	// Set-up ends when every rank is past its first Barrier. One MAX
	// reduction carries both stamps: the earliest entry (negated) and the
	// latest barrier exit.
	if err := w.Barrier(); err != nil {
		return err
	}
	stamps := []int64{-enter, time.Now().UnixNano()}
	agreed := make([]int64, 2)
	if err := mpj.Allreduce(w, stamps, agreed, mpj.Max[int64]()); err != nil {
		return err
	}
	res := repResult{
		EnterNs:   -agreed[0],
		BarrierNs: agreed[1],
		Device:    w.Device().Name(),
	}
	for r := 0; r < w.Size(); r++ {
		if r != w.Rank() && w.Device().LocalPeer(r) {
			res.LocalPeers++
		}
	}

	var run func(*mpj.Comm, appParams, *timing) (int, error)
	switch p.Kind {
	case "pp":
		run = runPingPong
	case "allreduce":
		run = runAllreduce
	case "halo":
		run = runHalo
	case "rma":
		run = runRMA
	case "noop":
		run = func(*mpj.Comm, appParams, *timing) (int, error) { return 0, nil }
	default:
		return fmt.Errorf("mpjbench app: unknown kind %q", p.Kind)
	}
	tm := newTiming(w, p)
	failed, err := run(w, p, tm)
	if err != nil {
		return err
	}

	// Closing exchange: the worst verification count, the largest
	// resident set, every rank's pid and the latest finish.
	rss, err := peakRSSKB()
	if err != nil {
		return err
	}
	tail := []int64{int64(failed), rss, time.Now().UnixNano()}
	worst := make([]int64, 3)
	if err := mpj.Allreduce(w, tail, worst, mpj.Max[int64]()); err != nil {
		return err
	}
	var pids []int64
	if w.Rank() == 0 {
		pids = make([]int64, w.Size())
	}
	if err := mpj.Gather(w, []int64{int64(os.Getpid())}, pids, 0); err != nil {
		return err
	}
	if w.Rank() != 0 {
		return nil
	}
	res.Failed = int(worst[0])
	res.MaxRSSKB = worst[1]
	res.ExitNs = worst[2]
	res.Pids = pids
	tm.fill(&res)
	if p.Samples {
		res.SampleNs = tm.samples
	}
	if p.Spans != "" {
		if err := writeJSONFile(p.Spans, tm.spans); err != nil {
			return err
		}
	}
	return writeJSONFile(p.Result, res)
}

// timing collects what rank 0 measures: one sample per batch of timed
// operations, the wall time of the timed section, the counter change over
// it and, in the traced run, a span per sample. On other ranks it is inert.
type timing struct {
	w       *mpj.Comm
	on      bool
	ops     int
	batch   int
	samples []float64 // ns per operation
	spans   []opSpan
	keep    bool
	start   time.Time
	wall    time.Duration
	before  mpj.ProfSnapshot
	delta   profDelta
}

func newTiming(w *mpj.Comm, p appParams) *timing {
	t := &timing{w: w, on: w.Rank() == 0, ops: p.Ops, batch: max(p.Batch, 1), keep: p.Spans != ""}
	if t.on {
		n := p.Ops/t.batch + 1
		t.samples = make([]float64, 0, n)
		if t.keep {
			t.spans = make([]opSpan, 0, n)
		}
	}
	return t
}

// begin marks the end of warm-up.
func (t *timing) begin() {
	if !t.on {
		return
	}
	t.before = t.w.ProfSnapshot()
	t.start = time.Now()
}

// sample records that the operations [op, op+n) took from t0 to t1.
func (t *timing) sample(op, n int, t0, t1 time.Time) {
	if !t.on {
		return
	}
	t.samples = append(t.samples, float64(t1.Sub(t0))/float64(n))
	if t.keep {
		t.spans = append(t.spans, opSpan{Op: op, Start: t0.UnixNano(), End: t1.UnixNano()})
	}
}

// end closes the timed section.
func (t *timing) end() {
	if !t.on {
		return
	}
	t.wall = time.Since(t.start)
	a, b := t.w.ProfSnapshot(), t.before
	t.delta = profDelta{
		Enabled:  t.w.ProfEnabled(),
		Msgs:     a.SentMsgs() - b.SentMsgs(),
		Bytes:    a.SentBytes() - b.SentBytes(),
		RdvMsgs:  a.RdvSent - b.RdvSent,
		Rounds:   a.CollRounds - b.CollRounds,
		WaitNs:   a.WaitNs - b.WaitNs,
		Fences:   a.RmaFences - b.RmaFences,
		RmaOps:   a.RmaOps() - b.RmaOps(),
		RmaBytes: a.RmaBytes() - b.RmaBytes(),
	}
}

func (t *timing) fill(res *repResult) {
	res.Ops = t.ops
	res.WallNs = int64(t.wall)
	res.Samples = len(t.samples)
	res.P50Ns = median(t.samples)
	res.Prof = t.delta
}

// runPingPong bounces one payload between ranks 0 and 1. An operation is
// one hop, so a round trip is two; rank 0 stamps the round trip number
// into the payload and checks that exactly the bytes it sent come back.
func runPingPong(w *mpj.Comm, p appParams, tm *timing) (failed int, err error) {
	payload, err := os.ReadFile(p.Input)
	if err != nil {
		return 0, err
	}
	if len(payload) != p.Bytes {
		return 0, fmt.Errorf("pp input: %d bytes, want %d", len(payload), p.Bytes)
	}
	back := make([]byte, p.Bytes)
	warm, trips := p.Warm/2, p.Ops/2
	if w.Rank() >= 2 {
		return 0, nil
	}
	if w.Rank() == 1 {
		for i := 0; i < warm+trips; i++ {
			if _, err := mpj.Recv(w, back, 0, ppTag); err != nil {
				return 0, err
			}
			if err := mpj.Send(w, back, 0, ppTag); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	for i := 0; i < warm+trips; i++ {
		if i == warm {
			tm.begin()
		}
		binary.LittleEndian.PutUint64(payload, uint64(i))
		t0 := time.Now()
		if err := mpj.Send(w, payload, 1, ppTag); err != nil {
			return 0, err
		}
		if _, err := mpj.Recv(w, back, 1, ppTag); err != nil {
			return 0, err
		}
		t1 := time.Now()
		if i >= warm {
			tm.sample(2*(i-warm), 2, t0, t1)
			if !bytes.Equal(back, payload) {
				failed += 2
			}
		}
	}
	tm.end()
	return failed, nil
}

// readDoubles decodes n little-endian float64 values at element offset off
// of the input file's bytes.
func readDoubles(raw []byte, off, n int) ([]float64, error) {
	if len(raw) < 8*(off+n) {
		return nil, fmt.Errorf("input holds %d doubles, want %d at %d", len(raw)/8, n, off)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(off+i):]))
	}
	return out, nil
}

// runAllreduce sums one seeded vector per rank, back to back. The vectors
// hold whole numbers, so the sum is exact in any reduction order and is
// compared element for element with the launcher's closed form. Element 0
// changes with the operation number so a stale result cannot pass.
func runAllreduce(w *mpj.Comm, p appParams, tm *timing) (failed int, err error) {
	raw, err := os.ReadFile(p.Input)
	if err != nil {
		return 0, err
	}
	np, n := w.Size(), p.Count
	mine, err := readDoubles(raw, w.Rank()*n, n)
	if err != nil {
		return 0, err
	}
	want, err := readDoubles(raw, np*n, n)
	if err != nil {
		return 0, err
	}
	mine0, want0 := mine[0], want[0]
	got := make([]float64, n)
	sum := mpj.Sum[float64]()
	for i := 0; i < p.Warm+p.Ops; i++ {
		if i == p.Warm {
			tm.begin()
		}
		mine[0] = mine0 + float64(i)
		want[0] = want0 + float64(np*i)
		t0 := time.Now()
		if err := mpj.Allreduce(w, mine, got, sum); err != nil {
			return 0, err
		}
		t1 := time.Now()
		if i >= p.Warm {
			tm.sample(i-p.Warm, 1, t0, t1)
			if !equalDoubles(got, want) {
				failed++
			}
		}
	}
	tm.end()
	return failed, nil
}

func equalDoubles(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// relaxRows applies one Jacobi update to rows lo..hi (inclusive) of an
// n-wide grid, leaving the first and last column fixed, and returns the
// largest change it made. The reference solve and the ranks share it, so
// both perform the same floating-point operations on every cell.
func relaxRows(cur, next []float64, n, lo, hi int) float64 {
	var biggest float64
	for i := lo; i <= hi; i++ {
		row := i * n
		next[row] = cur[row]
		next[row+n-1] = cur[row+n-1]
		for j := 1; j < n-1; j++ {
			idx := row + j
			v := 0.25 * (cur[idx-n] + cur[idx+n] + cur[idx-1] + cur[idx+1])
			if d := math.Abs(v - cur[idx]); d > biggest {
				biggest = d
			}
			next[idx] = v
		}
	}
	return biggest
}

// referenceSolve is the plain single-threaded solve of the whole plate:
// the np=1 baseline the halo workload is verified against and compared
// with. It returns the last agreed largest update, the sum over the final
// plate and how long the steps took.
func referenceSolve(plate []float64, n, steps int) (residual, sum float64, took time.Duration) {
	cur := append([]float64(nil), plate...)
	next := append([]float64(nil), plate...)
	start := time.Now()
	for s := 0; s < steps; s++ {
		d := relaxRows(cur, next, n, 1, n-2)
		if s%convergeEvery == convergeEvery-1 {
			residual = d
		}
		cur, next = next, cur
	}
	took = time.Since(start)
	for _, v := range cur {
		sum += v
	}
	return residual, sum, took
}

// runHalo is a Jacobi solve of an n×n plate split by rows: every step
// swaps edge rows with the neighbours above and below, relaxes the slab,
// and every convergeEvery-th step agrees on the largest update. An
// operation is one step. The final residual and plate sum must match the
// np=1 reference solve; if they do not, every step counts as failed.
func runHalo(w *mpj.Comm, p appParams, tm *timing) (failed int, err error) {
	raw, err := os.ReadFile(p.Input)
	if err != nil {
		return 0, err
	}
	n, np, rank := p.Count, w.Size(), w.Rank()
	if n%np != 0 {
		return 0, fmt.Errorf("halo: %d rows do not divide over %d ranks", n, np)
	}
	rows := n / np
	first := rank * rows // global index of this slab's first row
	// Local slab with a halo row above and below: local row i is global
	// row first+i-1.
	cur := make([]float64, (rows+2)*n)
	own, err := readDoubles(raw, first*n, rows*n)
	if err != nil {
		return 0, err
	}
	copy(cur[n:], own)
	next := append([]float64(nil), cur...)
	up, down := rank-1, rank+1
	// The plate's first and last row are boundary: never relaxed.
	lo, hi := 1, rows
	if rank == 0 {
		lo = 2
	}
	if rank == np-1 {
		hi = rows - 1
	}
	localMax := make([]float64, 1)
	globalMax := make([]float64, 1)
	maxOp := mpj.Max[float64]()
	reqs := make([]*mpj.Request, 0, 4)
	var residual float64

	for s := 0; s < p.Warm+p.Ops; s++ {
		if s == p.Warm {
			tm.begin()
		}
		t0 := time.Now()
		reqs = reqs[:0]
		post := func(r *mpj.Request, err error) error {
			if err == nil {
				reqs = append(reqs, r)
			}
			return err
		}
		if up >= 0 {
			if err := post(mpj.Irecv(w, cur[:n], up, haloTag)); err != nil {
				return 0, err
			}
			if err := post(mpj.Isend(w, cur[n:2*n], up, haloTag)); err != nil {
				return 0, err
			}
		}
		if down < np {
			if err := post(mpj.Irecv(w, cur[(rows+1)*n:], down, haloTag)); err != nil {
				return 0, err
			}
			if err := post(mpj.Isend(w, cur[rows*n:(rows+1)*n], down, haloTag)); err != nil {
				return 0, err
			}
		}
		if _, err := mpj.WaitAll(reqs); err != nil {
			return 0, err
		}
		localMax[0] = relaxRows(cur, next, n, lo, hi)
		if s%convergeEvery == convergeEvery-1 {
			if err := mpj.Allreduce(w, localMax, globalMax, maxOp); err != nil {
				return 0, err
			}
			residual = globalMax[0]
		}
		cur, next = next, cur
		if s >= p.Warm {
			tm.sample(s-p.Warm, 1, t0, time.Now())
		}
	}
	tm.end()

	// Boundary rows were never written into next; both buffers started
	// from the same plate, so they are intact in whichever is current.
	var part float64
	for _, v := range cur[n : (rows+1)*n] {
		part += v
	}
	total := make([]float64, 1)
	if err := mpj.Allreduce(w, []float64{part}, total, mpj.Sum[float64]()); err != nil {
		return 0, err
	}
	if math.Abs(residual-p.WantResidual) > 1e-9 ||
		math.Abs(total[0]-p.WantSum) > 1e-9*math.Max(1, math.Abs(p.WantSum)) {
		return p.Ops, nil
	}
	return 0, nil
}

// runRMA has both ranks Put their payload into the peer's window and
// Fence, symmetrically. An operation is one such epoch. The window has
// two slots used alternately: after the fence of epoch k a rank checks
// slot k%2 while the peer may already be writing slot (k+1)%2 of the next
// epoch, so the check never races a Put.
func runRMA(w *mpj.Comm, p appParams, tm *timing) (failed int, err error) {
	raw, err := os.ReadFile(p.Input)
	if err != nil {
		return 0, err
	}
	if w.Size() != 2 || len(raw) != 2*p.Bytes {
		return 0, fmt.Errorf("rma: np=%d input=%d bytes, want np=2 input=%d", w.Size(), len(raw), 2*p.Bytes)
	}
	rank, peer := w.Rank(), 1-w.Rank()
	mine := append([]byte(nil), raw[rank*p.Bytes:(rank+1)*p.Bytes]...)
	theirs := append([]byte(nil), raw[peer*p.Bytes:(peer+1)*p.Bytes]...)
	window := make([]byte, 2*p.Bytes)
	win, err := w.WinCreate(window, 1)
	if err != nil {
		return 0, err
	}
	defer win.Free()
	if err := win.Fence(); err != nil {
		return 0, err
	}
	batch := max(p.Batch, 1)
	var t0 time.Time
	for i := 0; i < p.Warm+p.Ops; i++ {
		if i == p.Warm {
			tm.begin()
		}
		if i >= p.Warm && (i-p.Warm)%batch == 0 {
			t0 = time.Now()
		}
		slot := (i % 2) * p.Bytes
		binary.LittleEndian.PutUint64(mine, uint64(i))
		if err := mpj.PutT(win, mine, peer, slot); err != nil {
			return 0, err
		}
		if err := win.Fence(); err != nil {
			return 0, err
		}
		if i >= p.Warm {
			if k := i - p.Warm; k%batch == batch-1 {
				tm.sample(k-batch+1, batch, t0, time.Now())
			}
			binary.LittleEndian.PutUint64(theirs, uint64(i))
			if !bytes.Equal(window[slot:slot+p.Bytes], theirs) {
				failed++
			}
		}
	}
	tm.end()
	return failed, nil
}
