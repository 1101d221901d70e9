package core

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math/bits"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"mpj/internal/transport"
	"mpj/internal/wire"
)

// The schedule-shape table: every collective is compiled and run for every
// np in [2,9], three locality layouts, three payload classes and every
// forced algorithm family, and what each rank's schedule looks like — the
// algorithm name and per round the ordered (peer, byte length) of its
// receives and sends — is compared against testdata/schedshape.golden. The
// table is the contract for refactors of the round builders: who compiles
// the rounds may change, the rounds may not. Three properties are checked
// on every row whatever the golden says: send/receive duality (every send
// has exactly one receive at its peer, in FIFO order per pair, and where
// either side states a length up front it is the length that travelled),
// that the schedule names its algorithm, and lend safety (no round lands a
// receive in bytes one of its sends lends to the device, see lendCheck).
//
// A golden line is "<collective> np=<n> <layout>" followed by one hash per
// (payload class, family) cell over the rounds of all ranks, and one hash
// over the cells' algorithm names. Regenerate with
//
//	go test -run ScheduleShape ./internal/core -schedshape.update
//
// and read what a cell hashes with -schedshape.dump=<file>.
var (
	shapeUpdate = flag.Bool("schedshape.update", false, "rewrite testdata/schedshape.golden from the schedules compiled now")
	shapeDump   = flag.String("schedshape.dump", "", "write the full schedule-shape table as text to this file")
)

const shapeGolden = "testdata/schedshape.golden"

// shapeTap records, per destination and envelope, the payload length of
// every message the device starts (eager frames and rendezvous RTS), in
// send order. It is the ground truth for "byte length": schedule steps
// whose payload is a closure or a dynamic receive state no length.
type shapeTap struct {
	transport.Transport
	mu   sync.Mutex
	sent map[tapKey][]int
}

type tapKey struct{ dst, ctx, tag int }

func (t *shapeTap) Send(dst int, frame []byte) error {
	var h wire.Header
	if err := h.Decode(frame); err == nil && (h.Kind == wire.KindEager || h.Kind == wire.KindRTS) {
		k := tapKey{dst, int(h.Context), int(h.Tag)}
		t.mu.Lock()
		t.sent[k] = append(t.sent[k], int(h.Len))
		t.mu.Unlock()
	}
	return t.Transport.Send(dst, frame)
}

// stepShape is one schedule step as compiled: the peer and the length the
// step states up front (-1: a closure-supplied send or a dynamic receive).
type stepShape struct{ peer, n int }

// roundShape is one round as compiled; area, for a round of a walk through
// the host area, is the step: what it does and this rank's share of the
// chunk's bytes.
type roundShape struct {
	recvs, sends []stepShape
	area         string
}

// schedShape is what one rank compiled for one collective call.
type schedShape struct {
	tag    int
	alg    string
	rounds []roundShape
	lend   error // lendCheck's verdict on the compiled rounds
}

// lendCheck is the read/write-set check behind sendStep.lend. A lent send
// is read by the device until the send completes, and its round does not
// end before that; so it is safe exactly when nothing else in the same
// round writes those bytes. The writes of a round are the landing buffers
// of its receives and whatever its completion actions write; folds[i],
// where there is one, is the latter for round i (a builder's actions are
// closures, so only a test that spies on the combiner can know them).
func lendCheck(rounds []round, folds [][]byte) error {
	for i, rd := range rounds {
		for _, ss := range rd.sends {
			if !ss.lend {
				continue
			}
			if ss.data == nil {
				return fmt.Errorf("round %d: send to %d lends but has no data supplier", i, ss.to)
			}
			lent := ss.data()
			for _, rs := range rd.recvs {
				if overlaps(lent, rs.buf) {
					return fmt.Errorf("round %d: receive from %d lands in the %d bytes lent to the send to %d", i, rs.from, len(lent), ss.to)
				}
			}
			if i < len(folds) && overlaps(lent, folds[i]) {
				return fmt.Errorf("round %d: a completion action writes the %d bytes lent to the send to %d", i, len(lent), ss.to)
			}
		}
	}
	return nil
}

func captureShape(r *CollRequest) schedShape {
	s := schedShape{tag: r.tag, alg: r.alg, lend: lendCheck(r.rounds, nil)}
	for _, rd := range r.rounds {
		var rs roundShape
		if w := rd.walk; w != nil {
			_, m, lo, hi := w.chunk(rd.walkStep / 2)
			rs.area = fmt.Sprintf("%s %d:%d/%d", [2]string{"publish", "fold"}[rd.walkStep%2], lo, hi, m)
		}
		for _, x := range rd.recvs {
			n := -1
			if x.buf != nil {
				n = len(x.buf)
			}
			rs.recvs = append(rs.recvs, stepShape{x.from, n})
		}
		for _, x := range rd.sends {
			n := -1
			if x.fill != nil {
				n = x.n
			}
			rs.sends = append(rs.sends, stepShape{x.to, n})
		}
		s.rounds = append(s.rounds, rs)
	}
	return s
}

// shapeWait completes a started collective and captures its schedule.
func shapeWait(r *CollRequest, err error) (schedShape, error) {
	if err != nil {
		return schedShape{}, err
	}
	if _, err := r.Wait(); err != nil {
		return schedShape{}, err
	}
	return captureShape(r), nil
}

// shapeStart runs the first activation of a persistent collective and
// captures the schedule it compiled.
func shapeStart(p *PcollRequest, err error) (schedShape, error) {
	if err != nil {
		return schedShape{}, err
	}
	if err := p.Start(); err != nil {
		return schedShape{}, err
	}
	if _, err := p.Wait(); err != nil {
		return schedShape{}, err
	}
	return captureShape(p.active), nil
}

// vCount is the varying-count layout of the table: rank r's block holds
// 0, n or 2n elements, so every v-form row carries empty blocks.
func vCount(r, n int) int { return n * ((r + 1) % 3) }

func vLayout(np, n int) (counts, displs []int, total int) {
	counts, displs = make([]int, np), make([]int, np)
	for r := range counts {
		counts[r], displs[r] = vCount(r, n), total
		total += counts[r]
	}
	return counts, displs, total
}

// shapeOps lists every collective with its non-blocking and persistent
// entry; n is the per-block (or, for the rooted and reducing forms, whole)
// element count of Int.
var shapeOps = []struct {
	name string
	run  func(w *Comm, n int, commit bool) (schedShape, error)
}{
	{"barrier", func(w *Comm, n int, commit bool) (schedShape, error) {
		if commit {
			return shapeStart(w.CommitBarrier())
		}
		return shapeWait(w.Ibarrier())
	}},
	{"bcast", func(w *Comm, n int, commit bool) (schedShape, error) {
		buf := make([]int32, n)
		if commit {
			return shapeStart(w.CommitBcast(buf, 0, n, Int, 1))
		}
		return shapeWait(w.Ibcast(buf, 0, n, Int, 1))
	}},
	{"gather", func(w *Comm, n int, commit bool) (schedShape, error) {
		s, r := make([]int32, n), make([]int32, n*w.Size())
		if commit {
			return shapeStart(w.CommitGather(s, 0, n, Int, r, 0, n, Int, 1))
		}
		return shapeWait(w.Igather(s, 0, n, Int, r, 0, n, Int, 1))
	}},
	{"scatter", func(w *Comm, n int, commit bool) (schedShape, error) {
		s, r := make([]int32, n*w.Size()), make([]int32, n)
		if commit {
			return shapeStart(w.CommitScatter(s, 0, n, Int, r, 0, n, Int, 1))
		}
		return shapeWait(w.Iscatter(s, 0, n, Int, r, 0, n, Int, 1))
	}},
	{"allgather", func(w *Comm, n int, commit bool) (schedShape, error) {
		s, r := make([]int32, n), make([]int32, n*w.Size())
		if commit {
			return shapeStart(w.CommitAllgather(s, 0, n, Int, r, 0, n, Int))
		}
		return shapeWait(w.Iallgather(s, 0, n, Int, r, 0, n, Int))
	}},
	{"alltoall", func(w *Comm, n int, commit bool) (schedShape, error) {
		s, r := make([]int32, n*w.Size()), make([]int32, n*w.Size())
		if commit {
			return shapeStart(w.CommitAlltoall(s, 0, n, Int, r, 0, n, Int))
		}
		return shapeWait(w.Ialltoall(s, 0, n, Int, r, 0, n, Int))
	}},
	{"reduce", func(w *Comm, n int, commit bool) (schedShape, error) {
		s, r := make([]int32, n), make([]int32, n)
		if commit {
			return shapeStart(w.CommitReduce(s, 0, r, 0, n, Int, SumOp, 1))
		}
		return shapeWait(w.Ireduce(s, 0, r, 0, n, Int, SumOp, 1))
	}},
	{"allreduce", func(w *Comm, n int, commit bool) (schedShape, error) {
		s, r := make([]int32, n), make([]int32, n)
		if commit {
			return shapeStart(w.CommitAllreduce(s, 0, r, 0, n, Int, SumOp))
		}
		return shapeWait(w.Iallreduce(s, 0, r, 0, n, Int, SumOp))
	}},
	{"scan", func(w *Comm, n int, commit bool) (schedShape, error) {
		s, r := make([]int32, n), make([]int32, n)
		if commit {
			return shapeStart(w.CommitScan(s, 0, r, 0, n, Int, SumOp))
		}
		return shapeWait(w.Iscan(s, 0, r, 0, n, Int, SumOp))
	}},
	{"gatherv", func(w *Comm, n int, commit bool) (schedShape, error) {
		counts, displs, total := vLayout(w.Size(), n)
		mine := vCount(w.Rank(), n)
		s, r := make([]int32, mine), make([]int32, total)
		if commit {
			return shapeStart(w.CommitGatherv(s, 0, mine, Int, r, 0, counts, displs, Int, 1))
		}
		return shapeWait(w.Igatherv(s, 0, mine, Int, r, 0, counts, displs, Int, 1))
	}},
	{"scatterv", func(w *Comm, n int, commit bool) (schedShape, error) {
		counts, displs, total := vLayout(w.Size(), n)
		mine := vCount(w.Rank(), n)
		s, r := make([]int32, total), make([]int32, mine)
		if commit {
			return shapeStart(w.CommitScatterv(s, 0, counts, displs, Int, r, 0, mine, Int, 1))
		}
		return shapeWait(w.Iscatterv(s, 0, counts, displs, Int, r, 0, mine, Int, 1))
	}},
	{"allgatherv", func(w *Comm, n int, commit bool) (schedShape, error) {
		counts, displs, total := vLayout(w.Size(), n)
		mine := vCount(w.Rank(), n)
		s, r := make([]int32, mine), make([]int32, total)
		if commit {
			return shapeStart(w.CommitAllgatherv(s, 0, mine, Int, r, 0, counts, displs, Int))
		}
		return shapeWait(w.Iallgatherv(s, 0, mine, Int, r, 0, counts, displs, Int))
	}},
	{"alltoallv", func(w *Comm, n int, commit bool) (schedShape, error) {
		// The block between a and b holds vCount(a+b) elements both ways.
		np := w.Size()
		counts, displs := make([]int, np), make([]int, np)
		total := 0
		for r := range counts {
			counts[r], displs[r] = vCount(w.Rank()+r, n), total
			total += counts[r]
		}
		s, r := make([]int32, total), make([]int32, total)
		if commit {
			return shapeStart(w.CommitAlltoallv(s, 0, counts, displs, Int, r, 0, counts, displs, Int))
		}
		return shapeWait(w.Ialltoallv(s, 0, counts, displs, Int, r, 0, counts, displs, Int))
	}},
	{"reduce_scatter", func(w *Comm, n int, commit bool) (schedShape, error) {
		counts, _, total := vLayout(w.Size(), n)
		s, r := make([]int32, total), make([]int32, vCount(w.Rank(), n))
		if commit {
			return shapeStart(w.CommitReduceScatter(s, 0, r, 0, counts, Int, SumOp))
		}
		return shapeWait(w.IreduceScatter(s, 0, r, 0, counts, Int, SumOp))
	}},
}

// The table's selection threshold, scaled down from the built-in one so
// the three payload classes stay cheap: large-message path from 1 KiB.
const shapeLargeMin = 1 << 10

// shapeSizes are the payload classes in Int elements: below the
// large-message threshold, twice it and eight times it.
// zero is the count-0 row: checked for duality and naming, not pinned —
// what an empty collective exchanges is not part of the contract.
var shapeSizes = []struct {
	name string
	n    int
}{{"small", 3}, {"mid", 512}, {"large", 2048}, {"zero", 0}}

const shapePinned = 3 // leading shapeSizes entries compared against the golden

// shapeHostSizes are the payload classes of the host cells: one chunk or
// less (the walk's chunks are 256 KiB whatever the threshold).
var shapeHostSizes = []struct {
	name string
	n    int
}{{"mid", 512}, {"large", 2048}, {"chunks", 3*hostChunk/4 + 3}}

var shapeFamilies = []CollAlg{CollAlgAuto, CollAlgClassic, CollAlgRing, CollAlgHier}

// shapeLayouts are the locality layouts: none, two interleaved groups, and
// three uneven groups (one a singleton holding the highest rank).
var shapeLayouts = []struct {
	name string
	keys func(np int) []string
}{
	{"flat", func(int) []string { return nil }},
	{"2xk", func(np int) []string {
		keys := make([]string, np)
		for i := range keys {
			keys[i] = []string{"A", "B"}[i%2]
		}
		return keys
	}},
	{"uneven3", func(np int) []string {
		keys := make([]string, np)
		for i := range keys {
			switch {
			case i == np-1:
				keys[i] = "C"
			case i%3 == 0:
				keys[i] = "A"
			default:
				keys[i] = "B"
			}
		}
		return keys
	}},
}

// shapeCell resolves one call's per-rank schedules against the taps:
// it checks duality and naming and renders the cell's text.
func shapeCell(shapes []schedShape, taps []*shapeTap, ctx int) (text, alg string, err error) {
	np := len(shapes)
	// Per ordered pair, the compiled steps in schedule order.
	type pair struct{ src, dst int }
	sends, recvs := map[pair][]int{}, map[pair][]int{}
	for me, s := range shapes {
		for _, rd := range s.rounds {
			for _, x := range rd.sends {
				sends[pair{me, x.peer}] = append(sends[pair{me, x.peer}], x.n)
			}
			for _, x := range rd.recvs {
				recvs[pair{x.peer, me}] = append(recvs[pair{x.peer, me}], x.n)
			}
		}
	}
	travelled := func(p pair) []int {
		t := taps[p.src]
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.sent[tapKey{p.dst, ctx, shapes[p.src].tag}]
	}
	for src := 0; src < np; src++ {
		for dst := 0; dst < np; dst++ {
			p := pair{src, dst}
			w := travelled(p)
			if len(sends[p]) != len(w) || len(recvs[p]) != len(w) {
				return "", "", fmt.Errorf("%d->%d: %d send steps, %d receive steps, %d messages on the wire",
					src, dst, len(sends[p]), len(recvs[p]), len(w))
			}
			for k, n := range w {
				if s := sends[p][k]; s >= 0 && s != n {
					return "", "", fmt.Errorf("%d->%d message %d: send step states %d bytes, %d travelled", src, dst, k, s, n)
				}
				if r := recvs[p][k]; r >= 0 && r != n {
					return "", "", fmt.Errorf("%d->%d message %d: receive step states %d bytes, %d travelled", src, dst, k, r, n)
				}
			}
		}
	}
	// Render with the travelled lengths, consuming each pair's messages in
	// schedule order.
	var b strings.Builder
	algs := map[string]bool{}
	for me, s := range shapes {
		if s.alg == "" {
			err = fmt.Errorf("rank %d: schedule names no algorithm", me)
		}
		if s.lend != nil {
			err = fmt.Errorf("rank %d: %w", me, s.lend)
		}
		algs[s.alg] = true
		sentTo, gotFrom := map[int]int{}, map[int]int{}
		fmt.Fprintf(&b, "rank %d\n", me)
		for i, rd := range s.rounds {
			if rd.area != "" {
				fmt.Fprintf(&b, " round %d area %s\n", i, rd.area)
				continue
			}
			fmt.Fprintf(&b, " round %d recv", i)
			for _, x := range rd.recvs {
				fmt.Fprintf(&b, " %d:%d", x.peer, travelled(pair{x.peer, me})[gotFrom[x.peer]])
				gotFrom[x.peer]++
			}
			b.WriteString(" send")
			for _, x := range rd.sends {
				fmt.Fprintf(&b, " %d:%d", x.peer, travelled(pair{me, x.peer})[sentTo[x.peer]])
				sentTo[x.peer]++
			}
			b.WriteByte('\n')
		}
	}
	names := make([]string, 0, len(algs))
	for a := range algs {
		names = append(names, a)
	}
	sort.Strings(names)
	return b.String(), strings.Join(names, "|"), err
}

func hash32(s string) string {
	h := fnv.New32a()
	h.Write([]byte(s))
	return fmt.Sprintf("%08x", h.Sum32())
}

func TestScheduleShape(t *testing.T) {
	golden := map[string]string{}
	if f, err := os.Open(shapeGolden); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if key, rest, ok := strings.Cut(sc.Text(), ": "); ok {
				golden[key] = rest
			}
		}
		f.Close()
	} else if !*shapeUpdate {
		t.Fatalf("no golden table: %v", err)
	}
	var lines []string
	var dump strings.Builder
	hostAreas := true
	if a, err := transport.NewArea(hostAreaSize(2)); err != nil {
		hostAreas = false // the host cells are checked where areas exist
	} else {
		a.Unmap()
	}

	ncell := len(shapeSizes) * len(shapeFamilies)
	for np := 2; np <= 9; np++ {
		for _, layout := range shapeLayouts {
			// shapes[commit][op][cell][rank]
			var shapes [2][][][]schedShape
			for c := range shapes {
				shapes[c] = make([][][]schedShape, len(shapeOps))
				for o := range shapes[c] {
					shapes[c][o] = make([][]schedShape, ncell)
					for i := range shapes[c][o] {
						shapes[c][o][i] = make([]schedShape, np)
					}
				}
			}
			mesh, mesh2 := transport.NewChanMesh(np), transport.NewChanMesh(np)
			taps := make([]*shapeTap, np)
			ctx := 0
			runRanksOn(t, np, func(i int) (transport.Transport, error) {
				taps[i] = &shapeTap{Transport: laidOut{mesh[i], layout.keys(np)}, sent: map[tapKey][]int{}}
				return taps[i], nil
			}, func(w *Comm) error {
				if w.Rank() == 0 {
					ctx = w.coll
				}
				w.proc.largeMin = shapeLargeMin
				for o, op := range shapeOps {
					for si, size := range shapeSizes {
						for fi, fam := range shapeFamilies {
							ForceCollAlg(w, fam)
							for c, commit := range []bool{false, true} {
								s, err := op.run(w, size.n, commit)
								if err != nil {
									return fmt.Errorf("%s commit=%v %s %v: %w", op.name, commit, size.name, fam, err)
								}
								shapes[c][o][si*len(shapeFamilies)+fi][w.Rank()] = s
							}
						}
					}
				}
				return nil
			})

			// The host cells: Iallreduce through the area the test seam plans
			// on the flat layout, once a blocking Allreduce has set it up.
			var host [][]schedShape
			htaps, hctx := make([]*shapeTap, np), 0
			if layout.name == "flat" && hostAreas {
				host = make([][]schedShape, len(shapeHostSizes))
				for i := range host {
					host[i] = make([]schedShape, np)
				}
				runRanksOn(t, np, func(i int) (transport.Transport, error) {
					htaps[i] = &shapeTap{Transport: mesh2[i], sent: map[tapKey][]int{}}
					return htaps[i], nil
				}, func(w *Comm) error {
					if w.Rank() == 0 {
						hctx = w.coll
					}
					w.proc.largeMin = shapeLargeMin
					w.proc.hostFault = noHostFault
					n := shapeHostSizes[len(shapeHostSizes)-1].n
					if err := w.Allreduce(make([]int32, n), 0, make([]int32, n), 0, n, Int, SumOp); err != nil {
						return err
					}
					for i, size := range shapeHostSizes {
						s, r := make([]int32, size.n), make([]int32, size.n)
						shape, err := shapeWait(w.Iallreduce(s, 0, r, 0, size.n, Int, SumOp))
						if err != nil {
							return fmt.Errorf("host allreduce %s: %w", size.name, err)
						}
						host[i][w.Rank()] = shape
					}
					return nil
				})
			}

			for o, op := range shapeOps {
				key := fmt.Sprintf("%s np=%d %s", op.name, np, layout.name)
				var hashes, algs []string
				for si, size := range shapeSizes {
					for fi, fam := range shapeFamilies {
						cell := si*len(shapeFamilies) + fi
						where := fmt.Sprintf("%s %s %v", key, size.name, fam)
						text, alg, err := shapeCell(shapes[0][o][cell], taps, ctx)
						if err != nil {
							t.Errorf("%s: %v", where, err)
						}
						ptext, palg, err := shapeCell(shapes[1][o][cell], taps, ctx)
						if err != nil {
							t.Errorf("%s Commit: %v", where, err)
						}
						if ptext != text || palg != alg {
							t.Errorf("%s: first Commit activation compiled %s, the I form %s:\n%s\nvs\n%s", where, palg, alg, ptext, text)
						}
						fmt.Fprintf(&dump, "== %s alg=%s\n%s", where, alg, text)
						if si < shapePinned {
							hashes = append(hashes, hash32(text))
							algs = append(algs, alg)
						}
					}
				}
				line := strings.Join(hashes, " ") + " algs=" + hash32(strings.Join(algs, ","))
				lines = append(lines, key+": "+line)
				if want, ok := golden[key]; !*shapeUpdate && (!ok || want != line) {
					t.Errorf("%s: schedule shapes changed\n got %s\nwant %s\n(cells: %s)", key, line, want, strings.Join(algs, ","))
				}
			}
			if host != nil {
				key := fmt.Sprintf("allreduce-host np=%d %s", np, layout.name)
				var hashes, algs []string
				for i, size := range shapeHostSizes {
					text, alg, err := shapeCell(host[i], htaps, hctx)
					if err != nil {
						t.Errorf("%s %s: %v", key, size.name, err)
					}
					fmt.Fprintf(&dump, "== %s %s alg=%s\n%s", key, size.name, alg, text)
					hashes, algs = append(hashes, hash32(text)), append(algs, alg)
				}
				line := strings.Join(hashes, " ") + " algs=" + hash32(strings.Join(algs, ","))
				lines = append(lines, key+": "+line)
				if want, ok := golden[key]; !*shapeUpdate && (!ok || want != line) {
					t.Errorf("%s: schedule shapes changed\n got %s\nwant %s\n(cells: %s)", key, line, want, strings.Join(algs, ","))
				}
			}
		}
	}

	if *shapeDump != "" {
		if err := os.WriteFile(*shapeDump, []byte(dump.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if *shapeUpdate {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shapeGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// foldSpy is a Sum whose combiner records the range every fold reads and
// the range it writes, in call order.
type foldSpy struct{ ins, outs [][]byte }

func (s *foldSpy) op() *Op {
	return &Op{name: "spy-sum", generic: func(dt Datatype) (combiner, error) {
		sum, err := SumOp.combinerFor(dt)
		return func(in, inout []byte) error {
			s.ins, s.outs = append(s.ins, in), append(s.outs, inout)
			return sum(in, inout)
		}, err
	}}
}

// foldWrites checks the compiled rounds against what the spy saw — every
// send lent, one fold per receive with a completion action — and returns
// the folds' writes per round for lendCheck, with the number of lent sends.
// Rounds run in order and a fold round has one receive, so the k-th recorded
// fold is the k-th folding round's write.
func (s *foldSpy) foldWrites(rounds []round) (folds [][]byte, lent int, err error) {
	folds = make([][]byte, len(rounds))
	k := 0
	for i, rd := range rounds {
		for _, ss := range rd.sends {
			if !ss.lend {
				return nil, 0, fmt.Errorf("round %d: the send to %d does not lend", i, ss.to)
			}
			lent++
		}
		for _, rs := range rd.recvs {
			if rs.on == nil {
				continue
			}
			if k == len(s.outs) {
				return nil, 0, fmt.Errorf("round %d folds, but only %d folds ran", i, len(s.outs))
			}
			folds[i] = s.outs[k]
			k++
		}
	}
	if k != len(s.outs) {
		return nil, 0, fmt.Errorf("%d folding receives compiled, %d folds ran", k, len(s.outs))
	}
	return folds, lent, nil
}

// TestLendSafetyLargeAllreduce is the other half of the lend proof of the
// large vector family, for both exchange patterns and both callers — the
// large allreduce and the large ReduceScatter: the table checks every
// round's landing buffers, this checks the one write the table cannot see —
// the reduce-scatter fold — by spying on the combiner. It also pins the data
// flow: with a send buffer of its own the contribution is folded out of it
// into an arrival that landed in the working vector — by every ring step, by
// the first halving step — and with one buffer for both every arrival is
// staged and folds into the receive buffer. The allreduce's working vector
// is the receive buffer; ReduceScatter's is pooled, so its folds write
// neither user buffer. Where every chunk holds an element the counts of lent
// sends and folds are exact; an empty chunk moves no message.
func TestLendSafetyLargeAllreduce(t *testing.T) {
	for _, np := range []int{2, 3, 4, 5, 6, 7, 8, 9, 16} {
		msgs, folds, alg := 2*(np-1), np-1, "ring"
		if np&(np-1) == 0 {
			folds = bits.Len(uint(np)) - 1
			msgs, alg = 2*folds, "halving-doubling"
		}
		runRanks(t, np, func(w *Comm) error {
			for _, n := range []int{0, 1, np - 1, 3*np + 1, 2048} {
				for _, aliased := range []bool{false, true} {
					spy := &foldSpy{}
					s, r := make([]int32, n), make([]int32, n)
					if aliased {
						s = r
					}
					for i := range s {
						s[i] = int32(i + w.Rank())
					}
					req, err := w.iallreduce("iallreduce", w.nextCollTag(), allreduceRing, formNonBlocking, s, 0, r, 0, n, Int, spy.op())
					if err != nil {
						return err
					}
					if _, err := req.Wait(); err != nil {
						return err
					}
					where := fmt.Sprintf("np=%d n=%d aliased=%v", np, n, aliased)
					for i, v := range r {
						if want := int32(np*i + np*(np-1)/2); v != want {
							return fmt.Errorf("%s: r[%d] = %d, want %d", where, i, v, want)
						}
					}
					writes, lent, err := spy.foldWrites(req.rounds)
					if err != nil {
						return fmt.Errorf("%s: %w", where, err)
					}
					if req.alg != alg || n >= np && (lent != msgs || len(spy.outs) != folds) {
						return fmt.Errorf("%s: %s with %d lent sends and %d folds, want %s with %d and %d", where, req.alg, lent, len(spy.outs), alg, msgs, folds)
					}
					if err := lendCheck(req.rounds, writes); err != nil {
						return fmt.Errorf("%s: %w", where, err)
					}
					sw, rw := vWindow(Int, s, 0, n), vWindow(Int, r, 0, n)
					for k := range spy.outs {
						in, out := spy.ins[k], spy.outs[k]
						fromSend := !aliased && (alg == "ring" || k == 0)
						if !overlaps(out, rw) || overlaps(in, sw) != fromSend || overlaps(in, rw) {
							return fmt.Errorf("%s: fold %d reads the send buffer: %v (want %v), reads the receive buffer: %v, writes it: %v",
								where, k, overlaps(in, sw), fromSend, overlaps(in, rw), overlaps(out, rw))
						}
					}
				}
			}
			if np < 3 {
				return nil // ReduceScatter's large schedule starts at largeCollMinNP
			}
			return lendSafetyReduceScatter(w)
		})
	}
}

// lendSafetyReduceScatter is TestLendSafetyLargeAllreduce's ReduceScatter
// half: uniform and varying (vLayout, with empty blocks) counts under the
// forced large family.
func lendSafetyReduceScatter(w *Comm) error {
	np, me := w.Size(), w.Rank()
	folds, alg := np-1, "ring"
	if np&(np-1) == 0 {
		folds, alg = bits.Len(uint(np))-1, "halving"
	}
	ForceCollAlg(w, CollAlgRing)
	defer ForceCollAlg(w, CollAlgAuto)
	for _, n := range []int{0, 1, 3, 512} {
		for _, uniform := range []bool{true, false} {
			counts, displs, total := vLayout(np, n)
			if uniform {
				counts, displs = uniformLayout(np, n)
				total = np * n
			}
			spy := &foldSpy{}
			s, r := make([]int32, total), make([]int32, counts[me])
			for i := range s {
				s[i] = int32(i + me)
			}
			req, err := w.IreduceScatter(s, 0, r, 0, counts, Int, spy.op())
			if err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			where := fmt.Sprintf("reduce_scatter np=%d n=%d uniform=%v", np, n, uniform)
			for i, v := range r {
				if want := int32(np*(displs[me]+i) + np*(np-1)/2); v != want {
					return fmt.Errorf("%s: r[%d] = %d, want %d", where, i, v, want)
				}
			}
			writes, lent, err := spy.foldWrites(req.rounds)
			if err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
			if req.alg != alg || uniform && n > 0 && (lent != folds || len(spy.outs) != folds) {
				return fmt.Errorf("%s: %s with %d lent sends and %d folds, want %s with %d and %d", where, req.alg, lent, len(spy.outs), alg, folds, folds)
			}
			if err := lendCheck(req.rounds, writes); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
			sw, rw := vWindow(Int, s, 0, total), vWindow(Int, r, 0, counts[me])
			for k := range spy.outs {
				in, out := spy.ins[k], spy.outs[k]
				fromSend := alg == "ring" || k == 0
				if overlaps(out, sw) || overlaps(out, rw) || overlaps(in, sw) != fromSend || overlaps(in, rw) {
					return fmt.Errorf("%s: fold %d reads the send buffer: %v (want %v), reads the receive buffer: %v, writes either: %v",
						where, k, overlaps(in, sw), fromSend, overlaps(in, rw), overlaps(out, sw) || overlaps(out, rw))
				}
			}
		}
	}
	return nil
}

// TestLendSafetyBcast is the lend proof of the broadcast tree, and the pin
// of its one plan for sized payloads: at every size — 8 B, 256 B and 4 KiB
// below large_min as 128 KiB above it — and under automatic selection as
// under every forced family, the payload lands in a fixed cell and every
// send lends it. For a raw-layout datatype the cell is the user buffer: the
// root sends straight out of it and a non-root rank's one receive lands in
// it, with nothing to unpack at finish; a derived type sends a packed copy
// that the other ranks unpack. lendCheck passes, every family compiles the
// rounds automatic selection compiles, every rank ends with the root's bytes
// and the root's buffer is bit-identical after the call.
func TestLendSafetyBcast(t *testing.T) {
	pair, err := Contiguous(2, Int)
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{3, 4, 5, 8} {
		runRanks(t, np, func(w *Comm) error {
			// Verdicts are reported, not returned: a rank that left early
			// would wedge the others in the next broadcast.
			var bad error
			for _, root := range []int{0, np - 1} {
				for _, dt := range []Datatype{Int, pair} {
					for _, slots := range []int{2, 64, 1 << 10, 1 << 15} { // 8 B, 256 B, 4 KiB and 128 KiB
						var plan string // what automatic selection compiled
						for _, fam := range shapeFamilies {
							ForceCollAlg(w, fam)
							buf := make([]int32, slots)
							if w.Rank() == root {
								for i := range buf {
									buf[i] = int32(i*31 + root)
								}
							}
							req, err := w.Ibcast(buf, 0, slots*4/dt.ByteSize(), dt, root)
							if err != nil {
								return err
							}
							if _, err := req.Wait(); err != nil {
								return err
							}
							err = bcastLendVerdict(w, req, buf, dt, root)
							if got := bcastPlan(req); err == nil && fam == CollAlgAuto {
								plan = got
							} else if err == nil && got != plan {
								err = fmt.Errorf("compiled\n%s\nwhere automatic selection compiled\n%s", got, plan)
							}
							if err != nil && bad == nil {
								bad = fmt.Errorf("np=%d root=%d %s slots=%d %s: %w", np, root, dt.Name(), slots, fam, err)
							}
						}
					}
				}
			}
			ForceCollAlg(w, CollAlgAuto)
			if bad != nil {
				t.Errorf("rank %d: %v", w.Rank(), bad)
			}
			return nil
		})
	}
}

// bcastLendVerdict checks one completed broadcast of TestLendSafetyBcast on
// this rank.
func bcastLendVerdict(w *Comm, req *CollRequest, buf []int32, dt Datatype, root int) error {
	for i, v := range buf {
		if v != int32(i*31+root) {
			return fmt.Errorf("buf[%d] = %d, want %d", i, v, i*31+root)
		}
	}
	if err := lendCheck(req.rounds, nil); err != nil {
		return err
	}
	parent, children := binomialEdges(w, w.members(), root)
	user := vWindow(Int, buf, 0, len(buf))
	raw := dt == Int
	sends, lent, fromUser, recvs, intoUser := 0, 0, 0, 0, 0
	for _, rd := range req.rounds {
		for _, ss := range rd.sends {
			sends++
			if ss.lend {
				lent++
				if overlaps(ss.data(), user) {
					fromUser++
				}
			}
		}
		for _, rs := range rd.recvs {
			recvs++
			if len(rs.buf) == len(user) && overlaps(rs.buf, user) {
				intoUser++
			}
		}
	}
	wantRecvs, wantUser, wantInto := 0, 0, 0
	if parent >= 0 {
		wantRecvs = 1
	}
	if raw {
		wantUser, wantInto = len(children), wantRecvs
	}
	if sends != len(children) || lent != len(children) || fromUser != wantUser {
		return fmt.Errorf("%d sends, %d lent, %d from the user buffer; want %d, %d, %d",
			sends, lent, fromUser, len(children), len(children), wantUser)
	}
	if recvs != wantRecvs || intoUser != wantInto {
		return fmt.Errorf("%d receives, %d landing in the user buffer; want %d, %d", recvs, intoUser, wantRecvs, wantInto)
	}
	if unpacks := req.finish != nil; unpacks != (!raw && parent >= 0) {
		return fmt.Errorf("unpacks at finish: %v, want %v", unpacks, !raw && parent >= 0)
	}
	return nil
}

// bcastPlan renders a broadcast's compiled rounds: per round the peers, the
// lengths its receives land and its sends carry, and which sends lend.
func bcastPlan(req *CollRequest) string {
	var b strings.Builder
	fmt.Fprintf(&b, "alg=%s", req.alg)
	for i, rd := range req.rounds {
		fmt.Fprintf(&b, "\n round %d recv", i)
		for _, rs := range rd.recvs {
			fmt.Fprintf(&b, " %d:%d", rs.from, len(rs.buf))
		}
		b.WriteString(" send")
		for _, ss := range rd.sends {
			fmt.Fprintf(&b, " %d:%d lend=%v", ss.to, len(ss.data()), ss.lend)
		}
	}
	return b.String()
}

// TestLendCheckRejectsRewrittenSource is the negative: a forwarding-ring
// step over a fixed cell — the arrival lands in the very buffer the step
// forwards — must not lend it, and neither may a step whose fold writes
// what it sends.
func TestLendCheckRejectsRewrittenSource(t *testing.T) {
	cur := &cell{b: make([]byte, 64), fixed: true}
	forward := round{
		recvs: []recvStep{cur.recvFrom(0)},
		sends: []sendStep{{to: 2, data: func() []byte { return cur.b }}},
	}
	if err := lendCheck([]round{forward}, nil); err != nil {
		t.Fatalf("copy-at-post forward rejected: %v", err)
	}
	forward.sends[0].lend = true
	if err := lendCheck([]round{forward}, nil); err == nil {
		t.Error("lent forward of a cell its own round's receive rewrites passed the check")
	}

	acc, scratch := make([]byte, 64), make([]byte, 32)
	fold := round{
		recvs: []recvStep{{from: 0, buf: scratch}},
		sends: []sendStep{{to: 2, data: func() []byte { return acc[:32] }, lend: true}},
	}
	if err := lendCheck([]round{fold}, [][]byte{acc[32:]}); err != nil {
		t.Fatalf("fold into the other chunk rejected: %v", err)
	}
	if err := lendCheck([]round{fold}, [][]byte{acc[16:48]}); err == nil {
		t.Error("fold into the lent chunk passed the check")
	}
}
