// Monte-Carlo estimation of pi: every rank samples independently and a
// Reduce combines the hit counts — the classic first "real" MPI program,
// exercising Reduce, Bcast and per-rank RNG streams, written against the
// typed API (mpj.Bcast/mpj.Reduce over plain slices).
//
//	go run ./examples/pi -np 4 -samples 4000000
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"

	"mpj"
)

// samplesFlag is read on rank 0 and broadcast, demonstrating the
// bcast-the-config idiom.
var samplesFlag = flag.Int64("samples", 1_000_000, "total number of samples")

func piApp(w *mpj.Comm) error {
	pi, total, err := estimatePi(w)
	if err != nil {
		return err
	}
	if w.Rank() == 0 {
		fmt.Printf("pi ≈ %.6f (error %+.2e) from %d samples on %d ranks\n",
			pi, pi-math.Pi, total, w.Size())
	}
	return nil
}

// estimatePi samples the unit square on every rank and returns, on rank 0,
// the estimate of pi and the number of samples it rests on.
func estimatePi(w *mpj.Comm) (pi float64, total int64, err error) {
	rank, size := w.Rank(), w.Size()

	// Rank 0 owns the configuration; everyone else learns it by Bcast.
	cfg := []int64{0}
	if rank == 0 {
		cfg[0] = *samplesFlag
	}
	if err := mpj.Bcast(w, cfg, 0); err != nil {
		return 0, 0, err
	}
	total = cfg[0]
	mine := total / int64(size)
	if int64(rank) < total%int64(size) {
		mine++
	}

	// Independent stream per rank.
	rng := rand.New(rand.NewSource(0x9E3779B9*int64(rank) + 1))
	var hits int64
	for i := int64(0); i < mine; i++ {
		x, y := rng.Float64(), rng.Float64()
		if x*x+y*y <= 1 {
			hits++
		}
	}

	global := make([]int64, 1)
	if err := mpj.Reduce(w, []int64{hits}, global, mpj.Sum[int64](), 0); err != nil {
		return 0, 0, err
	}
	return 4 * float64(global[0]) / float64(total), total, nil
}

func main() {
	np := flag.Int("np", 4, "number of processes")
	flag.Parse()

	mpj.Register("pi", piApp)
	if mpj.Main() {
		return
	}
	if err := mpj.RunLocal(*np, piApp); err != nil {
		log.Fatal(err)
	}
}
