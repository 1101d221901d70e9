package main

import (
	"math"
	"sort"
)

// quartiles holds the three cut points of a sample, computed the way
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), because that is what the driver that gates this
// benchmark uses: the numbers printed here can be checked against it.
type quartiles struct {
	Q1, Median, Q3 float64
	N              int
}

// spread is the interquartile distance as a share of the median — the
// run-to-run dispersion the bounds in BENCHMARK.json are compared with.
func (q quartiles) spread() float64 {
	if q.Median == 0 {
		return 0
	}
	return (q.Q3 - q.Q1) / math.Abs(q.Median)
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; zero for an empty sample.
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartilesOf returns Q1, median and Q3 of v. With fewer than two values
// all three collapse onto the single value (or zero).
func quartilesOf(v []float64) quartiles {
	s := sorted(v)
	n := len(s)
	q := quartiles{N: n, Median: median(s)}
	if n < 2 {
		q.Q1, q.Q3 = q.Median, q.Median
		return q
	}
	// Exclusive method, as Python writes it: cut point i of 4 lies
	// between order statistics j and j+1 (1-based), j = i*(n+1)/4 kept
	// inside the sample, and is interpolated — or, at the ends of a very
	// small sample, extrapolated — from those two.
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	q.Q1, q.Q3 = cut(1), cut(3)
	return q
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything (choosing-metrics guide, section 1).
const tailBeyond = 10

// tailPercentile returns the highest whole percentile p (at most 99, at
// least 50) that still has tailBeyond samples above it, and its value.
// ok is false when the sample is too small to support any tail beyond
// the median — the caller then reports the median and says so.
func tailPercentile(v []float64) (pct int, value float64, ok bool) {
	s := sorted(v)
	n := len(s)
	for p := 99; p > 50; p-- {
		// Nearest-rank index of percentile p; the samples strictly
		// after it are "beyond".
		idx := int(math.Ceil(float64(p)/100*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if n-1-idx >= tailBeyond {
			return p, s[idx], true
		}
	}
	return 50, median(s), false
}

// selfTime is a rung's cost minus the rung below it — the layer's own
// share of a hop. Two medians measured in separate loops can cross when
// the true difference is inside their noise; that is reported (clamped
// true, self 0), never passed on as a negative cost.
func selfTime(rung, below float64) (self float64, clamped bool) {
	if d := rung - below; d >= 0 {
		return d, false
	}
	return 0, true
}
