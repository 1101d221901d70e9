package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// The expected cut points are what Python's statistics.quantiles(v, n=4)
// returns for the same values: the driver that gates the benchmark
// computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 40, 60},
		{[]float64{6.3, 6.5, 6.4, 6.6, 6.2, 7.1, 6.3, 6.45, 6.38, 6.52}, 6.3, 6.425, 6.54},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5}, 5, 5, 5},
	} {
		q := quartilesOf(c.in)
		if !near(q.Q1, c.q1) || !near(q.Median, c.q2) || !near(q.Q3, c.q3) || q.N != len(c.in) {
			t.Errorf("quartilesOf(%v) = %+v, want %v %v %v", c.in, q, c.q1, c.q2, c.q3)
		}
	}
	q := quartilesOf([]float64{9, 10, 11, 10, 10, 9.5, 10.5, 10, 10, 10})
	if got := q.spread(); !near(got, (q.Q3-q.Q1)/10) {
		t.Errorf("spread = %v, want IQR over median %v", got, (q.Q3-q.Q1)/10)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	// 10000 samples: p99 leaves 100 beyond it.
	if p, v, ok := tailPercentile(ramp(10000)); !ok || p != 99 || v != 9900 {
		t.Errorf("10000 samples: p%d = %v ok=%v, want p99 = 9900", p, v, ok)
	}
	// 1000 samples: p99 leaves exactly 10 beyond it.
	if p, v, ok := tailPercentile(ramp(1000)); !ok || p != 99 || v != 990 {
		t.Errorf("1000 samples: p%d = %v ok=%v, want p99 = 990", p, v, ok)
	}
	// 160 samples: p93 is the 149th value, 11 beyond; p94 would leave 9.
	if p, v, ok := tailPercentile(ramp(160)); !ok || p != 93 || v != 149 {
		t.Errorf("160 samples: p%d = %v ok=%v, want p93 = 149", p, v, ok)
	}
	// 40 samples: p75 is the 30th value, 10 beyond.
	if p, v, ok := tailPercentile(ramp(40)); !ok || p != 75 || v != 30 {
		t.Errorf("40 samples: p%d = %v ok=%v, want p75 = 30", p, v, ok)
	}
	// Too few samples for any tail: the median, and it says so.
	if p, v, ok := tailPercentile(ramp(15)); ok || p != 50 || v != 8 {
		t.Errorf("15 samples: p%d = %v ok=%v, want the median 8 and ok=false", p, v, ok)
	}
	for _, n := range []int{21, 57, 333, 4000} {
		p, v, ok := tailPercentile(ramp(n))
		if !ok {
			t.Errorf("%d samples: no tail percentile", n)
			continue
		}
		if beyond := n - int(v); beyond < tailBeyond {
			t.Errorf("%d samples: p%d has only %d samples beyond it", n, p, beyond)
		}
	}
}

func TestSelfTimeNeverNegativeSilently(t *testing.T) {
	if self, clamped := selfTime(1500, 1000); self != 500 || clamped {
		t.Errorf("selfTime(1500, 1000) = %v, %v; want 500, false", self, clamped)
	}
	if self, clamped := selfTime(1000, 1000); self != 0 || clamped {
		t.Errorf("selfTime(1000, 1000) = %v, %v; want 0, false", self, clamped)
	}
	if self, clamped := selfTime(900, 1000); self != 0 || !clamped {
		t.Errorf("selfTime(900, 1000) = %v, %v; want 0 and the clamp reported", self, clamped)
	}
}

func TestVerdict(t *testing.T) {
	tight := func(v float64) stat { return stat{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	loose := func(v float64) stat { return stat{Value: v, Q1: v * 0.9, Q3: v * 1.1} }
	for _, c := range []struct {
		a, b   stat
		better string
		want   string
	}{
		{tight(100), tight(105), "lower", "ok"},
		{tight(100), tight(111), "lower", "FAIL"},
		{tight(100), tight(80), "lower", "ok"}, // better is never a failure
		{tight(100), tight(89), "higher", "FAIL"},
		{loose(100), tight(101), "lower", "unresolved"},
	} {
		if _, got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("verdict(%v -> %v, %s) = %s, want %s", c.a.Value, c.b.Value, c.better, got, c.want)
		}
	}
}
