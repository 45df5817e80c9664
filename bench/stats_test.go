package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10) // 1..10
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {0.1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	// p90 of n samples has n - ceil(0.9 n) beyond it: 10 at n=100, 9 at n=99.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true}, {99, 90, false}, {1000, 99, true}, {999, 99, false},
		{40, 75, true}, {39, 75, false}, {10000, 99.9, true}, {9999, 99.9, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n       int
		pct, at float64
	}{
		{10, 50, 5},    // too few for any tail: the median
		{50, 75, 38},   // 12 beyond p75, 5 beyond p90
		{320, 90, 288}, // 32 beyond p90, 3 beyond p99
		{12000, 99.9, 11988},
	} {
		pct, v := tail(seq(c.n))
		if pct != c.pct || v != c.at {
			t.Errorf("tail of %d samples = p%v at %v, want p%v at %v", c.n, pct, v, c.pct, c.at)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestSortedMS(t *testing.T) {
	got := sortedMS([]time.Duration{3 * time.Millisecond, 500 * time.Microsecond, 2 * time.Second})
	want := []float64{0.5, 3, 2000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sortedMS = %v, want %v", got, want)
		}
	}
}

func TestJudge(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name         string
		b            []float64
		higherBetter bool
		verdict      string
	}{
		{"same", []float64{100, 100, 101, 99, 101}, false, "ok"},
		{"lower-is-better got 20% higher", []float64{120, 121, 119, 120, 122}, false, "worse"},
		{"higher-is-better got 20% higher", []float64{120, 121, 119, 120, 122}, true, "ok"},
		{"higher-is-better got 20% lower", []float64{80, 81, 79, 80, 82}, true, "worse"},
		{"spread wider than the bound", []float64{60, 140, 100, 80, 120}, false, "unresolved"},
	} {
		if v := judge(a, c.b, c.higherBetter, 0.10); v.Verdict != c.verdict {
			t.Errorf("%s: verdict %q (worse %.3f, spread %.3f), want %q", c.name, v.Verdict, v.Worse, v.Spread, c.verdict)
		}
	}
	v := judge([]float64{10, 10, 10}, []float64{9, 10, 11}, false, 0.5)
	if v.BWins != 1 || v.Ties != 1 || v.Pairs != 3 {
		t.Errorf("lower-is-better pairs: wins %d ties %d pairs %d, want 1 1 3", v.BWins, v.Ties, v.Pairs)
	}
}
