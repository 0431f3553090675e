package main

import (
	"slices"
	"testing"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		permille int
		want     float64
	}{
		{1, 10}, {100, 10}, {101, 20}, {500, 50}, {501, 60}, {900, 90}, {990, 100}, {1000, 100},
	} {
		if got := quantile(xs, c.permille); got != c.want {
			t.Errorf("p%.1f of 10 samples = %v, want %v", float64(c.permille)/10, got, c.want)
		}
	}
	if got := quantile(nil, 500); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

// TestQuantileNeverAboveMax checks that every reported percentile is
// an observed sample, so none can exceed the maximum (a bucketed
// histogram's upper bound can).
func TestQuantileNeverAboveMax(t *testing.T) {
	var xs []float64
	v := uint64(7)
	for range 1237 {
		v = v*6364136223846793005 + 1442695040888963407
		xs = append(xs, float64(v>>40)/1e3)
	}
	s := sorted(xs)
	for p := 1; p <= 1000; p++ {
		q := quantile(s, p)
		if q > s[len(s)-1] {
			t.Fatalf("p%d = %v above the max %v", p, q, s[len(s)-1])
		}
		if !slices.Contains(xs, q) {
			t.Fatalf("p%d = %v is not a sample", p, q)
		}
	}
}

func TestSupportedPercentiles(t *testing.T) {
	for _, c := range []struct {
		permille, n int
		want        bool
	}{
		{990, 1000, true},  // rank 990, 10 beyond
		{990, 999, false},  // rank 990, 9 beyond
		{900, 100, true},   // rank 90, 10 beyond
		{900, 99, false},   // rank 90, 9 beyond
		{500, 20, true},    // rank 10, 10 beyond
		{500, 19, false},   // rank 10, 9 beyond
		{999, 10000, true}, // rank 9990, 10 beyond
		{500, 0, false},
	} {
		if got := supported(c.permille, c.n); got != c.want {
			t.Errorf("supported(p%.1f, n=%d) = %v, want %v", float64(c.permille)/10, c.n, got, c.want)
		}
	}
	few := sorted([]float64{1, 2, 3, 4, 5})
	if got := tail(few, 990); got != 0 {
		t.Errorf("p99 of 5 samples reported as %v, want 0 (unsupported)", got)
	}
}
