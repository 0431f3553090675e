package main

import "sort"

// minBeyond is how many samples must lie above a percentile's rank
// before the benchmark reports that percentile: fewer, and the value
// is one or two stray samples rather than a tail.
const minBeyond = 10

// rankOf is the nearest rank (1-based) of the permille-th percentile
// among n samples: the smallest rank r with r/n ≥ permille/1000.
// Integer arithmetic keeps p99 of 1000 samples at rank 990 exactly.
func rankOf(permille, n int) int {
	r := (permille*n + 999) / 1000
	return min(max(r, 1), n)
}

// supported reports whether n samples leave at least minBeyond samples
// above the permille-th percentile's nearest rank.
func supported(permille, n int) bool {
	return n > 0 && n-rankOf(permille, n) >= minBeyond
}

// quantile returns the nearest-rank permille-th percentile of sorted
// samples. It is always one of the samples, so it never exceeds the
// observed maximum. It returns 0 for no samples.
func quantile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(permille, len(sorted))-1]
}

// tail returns the permille-th percentile of samples if enough samples
// lie beyond it, and 0 otherwise (an unsupported percentile is not
// reported as a number).
func tail(sorted []float64, permille int) float64 {
	if !supported(permille, len(sorted)) {
		return 0
	}
	return quantile(sorted, permille)
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median of xs (unsorted).
func median(xs []float64) float64 { return quantile(sorted(xs), 500) }

// maxOf is the largest of xs, or 0.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// mean is the arithmetic mean of xs, or 0.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
