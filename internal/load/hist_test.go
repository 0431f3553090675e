package load

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketOfRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose max is ≥ the value and
	// within the promised relative error.
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 129, 1000, 4095, 4096,
		1 << 20, 1<<20 + 12345, 1 << 40, math.MaxUint64 - 1, math.MaxUint64} {
		idx := bucketOf(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, idx)
		}
		mx := bucketMax(idx)
		if mx < v {
			t.Fatalf("bucketMax(bucketOf(%d)) = %d < value", v, mx)
		}
		if v >= histSub {
			rel := float64(mx-v) / float64(v)
			if rel > 1.0/float64(histHalf)+1e-9 {
				t.Fatalf("value %d: representative %d relative error %.4f > %.4f",
					v, mx, rel, 1.0/float64(histHalf))
			}
		} else if mx != v {
			t.Fatalf("sub-64 value %d not exact: bucketMax %d", v, mx)
		}
	}
}

func TestBucketMonotone(t *testing.T) {
	prev := uint64(0)
	for i := 0; i < histBuckets; i++ {
		mx := bucketMax(i)
		if i > 0 && mx <= prev {
			t.Fatalf("bucketMax not strictly increasing at %d: %d <= %d", i, mx, prev)
		}
		prev = mx
	}
	if bucketMax(histBuckets-1) != math.MaxUint64 {
		t.Fatalf("top bucket max = %d, want MaxUint64", bucketMax(histBuckets-1))
	}
}

// TestQuantileVsBruteForce: on a known sample set, quantiles must match
// the exact order statistic within the recorder's resolution.
func TestQuantileVsBruteForce(t *testing.T) {
	r := NewRNG(11)
	var h Hist
	samples := make([]uint64, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Latency-shaped: mostly sub-ms with a heavy tail.
		v := r.Uint64() % uint64(time.Millisecond)
		if r.Pct(5) {
			v = r.Uint64() % uint64(50*time.Millisecond)
		}
		samples = append(samples, v)
		h.Observe(time.Duration(v))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(math.Ceil(q * float64(len(samples))))
		if rank < 1 {
			rank = 1
		}
		exact := samples[rank-1]
		got := uint64(h.Quantile(q))
		if got < exact {
			t.Fatalf("q=%g: recorder %d below exact order statistic %d", q, got, exact)
		}
		if exact >= histSub {
			rel := float64(got-exact) / float64(exact)
			if rel > 1.0/float64(histHalf)+1e-9 {
				t.Fatalf("q=%g: recorder %d vs exact %d, relative error %.4f", q, got, exact, rel)
			}
		}
	}
	s := h.Summarize()
	if s.Count != 5000 {
		t.Fatalf("Count = %d, want 5000", s.Count)
	}
	if uint64(s.Min) != samples[0] {
		t.Fatalf("Min = %d, want %d", s.Min, samples[0])
	}
	if uint64(s.Max) != samples[len(samples)-1] {
		t.Fatalf("Max = %d, want %d", s.Max, samples[len(samples)-1])
	}
}

// TestQuantileClampedToMax: the top sample's bucket edge lies above
// the sample itself, so an unclamped p999 would report a latency
// nothing ever took.
func TestQuantileClampedToMax(t *testing.T) {
	var h Hist
	for i := 0; i < 99; i++ {
		h.Observe(time.Millisecond)
	}
	top := 126_240 * time.Microsecond
	h.Observe(top)
	if edge := time.Duration(bucketMax(bucketOf(uint64(top)))); edge <= top {
		t.Fatalf("sample set does not exercise the clamp: bucket edge %v <= max %v", edge, top)
	}
	for _, q := range []float64{0.999, 1} {
		if got := h.Quantile(q); got != top {
			t.Errorf("Quantile(%g) = %v, want the observed max %v", q, got, top)
		}
	}
	if got, max := h.Quantile(0.5), h.Summarize().Max; got > max {
		t.Errorf("p50 %v above max %v", got, max)
	}
}

func TestHistEmptyAndNegative(t *testing.T) {
	var h Hist
	if h.Quantile(0.99) != 0 || h.Summarize().Count != 0 {
		t.Fatal("empty recorder must read zero")
	}
	h.Observe(-5 * time.Millisecond) // clock skew guard: clamps to 0
	if got := h.Quantile(1); got != 0 {
		t.Fatalf("negative observation recorded as %v, want 0", got)
	}
	if h.Summarize().Min != 0 {
		t.Fatalf("Min = %v, want 0", h.Summarize().Min)
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, whole Hist
	r := NewRNG(17)
	for i := 0; i < 2000; i++ {
		v := time.Duration(r.Uint64() % uint64(10*time.Millisecond))
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	sa, sw := a.Summarize(), whole.Summarize()
	if sa != sw {
		t.Fatalf("merged summary %+v != whole summary %+v", sa, sw)
	}
}

// TestHistConcurrent hammers Observe from many goroutines and checks
// exact totals — the recorder must be safe under driver concurrency.
func TestHistConcurrent(t *testing.T) {
	var h Hist
	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := NewRNG(seed)
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(r.Uint64() % uint64(time.Second)))
			}
		}(uint64(w))
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
	var bucketSum uint64
	for i := range h.counts {
		bucketSum += h.counts[i].Load()
	}
	if bucketSum != workers*per {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, workers*per)
	}
}
