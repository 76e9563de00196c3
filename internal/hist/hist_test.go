package hist

import (
	"sync"
	"testing"
	"time"
)

// bucketOf observes d into a fresh histogram and returns the bucket
// that counted it.
func bucketOf(t *testing.T, d time.Duration) int {
	t.Helper()
	var h Hist
	h.Observe(d)
	for i := range h.counts {
		if h.counts[i].Load() == 1 {
			return i
		}
	}
	t.Fatalf("%v landed in no bucket", d)
	return -1
}

func TestBucketEdges(t *testing.T) {
	const us = time.Microsecond
	last := time.Duration(1<<(Buckets-1)) * us
	for _, c := range []struct {
		d    time.Duration
		want int
	}{
		{-5 * us, 0}, // negative clamps to zero
		{0, 0},
		{1*us - 1, 0},
		{1 * us, 0},
		{2*us - 1, 0},
		{2 * us, 1},
		{3 * us, 1},
		{4*us - 1, 1},
		{4 * us, 2},
		{last - us, Buckets - 2},
		{last, Buckets - 1},
		{time.Hour, Buckets - 1}, // everything slower stays in the last
	} {
		if got := bucketOf(t, c.d); got != c.want {
			t.Errorf("Observe(%v) counted in bucket %d, want %d", c.d, got, c.want)
		}
	}
}

func TestQuantileRankRounding(t *testing.T) {
	var h Hist
	for i := 0; i < 3; i++ {
		h.Observe(time.Microsecond) // bucket 0, upper bound 2µs
	}
	h.Observe(100 * time.Microsecond) // bucket 6, [64µs, 128µs)
	// rank = round(q·4), at least 1: ranks 1-3 fall in bucket 0, rank 4
	// in bucket 6, whose 128µs upper bound clamps to the 100µs maximum.
	for _, c := range []struct {
		q, wantMs float64
	}{
		{0.001, 0.002}, // rank 0 → 1
		{0.5, 0.002},   // rank 2
		{0.86, 0.002},  // 3.44 rounds down to rank 3
		{0.875, 0.1},   // 3.5 rounds up to rank 4
		{1, 0.1},
	} {
		if got := h.QuantileMs(c.q); got != c.wantMs {
			t.Errorf("QuantileMs(%v) = %v, want %v", c.q, got, c.wantMs)
		}
	}
}

func TestQuantileClampsToObservedMax(t *testing.T) {
	var h Hist
	h.Observe(3 * time.Microsecond) // bucket [2µs, 4µs)
	if got := h.QuantileMs(0.5); got != 0.003 {
		t.Errorf("QuantileMs(0.5) = %v, want the 0.003 ms maximum, not the 0.004 ms bucket bound", got)
	}
	if got := h.MaxMs(); got != 0.003 {
		t.Errorf("MaxMs = %v, want 0.003", got)
	}
}

func TestZeroSamples(t *testing.T) {
	var h Hist
	if h.Count() != 0 || h.QuantileMs(0.5) != 0 || h.QuantileMs(1) != 0 || h.MeanMs() != 0 || h.MaxMs() != 0 {
		t.Errorf("empty histogram: count %d p50 %v p100 %v mean %v max %v, want all zero",
			h.Count(), h.QuantileMs(0.5), h.QuantileMs(1), h.MeanMs(), h.MaxMs())
	}
}

func TestConcurrentObserve(t *testing.T) {
	const workers, per = 8, 1000
	var h Hist
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()

	const n = workers * per
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	var inBuckets int64
	for i := range h.counts {
		inBuckets += h.counts[i].Load()
	}
	if inBuckets != n {
		t.Fatalf("buckets hold %d samples, want %d", inBuckets, n)
	}
	if want := float64(n-1) / 1e3; h.MaxMs() != want {
		t.Errorf("MaxMs = %v, want %v", h.MaxMs(), want)
	}
	// Samples are 0..n-1 µs, so the mean is (n-1)/2 µs.
	if want := float64(n-1) / 2 / 1e3; h.MeanMs() != want {
		t.Errorf("MeanMs = %v, want %v", h.MeanMs(), want)
	}
}
