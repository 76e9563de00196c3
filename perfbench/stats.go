package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p50 at least 20.
const minTail = 10

// Quantile is one percentile of a sample, with the sample count it was
// taken from. OK is false when fewer than minTail samples lie beyond it,
// in which case Value must not be reported.
type Quantile struct {
	Value float64
	N     int
	OK    bool
}

// quantile returns the nearest-rank q-quantile (0 < q < 1) of vals.
// vals is sorted in place.
func quantile(vals []float64, q float64) Quantile {
	n := len(vals)
	if n == 0 {
		return Quantile{}
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	return Quantile{Value: vals[rank-1], N: n, OK: n-rank >= minTail}
}

// median is the nearest-rank median of vals without the tail rule, for
// per-layer figures taken over a fixed replay sample. vals is sorted in
// place; an empty sample has median 0.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[(len(vals)-1)/2]
}

// ms and us convert a duration to fractional milliseconds and
// microseconds, keeping every digit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
