package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the two nearest order statistics; NaN for an
// empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the
// spread -repeat and -compare print is the one the acceptance driver
// computes from the same values. Fewer than two samples have no spread:
// both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 { // i is the 1-based quartile index
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure a metric's bound is judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// selfTimes is a layer's per-scan self time: its span minus the span of
// the level below for the same scan id. The two slices are indexed by
// scan id and must have equal length.
func selfTimes(layer, below []float64) []float64 {
	out := make([]float64, len(layer))
	for i := range layer {
		out[i] = layer[i] - below[i]
	}
	return out
}

// ratio guards a division whose denominator a tiny configuration can
// make zero (no evictions, no leaves): such a metric reads 0, not NaN,
// so the JSON stays valid.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
