package main

import (
	"math"
	"sort"
)

// quartiles returns the first, second and third quartile of values by the
// exclusive method — the cut points Python's statistics.quantiles(values,
// n=4) gives, which is what the benchmark contract's spread rule is stated
// in. Fewer than two values have no spread: all three are the one value.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		// Python's rule: j = i*(n+1)/4 clamped to [1, n-1], and the weight
		// taken after clamping, so tiny samples extrapolate as it does.
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the second quartile.
func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// spread is the interquartile distance as a share of the median — the
// steadiness figure the bounds in BENCHMARK.json are compared against.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentile returns the p-quantile (0..1) by linear interpolation between
// closest ranks; used for the p50/p90 of per-run wall times, where the
// sample is hundreds of runs.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func minMax(values []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

func sum(values []float64) float64 {
	var t float64
	for _, v := range values {
		t += v
	}
	return t
}
