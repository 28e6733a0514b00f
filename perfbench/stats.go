package main

import (
	"math"
	"sort"
)

// quantile is the exact nearest-rank q-quantile of xs (which it sorts in
// place), with the number of samples strictly above the returned value.
// +Inf samples (failed requests) sort last, so a failure counts as a miss
// at every percentile.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	v = xs[rank-1]
	beyond = len(xs) - sort.Search(len(xs), func(i int) bool { return xs[i] > v })
	return v, beyond
}

// median is the middle value of xs (the mean of the middle two for an
// even count); it does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gmean is the geometric mean of the positive values of xs.
func gmean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// frac is num/den, 0 for an empty base.
func frac[T int | int64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
