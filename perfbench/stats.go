package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// blockPercentile splits xs, in the order measured, into consecutive
// blocks just large enough to hold ten samples beyond the p-quantile, and
// returns the median of the blocks' p-quantiles. A burst of host contention
// then moves the few blocks it falls in, where it would move a pooled tail
// by as much as the share of samples it touched. Fewer samples than two
// blocks give the pooled percentile.
func blockPercentile(xs []float64, p float64) float64 {
	size := int(math.Round(10 / (1 - p)))
	n := len(xs) / size
	if n < 2 {
		return percentile(xs, p)
	}
	qs := make([]float64, n)
	for i := range qs {
		end := (i + 1) * size
		if i == n-1 {
			end = len(xs)
		}
		qs[i] = percentile(xs[i*size:end], p)
	}
	return median(qs)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
