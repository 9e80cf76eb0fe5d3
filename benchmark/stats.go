package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before the benchmark reports it: with fewer, the "tail" is a handful of
// outliers and does not repeat between runs.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between closest ranks; 0 for an empty slice.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := q * float64(len(asc)-1)
	lo := int(pos)
	if lo >= len(asc)-1 {
		return asc[len(asc)-1]
	}
	frac := pos - float64(lo)
	return asc[lo] + frac*(asc[lo+1]-asc[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// samplesBeyond is how many of n samples lie beyond the q-quantile (the
// epsilon keeps 100 × (1 − 0.9) from truncating to 9).
func samplesBeyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}

// tailPercentile returns the q-quantile of xs, refusing when fewer than
// minBeyond samples lie beyond it.
func tailPercentile(xs []float64, q float64) (float64, error) {
	beyond := samplesBeyond(len(xs), q)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, len(xs), beyond, minBeyond)
	}
	return quantile(sorted(xs), q), nil
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles taken the way Python's
// statistics.quantiles(values, n=4) takes them (exclusive method), so the
// figure matches the one the acceptance driver computes.
func quartileSpread(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		return 0
	}
	at := func(i int) float64 { // i-th quartile cut, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return asc[j-1] + frac*(asc[j]-asc[j-1])
	}
	med := quantile(asc, 0.5)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / med
}
