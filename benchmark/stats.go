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

// percentile returns the p-quantile (0 <= p <= 1) of an ascending slice,
// interpolating linearly between the two closest ranks. Empty input is 0.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := p * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

// median returns the middle of xs (any order).
func median(xs []float64) float64 { return percentile(sorted(xs), 0.5) }

// mean returns the arithmetic mean of xs; 0 for no samples.
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

// geomean returns the geometric mean of xs, which must be positive.
// Every value weighs the same whatever its magnitude, so a gain on the
// short cells of a workload shows as clearly as one on the long cells.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// beyond reports how many of n samples lie strictly above the p-quantile.
func beyond(n int, p float64) int {
	return n - 1 - int(math.Floor(p*float64(n-1)))
}

// tailCandidates are the percentiles a timing may be reported at.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.90, 0.50}

// highestPercentile picks the highest candidate percentile that still has
// at least ten of the n samples beyond it — the rule for which tail a
// sample supports: p90 from 92 samples, p95 from 182, p99 from 902. A
// smaller sample supports the median alone.
func highestPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0.50
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method). It needs at
// least two samples; ok is false otherwise.
func quartileSpread(xs []float64) (spread float64, ok bool) {
	if len(xs) < 2 {
		return 0, false
	}
	asc := sorted(xs)
	q := func(k int) float64 {
		// Exclusive method: position k*(n+1)/4 counted from 1, clamped.
		m := len(asc)
		j := k * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(k*(m+1)) - float64(j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	med := percentile(asc, 0.5)
	if med == 0 {
		return 0, false
	}
	return (q(3) - q(1)) / math.Abs(med), true
}

// worsening is how far cur is worse than base as a share of base, given
// which direction is better: positive is worse, negative is better.
func worsening(base, cur float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cur) / math.Abs(base)
	}
	return (cur - base) / math.Abs(base)
}

// verdict classifies one metric of a comparison. A spread wider than the
// bound on either side leaves the row unresolved whatever the medians
// say; otherwise the row is worse when cur's median is worse than base's
// by more than the bound (floor is an absolute allowance in the metric's
// unit, for set-up times too short to hold a relative bound).
func verdict(base, cur, baseSpread, curSpread, bound, floor float64, better string) string {
	if baseSpread > bound || curSpread > bound {
		return "unresolved"
	}
	w := worsening(base, cur, better)
	if w > bound && math.Abs(cur-base) > floor {
		return "worse"
	}
	return "ok"
}
