package metrics

import (
	"math"
	"sort"
)

// Report quantiles, shared by latency reports and the histogram
// snapshots: one nearest-rank convention instead of a percentile-index
// formula re-derived per report.

// NearestRank returns the 0-based index of the q-quantile in a sorted
// sample of size n under the floor(q*n) nearest-rank convention — the
// integer-arithmetic rule (n/2 for p50, n*99/100 for p99) the latency
// reports have always used. The product is nudged before flooring so
// binary floating point cannot pull an exactly-representable rank (like
// 0.99*300) one below its integer value. The index is clamped to
// [0, n-1]; n must be positive.
func NearestRank(n int, q float64) int {
	idx := int(math.Floor(q*float64(n) + 1e-9))
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return idx
}

// Quantile returns the q-quantile of an ascending-sorted sample by
// nearest rank. It panics on an empty sample.
func Quantile(sorted []float64, q float64) float64 {
	return sorted[NearestRank(len(sorted), q)]
}

// Quantiles sorts a copy of samples and returns one nearest-rank value
// per requested quantile. It panics on an empty sample.
func Quantiles(samples []float64, qs ...float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = Quantile(s, q)
	}
	return out
}

// HistogramQuantile estimates the q-quantile of a bucketed
// distribution: per-bucket (non-cumulative) counts aligned with their
// inclusive upper bounds, the +Inf bucket last. The target rank is
// located by the same nearest-rank rule as Quantile, then interpolated
// linearly within its bucket (the +Inf bucket answers the last finite
// bound). NaN on an empty distribution.
func HistogramQuantile(bounds []float64, buckets []uint64, q float64) float64 {
	var total uint64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	rank := uint64(NearestRank(int(total), q)) + 1 // 1-based target observation
	var cum uint64
	for i, c := range buckets {
		cum += c
		if cum < rank {
			continue
		}
		if i >= len(bounds) {
			return bounds[len(bounds)-1] // +Inf bucket: best finite answer
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		frac := float64(rank-(cum-c)) / float64(c)
		return lo + (bounds[i]-lo)*frac
	}
	return bounds[len(bounds)-1]
}
