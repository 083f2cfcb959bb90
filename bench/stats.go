package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/metrics"
)

// Sample reduction. Every timing the benchmark reports is a median, or
// the highest percentile the sample count supports, over per-op (or
// per-batch) measurements — never a mean of a noisy series — using the
// repository's own nearest-rank convention (metrics.Quantiles) so the
// numbers line up with parlat and the histogram snapshots.

// median returns the middle of the samples (mean of the two middle
// values for an even count), or 0 for an empty sample.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (0 < q <= 1) by nearest rank, or 0
// for an empty sample.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return metrics.Quantiles(samples, q)[0]
}

// tailLadder is the fixed set of tail percentiles a report may quote.
var tailLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999}

// tailQuantile picks the percentile a tail figure may be quoted at: the
// highest rung of tailLadder, not above want, that still has at least
// ten samples beyond it (a p99 of 40 samples is the maximum of a coin
// flip, not a percentile). With fewer than 20 samples only the median
// qualifies.
func tailQuantile(n int, want float64) float64 {
	best := tailLadder[0]
	for _, q := range tailLadder {
		if q > want {
			break
		}
		beyond := n - 1 - metrics.NearestRank(max(n, 1), q)
		if beyond >= 10 {
			best = q
		}
	}
	return best
}

// quartileSpread returns the distance between the first and third
// quartile as a share of the median, with the quartiles defined as
// Python's statistics.quantiles(values, n=4) defines them (exclusive
// method) — the rule the acceptance check applies to ten runs.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// Exclusive method: position k*(n+1)/4 on a 1-based scale.
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// ms and us convert a duration to fractional milli/microseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
