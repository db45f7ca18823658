// Package work is what the benchmark driver (bench) and the in-process
// layer probe (bench/layerprobe) share: the four workloads written against
// a Doer, the closed-loop runner, exact statistics over raw samples, and
// the in-memory span recorder. It imports the standard library only, so
// the end-to-end driver keeps building when an internal API moves.
package work

import (
	"math"
	"slices"
	"time"
)

// Sample is one measured operation.
type Sample struct {
	End time.Duration // completion time since the start of the measured phase
	Lat time.Duration // operation latency
}

// Percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least q of the samples at
// or below it. Exact on the raw samples; no histogram buckets.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps a product such as 100*0.9 from rounding up a rank.
	rank := int(math.Ceil(float64(len(sorted))*q - 1e-9))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// TailQuantile picks the tail percentile a phase of n operations supports:
// p99 from 5,000 operations up, p90 below that.
func TailQuantile(n int) float64 {
	if n >= 5000 {
		return 0.99
	}
	return 0.90
}

// Median returns the middle of vals (mean of the two middle values for an
// even count). vals is sorted in place.
func Median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// Segments is how many equal-op-count slices of the measured phase the
// throughput median is taken over.
const Segments = 10

// SegmentRates orders samples by completion time, cuts them into
// Segments slices of equal operation count and returns each slice's rate
// in operations per second. A burst of interference slows the slices it
// hits and leaves the median alone, which a whole-phase mean does not.
// samples is reordered.
func SegmentRates(samples []Sample) []float64 {
	slices.SortFunc(samples, func(a, b Sample) int { return int(a.End - b.End) })
	n := len(samples)
	segs := min(Segments, n)
	rates := make([]float64, 0, segs)
	var prevEnd time.Duration
	prevIdx := 0
	for k := 1; k <= segs; k++ {
		idx := k * n / segs
		end := samples[idx-1].End
		if d := end - prevEnd; d > 0 {
			rates = append(rates, float64(idx-prevIdx)/d.Seconds())
		}
		prevEnd, prevIdx = end, idx
	}
	return rates
}

// Quartiles returns the first and third quartile of vals by the same
// exclusive method Python's statistics.quantiles(vals, n=4) uses, so the
// spread printed here is the spread the acceptance check computes. vals is
// sorted in place; fewer than two values yield the value itself.
func Quartiles(vals []float64) (q1, q3 float64) {
	slices.Sort(vals)
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vals[0], vals[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return vals[j-1] + frac*(vals[j]-vals[j-1])
	}
	return at(1), at(3)
}

// Latencies extracts and sorts the latencies of samples.
func Latencies(samples []Sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.Lat
	}
	slices.Sort(out)
	return out
}

// Ms renders a duration as fractional milliseconds.
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
