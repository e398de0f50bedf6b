package main

import (
	"math"
	"sort"
)

// Summary is how every timing metric is reported: a central value over
// the run's samples (windows, epochs or repetitions) — their median, or
// for the live latencies their midmean — with the quartiles and the
// sample count.
type Summary struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between order statistics; NaN for an empty one.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// summarize sorts a copy of xs and returns its median and quartiles.
func summarize(xs []float64) Summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// midmean is the mean of the middle half of xs (the interquartile mean),
// samples that straddle a quartile counted by the share of them inside;
// NaN for an empty sample. Like the median it ignores a quarter of the
// samples at either end; unlike the median it moves smoothly when the
// samples fall in two groups of about equal size.
func midmean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := float64(len(s))/4, 3*float64(len(s))/4
	var sum float64
	for i, x := range s {
		w := math.Min(hi, float64(i+1)) - math.Max(lo, float64(i))
		if w > 0 {
			sum += w * x
		}
	}
	return sum / (hi - lo)
}

// summarizeMid is summarize with the midmean as the value.
func summarizeMid(xs []float64) Summary {
	s := summarize(xs)
	s.Value = midmean(xs)
	return s
}

// median is summarize(xs).Value.
func median(xs []float64) float64 { return summarize(xs).Value }

// percentileNearestRank returns the p-th percentile (0 < p ≤ 100) of an
// ascending slice by the nearest-rank rule: the smallest sample with at
// least p% of the samples at or below it. It never interpolates, so a
// p99 is always a latency some SDO actually saw.
func percentileNearestRank(sorted []int32, p float64) int32 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// sortInt32 sorts in place and returns its argument.
func sortInt32(xs []int32) []int32 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs
}

// spreadFrac is a sample's interquartile range as a share of its median:
// the run-to-run (or window-to-window) spread the comparison rules judge
// a bound against.
func (s Summary) spreadFrac() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Value)
}
