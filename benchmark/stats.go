package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of vals by the
// nearest-rank rule on a sorted copy: the smallest sample with at least
// q·n samples at or below it. With n ≥ 200, q = 0.95 leaves ≥ 10 samples
// beyond the reported value, which is why p95 is the tail the harness
// reports and 200 is the floor on a segment's sample count.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value (mean of the two middle values for even n).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary is one metric over a run's segments: the reported value is the
// median of the per-segment statistic; min and max show how far segments
// disagreed.
type summary struct {
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Unit  string  `json:"unit"`
}

func summarize(perSegment []float64, unit string) summary {
	s := summary{Value: median(perSegment), Unit: unit}
	if len(perSegment) > 0 {
		s.Min, s.Max = perSegment[0], perSegment[0]
		for _, v := range perSegment[1:] {
			s.Min = math.Min(s.Min, v)
			s.Max = math.Max(s.Max, v)
		}
	}
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
