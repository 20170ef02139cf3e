package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted and is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile picks the highest of p99/p95/p90/p75 that still has at
// least ten samples beyond it (p90 needs n >= 100), falling back to the
// median for short series, and returns it with its label.
func tailPercentile(xs []float64) (string, float64) {
	for _, c := range []struct {
		label string
		pct   int
	}{{"p99", 99}, {"p95", 95}, {"p90", 90}, {"p75", 75}} {
		if len(xs)*(100-c.pct) >= 10*100 {
			return c.label, quantile(xs, float64(c.pct)/100)
		}
	}
	return "p50", median(xs)
}

// ratios divides two equally long series element by element: the paired
// in-cycle ratios every gated ratio metric is the median of.
func ratios(num, den []float64) []float64 {
	out := make([]float64, len(num))
	for i := range num {
		out[i] = num[i] / den[i]
	}
	return out
}
