package main

import (
	"math"
	"sort"
)

// summary is one reported number with the spread behind it. Wall-clock
// metrics are the median of per-window values; Q1/Q3 are the quartiles of
// those windows, Windows their count and Samples the observations under them.
type summary struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Windows int     `json:"windows"`
	Samples int     `json:"samples"`
}

// scalar is a summary with no windows behind it (a count, a ratio).
func scalar(v float64) summary { return summary{Value: v, Q1: v, Q3: v} }

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), so a spread
// computed here equals the one the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// overWindows summarises per-window values as their median and quartiles.
func overWindows(vals []float64, samples int) summary {
	q1, m, q3 := quartiles(vals)
	return summary{Value: m, Q1: q1, Q3: q3, Windows: len(vals), Samples: samples}
}

// percentile is the nearest-rank q-quantile of sorted samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(rank, len(sorted)-1))]
}

// tailSupported reports whether n samples leave at least ten beyond the
// q-quantile, the rule for quoting a tail percentile at all.
func tailSupported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= 10
}

func sortInt64(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// windowPercentiles summarises latency samples held per window: the median
// over windows of each window's q-quantile, in microseconds. When a window
// is too small to support the quantile the windows are pooled instead and
// the summary says Windows=1; ok is false when even the pool is too small.
func windowPercentiles(wins [][]int64, q float64) (s summary, ok bool) {
	total := 0
	perWindow := true
	for _, w := range wins {
		total += len(w)
		if !tailSupported(len(w), q) {
			perWindow = false
		}
	}
	if perWindow && len(wins) > 0 {
		vals := make([]float64, len(wins))
		for i, w := range wins {
			sortInt64(w)
			vals[i] = float64(percentile(w, q)) / 1e3
		}
		return overWindows(vals, total), true
	}
	if !tailSupported(total, q) {
		return summary{}, false
	}
	pool := make([]int64, 0, total)
	for _, w := range wins {
		pool = append(pool, w...)
	}
	sortInt64(pool)
	v := float64(percentile(pool, q)) / 1e3
	return summary{Value: v, Q1: v, Q3: v, Windows: 1, Samples: total}, true
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
