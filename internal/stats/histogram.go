// Package stats provides the latency histogram used throughout the
// repository: log-spaced buckets with percentile queries (the paper reports
// 99th-percentile read latency) and a mergeable, allocation-free Record.
package stats

import (
	"fmt"
	"math"
	"time"
)

// Histogram records durations into logarithmically spaced buckets, giving
// bounded relative error for percentile queries across many decades of
// latency. The zero value is ready to use. Histogram is not safe for
// concurrent use; wrap with a lock if shared.
type Histogram struct {
	counts [bucketCount]uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

const (
	// Buckets follow the classic HDR-style octave/sub-bucket scheme:
	// 36 octaves * 16 sub-buckets per octave covers 1ns..~68s (2^36 ns)
	// with <= 6.25% (1/16) relative error per bucket. Durations beyond the
	// top octave clamp into the last bucket.
	subBucketBits = 4
	subBuckets    = 1 << subBucketBits
	octaves       = 36
	bucketCount   = octaves * subBuckets
)

func bucketIndex(d time.Duration) int {
	if d < 1 {
		d = 1
	}
	v := uint64(d)
	// Octave = position of highest set bit.
	oct := 63 - leadingZeros64(v)
	var sub uint64
	if oct >= subBucketBits {
		sub = (v >> (uint(oct) - subBucketBits)) & (subBuckets - 1)
	} else {
		sub = (v << (subBucketBits - uint(oct))) & (subBuckets - 1)
	}
	idx := oct*subBuckets + int(sub)
	if idx >= bucketCount {
		idx = bucketCount - 1
	}
	return idx
}

func bucketLower(idx int) time.Duration {
	oct := idx / subBuckets
	sub := idx % subBuckets
	if oct < subBucketBits {
		return time.Duration(1 << uint(oct))
	}
	base := uint64(1) << uint(oct)
	step := base >> subBucketBits
	return time.Duration(base + uint64(sub)*step)
}

func leadingZeros64(v uint64) int {
	n := 0
	if v == 0 {
		return 64
	}
	for v&(1<<63) == 0 {
		v <<= 1
		n++
	}
	return n
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(d)]++
	h.total++
	h.sum += d
	if h.total == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Mean returns the mean observation, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() time.Duration { return h.min }

// Max returns the largest recorded value, or 0 if empty.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns an estimate of the q-quantile (q in [0,1]) with bounded
// relative error. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			lo := bucketLower(i)
			hi := bucketLower(i + 1)
			if hi < lo {
				hi = lo
			}
			// Midpoint of the bucket is the conventional estimate.
			est := lo + (hi-lo)/2
			if est > h.max {
				est = h.max
			}
			if est < h.min {
				est = h.min
			}
			return est
		}
	}
	return h.max
}

// P99 is shorthand for Quantile(0.99), the statistic the paper plots.
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// p95 is shorthand for Quantile(0.95).
func (h *Histogram) p95() time.Duration { return h.Quantile(0.95) }

// Median is shorthand for Quantile(0.5).
func (h *Histogram) Median() time.Duration { return h.Quantile(0.5) }

// Merge adds all observations recorded in other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.total == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.total += other.total
	h.sum += other.sum
}

// Reset clears all recorded observations.
func (h *Histogram) Reset() { *h = Histogram{} }

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.total, h.Mean(), h.Median(), h.p95(), h.P99(), h.Max())
}
