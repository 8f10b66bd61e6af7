package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.P99() != 0 {
		t.Fatal("zero histogram must report zeros")
	}
	h.Record(10 * time.Millisecond)
	h.Record(20 * time.Millisecond)
	h.Record(30 * time.Millisecond)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 10*time.Millisecond || h.Max() != 30*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Mean(); got != 20*time.Millisecond {
		t.Fatalf("mean = %v", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5 * time.Millisecond)
	if h.Min() != 0 {
		t.Fatalf("negative record min = %v, want 0", h.Min())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	r := rand.New(rand.NewSource(7))
	samples := make([]time.Duration, 0, 50000)
	for i := 0; i < 50000; i++ {
		// lognormal-ish latencies between ~100us and ~1s
		d := time.Duration(math.Exp(12+2*r.NormFloat64())) * time.Nanosecond
		h.Record(d)
		samples = append(samples, d)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := exactPercentile(samples, q)
		est := h.Quantile(q)
		relErr := math.Abs(float64(est-exact)) / float64(exact)
		if relErr > 0.10 {
			t.Fatalf("q=%v exact=%v est=%v relErr=%v", q, exact, est, relErr)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	var h Histogram
	h.Record(5 * time.Millisecond)
	if got := h.Quantile(-1); got != 5*time.Millisecond {
		t.Fatalf("q<0 = %v", got)
	}
	if got := h.Quantile(2); got != 5*time.Millisecond {
		t.Fatalf("q>1 = %v", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 1; i <= 100; i++ {
		a.Record(time.Duration(i) * time.Millisecond)
	}
	for i := 101; i <= 200; i++ {
		b.Record(time.Duration(i) * time.Millisecond)
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Max() != 200*time.Millisecond || a.Min() != time.Millisecond {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	var empty Histogram
	a.Merge(&empty) // must not disturb
	if a.Count() != 200 {
		t.Fatal("merge with empty changed count")
	}
}

// TestHistogramMergeEquivalence pins the defining property of Merge: merging
// the histograms of two sample sets is indistinguishable — bucket counts,
// totals, extrema, and every quantile — from one histogram of the
// concatenated samples.
func TestHistogramMergeEquivalence(t *testing.T) {
	property := func(seedA, seedB int64, nA, nB uint16) bool {
		draw := func(seed int64, n int) []time.Duration {
			r := rand.New(rand.NewSource(seed))
			out := make([]time.Duration, n)
			for i := range out {
				// Spread across many octaves, including sub-octave-4 values
				// and negatives (clamped to 0 by Record).
				out[i] = time.Duration(math.Exp(2+7*r.NormFloat64()))*time.Nanosecond - 5
			}
			return out
		}
		sa := draw(seedA, int(nA%2000))
		sb := draw(seedB, int(nB%2000))

		var ha, hb, merged, concat Histogram
		for _, d := range sa {
			ha.Record(d)
			concat.Record(d)
		}
		for _, d := range sb {
			hb.Record(d)
			concat.Record(d)
		}
		merged.Merge(&ha)
		merged.Merge(&hb)

		if merged != concat {
			t.Logf("merged != concat: %v vs %v", merged.String(), concat.String())
			return false
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if merged.Quantile(q) != concat.Quantile(q) {
				t.Logf("q=%v: merged %v vs concat %v", q, merged.Quantile(q), concat.Quantile(q))
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramMergeCommutes: a.Merge(b) and b.Merge(a) yield the same
// distribution (order of merging must not matter).
func TestHistogramMergeCommutes(t *testing.T) {
	var a1, b1, a2, b2 Histogram
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		da := time.Duration(r.Int63n(int64(10 * time.Second)))
		db := time.Duration(r.Int63n(int64(time.Millisecond)))
		a1.Record(da)
		a2.Record(da)
		b1.Record(db)
		b2.Record(db)
	}
	a1.Merge(&b1) // a <- b
	b2.Merge(&a2) // b <- a
	if a1 != b2 {
		t.Fatalf("merge not commutative:\n a.Merge(b) = %v\n b.Merge(a) = %v", a1.String(), b2.String())
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestHistogramMonotoneQuantiles(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var h Histogram
		for i := 0; i < 500; i++ {
			h.Record(time.Duration(r.Int63n(int64(time.Second))))
		}
		return h.Quantile(0.5) <= h.Quantile(0.9) &&
			h.Quantile(0.9) <= h.Quantile(0.99) &&
			h.Quantile(0.99) <= h.Max() && h.Quantile(0) >= h.Min()
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestExactPercentile(t *testing.T) {
	s := []time.Duration{5, 1, 4, 2, 3}
	if got := exactPercentile(s, 0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := exactPercentile(s, 1.0); got != 5 {
		t.Fatalf("p100 = %v, want 5", got)
	}
	if got := exactPercentile(nil, 0.5); got != 0 {
		t.Fatalf("empty = %v, want 0", got)
	}
	// input must not be mutated
	if s[0] != 5 {
		t.Fatal("exactPercentile mutated input")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i%1000) * time.Microsecond)
	}
}

func BenchmarkHistogramP99(b *testing.B) {
	var h Histogram
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.Record(time.Duration(r.Int63n(int64(time.Second))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.P99()
	}
}

// exactPercentile computes the exact percentile of a slice of durations, the
// reference the tests validate Histogram accuracy against.
func exactPercentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := make([]time.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
