package dist

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// samplerCase is a sampler with the mean its constructor promises, worked
// out by hand from the parameters.
type samplerCase struct {
	s    Sampler
	mean float64
}

// samplersUnderTest enumerates every sampler; the property tests below run
// the same checks over all of them.
func samplersUnderTest() map[string]samplerCase {
	return map[string]samplerCase{
		"constant":    {Constant{V: 3.5}, 3.5},
		"exponential": {NewExponential(1.7), 1.7},
		"lognormal":   {LognormalFromMeanP99(1.3, 12.0), 1.3},
		"pareto":      {ParetoFromMean(1.0, 2.5), 1.0},
		"shifted":     {Shifted{Base: NewExponential(0.5), Offset: 2}, 2.5},
		// 0.85*1.0 + 0.15*(4+2.0)
		"bimodal": {NewBimodal(LognormalFromMeanP99(1.0, 2.0), Shifted{Base: NewExponential(2.0), Offset: 4}, 0.15), 1.75},
		// 0.65*1.0 + 0.35*(0.8+1.2)
		"drifting": {driftingAt(0.35), 1.35},
	}
}

// driftingAt freezes a Drifting sampler mid-drift so the shared property
// tests cover its instantaneous mixture.
func driftingAt(p float64) *Drifting {
	d := NewDrifting(LognormalFromMeanP99(1.0, 2.5), Shifted{Base: NewExponential(1.2), Offset: 0.8})
	d.SetProgress(p)
	return d
}

const sampleN = 200_000

func empirical(t *testing.T, s Sampler, seed int64) (mean float64, sorted []float64) {
	t.Helper()
	rng := NewRand(seed)
	sorted = make([]float64, sampleN)
	sum := 0.0
	for i := range sorted {
		v := s.Sample(rng)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("sample %d is %v", i, v)
		}
		sorted[i] = v
		sum += v
	}
	slices.Sort(sorted)
	return sum / sampleN, sorted
}

// fractionAtOrBelow is the empirical CDF of a sorted sample at x.
func fractionAtOrBelow(sorted []float64, x float64) float64 {
	n, _ := slices.BinarySearch(sorted, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(sorted))
}

// TestEmpiricalMeanMatchesAnalytic checks E[X] against the closed-form
// mean of every sampler: the law of large numbers at n=200k should land
// within 3%.
func TestEmpiricalMeanMatchesAnalytic(t *testing.T) {
	for name, c := range samplersUnderTest() {
		mean, _ := empirical(t, c.s, 1)
		if rel := math.Abs(mean-c.mean) / c.mean; rel > 0.03 {
			t.Errorf("%s: empirical mean %.4f vs analytic %.4f (rel err %.3f)", name, mean, c.mean, rel)
		}
	}
}

// TestEmpiricalQuantilesMatchAnalytic checks closed-form quantiles against
// the sample in CDF space: the share of draws at or below the p-quantile
// must be p, within sampling tolerance. The targets are the inverse CDFs
// evaluated by hand: -mean*ln(1-p) for the exponential, Xm*(1-p)^(-1/alpha)
// for the Pareto (Xm = 0.6), the offset plus the exponential's for the
// shifted sampler, and the requested p99 for the lognormal fit.
func TestEmpiricalQuantilesMatchAnalytic(t *testing.T) {
	cases := []struct {
		name string
		s    Sampler
		p    float64
		q    float64
	}{
		{"exponential", NewExponential(1.7), 0.5, 1.178350},
		{"exponential", NewExponential(1.7), 0.9, 3.914395},
		{"exponential", NewExponential(1.7), 0.99, 7.828789},
		{"pareto", ParetoFromMean(1.0, 2.5), 0.5, 0.791705},
		{"pareto", ParetoFromMean(1.0, 2.5), 0.9, 1.507132},
		{"pareto", ParetoFromMean(1.0, 2.5), 0.99, 3.785744},
		{"shifted", Shifted{Base: NewExponential(0.5), Offset: 2}, 0.5, 2.346574},
		{"shifted", Shifted{Base: NewExponential(0.5), Offset: 2}, 0.9, 3.151293},
		{"shifted", Shifted{Base: NewExponential(0.5), Offset: 2}, 0.99, 4.302585},
		{"lognormal", LognormalFromMeanP99(1.3, 12.0), 0.99, 12.0},
	}
	for _, c := range cases {
		_, sorted := empirical(t, c.s, 2)
		if got := fractionAtOrBelow(sorted, c.q); math.Abs(got-c.p) > 0.01 {
			t.Errorf("%s: P(X <= %.4f) = %.4f, want %.2f", c.name, c.q, got, c.p)
		}
	}
}

// TestSeededDeterminism: the same seed must reproduce the identical stream
// for every sampler, and different seeds must diverge.
func TestSeededDeterminism(t *testing.T) {
	for name, c := range samplersUnderTest() {
		s := c.s
		a, b := NewRand(42), NewRand(42)
		other := NewRand(43)
		diverged := false
		for i := 0; i < 1000; i++ {
			va, vb, vc := s.Sample(a), s.Sample(b), s.Sample(other)
			if va != vb {
				t.Fatalf("%s: draw %d differs under the same seed: %v vs %v", name, i, va, vb)
			}
			if va != vc {
				diverged = true
			}
		}
		if name != "constant" && !diverged {
			t.Errorf("%s: seeds 42 and 43 produced identical streams", name)
		}
	}
}

// TestLognormalFromMeanP99Fit checks seeded draws of the solved (mu, sigma)
// hit the requested mean and 99th percentile.
func TestLognormalFromMeanP99Fit(t *testing.T) {
	cases := [][2]float64{{1.0, 2.5}, {1.3, 12.0}, {2.0, 9.0}, {1.0, 1.05}}
	for _, c := range cases {
		mean, sorted := empirical(t, LognormalFromMeanP99(c[0], c[1]), 3)
		if rel := math.Abs(mean-c[0]) / c[0]; rel > 0.02 {
			t.Errorf("fit(%v, %v): empirical mean %v", c[0], c[1], mean)
		}
		if got := fractionAtOrBelow(sorted, c[1]); math.Abs(got-0.99) > 0.002 {
			t.Errorf("fit(%v, %v): P(X <= p99) = %v, want 0.99", c[0], c[1], got)
		}
	}
	// Degenerate and unattainable requests must still draw finite,
	// positive values.
	rng := NewRand(4)
	for _, l := range []Lognormal{
		LognormalFromMeanP99(1.3, 0.65),  // p99 below mean
		LognormalFromMeanP99(1.0, 100.0), // beyond lognormal reach
	} {
		for i := 0; i < 1000; i++ {
			if v := l.Sample(rng); math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Fatalf("fit %+v drew %v", l, v)
			}
		}
	}
}

// TestParetoTailHeavierThanLognormal pins the reason Pareto exists in this
// package: against a lognormal fitted to the same mean and p99, its
// extreme tail must dominate. 4.42435 is ParetoFromMean(1.0, 2.2)'s p99,
// Xm*100^(1/alpha) with Xm = 1.2/2.2.
func TestParetoTailHeavierThanLognormal(t *testing.T) {
	_, pa := empirical(t, ParetoFromMean(1.0, 2.2), 5)
	_, ln := empirical(t, LognormalFromMeanP99(1.0, 4.42435), 5)
	i := int(0.999 * sampleN)
	if pa[i] <= ln[i] {
		t.Fatalf("pareto p99.9 %v not above lognormal %v", pa[i], ln[i])
	}
}

// TestShiftedFloor pins the hard latency floor Shifted exists for: no draw
// falls below the offset of a non-negative base.
func TestShiftedFloor(t *testing.T) {
	_, sorted := empirical(t, Shifted{Base: NewExponential(1.2), Offset: 0.8}, 6)
	if sorted[0] < 0.8 {
		t.Fatalf("draw %v below the 0.8 floor", sorted[0])
	}
}

// TestBimodalFarShare pins the mode split: with two constant modes, the
// share of far draws is pFar. A probability outside [0, 1] panics.
func TestBimodalFarShare(t *testing.T) {
	b := NewBimodal(Constant{V: 1}, Constant{V: 5}, 0.15)
	rng := NewRand(7)
	far := 0
	for i := 0; i < sampleN; i++ {
		switch v := b.Sample(rng); v {
		case 5:
			far++
		case 1:
		default:
			t.Fatalf("impossible sample %v", v)
		}
	}
	if share := float64(far) / sampleN; math.Abs(share-0.15) > 0.005 {
		t.Fatalf("far-mode share %v, want 0.15", share)
	}
	defer func() {
		if recover() == nil {
			t.Error("pFar 1.5 did not panic")
		}
	}()
	NewBimodal(Constant{V: 1}, Constant{V: 2}, 1.5)
}

// TestSampleDuration covers the unit bridge and its negative clamp.
func TestSampleDuration(t *testing.T) {
	rng := NewRand(1)
	if d := SampleDuration(Constant{V: 2.5}, rng, time.Millisecond); d != 2500*time.Microsecond {
		t.Fatalf("SampleDuration = %v", d)
	}
	if d := SampleDuration(Constant{V: -3}, rng, time.Second); d != 0 {
		t.Fatalf("negative sample not clamped: %v", d)
	}
}

func TestDriftingEndpointsAndMonotoneMean(t *testing.T) {
	d := NewDrifting(Constant{V: 1}, Constant{V: 4})
	rng := NewRand(5)
	// Progress 0: pure From.
	for i := 0; i < 100; i++ {
		if v := d.Sample(rng); v != 1 {
			t.Fatalf("progress 0 sampled %v", v)
		}
	}
	// Progress 1: pure To.
	d.SetProgress(1)
	for i := 0; i < 100; i++ {
		if v := d.Sample(rng); v != 4 {
			t.Fatalf("progress 1 sampled %v", v)
		}
	}
	// The mean interpolates linearly, 1 + 3*progress, and so monotonically
	// between the regimes.
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0001; p += 0.1 {
		d.SetProgress(p)
		sum := 0.0
		for i := 0; i < 20_000; i++ {
			sum += d.Sample(rng)
		}
		m := sum / 20_000
		if m < prev {
			t.Fatalf("mean not monotone at progress %v: %v < %v", p, m, prev)
		}
		if want := 1 + 3*math.Min(p, 1); math.Abs(m-want) > 0.05 {
			t.Fatalf("mean at progress %v = %v, want %v", p, m, want)
		}
		prev = m
	}
	// Out-of-range progress clamps.
	d.SetProgress(7)
	if d.Progress() != 1 {
		t.Fatalf("progress not clamped: %v", d.Progress())
	}
	d.SetProgress(math.NaN())
	if d.Progress() != 0 {
		t.Fatalf("NaN progress = %v, want 0", d.Progress())
	}
}

func TestDriftingEmpiricalMeanTracksProgress(t *testing.T) {
	mean, _ := empirical(t, driftingAt(0.6), 42)
	const want = 0.4*1.0 + 0.6*(0.8+1.2)
	if math.Abs(mean-want)/want > 0.03 {
		t.Fatalf("empirical mean %v vs %v at progress 0.6", mean, want)
	}
}

// TestDriftingConcurrentSetProgress exercises the one mutable sampler
// under -race: samples race with drift advancement by design.
func TestDriftingConcurrentSetProgress(t *testing.T) {
	d := NewDrifting(Constant{V: 1}, Constant{V: 2})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i <= 1000; i++ {
			d.SetProgress(float64(i) / 1000)
		}
	}()
	go func() {
		defer wg.Done()
		rng := NewRand(1)
		for i := 0; i < 5000; i++ {
			if v := d.Sample(rng); v != 1 && v != 2 {
				t.Errorf("impossible sample %v", v)
				return
			}
		}
	}()
	wg.Wait()
}

// TestSamplersConcurrentUse shares one sampler value across goroutines,
// each with its own rng — the documented concurrency contract — and is
// meaningful under -race.
func TestSamplersConcurrentUse(t *testing.T) {
	for name, c := range samplersUnderTest() {
		s := c.s
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := NewRand(seed)
					for i := 0; i < 5000; i++ {
						_ = s.Sample(rng)
					}
				}(int64(g))
			}
			wg.Wait()
		})
	}
}

var sinkF float64

func BenchmarkSamplers(b *testing.B) {
	for name, c := range samplersUnderTest() {
		s := c.s
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				sinkF = s.Sample(rng)
			}
		})
	}
}
