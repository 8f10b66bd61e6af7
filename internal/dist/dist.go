// Package dist provides the statistical primitives every timing model in
// this repository is built from: latency/jitter samplers, and the YCSB
// request-key choosers (uniform and zipfian).
//
// Samplers are immutable values. All randomness flows through the
// *rand.Rand passed to Sample, so determinism is entirely the caller's:
// one seeded stream per consumer (a simnet.Net, a node's service timer, a
// workload thread) reproduces the same draws run after run. Because
// samplers hold no mutable state they are safe to share across goroutines
// as long as each goroutine samples with its own rng.
package dist

import (
	"math"
	"math/rand"
	"time"
)

// Sampler is a one-dimensional distribution: Sample draws a variate using
// the caller's rng.
type Sampler interface {
	Sample(rng *rand.Rand) float64
}

// NewRand returns a deterministic random stream for the seed; a convenience
// so callers outside the simulator get per-seed reproducibility the same
// way sim.Sim.NewStream provides it inside.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SampleDuration draws from s and scales the variate by unit, clamping
// negatives to zero. It is the bridge between unitless samplers and the
// time.Duration world of the simulator (open-loop inter-arrival gaps).
func SampleDuration(s Sampler, rng *rand.Rand, unit time.Duration) time.Duration {
	v := s.Sample(rng)
	if v <= 0 {
		return 0
	}
	return time.Duration(v * float64(unit))
}

// zQuantile is the standard normal quantile function Phi^-1.
func zQuantile(p float64) float64 {
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// z99 is Phi^-1(0.99), the constant behind the mean/p99 lognormal fit.
var z99 = zQuantile(0.99)
