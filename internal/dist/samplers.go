package dist

import (
	"math"
	"math/rand"
	"sync/atomic"
)

// Constant always returns V. It is the degenerate distribution used to
// switch jitter off (Constant{V: 1} as a multiplicative factor).
type Constant struct {
	V float64
}

// Sample returns V.
func (c Constant) Sample(*rand.Rand) float64 { return c.V }

// Exponential is the exponential distribution parameterized by its Mean
// (1/rate), the natural form for inter-arrival gaps and memoryless delays.
type Exponential struct {
	MeanV float64
}

// NewExponential returns an exponential distribution with the given mean.
func NewExponential(mean float64) Exponential { return Exponential{MeanV: mean} }

// Sample draws an exponential variate with the configured mean.
func (e Exponential) Sample(rng *rand.Rand) float64 {
	return rng.ExpFloat64() * e.MeanV
}

// Lognormal is exp(N(Mu, Sigma^2)): the classic model for service-time and
// network jitter multipliers (multiplicative noise, right-skewed tail).
type Lognormal struct {
	Mu, Sigma float64
}

// LognormalFromMeanP99 fits a lognormal to a target mean and 99th
// percentile — the two numbers latency SLOs are written in — by solving
//
//	mean = exp(mu + sigma^2/2)
//	p99  = exp(mu + z99*sigma)
//
// for (mu, sigma). The smaller root of the resulting quadratic is taken so
// the fit degrades continuously to a near-constant as p99 approaches the
// mean. Ratios p99/mean beyond exp(z99^2/2) (~15x) are not attainable by a
// lognormal and are clamped to the maximal-sigma fit.
func LognormalFromMeanP99(mean, p99 float64) Lognormal {
	if mean <= 0 || p99 <= mean {
		// Degenerate request: collapse toward a point mass at mean.
		return Lognormal{Mu: math.Log(math.Max(mean, 1e-300)), Sigma: 0}
	}
	disc := z99*z99 - 2*math.Log(p99/mean)
	if disc < 0 {
		disc = 0
	}
	sigma := z99 - math.Sqrt(disc)
	return Lognormal{Mu: math.Log(mean) - sigma*sigma/2, Sigma: sigma}
}

// Sample draws exp(mu + sigma*Z).
func (l Lognormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// Pareto is the type-I Pareto distribution with scale Xm (minimum value)
// and shape Alpha: the canonical heavy tail for WAN latency spikes. Alpha
// <= 1 has an infinite mean; keep Alpha > 1 for latency models.
type Pareto struct {
	Xm, Alpha float64
}

// ParetoFromMean returns a Pareto with the given mean and tail shape alpha
// (> 1): Xm = mean*(alpha-1)/alpha. Smaller alpha means a heavier tail at
// the same mean.
func ParetoFromMean(mean, alpha float64) Pareto {
	return Pareto{Xm: mean * (alpha - 1) / alpha, Alpha: alpha}
}

// Sample draws by inverse transform: Xm * (1-U)^(-1/alpha).
func (pa Pareto) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	return pa.Xm * math.Pow(1-u, -1/pa.Alpha)
}

// Shifted translates Base by Offset: X = Offset + Base. Used to give a
// stochastic tail a hard latency floor (e.g. a degraded link that is never
// faster than some constant).
type Shifted struct {
	Base   Sampler
	Offset float64
}

// Sample returns Offset + Base.Sample.
func (s Shifted) Sample(rng *rand.Rand) float64 { return s.Offset + s.Base.Sample(rng) }

// Bimodal is the two-regime distribution network profiles use for
// congestion: with probability pFar the draw comes from far (the slow
// mode), otherwise from near. Construct with NewBimodal.
type Bimodal struct {
	near, far Sampler
	pNear     float64
}

// NewBimodal builds a two-mode distribution: near with probability
// 1-pFar, far with probability pFar. pFar must lie in [0, 1].
func NewBimodal(near, far Sampler, pFar float64) Bimodal {
	if pFar < 0 || pFar > 1 {
		panic("dist: bimodal far-mode probability outside [0,1]")
	}
	return Bimodal{near: near, far: far, pNear: 1 - pFar}
}

// Sample draws one Float64 to pick the mode, then samples that mode.
func (b Bimodal) Sample(rng *rand.Rand) float64 {
	if rng.Float64() < b.pNear {
		return b.near.Sample(rng)
	}
	return b.far.Sample(rng)
}

// Drifting is a time-varying two-regime distribution: each draw comes from
// From with probability 1-Progress and from To with probability Progress,
// so advancing Progress from 0 to 1 drifts the distribution between the
// two regimes mid-run. It models the network a controller must re-adapt
// to — jitter that degrades (or heals) underneath a running experiment.
//
// Unlike every other sampler in this package, Drifting carries mutable
// state (the progress knob) and is therefore a pointer type; SetProgress
// is safe to call concurrently with Sample.
type Drifting struct {
	From, To Sampler
	bits     atomic.Uint64
}

// NewDrifting builds a drifting distribution positioned at From
// (Progress 0). Both samplers must be non-nil.
func NewDrifting(from, to Sampler) *Drifting {
	if from == nil || to == nil {
		panic("dist: drifting needs two samplers")
	}
	return &Drifting{From: from, To: to}
}

// SetProgress moves the drift position, clamping into [0, 1].
func (d *Drifting) SetProgress(p float64) {
	if !(p > 0) { // also catches NaN
		p = 0
	}
	if p > 1 {
		p = 1
	}
	d.bits.Store(math.Float64bits(p))
}

// Progress returns the current drift position in [0, 1].
func (d *Drifting) Progress() float64 { return math.Float64frombits(d.bits.Load()) }

// Sample draws from the regime mixture at the current progress.
func (d *Drifting) Sample(rng *rand.Rand) float64 {
	p := d.Progress()
	if p > 0 && rng.Float64() < p {
		return d.To.Sample(rng)
	}
	return d.From.Sample(rng)
}
