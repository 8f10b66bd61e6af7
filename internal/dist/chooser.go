package dist

import (
	"math"
	"math/rand"
)

// KeyChooser picks record indices for a YCSB-style workload: Next draws
// the next key index in [0, n) using the caller's rng, over a keyspace
// fixed when the chooser is built. Choosers are immutable, so they are
// safe to share across goroutines without a lock; determinism follows
// from each calling thread owning its own seeded rng, exactly as with
// Sampler.
type KeyChooser interface {
	Next(r *rand.Rand) int64
}

// UniformChooser draws keys uniformly from the keyspace.
type UniformChooser struct {
	items int64
}

// NewUniformChooser returns a uniform chooser over [0, n).
func NewUniformChooser(n int64) *UniformChooser {
	return &UniformChooser{items: max(n, 1)}
}

// Next draws uniformly from [0, items).
func (u *UniformChooser) Next(r *rand.Rand) int64 { return r.Int63n(u.items) }

// zipfianConstant is YCSB's default skew parameter theta.
const zipfianConstant = 0.99

// ZipfianChooser reproduces YCSB's ZipfianGenerator (the Gray et al.
// "Quickly generating billion-record synthetic databases" algorithm):
// key i is drawn with probability proportional to 1/i^theta, so low
// indices are hot.
type ZipfianChooser struct {
	items int64
	// theta is zipfianConstant held as a float64, so alpha, zeta and eta
	// are rounded step by step at run time rather than folded exactly at
	// compile time; the draws depend on those low bits.
	theta float64
	alpha float64
	zetaN float64 // zeta(items, theta)
	eta   float64
}

// NewZipfianChooser returns a zipfian chooser over [0, n) with the YCSB
// default theta of 0.99.
func NewZipfianChooser(n int64) *ZipfianChooser {
	z := &ZipfianChooser{items: max(n, 1), theta: zipfianConstant}
	z.alpha = 1 / (1 - z.theta)
	z.zetaN = zeta(z.items, z.theta)
	z.eta = (1 - math.Pow(2/float64(z.items), 1-z.theta)) / (1 - zeta(2, z.theta)/z.zetaN)
	return z
}

// zeta computes sum_{i=1..n} 1/i^theta.
func zeta(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws a zipfian-distributed index in [0, items).
func (z *ZipfianChooser) Next(r *rand.Rand) int64 {
	u := r.Float64()
	uz := u * z.zetaN
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	idx := int64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if idx >= z.items { // u -> 1 maps to the keyspace edge
		idx = z.items - 1
	}
	return idx
}
