package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestStaleProbabilityBounds(t *testing.T) {
	// Clamped into [0,1] for any plausible inputs.
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Model{
			N:       1 + r.Intn(9),
			lambdaR: math.Exp(r.Float64()*12 - 3), // ~0.05 .. 8000 /s
			lambdaW: math.Exp(r.Float64()*12 - 9), // ~1e-4 .. 20 s
			Tp:      time.Duration(r.Int63n(int64(100 * time.Millisecond)))}
		p := m.staleReadProbability()
		return p >= 0 && p <= 1
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStaleProbabilityDegenerateInputs(t *testing.T) {
	cases := []Model{
		{N: 5, lambdaR: 0, lambdaW: 1, Tp: time.Millisecond},  // no reads
		{N: 5, lambdaR: 10, lambdaW: 0, Tp: time.Millisecond}, // no writes observed
		{N: 1, lambdaR: 10, lambdaW: 1, Tp: time.Millisecond}, // single replica
		{N: 0, lambdaR: 10, lambdaW: 1, Tp: time.Millisecond},
	}
	for _, m := range cases {
		if p := m.staleReadProbability(); p != 0 {
			t.Errorf("%v: P = %v, want 0", m, p)
		}
	}
}

func TestStaleProbabilityMonotoneInTp(t *testing.T) {
	// More propagation delay can only increase staleness.
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Model{N: 5, lambdaR: 1 + r.Float64()*500, lambdaW: 0.001 + r.Float64()}
		prev := -1.0
		for _, tp := range []time.Duration{0, time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, time.Second} {
			m.Tp = tp
			p := m.staleReadProbability()
			if p < prev-1e-12 {
				return false
			}
			prev = p
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStaleProbabilityMonotoneInWriteRate(t *testing.T) {
	// More frequent writes (smaller λw) → more staleness, all else equal.
	m := Model{N: 5, lambdaR: 100, Tp: 10 * time.Millisecond}
	prev := 2.0
	for _, lw := range []float64{0.001, 0.01, 0.1, 1, 10} {
		m.lambdaW = lw
		p := m.staleReadProbability()
		if p > prev+1e-12 {
			t.Fatalf("P increased from %v to %v as writes became rarer (λw=%v)", prev, p, lw)
		}
		prev = p
	}
}

func TestStaleProbabilityZeroTp(t *testing.T) {
	m := Model{N: 5, lambdaR: 100, lambdaW: 0.01, Tp: 0}
	if p := m.staleReadProbability(); p != 0 {
		t.Fatalf("instant propagation gave P=%v", p)
	}
}

func TestStaleProbabilityHeavyLoadSaturates(t *testing.T) {
	// As reads become infinitely frequent, P approaches (N-1)/N.
	m := Model{N: 5, lambdaR: 1e7, lambdaW: 1e-3, Tp: 50 * time.Millisecond}
	p := m.staleReadProbability()
	if math.Abs(p-0.8) > 0.01 {
		t.Fatalf("saturated P = %v, want ~(N-1)/N = 0.8", p)
	}
}

func TestReplicasNeededBounds(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Model{
			N:       1 + r.Intn(9),
			lambdaR: math.Exp(r.Float64()*12 - 3),
			lambdaW: math.Exp(r.Float64()*12 - 9),
			Tp:      time.Duration(r.Int63n(int64(100 * time.Millisecond)))}
		asr := r.Float64()
		x := m.replicasNeeded(asr)
		return x >= 1 && x <= m.N
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicasNeededZeroToleranceIsAll(t *testing.T) {
	m := Model{N: 5, lambdaR: 200, lambdaW: 0.01, Tp: 5 * time.Millisecond}
	if x := m.replicasNeeded(0); x != 5 {
		t.Fatalf("ASR=0 → Xn=%d, want N=5", x)
	}
}

func TestReplicasNeededConsistentWithEstimate(t *testing.T) {
	// Paper self-consistency: plugging the CL=ONE estimate back in as the
	// tolerance must yield Xn=1 (the decision scheme's boundary case).
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Model{
			N:       2 + r.Intn(8),
			lambdaR: 1 + r.Float64()*1000,
			lambdaW: 0.0005 + r.Float64()*0.5,
			Tp:      time.Duration(1 + r.Int63n(int64(50*time.Millisecond)))}
		// Use the unclamped expectation for exact algebra.
		b := m.lambdaR * m.lambdaW
		a := (1 - math.Exp(-m.lambdaR*m.Tp.Seconds())) * (1 + b)
		p1 := float64(m.N-1) / float64(m.N) * a / b
		return m.replicasNeeded(p1) == 1
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicasNeededMonotoneInTolerance(t *testing.T) {
	m := Model{N: 5, lambdaR: 500, lambdaW: 0.002, Tp: 20 * time.Millisecond}
	prev := m.N + 1
	for _, asr := range []float64{0, 0.1, 0.2, 0.4, 0.6, 0.8, 1} {
		x := m.replicasNeeded(asr)
		if x > prev {
			t.Fatalf("Xn grew from %d to %d as tolerance rose to %v", prev, x, asr)
		}
		prev = x
	}
}

func TestReplicasNeededNegativeToleranceClamped(t *testing.T) {
	m := Model{N: 5, lambdaR: 200, lambdaW: 0.01, Tp: 5 * time.Millisecond}
	if x := m.replicasNeeded(-1); x != 5 {
		t.Fatalf("negative ASR → %d, want 5", x)
	}
}

func TestPropagationTime(t *testing.T) {
	if got := propagationTime(time.Millisecond, 0, 0); got != time.Millisecond {
		t.Fatalf("no-bandwidth Tp = %v", got)
	}
	// 1 MiB at 1 MiB/s adds one second.
	got := propagationTime(time.Millisecond, 1<<20, 1<<20)
	want := time.Millisecond + time.Second
	if got != want {
		t.Fatalf("Tp = %v, want %v", got, want)
	}
}

func TestModelValid(t *testing.T) {
	valid := Model{N: 3, lambdaR: 1, lambdaW: 1, Tp: time.Millisecond}
	if !valid.valid() {
		t.Fatal("valid model rejected")
	}
	for _, m := range []Model{
		{N: 0, lambdaR: 1, lambdaW: 1},
		{N: 3, lambdaR: 0, lambdaW: 1},
		{N: 3, lambdaR: 1, lambdaW: 0},
		{N: 3, lambdaR: 1, lambdaW: 1, Tp: -time.Second},
	} {
		if m.valid() {
			t.Fatalf("invalid model accepted: %v", m)
		}
	}
}

func TestPaperScenarioShape(t *testing.T) {
	// Reproduce the qualitative claims of Fig. 4: (a) a heavy-update
	// workload (A) estimates more staleness than a read-mostly one (B) at
	// identical throughput; (b) latency dominates the estimate when high.
	const totalRate = 1000.0 // ops/s
	workloadA := Model{N: 5, Tp: 2 * time.Millisecond,
		lambdaR: totalRate * 0.5, lambdaW: 1 / (totalRate * 0.5)}
	workloadB := Model{N: 5, Tp: 2 * time.Millisecond,
		lambdaR: totalRate * 0.95, lambdaW: 1 / (totalRate * 0.05)}
	pa, pb := workloadA.staleReadProbability(), workloadB.staleReadProbability()
	if pa <= pb {
		t.Fatalf("workload A (update-heavy) P=%v not above workload B P=%v", pa, pb)
	}

	lowLat := Model{N: 5, Tp: time.Millisecond, lambdaR: 500, lambdaW: 1 / 500.0}
	highLat := Model{N: 5, Tp: 50 * time.Millisecond, lambdaR: 500, lambdaW: 1 / 500.0}
	if highLat.staleReadProbability() < 0.75 {
		t.Fatalf("50ms latency estimate %v does not dominate", highLat.staleReadProbability())
	}
	if lowLat.staleReadProbability() >= highLat.staleReadProbability() {
		t.Fatal("latency does not increase staleness")
	}
}

func BenchmarkStaleReadProbability(b *testing.B) {
	m := Model{N: 5, lambdaR: 820, lambdaW: 0.0025, Tp: 3 * time.Millisecond}
	for i := 0; i < b.N; i++ {
		m.staleReadProbability()
	}
}

func BenchmarkReplicasNeeded(b *testing.B) {
	m := Model{N: 5, lambdaR: 820, lambdaW: 0.0025, Tp: 3 * time.Millisecond}
	for i := 0; i < b.N; i++ {
		m.replicasNeeded(0.2)
	}
}
