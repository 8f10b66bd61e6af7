// Package core implements Harmony itself: the probabilistic stale-read
// estimator of §IV, the monitoring module that derives its inputs from the
// running cluster (§V-A), and the adaptive-consistency controller that turns
// the estimate into a per-operation consistency level using the decision
// scheme of §III. It also carries the paper's first future-work item,
// access-pattern categorization (k-means over per-key read/write traffic),
// which the regrouping subsystem turns into per-group tolerances.
package core

import (
	"fmt"
	"math"
	"time"
)

// Model holds the estimator inputs. Following the paper's parameterization:
// reads arrive Poisson with rate λr (LambdaR, events/second) and writes
// arrive Poisson with *mean inter-arrival time* λw (LambdaW, seconds — the
// paper uses the exponential parameter λw⁻¹ so λr·λw is the dimensionless
// read/write rate ratio). N is the replication factor and Tp the update
// propagation time to all replicas.
type Model struct {
	N       int
	LambdaR float64       // read arrival rate, 1/s
	LambdaW float64       // mean write inter-arrival time, s
	Tp      time.Duration // propagation time of an update to all replicas
}

// Valid reports whether the model has enough signal to produce an estimate.
func (m Model) Valid() bool {
	return m.N >= 1 && m.LambdaR > 0 && m.LambdaW > 0 && m.Tp >= 0
}

// StaleReadProbability evaluates the closed form of the paper's equation
// (6),
//
//	Pr(stale) = (N−1)·(1−e^{−λr·Tp})·(1+λr·λw) / (N·λr·λw),
//
// clamped into [0, 1]: the derivation approximates an expectation over the
// write sequence and can exceed one when writes vastly outpace reads (the
// paper's Fig. 4 likewise saturates at 1.0).
func (m Model) StaleReadProbability() float64 {
	if !m.Valid() || m.N == 1 {
		return 0
	}
	lrlw := m.LambdaR * m.LambdaW
	if lrlw <= 0 {
		return 0
	}
	tp := m.Tp.Seconds()
	p := float64(m.N-1) / float64(m.N) * (1 - math.Exp(-m.LambdaR*tp)) * (1 + lrlw) / lrlw
	return clamp01(p)
}

// ReplicasNeeded evaluates the paper's equation (8): the minimum number of
// replicas Xn a read must block for so the expected stale-read rate stays at
// or below the application's tolerance asr,
//
//	Xn ≥ N·(A − ASR·B)/A,  A = (1−e^{−λr·Tp})·(1+λr·λw),  B = λr·λw,
//
// rounded up and clamped to [1, N].
func (m Model) ReplicasNeeded(asr float64) int {
	if !m.Valid() || m.N == 1 {
		return 1
	}
	if asr < 0 {
		asr = 0
	}
	b := m.LambdaR * m.LambdaW
	a := (1 - math.Exp(-m.LambdaR*m.Tp.Seconds())) * (1 + b)
	if a <= 0 {
		return 1 // no staleness possible: Tp or rates are degenerate
	}
	x := float64(m.N) * (a - asr*b) / a
	n := int(math.Ceil(x - 1e-9))
	if n < 1 {
		n = 1
	}
	if n > m.N {
		n = m.N
	}
	return n
}

// String renders the model for logs.
func (m Model) String() string {
	return fmt.Sprintf("N=%d λr=%.2f/s λw=%.4fs Tp=%v", m.N, m.LambdaR, m.LambdaW, m.Tp)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// PropagationTime models Tp(Ln, avgw) as defined in §IV: the network latency
// Ln (one-way, to the farthest replica) plus the serialization time of the
// average write size over the replication bandwidth. A zero bandwidth drops
// the size term.
func PropagationTime(ln time.Duration, avgWriteBytes float64, bandwidthBytesPerSec float64) time.Duration {
	tp := ln
	if bandwidthBytesPerSec > 0 && avgWriteBytes > 0 {
		tp += time.Duration(avgWriteBytes / bandwidthBytesPerSec * float64(time.Second))
	}
	return tp
}
