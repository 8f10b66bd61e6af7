// Package repro's root benchmarks regenerate every figure of the paper's
// evaluation (§V) through the testing.B interface, one benchmark per figure,
// plus the headline claims. Custom metrics carry the reproduced quantities
// (throughput, p99 latency, stale fraction, estimates) so
// `go test -bench=. -benchmem` prints the paper's numbers alongside the
// usual ns/op.
//
// Budgets here are sized for minutes-scale runs; `cmd/harmony-bench` runs
// the same experiments with larger budgets and full tables.
package repro_test

import (
	"testing"
	"time"

	"harmony/internal/bench"
	"harmony/internal/ycsb"
)

// benchOpts trims experiment cost for the testing.B harness.
func benchOpts() bench.Options {
	return bench.Options{
		OpsPerPoint:   10000,
		Threads:       []int{1, 40, 90},
		Seed:          1,
		PhaseDuration: 3 * time.Second,
	}
}

// reportSeries flattens a figure into benchmark metrics named
// "<series>@<x>_<unit>". Metric units must be whitespace-free, so series
// names are sanitized.
func reportSeries(b *testing.B, f bench.Figure, unit string) {
	b.Helper()
	for _, s := range f.Series {
		for _, p := range s.Points {
			name := sanitize(s.Name) + "@" + trim(p.X) + "_" + unit
			b.ReportMetric(p.Y, name)
		}
	}
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case ' ', '\t', '\n', '/', ',':
			out = append(out, '_')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

func trim(v float64) string {
	if v == float64(int64(v)) {
		return itoa(int64(v))
	}
	return itoa(int64(v*1000)) + "m"
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// BenchmarkFig4a regenerates Fig. 4(a): the stale-read probability estimate
// over running time under thread steps 90/70/40/15/1 for workloads A and B.
func BenchmarkFig4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig4a(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Report the per-workload mean estimate.
			for _, s := range fig.Series {
				sum := 0.0
				for _, p := range s.Points {
					sum += p.Y
				}
				b.ReportMetric(sum/float64(len(s.Points)), s.Name+"_mean_estimate")
			}
		}
	}
}

// BenchmarkFig4b regenerates Fig. 4(b): the estimate against network latency
// under a fixed offered load.
func BenchmarkFig4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig4b(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, fig, "est")
		}
	}
}

// grid runs the Fig. 5/6 measurement matrix for a scenario once per
// benchmark iteration and reports one figure's series.
func grid(b *testing.B, sc bench.Scenario, project func(bench.Grid) bench.Figure, unit string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		g, err := bench.RunGrid(sc, bench.StandardPolicies(sc), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, project(g), unit)
		}
	}
}

// BenchmarkFig5aLatencyGrid5000 regenerates Fig. 5(a): p99 read latency vs
// client threads on the Grid'5000 profile.
func BenchmarkFig5aLatencyGrid5000(b *testing.B) {
	grid(b, bench.Grid5000(), func(g bench.Grid) bench.Figure { return g.LatencyFigure("fig5a") }, "msP99")
}

// BenchmarkFig5bLatencyEC2 regenerates Fig. 5(b): p99 read latency vs client
// threads on the EC2 profile.
func BenchmarkFig5bLatencyEC2(b *testing.B) {
	grid(b, bench.EC2(), func(g bench.Grid) bench.Figure { return g.LatencyFigure("fig5b") }, "msP99")
}

// BenchmarkFig5cThroughputGrid5000 regenerates Fig. 5(c): throughput vs
// client threads on the Grid'5000 profile.
func BenchmarkFig5cThroughputGrid5000(b *testing.B) {
	grid(b, bench.Grid5000(), func(g bench.Grid) bench.Figure { return g.ThroughputFigure("fig5c") }, "ops")
}

// BenchmarkFig5dThroughputEC2 regenerates Fig. 5(d): throughput vs client
// threads on the EC2 profile.
func BenchmarkFig5dThroughputEC2(b *testing.B) {
	grid(b, bench.EC2(), func(g bench.Grid) bench.Figure { return g.ThroughputFigure("fig5d") }, "ops")
}

// BenchmarkFig6aStalenessGrid5000 regenerates Fig. 6(a): measured stale
// reads vs client threads on the Grid'5000 profile.
func BenchmarkFig6aStalenessGrid5000(b *testing.B) {
	grid(b, bench.Grid5000(), func(g bench.Grid) bench.Figure { return g.StalenessFigure("fig6a") }, "per100k")
}

// BenchmarkFig6bStalenessEC2 regenerates Fig. 6(b): measured stale reads vs
// client threads on the EC2 profile.
func BenchmarkFig6bStalenessEC2(b *testing.B) {
	grid(b, bench.EC2(), func(g bench.Grid) bench.Figure { return g.StalenessFigure("fig6b") }, "per100k")
}

// BenchmarkHeadline reproduces the §I claims: stale-read reduction vs
// eventual consistency and throughput gain vs strong consistency.
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum, err := bench.Headline(bench.Grid5000(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(sum.StaleReductionVsEventual*100, "staleCut_pct")
			b.ReportMetric(sum.ThroughputGainVsStrong*100, "tputGain_pct")
			b.ReportMetric(sum.LatencyOverheadVsEventual*100, "latOverhead_pct")
		}
	}
}

// BenchmarkWorkloadAEventual measures raw simulator throughput driving
// Workload-A at eventual consistency — the substrate cost itself.
func BenchmarkWorkloadAEventual(b *testing.B) {
	res, err := bench.RunPolicy(bench.RunSpec{
		Scenario: bench.Grid5000(),
		Policy:   bench.PolicySpec{Kind: bench.PolicyEventual},
		Workload: ycsb.WorkloadA(),
		Threads:  40,
		Ops:      int64(b.N) + 1000,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Report.ThroughputOps, "virtual_ops/s")
}

// BenchmarkHotCold runs the per-group-vs-global controller comparison and
// reports the throughput gain per-group adaptation buys.
func BenchmarkHotCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.HotCold(bench.DefaultHotColdSpec(), bench.Options{OpsPerPoint: 8000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.PerGroup.ThroughputOps, "pergroup_ops/s")
			b.ReportMetric(res.Global.ThroughputOps, "global_ops/s")
			b.ReportMetric(res.ThroughputGain*100, "gain_pct")
		}
	}
}

// BenchmarkScenarioStressProfiles drives Harmony through the four
// stress-network scenarios (Pareto-tail WAN, degraded links, bimodal
// congestion, mid-run jitter drift) and reports throughput and measured
// stale fraction, so the adaptive controller's behavior under
// scenario-diverse timing shows up alongside the paper's figures.
func BenchmarkScenarioStressProfiles(b *testing.B) {
	for _, sc := range []bench.Scenario{bench.WANHeavyTail(), bench.Degraded(), bench.CongestedBimodal(), bench.Drifting()} {
		sc := sc
		b.Run(sc.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.RunPolicy(bench.RunSpec{
					Scenario: sc,
					Policy:   bench.PolicySpec{Kind: bench.PolicyHarmony, Tolerance: sc.HarmonyTolerances[0]},
					Workload: ycsb.WorkloadA(),
					Threads:  8,
					Ops:      2000,
					Seed:     1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.Report.ThroughputOps, "virtual_ops/s")
					b.ReportMetric(res.Report.StaleFraction()*100, "stale_pct")
				}
			}
		})
	}
}
