package bench

import (
	"fmt"
	"strings"
	"time"

	"harmony/internal/ycsb"
)

// HeadlineSummary quantifies the paper's §I claims: "Harmony with 20%
// tolerated stale reads reduces the stale data being read by almost 80%
// while adding only minimal latency" (the restrictive tolerance) and
// "improves the throughput of the system by 45% ... compared to the strong
// consistency model" (stated in §V-E for the permissive tolerance, 40% on
// Grid'5000 / 60% on EC2).
type HeadlineSummary struct {
	Scenario string
	Threads  int
	// Tolerance is the restrictive Harmony setting (stale-cut claim);
	// permissiveTolerance is the setting behind the throughput claim.
	Tolerance           float64
	permissiveTolerance float64
	// StaleReductionVsEventual is 1 - stale(Harmony)/stale(Eventual).
	StaleReductionVsEventual float64
	// ThroughputGainVsStrong is tput(Harmony)/tput(Strong) - 1.
	ThroughputGainVsStrong float64
	// LatencyOverheadVsEventual is p99(Harmony)/p99(Eventual) - 1.
	LatencyOverheadVsEventual float64
	// latencyVsStrong is p99(Harmony)/p99(Strong).
	latencyVsStrong float64
	// Raw numbers backing the ratios.
	harmonyStale, eventualStale        uint64
	harmonyTput, strongTput            float64
	harmonyP99, eventualP99, strongP99 time.Duration
}

// Format renders the summary.
func (h HeadlineSummary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== headline (%s, %d threads) ==\n", h.Scenario, h.Threads)
	fmt.Fprintf(&b, "stale reads (Harmony-%d%%):  harmony=%d eventual=%d -> rate reduction %.0f%% (paper: ~80%%)\n",
		int(h.Tolerance*100+0.5), h.harmonyStale, h.eventualStale, h.StaleReductionVsEventual*100)
	fmt.Fprintf(&b, "throughput (Harmony-%d%%):   harmony=%.0f strong=%.0f ops/s -> gain %.0f%% (paper: ~45%%)\n",
		int(h.permissiveTolerance*100+0.5), h.harmonyTput, h.strongTput, h.ThroughputGainVsStrong*100)
	fmt.Fprintf(&b, "p99 latency (Harmony-%d%%):  harmony=%v eventual=%v strong=%v -> overhead vs eventual %.0f%%, vs strong %.2fx\n",
		int(h.Tolerance*100+0.5), h.harmonyP99.Round(10*time.Microsecond), h.eventualP99.Round(10*time.Microsecond),
		h.strongP99.Round(10*time.Microsecond), h.LatencyOverheadVsEventual*100, h.latencyVsStrong)
	return b.String()
}

// Headline runs the four policies the claims compare — Harmony at the
// scenario's restrictive and permissive tolerances, eventual, strong — at a
// high thread count and computes the claim ratios: the stale-read cut uses
// the restrictive setting, the throughput gain the permissive one.
func Headline(sc Scenario, opts Options) (HeadlineSummary, error) {
	opts = opts.withDefaults()
	threads := 90
	restrictive := sc.HarmonyTolerances[0]
	permissive := sc.HarmonyTolerances[1]
	policies := []PolicySpec{
		{Kind: PolicyHarmony, Tolerance: restrictive},
		{Kind: PolicyHarmony, Tolerance: permissive},
		{Kind: PolicyEventual},
		{Kind: policyStrong},
	}
	var results []RunResult
	for i, pol := range policies {
		res, err := RunPolicy(RunSpec{
			Scenario: sc,
			Policy:   pol,
			Workload: ycsb.WorkloadA(),
			Threads:  threads,
			Ops:      opts.OpsPerPoint,
			Seed:     opts.Seed + int64(i),
		})
		if err != nil {
			return HeadlineSummary{}, err
		}
		opts.progress("headline %-12s tput=%8.0f p99=%8s stale=%d/%d",
			pol.Name(), res.Report.ThroughputOps,
			res.Report.ReadLatency.P99().Round(10*time.Microsecond),
			res.Report.StaleReads, res.Report.ShadowSamples)
		results = append(results, res)
	}
	tight, loose, eventual, strong := results[0].Report, results[1].Report, results[2].Report, results[3].Report
	h := HeadlineSummary{
		Scenario:            sc.Name,
		Threads:             threads,
		Tolerance:           restrictive,
		permissiveTolerance: permissive,
		harmonyStale:        tight.StaleReads,
		eventualStale:       eventual.StaleReads,
		harmonyTput:         loose.ThroughputOps,
		strongTput:          strong.ThroughputOps,
		harmonyP99:          tight.ReadLatency.P99(),
		eventualP99:         eventual.ReadLatency.P99(),
		strongP99:           strong.ReadLatency.P99(),
	}
	// Normalize stale counts by probe volume before comparing.
	tightRate := ratio(tight.StaleReads, tight.ShadowSamples)
	eventualRate := ratio(eventual.StaleReads, eventual.ShadowSamples)
	if eventualRate > 0 {
		h.StaleReductionVsEventual = 1 - tightRate/eventualRate
	}
	if strong.ThroughputOps > 0 {
		h.ThroughputGainVsStrong = loose.ThroughputOps/strong.ThroughputOps - 1
	}
	if eventual.ReadLatency.P99() > 0 {
		h.LatencyOverheadVsEventual = float64(tight.ReadLatency.P99())/float64(eventual.ReadLatency.P99()) - 1
	}
	if strong.ReadLatency.P99() > 0 {
		h.latencyVsStrong = float64(tight.ReadLatency.P99()) / float64(strong.ReadLatency.P99())
	}
	return h, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
