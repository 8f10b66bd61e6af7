package bench

import (
	"strings"
	"testing"
	"time"

	"harmony/internal/obs"
)

// passingPartitionResult returns a synthetic result that satisfies every pin.
func passingPartitionResult() PartitionResult {
	return PartitionResult{
		Backend:           "sim",
		Nodes:             6,
		RF:                5,
		BaselineTputOps:   5000,
		CutTputOps:        4600,
		AvailabilityRatio: 0.92,
		ProbeBaseline: PartitionProbe{
			OneOK: 40, QuorumOK: 40, WriteOK: 40, DeadlineMs: 750,
		},
		ProbeCut: PartitionProbe{
			OneOK: 90, OneErr: 8,
			QuorumErr: 98, WriteErr: 98,
			WorstQuorumErrMs: 780, DeadlineMs: 750,
		},
		Holds: 2,
		Groups: []ChurnGroup{
			{Name: "hot", Tolerance: 0.05, RecoveredWithinMs: 1200, TailFraction: 0.01},
			{Name: "cold", Tolerance: 0.30, RecoveredWithinMs: 2400, TailFraction: 0.04},
		},
	}
}

func TestCheckPartitionPasses(t *testing.T) {
	if v := CheckPartition(passingPartitionResult()); len(v) != 0 {
		t.Fatalf("clean result flagged: %v", v)
	}
	// A live-shaped result with a bounded detection window also passes.
	r := passingPartitionResult()
	r.Backend = "live"
	r.DetectBoundMs, r.DetectMs = 5000, 2800
	if v := CheckPartition(r); len(v) != 0 {
		t.Fatalf("live result with in-bound detection flagged: %v", v)
	}
}

// TestCheckPartitionCatchesViolations mutates the passing result one pin at
// a time and asserts each mutation is flagged with a recognizable message.
func TestCheckPartitionCatchesViolations(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*PartitionResult)
		keyword string
	}{
		{"availability", func(r *PartitionResult) { r.AvailabilityRatio = 0.5 }, "availability ratio"},
		{"one-dark", func(r *PartitionResult) { r.ProbeCut.OneOK = 0 }, "no CL=ONE"},
		{"one-degraded", func(r *PartitionResult) { r.ProbeCut.OneErr = 90 }, "CL=ONE availability"},
		{"split-brain", func(r *PartitionResult) { r.ProbeCut.QuorumOK = 3 }, "split brain"},
		{"no-refusals", func(r *PartitionResult) {
			r.ProbeCut.QuorumErr, r.ProbeCut.WriteErr = 0, 0
		}, "never bit"},
		{"hang", func(r *PartitionResult) { r.ProbeCut.WorstQuorumErrMs = 5000 }, "fail-fast"},
		{"never-recovered", func(r *PartitionResult) { r.Groups[1].RecoveredWithinMs = -1 }, "never re-converged"},
		{"tail-stale", func(r *PartitionResult) { r.Groups[0].TailFraction = 0.2 }, "tail staleness"},
		{"no-holds", func(r *PartitionResult) { r.Holds = 0 }, "divergence holds"},
		{"baseline-dead", func(r *PartitionResult) { r.ProbeBaseline.QuorumOK = 0 }, "baseline probe"},
		{"slow-detection", func(r *PartitionResult) {
			r.DetectBoundMs, r.DetectMs = 4000, 6500
		}, "detection"},
		{"never-convicted", func(r *PartitionResult) {
			r.DetectBoundMs, r.DetectMs = 4000, -1
		}, "detection"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := passingPartitionResult()
			tc.mutate(&r)
			v := CheckPartition(r)
			if len(v) == 0 {
				t.Fatalf("mutation not flagged")
			}
			found := false
			for _, msg := range v {
				if strings.Contains(msg, tc.keyword) {
					found = true
				}
			}
			if !found {
				t.Fatalf("violations %v do not mention %q", v, tc.keyword)
			}
		})
	}
}

// TestCheckPartitionHoldsPinIsSimOnly: live timing is too noisy to demand a
// recorded hold, so only the deterministic backend pins it.
func TestCheckPartitionHoldsPinIsSimOnly(t *testing.T) {
	r := passingPartitionResult()
	r.Backend = "live"
	r.Holds = 0
	if v := CheckPartition(r); len(v) != 0 {
		t.Fatalf("live result without holds flagged: %v", v)
	}
}

func TestCountHolds(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.EventLevel},
		{Kind: obs.EventDivergenceHold},
		{Kind: obs.EventDivergenceRelease},
		{Kind: obs.EventDivergenceHold},
	}
	if n := countHolds(events); n != 2 {
		t.Fatalf("countHolds = %d, want 2", n)
	}
}

// reducedPartitionSpec scales the default simulated partition down to a few
// seconds of wall time.
func reducedPartitionSpec() PartitionSpec {
	spec := DefaultPartitionSpec()
	spec.TotalKeys = 2000
	spec.HotKeys = 200
	spec.hotThreads, spec.coldThreads = 4, 8
	spec.hotArrival, spec.coldArrival = 600, 1500
	spec.baseline = 1500 * time.Millisecond
	spec.Cut = 4 * time.Second
	spec.PostWatch = 8 * time.Second
	return spec
}

// TestPartitionSim drives a scaled-down simulated partition end to end and
// requires the full checker contract to hold: majority availability, honest
// minority unavailability at quorum with CL=ONE still served, fail-fast
// refusals, divergence holds, post-heal re-convergence.
func TestPartitionSim(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("partition sim experiment is seconds of virtual time")
	}
	res, err := Partition(reducedPartitionSpec(), Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if v := CheckPartition(res); len(v) != 0 {
		t.Fatalf("partition contract violated:\n  %s\n%s", strings.Join(v, "\n  "), res.Format())
	}
	if res.ProbeCut.QuorumErr == 0 || res.ProbeCut.WriteErr == 0 {
		t.Fatalf("cut probe did not exercise quorum refusals: %+v", res.ProbeCut)
	}
	if len(res.Trace) == 0 {
		t.Fatal("decision trace is empty")
	}
}
