package bench

import (
	"fmt"
	"time"

	"harmony/internal/client"
	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/sim"
	"harmony/internal/simnet"
	"harmony/internal/wire"
	"harmony/internal/ycsb"
)

// Scenario bundles a testbed profile with the cluster and monitoring
// parameters the experiments share.
type Scenario struct {
	Name string
	Spec cluster.Spec
	// MonitorInterval is Harmony's collection cadence (virtual time).
	MonitorInterval time.Duration
	// HarmonyTolerances are the two tolerable-stale-rate settings the
	// paper evaluates on this testbed (Grid'5000: 20%/40%; EC2: 40%/60%).
	HarmonyTolerances [2]float64
	// prepare, when set, is invoked after the cluster is built and before
	// load starts; scenarios use it to inject mid-run dynamics (the
	// drifting profile's jitter schedule). The returned stop function
	// (may be nil) runs when the measurement ends.
	prepare func(s *sim.Sim, c *cluster.Cluster) (stop func())
	// regimeChangeAt, when positive, is the virtual instant (measured from
	// prepare) at which the scenario's mid-run regime change begins, and
	// regimeStableBy when the environment has fully settled into the new
	// regime — the anchors re-adaptation-lag measurements need. Zero for
	// static scenarios.
	regimeChangeAt time.Duration
	regimeStableBy time.Duration
}

// Grid5000 is the paper's first testbed scaled to simulation: 20 physical
// LAN nodes (the paper used 84; staleness and percentile shapes are
// governed by rate×latency products, not node count), RF=5,
// topology-aware placement, read repair on.
func Grid5000() Scenario {
	spec := cluster.DefaultSpec()
	spec.Profile = simnet.Grid5000Profile()
	return Scenario{
		Name:              "grid5000",
		Spec:              spec,
		MonitorInterval:   250 * time.Millisecond,
		HarmonyTolerances: [2]float64{0.20, 0.40},
	}
}

// EC2 is the paper's second testbed: 20 virtualized nodes with ~5x the
// base latency, heavy-tailed jitter, and slower (virtualized) per-message
// service times.
func EC2() Scenario {
	spec := cluster.DefaultSpec()
	spec.Profile = simnet.EC2Profile()
	spec.Service = cluster.DefaultServiceProfile().Scale(1.5)
	return Scenario{
		Name:              "ec2",
		Spec:              spec,
		MonitorInterval:   250 * time.Millisecond,
		HarmonyTolerances: [2]float64{0.40, 0.60},
	}
}

// WANHeavyTail runs the cluster as two datacenters joined by heavy-tailed
// (Pareto-jitter) WAN links. It is the scenario where waiting on remote
// replicas is most expensive and most variable, so the gap between static
// strong reads and Harmony's adaptive level is widest. Tolerances match
// the EC2 settings: a high-variance network earns looser targets.
func WANHeavyTail() Scenario {
	spec := cluster.DefaultSpec()
	spec.DCs = 2
	spec.RacksPerDC = 2 // keep the node count at 20 (2x2x5)
	spec.Profile = simnet.WANHeavyTailProfile()
	spec.Service = cluster.DefaultServiceProfile().Scale(1.25)
	return Scenario{
		Name:              "wan-heavytail",
		Spec:              spec,
		MonitorInterval:   250 * time.Millisecond,
		HarmonyTolerances: [2]float64{0.40, 0.60},
	}
}

// Degraded runs the LAN topology through an incident: a latency floor
// plus exponential stalls on every link and slowed service times. It
// exercises the controller's re-adaptation when the network it calibrated
// on disappears from under it.
func Degraded() Scenario {
	spec := cluster.DefaultSpec()
	spec.Profile = simnet.DegradedProfile()
	spec.Service = cluster.DefaultServiceProfile().Scale(2)
	return Scenario{
		Name:              "degraded",
		Spec:              spec,
		MonitorInterval:   250 * time.Millisecond,
		HarmonyTolerances: [2]float64{0.40, 0.60},
	}
}

// CongestedBimodal keeps the Grid'5000-like topology but mixes a
// congested slow mode into 15% of deliveries: two latency regimes under
// one profile, the shape single-mode jitter models miss.
func CongestedBimodal() Scenario {
	spec := cluster.DefaultSpec()
	spec.Profile = simnet.CongestedBimodalProfile()
	return Scenario{
		Name:              "congested-bimodal",
		Spec:              spec,
		MonitorInterval:   250 * time.Millisecond,
		HarmonyTolerances: [2]float64{0.20, 0.40},
	}
}

// Drifting runs the LAN topology through a mid-run regime change: the
// network starts healthy and its jitter drifts into the degraded regime
// over DriftWindow of virtual time, starting after a stable lead-in. It
// is the re-adaptation-speed scenario — a controller calibrated on the
// healthy network watches its latency estimate decay underneath it.
func Drifting() Scenario {
	profile, knob := simnet.DriftingProfile()
	spec := cluster.DefaultSpec()
	spec.Profile = profile
	const (
		lead        = 2 * time.Second // healthy lead-in before the drift begins
		driftWindow = 5 * time.Second // full drift healthy -> degraded
	)
	return Scenario{
		Name:              "drifting",
		Spec:              spec,
		MonitorInterval:   250 * time.Millisecond,
		HarmonyTolerances: [2]float64{0.20, 0.40},
		regimeChangeAt:    lead,
		regimeStableBy:    lead + driftWindow,
		prepare: func(s *sim.Sim, c *cluster.Cluster) func() {
			knob.SetProgress(0)
			start := s.Now()
			return sim.Every(s,
				func() time.Duration { return 100 * time.Millisecond },
				func() {
					elapsed := s.Now().Sub(start) - lead
					knob.SetProgress(elapsed.Seconds() / driftWindow.Seconds())
				})
		},
	}
}

// Scenarios returns every named scenario keyed by name, for CLIs and
// sweeps that select testbeds by string.
func Scenarios() map[string]Scenario {
	ss := map[string]Scenario{}
	for _, sc := range []Scenario{
		Grid5000(), EC2(), WANHeavyTail(), Degraded(), CongestedBimodal(), Drifting(),
	} {
		ss[sc.Name] = sc
	}
	return ss
}

// PolicyKind selects how read consistency levels are chosen during a run.
type PolicyKind int

// Policy kinds.
const (
	// PolicyEventual is Cassandra's static eventual consistency (CL=ONE).
	PolicyEventual PolicyKind = iota
	// policyStrong is static strong consistency (CL=ALL).
	policyStrong
	// PolicyHarmony adapts the level with the monitor + controller.
	PolicyHarmony
)

// PolicySpec names a consistency policy for a run.
type PolicySpec struct {
	Kind PolicyKind
	// Tolerance is app_stale_rate for PolicyHarmony.
	Tolerance float64
}

// Name renders the policy the way the paper labels its curves.
func (p PolicySpec) Name() string {
	switch p.Kind {
	case PolicyEventual:
		return "Eventual"
	case policyStrong:
		return "Strong"
	case PolicyHarmony:
		return fmt.Sprintf("Harmony-%d%%", int(p.Tolerance*100+0.5))
	}
	return "unknown"
}

// policy builds the client.ConsistencyPolicy and (for Harmony) the
// controller that must be fed by a monitor.
func (p PolicySpec) policy(n int, w ycsb.Workload, profile simnet.Profile) (client.ConsistencyPolicy, *core.Controller) {
	switch p.Kind {
	case policyStrong:
		return client.Fixed{Read: wire.All}, nil
	case PolicyHarmony:
		ctl := core.NewController(core.ControllerConfig{
			Policy:               core.Policy{Name: p.Name(), ToleratedStaleRate: p.Tolerance},
			N:                    n,
			AvgWriteBytes:        float64(w.ValueBytes),
			BandwidthBytesPerSec: profile.BandwidthBytesPerSec,
		})
		return ctl, ctl
	default:
		return client.Fixed{}, nil
	}
}

// StandardPolicies returns the four curves of Fig. 5/6 for a scenario: the
// two Harmony tolerances plus the two static baselines, in the paper's
// legend order.
func StandardPolicies(sc Scenario) []PolicySpec {
	return []PolicySpec{
		{Kind: PolicyHarmony, Tolerance: sc.HarmonyTolerances[1]},
		{Kind: PolicyHarmony, Tolerance: sc.HarmonyTolerances[0]},
		{Kind: PolicyEventual},
		{Kind: policyStrong},
	}
}

// threadSweep is the client-thread x-axis of Fig. 5 and 6.
var threadSweep = []int{1, 15, 40, 70, 90, 100}
