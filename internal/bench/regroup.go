package bench

import (
	"fmt"
	"strings"
	"time"

	"harmony/internal/core"
	"harmony/internal/grouping"
	"harmony/internal/ycsb"
)

// The regroup experiment closes the evaluation loop on the grouping
// subsystem: a write-contended hotspot MIGRATES mid-run to a different part
// of the keyspace. Groups pinned at cluster build time misclassify the new
// hot keys — they land in the loose "cold" group, whose measured arrival
// process turns hot-blended, so a static-group controller must either
// escalate the entire cold group (nearly the whole keyspace pays quorum
// reads) or leave the hot data protected only to the loose target. The
// learned regrouper instead watches the samples move, re-clusters, and
// broadcasts a new epoch that re-tightens exactly the migrated hot set,
// keeping cold reads at ONE.

// RegroupSpec parameterizes the migrating-hotspot experiment.
type RegroupSpec struct {
	Scenario Scenario
	// HotKeys is the size of the hot range, initially [0, HotKeys);
	// TotalKeys is the whole keyspace.
	HotKeys   int64
	TotalKeys int64
	// MigrateTo is where the hot range jumps mid-run: [MigrateTo,
	// MigrateTo+HotKeys).
	MigrateTo int64
	// HotThreads / ColdThreads size the two closed-loop client pools.
	HotThreads, ColdThreads int
	// HotReadProportion is the hot pool's read share (its write share is
	// the complement); the hot data is write-contended by design.
	HotReadProportion float64
	// HotTolerance / ColdTolerance are the tight and loose tolerable
	// stale-read rates.
	HotTolerance, ColdTolerance float64
	// RegroupInterval is the learned policy's regroup cadence.
	RegroupInterval time.Duration
	// KeySampleLimit is the per-node sample export size for the learned
	// policy.
	KeySampleLimit int
	// AdaptTime is the virtual time granted after the migration before the
	// post-migration measurement begins (covers sampler decay, reclustering
	// and broadcast for the learned policy — the static policy just waits).
	AdaptTime time.Duration
}

// DefaultRegroupSpec returns the standard configuration.
func DefaultRegroupSpec() RegroupSpec {
	return RegroupSpec{
		Scenario:          Grid5000(),
		HotKeys:           300,
		TotalKeys:         20_000,
		MigrateTo:         10_000,
		HotThreads:        20,
		ColdThreads:       40,
		HotReadProportion: 0.3,
		HotTolerance:      0.05,
		ColdTolerance:     0.25,
		RegroupInterval:   time.Second,
		// Sampler-weighted clustering concentrates the tight category on
		// the heavy head of the zipfian hotspot; a larger per-node sample
		// keeps the hot range's lighter tail visible so it clusters with
		// the head instead of defaulting loose.
		KeySampleLimit: 256,
		AdaptTime:      6 * time.Second,
	}
}

// RegroupGroup is one key group's outcome within one measurement phase.
type RegroupGroup struct {
	Name            string  `json:"name"`
	Tolerance       float64 `json:"tolerance"`
	Reads           uint64  `json:"reads"`
	Writes          uint64  `json:"writes"`
	ShadowSamples   uint64  `json:"shadow_samples"`
	StaleReads      uint64  `json:"stale_reads"`
	StaleFraction   float64 `json:"stale_fraction"`
	WithinTolerance bool    `json:"within_tolerance"`
	FinalLevel      string  `json:"final_level"`
}

// RegroupPhase is one policy's measurement over one phase (before or after
// the hotspot migration).
type RegroupPhase struct {
	ThroughputOps float64        `json:"throughput_ops"`
	Operations    int64          `json:"operations"`
	Errors        int64          `json:"errors"`
	ReadP99Ms     float64        `json:"read_p99_ms"`
	Groups        []RegroupGroup `json:"groups"`
}

// RegroupRun is one policy's full trajectory through the experiment.
type RegroupRun struct {
	Policy string       `json:"policy"`
	Phase1 RegroupPhase `json:"phase1_before_migration"`
	Phase2 RegroupPhase `json:"phase2_after_migration"`
	// Epochs is how many learned epochs were applied over the whole run
	// (zero for the static policy).
	Epochs uint64 `json:"epochs"`
	// RegroupLagMs is the time from the hotspot migration to the epoch
	// that re-tightened the new hot keys (learned policy only).
	RegroupLagMs float64 `json:"regroup_lag_ms"`
	// HotProtectedTo is the tolerance actually guarding the CURRENT hot
	// keys in phase 2: the learned policy re-tightens them to the hot
	// target, while pinned groups leave them on the loose one — the
	// misclassification made visible.
	HotProtectedTo float64 `json:"hot_protected_to"`
}

// RegroupResult compares learned regrouping against static groups on
// identical migrating-hotspot load.
type RegroupResult struct {
	Scenario  string     `json:"scenario"`
	HotKeys   int64      `json:"hot_keys"`
	TotalKeys int64      `json:"total_keys"`
	MigrateTo int64      `json:"migrate_to"`
	Ops       int64      `json:"ops"`
	Learned   RegroupRun `json:"learned"`
	Static    RegroupRun `json:"static"`
	// ThroughputGainPhase2 is Learned/Static - 1 after the migration — the
	// payoff of closing the Categorizer→GroupFn loop.
	ThroughputGainPhase2 float64 `json:"throughput_gain_phase2"`
}

// Format renders the comparison.
func (r RegroupResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== regroup (%s, hotspot %d keys migrating 0->%d in a %d keyspace, %d ops/phase) ==\n",
		r.Scenario, r.HotKeys, r.MigrateTo, r.TotalKeys, r.Ops)
	phase := func(name string, p RegroupPhase) {
		fmt.Fprintf(&b, "  %-16s tput=%8.0f ops/s readP99=%6.2fms errors=%d\n",
			name, p.ThroughputOps, p.ReadP99Ms, p.Errors)
		for _, g := range p.Groups {
			status := "within"
			if !g.WithinTolerance {
				status = "EXCEEDED"
			}
			fmt.Fprintf(&b, "    %-5s level=%-6s stale=%d/%d (%.3f vs tol %.2f, %s) reads=%d writes=%d\n",
				g.Name, g.FinalLevel, g.StaleReads, g.ShadowSamples,
				g.StaleFraction, g.Tolerance, status, g.Reads, g.Writes)
		}
	}
	for _, run := range []RegroupRun{r.Learned, r.Static} {
		fmt.Fprintf(&b, "%s (epochs=%d", run.Policy, run.Epochs)
		if run.RegroupLagMs > 0 {
			fmt.Fprintf(&b, ", regroup lag %.0fms", run.RegroupLagMs)
		}
		fmt.Fprintf(&b, "; hot data protected to %.2f after migration)\n", run.HotProtectedTo)
		phase("before", run.Phase1)
		phase("after", run.Phase2)
	}
	fmt.Fprintf(&b, "post-migration throughput gain learned vs static: %+.0f%%\n", r.ThroughputGainPhase2*100)
	return b.String()
}

// Regroup measures the experiment for both policies and compares them.
func Regroup(spec RegroupSpec, opts Options) (RegroupResult, error) {
	opts = opts.withDefaults()
	if spec.HotKeys <= 0 || spec.TotalKeys <= spec.HotKeys {
		return RegroupResult{}, fmt.Errorf("bench: regroup needs 0 < HotKeys < TotalKeys, got %d/%d", spec.HotKeys, spec.TotalKeys)
	}
	if spec.MigrateTo <= spec.HotKeys || spec.MigrateTo+spec.HotKeys > spec.TotalKeys {
		return RegroupResult{}, fmt.Errorf("bench: MigrateTo %d must move the hot range into fresh keyspace", spec.MigrateTo)
	}
	res := RegroupResult{
		Scenario:  spec.Scenario.Name,
		HotKeys:   spec.HotKeys,
		TotalKeys: spec.TotalKeys,
		MigrateTo: spec.MigrateTo,
		Ops:       opts.OpsPerPoint,
	}
	learned, err := runRegroup(spec, opts, true)
	if err != nil {
		return RegroupResult{}, fmt.Errorf("bench: regroup learned: %w", err)
	}
	static, err := runRegroup(spec, opts, false)
	if err != nil {
		return RegroupResult{}, fmt.Errorf("bench: regroup static: %w", err)
	}
	res.Learned, res.Static = learned, static
	if static.Phase2.ThroughputOps > 0 {
		res.ThroughputGainPhase2 = learned.Phase2.ThroughputOps/static.Phase2.ThroughputOps - 1
	}
	opts.progress("regroup %s: post-migration learned %.0f ops/s vs static %.0f ops/s (%+.0f%%)",
		spec.Scenario.Name, learned.Phase2.ThroughputOps, static.Phase2.ThroughputOps,
		res.ThroughputGainPhase2*100)
	return res, nil
}

// runRegroup measures one policy through both phases.
func runRegroup(spec RegroupSpec, opts Options, learned bool) (RegroupRun, error) {
	cspec := spec.Scenario.Spec
	cspec.Groups = 2
	tols := []float64{spec.HotTolerance, spec.ColdTolerance}

	var initial *grouping.Assignment
	if learned {
		// The learned policy starts from the uniform epoch-0 assignment:
		// every key in the loose group until the first recluster.
		var err error
		if initial, err = grouping.Uniform(tols, 1); err != nil {
			return RegroupRun{}, err
		}
		cspec.GroupFn = initial.GroupOf
		cspec.KeySampleLimit = spec.KeySampleLimit
		// Longer sampler memory keeps low-weight tail keys' features from
		// jittering between reclusterings (at a small cost in how fast a
		// migrated-away hotspot fades from the sample).
		cspec.KeyStatsDecay = 0.8
	} else {
		// The static policy pins the groups to the initial hot range at
		// build time — the PR 2 configuration the hotspot will outrun.
		cspec.GroupFn = hotColdGroupFn(spec.HotKeys)
	}
	s, c, undo, err := buildSim(opts.Seed, spec.Scenario, cspec)
	if err != nil {
		return RegroupRun{}, err
	}
	defer undo()

	ctl := core.NewController(core.ControllerConfig{
		Policy: core.Policy{
			Name: fmt.Sprintf("regroup-%d%%", int(spec.HotTolerance*100+0.5)),
			// The global stream protects the most sensitive data.
			ToleratedStaleRate: spec.HotTolerance,
		},
		N:                    cspec.RF,
		BandwidthBytesPerSec: cspec.Profile.BandwidthBytesPerSec,
		Groups:               2,
		GroupFn:              cspec.GroupFn,
		GroupTolerances:      tols,
	})

	// The learned policy's regrouper: fed from the monitor's stats tap,
	// watching for the epoch that reclassifies the migrated hot keys.
	var rg *grouping.Regrouper
	var migratedAt time.Time
	regroupLag := time.Duration(0)
	if learned {
		probes := make([][]byte, 8)
		for i := range probes {
			probes[i] = ycsb.Key(spec.MigrateTo + int64(i))
		}
		rg, err = grouping.New(grouping.Config{
			Self:         "harmony-monitor",
			Nodes:        c.NodeIDs(),
			K:            2,
			MinTolerance: spec.HotTolerance,
			MaxTolerance: spec.ColdTolerance,
			Interval:     spec.RegroupInterval,
			Seed:         opts.Seed,
			Controller:   ctl,
			Initial:      initial,
			OnRegroup: func(a *grouping.Assignment) {
				if migratedAt.IsZero() || regroupLag != 0 {
					return
				}
				tight := 0
				for _, p := range probes {
					if a.GroupOf(p) == 0 {
						tight++
					}
				}
				if tight > len(probes)/2 {
					regroupLag = s.Now().Sub(migratedAt)
				}
			},
		}, s, c.Bus)
		if err != nil {
			return RegroupRun{}, err
		}
	}
	monCfg := core.MonitorConfig{
		Interval:       spec.Scenario.MonitorInterval,
		ReplicaSetSize: cspec.RF,
		OnObservation:  ctl.Observe,
	}
	if rg != nil {
		monCfg.OnNodeStats = rg.IngestStats
	}
	mon := simMonitor(s, c, monCfg)

	hotWl := ycsb.Workload{
		Name:             "regroup-hot",
		ReadProportion:   spec.HotReadProportion,
		UpdateProportion: 1 - spec.HotReadProportion,
		RecordCount:      spec.HotKeys, ValueBytes: 1024,
		RequestDistribution: ycsb.DistZipfian,
	}
	coldWl := ycsb.Workload{
		Name: "regroup-cold", ReadProportion: 0.95, UpdateProportion: 0.05,
		RecordCount: spec.TotalKeys, ValueBytes: 1024,
		RequestDistribution: ycsb.DistUniform,
	}
	newRunner := func(wl ycsb.Workload, threads int, prefix string, seedOff int64) (*ycsb.Runner, error) {
		return ycsb.NewRunner(ycsb.RunConfig{
			Workload:     wl,
			Threads:      threads,
			ShadowEvery:  4,
			Seed:         opts.Seed + seedOff,
			ClientPrefix: prefix,
			Policy:       ctl,
		}, s, c)
	}
	hotR, err := newRunner(hotWl, spec.HotThreads, "hot", 101)
	if err != nil {
		return RegroupRun{}, err
	}
	coldR, err := newRunner(coldWl, spec.ColdThreads, "cold", 202)
	if err != nil {
		return RegroupRun{}, err
	}
	coldR.Load() // spans the whole keyspace, hot ranges included

	mon.Start()
	if rg != nil {
		rg.Start()
	}
	hotR.Start()
	coldR.Start()

	measure := func() (RegroupPhase, error) {
		hotR.ResetMeasurement()
		coldR.ResetMeasurement()
		for hotR.Completed()+coldR.Completed() < opts.OpsPerPoint {
			if !s.Step() {
				return RegroupPhase{}, fmt.Errorf("simulation went idle with %d/%d measured ops",
					hotR.Completed()+coldR.Completed(), opts.OpsPerPoint)
			}
		}
		hotRep, coldRep := hotR.Report(), coldR.Report()
		phase := RegroupPhase{
			ThroughputOps: hotRep.ThroughputOps + coldRep.ThroughputOps,
			Operations:    hotRep.Operations + coldRep.Operations,
			Errors:        hotRep.Errors + coldRep.Errors,
		}
		p99 := hotRep.ReadLatency.P99()
		if cp := coldRep.ReadLatency.P99(); cp > p99 {
			p99 = cp
		}
		phase.ReadP99Ms = float64(p99) / 1e6
		names := []string{"tight", "loose"}
		for g, gs := range hotRep.Groups {
			if g >= len(names) {
				break
			}
			rg := RegroupGroup{
				Name:          names[g],
				Tolerance:     tols[g],
				Reads:         gs.Reads,
				Writes:        gs.Writes,
				ShadowSamples: gs.ShadowSamples,
				StaleReads:    gs.StaleReads,
				StaleFraction: gs.StaleFraction(),
				FinalLevel:    ctl.GroupLast(g).Level.String(),
			}
			rg.WithinTolerance = rg.StaleFraction <= rg.Tolerance
			phase.Groups = append(phase.Groups, rg)
		}
		return phase, nil
	}

	// Warm-up: enough monitor rounds for steady state, and for the learned
	// policy at least two regroup cycles so epoch 1 is installed.
	warmup := 8 * spec.Scenario.MonitorInterval
	if learned && warmup < 3*spec.RegroupInterval {
		warmup = 3 * spec.RegroupInterval
	}
	if warmup < 2*time.Second {
		warmup = 2 * time.Second
	}
	s.RunFor(warmup)
	run := RegroupRun{Policy: "static"}
	if learned {
		run.Policy = "learned"
	}
	if run.Phase1, err = measure(); err != nil {
		return RegroupRun{}, err
	}

	// The hotspot migrates; the environment gets AdaptTime to re-adapt
	// before the after-picture is taken.
	migratedAt = s.Now()
	hotR.SetKeyOffset(spec.MigrateTo)
	s.RunFor(spec.AdaptTime)
	if run.Phase2, err = measure(); err != nil {
		return RegroupRun{}, err
	}

	hotR.Stop()
	coldR.Stop()
	if rg != nil {
		rg.Stop()
	}
	mon.Stop()
	hotR.Drain()
	coldR.Drain()

	run.HotProtectedTo = spec.ColdTolerance // pinned groups: hot data on the loose target
	if learned {
		run.Epochs = rg.Epochs()
		run.RegroupLagMs = durMs(regroupLag)
		if g := rg.Current().GroupOf(ycsb.Key(spec.MigrateTo)); g == 0 {
			run.HotProtectedTo = spec.HotTolerance
		}
	}
	return run, nil
}
