package bench

import (
	"fmt"
	"strings"
	"time"

	"harmony/internal/core"
	"harmony/internal/obs"
	"harmony/internal/wire"
	"harmony/internal/ycsb"
)

// The hotcold experiment demonstrates the payoff of per-key-group
// adaptation (§VII's consistency categories made concrete): the keyspace
// splits into a small hot range hammered by zipfian 50/50 traffic and a
// large cold range served read-mostly with uniform key choice. A global
// Harmony controller must satisfy the hot data's tight staleness target on
// every read — including the overwhelmingly safe cold ones. The per-group
// multi-model controller gives each group its own measured λr/λw and its
// own tolerance, so cold reads stay at ONE while hot reads tighten, buying
// throughput without spending staleness where it matters.
//
// The session arm takes the menu one tier further: the hot group is flagged
// session-scoped (its clients need read-your-writes and monotonic reads, not
// a cluster-wide staleness bound), so the controller serves it at SESSION —
// token-checked reads that block for a single replica in the common case —
// instead of climbing to quorum. Clients run through client.Session, and the
// run reports both the session contract (regressions must be zero) and the
// escalation counters showing what the tokens cost.

// HotColdSpec parameterizes the hot/cold experiment.
type HotColdSpec struct {
	Scenario Scenario
	// HotKeys is the size of the hot key range [0, HotKeys); TotalKeys is
	// the whole keyspace (the cold range is [HotKeys, TotalKeys)).
	HotKeys   int64
	TotalKeys int64
	// ArrivalRate, when positive, drives both client pools open loop,
	// splitting the aggregate Poisson rate between them in proportion to
	// their thread counts.
	ArrivalRate float64
}

// DefaultHotColdSpec returns the standard configuration: 500 hot keys
// inside a 20k keyspace on the Grid'5000 profile, with a 5% hot target and
// a 60% cold target.
func DefaultHotColdSpec() HotColdSpec {
	return HotColdSpec{
		Scenario:  Grid5000(),
		HotKeys:   500,
		TotalKeys: 20_000,
	}
}

// The hotcold experiment's fixed load and targets. hotColdHotThreads /
// hotColdColdThreads size the two closed-loop client pools.
// hotColdHotTolerance is the hot group's (tight) tolerable stale-read rate;
// the global baseline controller runs at this same tolerance, since a
// single-knob deployment must protect its most sensitive data.
// hotColdColdTolerance is the cold group's loose target.
const (
	hotColdHotThreads    = 20
	hotColdColdThreads   = 40
	hotColdHotTolerance  = 0.05
	hotColdColdTolerance = 0.60
)

// HotColdGroup is one key group's outcome in a hotcold run.
type HotColdGroup struct {
	Name            string  `json:"name"`
	Tolerance       float64 `json:"tolerance"`
	Reads           uint64  `json:"reads"`
	Writes          uint64  `json:"writes"`
	ShadowSamples   uint64  `json:"shadow_samples"`
	StaleReads      uint64  `json:"stale_reads"`
	StaleFraction   float64 `json:"stale_fraction"`
	WithinTolerance bool    `json:"within_tolerance"`
	// FinalLevel is the consistency level the controller held for this
	// group when measurement ended.
	FinalLevel string `json:"final_level"`
	// SessionServed marks a group the session arm serves at SESSION: its
	// requirement is the session contract (zero regressions), so
	// WithinTolerance reports that contract; StaleFraction still reports the
	// cross-session staleness for comparison against the other arms.
	SessionServed bool `json:"session_served,omitempty"`
}

// HotColdRun is one policy's measurement.
type HotColdRun struct {
	Policy        string         `json:"policy"`
	ThroughputOps float64        `json:"throughput_ops"`
	Operations    int64          `json:"operations"`
	Errors        int64          `json:"errors"`
	ReadP99Ms     float64        `json:"read_p99_ms"`
	Groups        []HotColdGroup `json:"groups"`
	// Session-arm telemetry (zero in the other arms): reads coordinated at
	// SESSION, the session contract violations the clients counted, and the
	// coordinator-side escalations token checks caused.
	SessionReads       uint64 `json:"session_reads,omitempty"`
	SessionRegressions uint64 `json:"session_regressions"`
	SessionUpgrades    uint64 `json:"session_upgrades,omitempty"`
}

// HotColdResult compares per-group adaptation against the global
// controller on identical load.
type HotColdResult struct {
	Scenario  string     `json:"scenario"`
	HotKeys   int64      `json:"hot_keys"`
	TotalKeys int64      `json:"total_keys"`
	Ops       int64      `json:"ops"`
	PerGroup  HotColdRun `json:"per_group"`
	Global    HotColdRun `json:"global"`
	// Session is the session-mode arm: the hot group flagged session-scoped
	// and served at SESSION through client.Session.
	Session        HotColdRun `json:"session"`
	ThroughputGain float64    `json:"throughput_gain"` // PerGroup/Global - 1
	SessionGain    float64    `json:"session_gain"`    // Session/Global - 1
}

// Format renders the comparison.
func (r HotColdResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== hotcold (%s, %d hot / %d total keys, %d ops) ==\n",
		r.Scenario, r.HotKeys, r.TotalKeys, r.Ops)
	formatHotColdRuns(&b, r.PerGroup, r.Session, r.Global)
	fmt.Fprintf(&b, "throughput gain per-group vs global: %+.0f%%\n", r.ThroughputGain*100)
	fmt.Fprintf(&b, "throughput gain session   vs global: %+.0f%%\n", r.SessionGain*100)
	return b.String()
}

// formatHotColdRuns renders each run's totals and its group rows.
func formatHotColdRuns(b *strings.Builder, runs ...HotColdRun) {
	for _, run := range runs {
		fmt.Fprintf(b, "%-10s tput=%8.0f ops/s readP99=%6.2fms errors=%d\n",
			run.Policy, run.ThroughputOps, run.ReadP99Ms, run.Errors)
		for _, g := range run.Groups {
			status := "within"
			if !g.WithinTolerance {
				status = "EXCEEDED"
			}
			fmt.Fprintf(b, "  %-5s level=%-7s stale=%d/%d (%.3f vs tol %.2f, %s) reads=%d writes=%d\n",
				g.Name, g.FinalLevel, g.StaleReads, g.ShadowSamples,
				g.StaleFraction, g.Tolerance, status, g.Reads, g.Writes)
		}
		if run.SessionReads > 0 || run.SessionRegressions > 0 {
			fmt.Fprintf(b, "  session reads=%d regressions=%d upgrades=%d\n",
				run.SessionReads, run.SessionRegressions, run.SessionUpgrades)
		}
	}
}

// hotColdGroupFn tags keys below the hot threshold as group 0.
func hotColdGroupFn(hotKeys int64) func([]byte) int {
	return func(key []byte) int {
		if idx, ok := ycsb.KeyIndex(key); ok && idx < hotKeys {
			return 0
		}
		return 1
	}
}

// HotCold measures the hotcold experiment for both controllers and
// compares them. opts.OpsPerPoint is the measured operation budget per
// policy; opts.Seed drives all randomness.
func HotCold(spec HotColdSpec, opts Options) (HotColdResult, error) {
	opts = opts.withDefaults()
	if spec.HotKeys <= 0 || spec.TotalKeys <= spec.HotKeys {
		return HotColdResult{}, fmt.Errorf("bench: hotcold needs 0 < HotKeys < TotalKeys, got %d/%d", spec.HotKeys, spec.TotalKeys)
	}
	res := HotColdResult{
		Scenario:  spec.Scenario.Name,
		HotKeys:   spec.HotKeys,
		TotalKeys: spec.TotalKeys,
		Ops:       opts.OpsPerPoint,
	}
	perGroup, err := runHotCold(spec, opts, hotColdPerGroup)
	if err != nil {
		return HotColdResult{}, fmt.Errorf("bench: hotcold per-group: %w", err)
	}
	session, err := runHotCold(spec, opts, hotColdSession)
	if err != nil {
		return HotColdResult{}, fmt.Errorf("bench: hotcold session: %w", err)
	}
	global, err := runHotCold(spec, opts, hotColdGlobal)
	if err != nil {
		return HotColdResult{}, fmt.Errorf("bench: hotcold global: %w", err)
	}
	res.PerGroup, res.Session, res.Global = perGroup, session, global
	if global.ThroughputOps > 0 {
		res.ThroughputGain = perGroup.ThroughputOps/global.ThroughputOps - 1
		res.SessionGain = session.ThroughputOps/global.ThroughputOps - 1
	}
	opts.progress("hotcold %s: per-group %.0f, session %.0f vs global %.0f ops/s (%+.0f%% / %+.0f%%)",
		spec.Scenario.Name, perGroup.ThroughputOps, session.ThroughputOps, global.ThroughputOps,
		res.ThroughputGain*100, res.SessionGain*100)
	return res, nil
}

// hotColdMode selects the controller arrangement of one hotcold arm.
type hotColdMode int

const (
	// hotColdGlobal: one global controller at the hot tolerance (a
	// single-knob deployment protecting its most sensitive data everywhere).
	hotColdGlobal hotColdMode = iota
	// hotColdPerGroup: the multi-model controller, one tolerance per group.
	hotColdPerGroup
	// hotColdSession: per-group controller with the hot group flagged
	// session-scoped, clients running through client.Session.
	hotColdSession
)

// runHotCold measures one arm of the experiment: warm up, then run until
// the pools complete the op budget.
func runHotCold(spec HotColdSpec, opts Options, mode hotColdMode) (HotColdRun, error) {
	cspec := hotColdClusterSpec(spec.Scenario, spec.HotKeys)
	s, c, undo, err := buildSim(opts.Seed, spec.Scenario, cspec)
	if err != nil {
		return HotColdRun{}, err
	}
	defer undo()

	// A single-knob deployment must protect its most sensitive (hot) data
	// on every read, so the global arm runs one model at the hot tolerance.
	tols := []float64{hotColdHotTolerance, hotColdColdTolerance}
	models := tols
	if mode == hotColdGlobal {
		models = tols[:1]
	}
	ccfg := hotColdController(fmt.Sprintf("hotcold-%d%%", int(tols[0]*100+0.5)),
		cspec.RF, cspec.Profile.BandwidthBytesPerSec, spec.HotKeys, models, nil)
	ccfg.AvgWriteBytes = 1024
	if mode == hotColdSession {
		// The hot group's clients only need session guarantees, so any
		// tighter-than-ONE demand on it is served by the SESSION tier.
		ccfg.SessionGroups = []bool{true, false}
	}
	ctl := core.NewController(ccfg)
	pools := loadPools{
		hotKeys: spec.HotKeys, totalKeys: spec.TotalKeys,
		hot: hotColdHotThreads, cold: hotColdColdThreads,
		valueBytes: 1024, verifyEvery: 4,
		sessions: mode == hotColdSession, seed: opts.Seed,
	}
	// An aggregate arrival rate splits between the pools in proportion to
	// their thread counts.
	if spec.ArrivalRate > 0 {
		const total = hotColdHotThreads + hotColdColdThreads
		pools.hotArrival = spec.ArrivalRate * hotColdHotThreads / total
		pools.coldArrival = spec.ArrivalRate * hotColdColdThreads / total
	}
	// The controller is the policy in every arm: with one group its
	// per-group stream coincides with the global one.
	b, err := newSimBackend(s, c, ctl, spec.Scenario.MonitorInterval, cspec.RF, pools)
	if err != nil {
		return HotColdRun{}, err
	}
	b.start()
	// Warm up long enough for several monitor rounds so the controller
	// reaches steady state before measurement.
	b.wait(max(8*spec.Scenario.MonitorInterval, 2*time.Second))
	b.resetLoad()
	for b.hot.Completed()+b.cold.Completed() < opts.OpsPerPoint {
		if !s.Step() {
			return HotColdRun{}, fmt.Errorf("simulation went idle with %d/%d measured ops",
				b.hot.Completed()+b.cold.Completed(), opts.OpsPerPoint)
		}
	}
	load := b.stop()

	hotRep, coldRep := b.hot.Report(), b.cold.Report()
	run := HotColdRun{
		Policy:        "global",
		ThroughputOps: load.tput,
		Operations:    load.ops,
		Errors:        load.errs,
	}
	switch mode {
	case hotColdPerGroup:
		run.Policy = "per-group"
	case hotColdSession:
		run.Policy = "session"
		// LevelUse and the upgrade counter are cluster-wide deltas over the
		// shared measurement window; the regressions are per-runner sums.
		run.SessionReads = hotRep.LevelUse[wire.Session]
		run.SessionUpgrades = hotRep.SessionUpgrades
		run.SessionRegressions = hotRep.SessionRegressions + coldRep.SessionRegressions
	}
	// Read p99 over both pools: the slower pool's p99 (the SLO view: every
	// user population must meet its target).
	run.ReadP99Ms = float64(max(hotRep.ReadLatency.P99(), coldRep.ReadLatency.P99())) / 1e6

	// Per-group staleness over the shared measurement window: both
	// runners re-baselined at the same instant, so either report carries
	// the cluster-wide group deltas; use the hot runner's.
	var counts opCounts
	for g, gs := range hotRep.Groups[:min(len(hotRep.Groups), 2)] {
		counts.reads[g], counts.writes[g] = gs.Reads, gs.Writes
		counts.samples[g], counts.stale[g] = gs.ShadowSamples, gs.StaleReads
	}
	run.Groups = hotColdGroups(tols, counts, groupLevels(ctl))
	for g := range run.Groups {
		if mode == hotColdSession && ctl.GroupLast(g).Level == wire.Session {
			// A session-scoped group's requirement is the session contract:
			// every session reads its own writes and never regresses.
			run.Groups[g].SessionServed = true
			run.Groups[g].WithinTolerance = run.SessionRegressions == 0
		}
	}
	return run, nil
}

// hotColdController configures the controller of a hot/cold experiment:
// one model per tolerance, the first (hot) one doubling as the global
// policy. One tolerance makes a single global model.
func hotColdController(name string, n int, bandwidth float64, hotKeys int64, tols []float64, trace *obs.Trace) core.ControllerConfig {
	cfg := core.ControllerConfig{
		Policy:               core.Policy{Name: name, ToleratedStaleRate: tols[0]},
		N:                    n,
		BandwidthBytesPerSec: bandwidth,
		Trace:                trace,
	}
	if len(tols) > 1 {
		cfg.Groups = len(tols)
		cfg.GroupFn = hotColdGroupFn(hotKeys)
		cfg.GroupTolerances = tols
	}
	return cfg
}

// groupLevels returns the level each group was last commanded at: its own
// model's, or the single global model's for both.
func groupLevels(ctl *core.Controller) [2]string {
	if ctl.Groups() < 2 {
		l := ctl.Last().Level.String()
		return [2]string{l, l}
	}
	return [2]string{ctl.GroupLast(0).Level.String(), ctl.GroupLast(1).Level.String()}
}

// hotColdGroups assembles an arm's per-group rows from each group's
// operation counts over the measured interval.
func hotColdGroups(tols []float64, c opCounts, levels [2]string) []HotColdGroup {
	names := []string{"hot", "cold"}
	out := make([]HotColdGroup, 2)
	for g := range out {
		hg := HotColdGroup{
			Name:          names[g],
			Tolerance:     tols[g],
			Reads:         c.reads[g],
			Writes:        c.writes[g],
			ShadowSamples: c.samples[g],
			StaleReads:    c.stale[g],
			FinalLevel:    levels[g],
		}
		if hg.ShadowSamples > 0 {
			hg.StaleFraction = float64(hg.StaleReads) / float64(hg.ShadowSamples)
		}
		hg.WithinTolerance = hg.StaleFraction <= hg.Tolerance
		out[g] = hg
	}
	return out
}
