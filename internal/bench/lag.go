package bench

import (
	"fmt"
	"strings"
	"time"

	"harmony/internal/core"
	"harmony/internal/ycsb"
)

// The lag experiment quantifies re-adaptation speed (a ROADMAP follow-up):
// on the drifting scenario the network decays mid-run from healthy to
// degraded, and a core.LagMeter chained into the controller's decision
// stream records the time from the regime change until the decision level
// settles on its new stable value. That number is what one tunes monitor
// cadence against — a controller that takes ten seconds to notice a
// five-second drift is adapting to history.

// LagResult is one measured re-adaptation lag.
type LagResult struct {
	Scenario  string  `json:"scenario"`
	Policy    string  `json:"policy"`
	Tolerance float64 `json:"tolerance"`
	// RegimeChangeAtMs / RegimeStableByMs anchor the environment's own
	// timeline (virtual ms from load start).
	RegimeChangeAtMs float64 `json:"regime_change_at_ms"`
	RegimeStableByMs float64 `json:"regime_stable_by_ms"`
	// LagMs is the measured time from the regime change to the first
	// decision at the new regime's operating level (the modal level of the
	// trailing decision window — see core.LagMeter); Stable reports
	// whether enough post-change decisions accumulated to judge it.
	LagMs  float64 `json:"lag_ms"`
	Stable bool    `json:"stable"`
	// PreLevel / PostLevel are the stable levels before and after.
	PreLevel  string `json:"pre_level"`
	PostLevel string `json:"post_level"`
	// Decisions is how many controller decisions the run produced.
	Decisions int `json:"decisions"`
}

// Format renders the measurement.
func (r LagResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== re-adaptation lag (%s, %s) ==\n", r.Scenario, r.Policy)
	fmt.Fprintf(&b, "regime change at %.0fms, environment settled by %.0fms\n",
		r.RegimeChangeAtMs, r.RegimeStableByMs)
	if r.Stable {
		fmt.Fprintf(&b, "controller: %s -> %s, new operating level reached %.0fms after the change began\n",
			r.PreLevel, r.PostLevel, r.LagMs)
	} else {
		fmt.Fprintf(&b, "controller: %s -> (not enough post-change decisions to judge)\n", r.PreLevel)
	}
	return b.String()
}

// AdaptationLag runs the given regime-change scenario under Harmony at the
// scenario's tighter tolerance and measures time-from-regime-change-to-
// stable-level. The scenario must declare regimeChangeAt (the drifting
// scenario does).
func AdaptationLag(sc Scenario, opts Options) (LagResult, error) {
	opts = opts.withDefaults()
	if sc.regimeChangeAt <= 0 {
		return LagResult{}, fmt.Errorf("bench: scenario %q has no declared regime change", sc.Name)
	}
	s, c, undo, err := buildSim(opts.Seed, sc, sc.Spec)
	if err != nil {
		return LagResult{}, err
	}
	defer undo()
	// The tolerance sits between the healthy regime's stale-read estimate
	// and the degraded regime's, so the drift demands a level change the
	// meter can time (a tolerance far from both estimates would make the
	// regime change consistency-invisible). It is biased toward the loose
	// preset: on the drifting testbed the healthy estimate hugs the tight
	// preset from above, and a plain midpoint sits inside the healthy
	// noise band.
	tol := 0.4*sc.HarmonyTolerances[0] + 0.6*sc.HarmonyTolerances[1]
	meter := &core.LagMeter{Window: 8}
	decisions := 0
	ctl := core.NewController(core.ControllerConfig{
		Policy:               core.Policy{Name: fmt.Sprintf("Harmony-%d%%", int(tol*100+0.5)), ToleratedStaleRate: tol},
		N:                    sc.Spec.RF,
		AvgWriteBytes:        1024,
		BandwidthBytesPerSec: sc.Spec.Profile.BandwidthBytesPerSec,
		OnDecision: func(d core.Decision) {
			decisions++
			meter.OnDecision(d)
		},
	})
	mon := simMonitor(s, c, core.MonitorConfig{
		Interval: sc.MonitorInterval, ReplicaSetSize: sc.Spec.RF, OnObservation: ctl.Observe,
	})

	wl := ycsb.WorkloadA()
	wl.RecordCount = 20_000
	runner, err := ycsb.NewRunner(ycsb.RunConfig{
		Workload:    wl,
		Threads:     40,
		ShadowEvery: 5,
		Seed:        opts.Seed,
		ArrivalRate: opts.ArrivalRate,
	}, s, c)
	if err != nil {
		return LagResult{}, err
	}
	runner.Load()
	mon.Start()
	runner.Start()

	// Run to the regime change, mark it, then run until well past the
	// environment's own settling point so the controller can stabilize.
	s.RunFor(sc.regimeChangeAt)
	meter.MarkRegimeChange(s.Now())
	preLevel := meter.PreLevel()
	settle := sc.regimeStableBy - sc.regimeChangeAt + 6*time.Second
	s.RunFor(settle)
	runner.Stop()
	mon.Stop()
	runner.Drain()

	lag, stable := meter.Lag()
	res := LagResult{
		Scenario:         sc.Name,
		Policy:           ctl.Policy().Name,
		Tolerance:        tol,
		RegimeChangeAtMs: durMs(sc.regimeChangeAt),
		RegimeStableByMs: durMs(sc.regimeStableBy),
		LagMs:            durMs(lag),
		Stable:           stable,
		PreLevel:         preLevel.String(),
		PostLevel:        meter.StableLevel().String(),
		Decisions:        decisions,
	}
	opts.progress("lag %s: %s -> %s in %.0fms (stable=%v)",
		sc.Name, res.PreLevel, res.PostLevel, res.LagMs, res.Stable)
	return res, nil
}

func durMs(d time.Duration) float64 { return float64(d) / 1e6 }
