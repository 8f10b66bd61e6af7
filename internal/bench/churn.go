package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"harmony/internal/core"
	"harmony/internal/repair"
	"harmony/internal/ring"
	"harmony/internal/sim"
)

// The churn experiment exercises the failure regime the anti-entropy
// subsystem exists for: a node goes down mid-run, misses every write of the
// outage (hinted handoff is capped and the surviving hints are lost at
// recovery, modeling coordinator crashes), then comes back serving
// arbitrarily stale data. With hints alone, reads at CL=ONE keep hitting the
// stale replica until sampled read repair happens to touch each divergent
// key — unbounded convergence that silently violates tight staleness
// tolerances. With repair enabled, the recovery trigger runs Merkle sessions
// that stream exactly the divergent rows, the divergence gauge makes the
// controller hold affected groups at quorum while convergence is in flight,
// and every group returns within its tolerance in bounded time.

// ChurnSpec parameterizes the failure/churn experiment.
type ChurnSpec struct {
	Scenario Scenario
	// HotKeys / TotalKeys split the keyspace as in the hotcold experiment.
	HotKeys   int64
	TotalKeys int64
	// HotThreads / ColdThreads size the two client driver pools.
	HotThreads, ColdThreads int
	// HotArrival / ColdArrival drive the pools open loop (Poisson, ops/s):
	// offered load does not pause for the outage, so writes keep arriving —
	// and keep being hinted, dropped, and diverging — while the victim is
	// down, exactly like production traffic.
	HotArrival, ColdArrival float64
	// HotTolerance / ColdTolerance are the per-group stale-read targets.
	HotTolerance, ColdTolerance float64
	// Baseline is how long staleness windows are observed before the
	// outage; Outage how long the victim stays down; PostWatch how long
	// recovery is observed.
	Baseline, Outage, PostWatch time.Duration
	// WindowLen is the staleness measurement window.
	WindowLen time.Duration
	// RecoverWindows is how many consecutive within-tolerance windows
	// declare a group recovered.
	RecoverWindows int
	// HintQueueLimit caps each coordinator's hint queue (overflow drops
	// mutations); DropHintsAtRecovery discards the survivors just before
	// the victim returns (the coordinator-crash injection).
	HintQueueLimit      int
	DropHintsAtRecovery bool
	// RepairInterval / RepairConcurrency / RepairLeaves tune the repair
	// subsystem for the repair-enabled run.
	RepairInterval    time.Duration
	RepairConcurrency int
	RepairLeaves      int
}

// DefaultChurnSpec returns the standard configuration: a 6-node RF=5
// cluster (every node replicates most keys, so a stale replica is visible
// to ~1/5 of CL=ONE reads), a 5s outage, capped-and-dropped hints.
func DefaultChurnSpec() ChurnSpec {
	sc := Grid5000()
	// Small cluster, near-total replication: the regime where one recovered
	// replica's divergence is actually exposed to reads.
	sc.Name = "churn-grid5000"
	sc.Spec.RacksPerDC = 2
	sc.Spec.NodesPerRack = 3
	sc.Spec.HintedHandoff = true
	return ChurnSpec{
		Scenario:   sc,
		HotKeys:    400,
		TotalKeys:  8_000,
		HotThreads: 10,
		// The cold pool carries enough write traffic that an outage dirties
		// a substantial fraction of the cold keyspace, while its loose
		// tolerance keeps the estimator at CL=ONE in steady state — the
		// combination that exposes post-recovery divergence to reads.
		ColdThreads:         25,
		HotArrival:          1200,
		ColdArrival:         4000,
		HotTolerance:        0.05,
		ColdTolerance:       0.30,
		Baseline:            1500 * time.Millisecond,
		Outage:              5 * time.Second,
		PostWatch:           10 * time.Second,
		WindowLen:           250 * time.Millisecond,
		RecoverWindows:      4,
		HintQueueLimit:      300,
		DropHintsAtRecovery: true,
		RepairInterval:      300 * time.Millisecond,
		RepairConcurrency:   3,
		RepairLeaves:        64,
	}
}

// ChurnWindow is one staleness measurement window.
type ChurnWindow struct {
	// OffsetMs is the window start relative to the victim's recovery
	// (negative windows precede it; the outage windows are included).
	OffsetMs float64   `json:"offset_ms"`
	Samples  []uint64  `json:"samples"` // shadow probes per group
	Stale    []uint64  `json:"stale"`   // stale probes per group
	Fraction []float64 `json:"fraction"`
}

// ChurnGroup is one key group's outcome.
type ChurnGroup struct {
	Name      string  `json:"name"`
	Tolerance float64 `json:"tolerance"`
	// RecoveredWithinMs is the time from the victim's return until the
	// group began RecoverWindows consecutive within-tolerance windows; -1
	// when the group never restabilized inside the watched horizon.
	RecoveredWithinMs float64 `json:"recovered_within_ms"`
	// PostStale / PostSamples accumulate over the post-recovery horizon;
	// WorstWindow is the worst windowed stale fraction in it.
	PostStale    uint64  `json:"post_stale"`
	PostSamples  uint64  `json:"post_samples"`
	PostFraction float64 `json:"post_fraction"`
	WorstWindow  float64 `json:"worst_window"`
	// TailFraction is the stale fraction over the LAST quarter of the
	// post-recovery horizon: near zero once convergence completed, still
	// elevated when divergence is only draining through sampled read
	// repair — the "bounded versus unbounded" contrast in one number.
	TailFraction float64 `json:"tail_fraction"`
	// FinalLevel is the group's consistency level when the run ended.
	FinalLevel string `json:"final_level"`
}

// ChurnRun is one policy's trajectory through the failure schedule.
type ChurnRun struct {
	Policy        string        `json:"policy"`
	Groups        []ChurnGroup  `json:"groups"`
	Windows       []ChurnWindow `json:"windows"`
	Operations    int64         `json:"operations"`
	Errors        int64         `json:"errors"`
	ThroughputOps float64       `json:"throughput_ops"`
	HintsQueued   uint64        `json:"hints_queued"`
	HintsDropped  uint64        `json:"hints_dropped"`
	// RowsHealed / RepairBytes summarize the anti-entropy work (zero for
	// hints-only).
	RowsHealed  uint64 `json:"rows_healed"`
	RepairBytes uint64 `json:"repair_bytes"`
	// RowsRecovered counts rows rebuilt from disk at startup — nonzero only
	// in the live persistent-restart arm, where the victim reopens its data
	// dir instead of returning empty.
	RowsRecovered uint64 `json:"rows_recovered,omitempty"`
}

// ChurnResult compares repair-enabled recovery against hints-only on an
// identical failure schedule.
type ChurnResult struct {
	Scenario  string   `json:"scenario"`
	Victim    string   `json:"victim"`
	HotKeys   int64    `json:"hot_keys"`
	TotalKeys int64    `json:"total_keys"`
	OutageMs  float64  `json:"outage_ms"`
	Repair    ChurnRun `json:"repair"`
	HintsOnly ChurnRun `json:"hints_only"`
}

// Format renders the comparison.
func (r ChurnResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== churn (%s, victim %s down %.0fms, %d hot / %d total keys) ==\n",
		r.Scenario, r.Victim, r.OutageMs, r.HotKeys, r.TotalKeys)
	formatChurnRuns(&b, r.Repair, r.HintsOnly)
	return b.String()
}

// formatChurnRuns renders each run's totals and its group rows.
func formatChurnRuns(b *strings.Builder, runs ...ChurnRun) {
	for _, run := range runs {
		fmt.Fprintf(b, "%-10s tput=%8.0f ops/s errors=%d hints=%d dropped=%d healed=%d (%d KiB streamed) recovered=%d\n",
			run.Policy, run.ThroughputOps, run.Errors, run.HintsQueued, run.HintsDropped,
			run.RowsHealed, run.RepairBytes/1024, run.RowsRecovered)
		formatChurnGroups(b, run.Groups)
	}
}

// formatChurnGroups renders one row per group's recovery outcome.
func formatChurnGroups(b *strings.Builder, groups []ChurnGroup) {
	for _, g := range groups {
		rec := "NEVER"
		if g.RecoveredWithinMs >= 0 {
			rec = fmt.Sprintf("%.0fms", g.RecoveredWithinMs)
		}
		fmt.Fprintf(b, "  %-5s tol=%.2f level=%-6s recovered=%-8s post-stale=%d/%d (%.3f) worst-window=%.3f tail=%.3f\n",
			g.Name, g.Tolerance, g.FinalLevel, rec, g.PostStale, g.PostSamples, g.PostFraction, g.WorstWindow, g.TailFraction)
	}
}

// Churn runs the failure schedule for both policies and compares them.
func Churn(spec ChurnSpec, opts Options) (ChurnResult, error) {
	opts = opts.withDefaults()
	if spec.HotKeys <= 0 || spec.TotalKeys <= spec.HotKeys {
		return ChurnResult{}, fmt.Errorf("bench: churn needs 0 < HotKeys < TotalKeys, got %d/%d", spec.HotKeys, spec.TotalKeys)
	}
	if spec.WindowLen <= 0 || spec.Outage <= 0 || spec.PostWatch < spec.WindowLen {
		return ChurnResult{}, fmt.Errorf("bench: churn needs positive WindowLen/Outage and PostWatch >= WindowLen")
	}
	withRepair, _, err := runSimChurn(spec, opts, "repair")
	if err != nil {
		return ChurnResult{}, fmt.Errorf("bench: churn repair: %w", err)
	}
	hintsOnly, victim, err := runSimChurn(spec, opts, "hints-only")
	if err != nil {
		return ChurnResult{}, fmt.Errorf("bench: churn hints-only: %w", err)
	}
	res := ChurnResult{
		Scenario:  spec.Scenario.Name,
		Victim:    victim,
		HotKeys:   spec.HotKeys,
		TotalKeys: spec.TotalKeys,
		OutageMs:  durMs(spec.Outage),
		Repair:    withRepair,
		HintsOnly: hintsOnly,
	}
	opts.progress("churn %s: repair post-stale %.3f/%.3f (hot/cold) vs hints-only %.3f/%.3f",
		spec.Scenario.Name,
		res.Repair.Groups[0].PostFraction, res.Repair.Groups[1].PostFraction,
		res.HintsOnly.Groups[0].PostFraction, res.HintsOnly.Groups[1].PostFraction)
	return res, nil
}

// runSimChurn builds one arm's simulated cluster (anti-entropy on in the
// "repair" arm) and runs the failure schedule on it.
func runSimChurn(spec ChurnSpec, opts Options, arm string) (ChurnRun, string, error) {
	cspec := hotColdClusterSpec(spec.Scenario, spec.HotKeys)
	cspec.HintedHandoff = true
	cspec.HintQueueLimit = spec.HintQueueLimit
	if arm == "repair" {
		cspec.Repair = repair.Options{
			Enabled:        true,
			Interval:       spec.RepairInterval,
			Concurrency:    spec.RepairConcurrency,
			LeavesPerRange: spec.RepairLeaves,
		}
	}
	s, c, undo, err := buildSim(opts.Seed, spec.Scenario, cspec)
	if err != nil {
		return ChurnRun{}, "", err
	}
	defer undo()
	tols := []float64{spec.HotTolerance, spec.ColdTolerance}
	ctl := core.NewController(hotColdController(fmt.Sprintf("churn-%d%%", int(spec.HotTolerance*100+0.5)),
		cspec.RF, cspec.Profile.BandwidthBytesPerSec, spec.HotKeys, tols, nil))
	b, err := newSimBackend(s, c, ctl, spec.Scenario.MonitorInterval, cspec.RF, loadPools{
		hotKeys: spec.HotKeys, totalKeys: spec.TotalKeys,
		hot: spec.HotThreads, cold: spec.ColdThreads,
		hotArrival: spec.HotArrival, coldArrival: spec.ColdArrival,
		valueBytes: 1024, verifyEvery: 2, timeout: 750 * time.Millisecond,
		seed: opts.Seed,
	})
	if err != nil {
		return ChurnRun{}, "", err
	}
	b.dropHints = spec.DropHintsAtRecovery
	// The victim: with RF=5 over 6 nodes it replicates nearly every key. It
	// stays in the client rotation — drivers eat timeouts while it is down
	// (a short OpTimeout keeps threads cycling), and the moment it returns
	// it coordinates ~1/6 of the traffic, serving CL=ONE reads from its own
	// stale engine. That is exactly how a recovered replica's divergence
	// reaches users in production.
	victim := c.NodeIDs()[1]
	run, err := runChurnSchedule(b, ctl, churnPlan{
		arm: arm, victim: victim,
		warmup:   max(8*spec.Scenario.MonitorInterval, 2*time.Second),
		baseline: spec.Baseline, outage: spec.Outage, postWatch: spec.PostWatch,
		windowLen: spec.WindowLen, recoverWindows: spec.RecoverWindows, tols: tols,
	}, opts)
	return run, string(victim), err
}

// churnPlan is one arm of the failure schedule.
type churnPlan struct {
	arm                                 string // the run's Policy
	victim                              ring.NodeID
	warmup, baseline, outage, postWatch time.Duration
	windowLen                           time.Duration
	recoverWindows                      int
	tols                                []float64
}

// runChurnSchedule runs the failure schedule on b: warm up, watch a
// baseline, crash the victim, keep it down for the outage, bring it back
// and watch recovery. Staleness windows run from the start, the load is
// measured from the end of the warm-up, and the group assembly dates every
// window from the victim's return.
func runChurnSchedule(b backend, ctl *core.Controller, p churnPlan, opts Options) (ChurnRun, error) {
	b.start()
	win := sampleWindows(b.runtime(), p.windowLen, b.verified)
	b.wait(p.warmup)
	b.resetLoad()
	b.wait(p.baseline)
	if err := b.crash(p.victim); err != nil {
		return ChurnRun{}, err
	}
	opts.progress("churn %s: %s down", p.arm, p.victim)
	b.wait(p.outage)
	if err := b.restart(p.victim); err != nil {
		return ChurnRun{}, err
	}
	recoveredAt := b.runtime().Now()
	opts.progress("churn %s: %s back", p.arm, p.victim)
	b.wait(p.postWatch)
	windows := win.finish()
	load := b.stop()
	led := b.ledger()
	return ChurnRun{
		Policy:        p.arm,
		Groups:        assembleGroups(windows, recoveredAt.Sub(win.start), p.windowLen, p.recoverWindows, p.tols, groupLevels(ctl)),
		Windows:       windows,
		Operations:    load.ops,
		Errors:        load.errs,
		ThroughputOps: load.tput,
		HintsQueued:   led.hintsQueued,
		HintsDropped:  led.hintsDropped,
		RowsHealed:    led.rowsHealed,
		RepairBytes:   led.repairBytes,
		RowsRecovered: led.rowsRecovered,
	}, nil
}

// windowSampler cuts the verified-read counters into fixed staleness
// windows: window i covers [start + i*len, start + (i+1)*len).
type windowSampler struct {
	start time.Time
	stop  func()

	mu      sync.Mutex
	windows []ChurnWindow
}

// sampleWindows samples counts every windowLen on rt; each window holds the
// per-group deltas since the previous sample.
func sampleWindows(rt sim.Runtime, windowLen time.Duration, counts func() (samples, stale [2]uint64)) *windowSampler {
	w := &windowSampler{start: rt.Now()}
	lastSamples, lastStale := counts()
	w.stop = sim.Every(rt, func() time.Duration { return windowLen }, func() {
		samples, stale := counts()
		var win ChurnWindow
		for g := 0; g < 2; g++ {
			n, st := samples[g]-lastSamples[g], stale[g]-lastStale[g]
			frac := 0.0
			if n > 0 {
				frac = float64(st) / float64(n)
			}
			win.Samples = append(win.Samples, n)
			win.Stale = append(win.Stale, st)
			win.Fraction = append(win.Fraction, frac)
		}
		lastSamples, lastStale = samples, stale
		w.mu.Lock()
		w.windows = append(w.windows, win)
		w.mu.Unlock()
	})
	return w
}

// finish stops sampling and returns the windows taken.
func (w *windowSampler) finish() []ChurnWindow {
	w.stop()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.windows
}

// assembleGroups turns staleness windows into per-group recovery outcomes
// and dates every window relative to the recovery instant (recoveryOffset
// after the first window's start). The post-recovery horizon starts at the
// first window fully after that instant.
func assembleGroups(windows []ChurnWindow, recoveryOffset, windowLen time.Duration,
	recoverWindows int, tols []float64, levels [2]string) []ChurnGroup {
	postStart := len(windows)
	for i := range windows {
		start := time.Duration(i) * windowLen
		windows[i].OffsetMs = durMs(start - recoveryOffset)
		if start >= recoveryOffset && i < postStart {
			postStart = i
		}
	}
	names := []string{"hot", "cold"}
	tailStart := postStart + (len(windows)-postStart)*3/4
	var out []ChurnGroup
	for g := 0; g < 2; g++ {
		cg := ChurnGroup{Name: names[g], Tolerance: tols[g], RecoveredWithinMs: -1, FinalLevel: levels[g]}
		streak := 0
		var tailStale, tailSamples uint64
		for i := postStart; i < len(windows); i++ {
			w := windows[i]
			cg.PostSamples += w.Samples[g]
			cg.PostStale += w.Stale[g]
			if i >= tailStart {
				tailSamples += w.Samples[g]
				tailStale += w.Stale[g]
			}
			if w.Fraction[g] > cg.WorstWindow {
				cg.WorstWindow = w.Fraction[g]
			}
			// Windows too thin to measure (a handful of probes) are neutral:
			// they neither prove recovery nor void it.
			if w.Samples[g] < 10 || w.Fraction[g] <= tols[g] {
				streak++
				if streak == recoverWindows && cg.RecoveredWithinMs < 0 {
					// Recovery dates from the START of the stable streak.
					first := i - recoverWindows + 1
					cg.RecoveredWithinMs = max(durMs(time.Duration(first)*windowLen-recoveryOffset), 0)
				}
			} else {
				streak = 0
				cg.RecoveredWithinMs = -1 // a later breach voids an early call
			}
		}
		if cg.PostSamples > 0 {
			cg.PostFraction = float64(cg.PostStale) / float64(cg.PostSamples)
		}
		if tailSamples > 0 {
			cg.TailFraction = float64(tailStale) / float64(tailSamples)
		}
		out = append(out, cg)
	}
	return out
}
