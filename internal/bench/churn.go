package bench

import (
	"fmt"
	"strings"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/faults"
	"harmony/internal/repair"
	"harmony/internal/sim"
	"harmony/internal/ycsb"
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
	for _, run := range []ChurnRun{r.Repair, r.HintsOnly} {
		fmt.Fprintf(&b, "%-10s tput=%8.0f ops/s errors=%d hints=%d dropped=%d healed=%d (%d KiB streamed)\n",
			run.Policy, run.ThroughputOps, run.Errors, run.HintsQueued, run.HintsDropped,
			run.RowsHealed, run.RepairBytes/1024)
		for _, g := range run.Groups {
			rec := "NEVER"
			if g.RecoveredWithinMs >= 0 {
				rec = fmt.Sprintf("%.0fms", g.RecoveredWithinMs)
			}
			fmt.Fprintf(&b, "  %-5s tol=%.2f level=%-6s recovered=%-8s post-stale=%d/%d (%.3f) worst-window=%.3f tail=%.3f\n",
				g.Name, g.Tolerance, g.FinalLevel, rec, g.PostStale, g.PostSamples, g.PostFraction, g.WorstWindow, g.TailFraction)
		}
	}
	return b.String()
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
	withRepair, err := runChurn(spec, opts, true)
	if err != nil {
		return ChurnResult{}, fmt.Errorf("bench: churn repair: %w", err)
	}
	hintsOnly, err := runChurn(spec, opts, false)
	if err != nil {
		return ChurnResult{}, fmt.Errorf("bench: churn hints-only: %w", err)
	}
	res := ChurnResult{
		Scenario:  spec.Scenario.Name,
		Victim:    hintsOnly.victim,
		HotKeys:   spec.HotKeys,
		TotalKeys: spec.TotalKeys,
		OutageMs:  durMs(spec.Outage),
		Repair:    withRepair.ChurnRun,
		HintsOnly: hintsOnly.ChurnRun,
	}
	opts.progress("churn %s: repair post-stale %.3f/%.3f (hot/cold) vs hints-only %.3f/%.3f",
		spec.Scenario.Name,
		res.Repair.Groups[0].PostFraction, res.Repair.Groups[1].PostFraction,
		res.HintsOnly.Groups[0].PostFraction, res.HintsOnly.Groups[1].PostFraction)
	return res, nil
}

type churnRun struct {
	ChurnRun
	victim string
}

// runChurn measures one policy through the failure schedule.
func runChurn(spec ChurnSpec, opts Options, withRepair bool) (churnRun, error) {
	s := sim.New(opts.Seed)
	cspec := spec.Scenario.Spec
	cspec.Groups = 2
	cspec.GroupFn = hotColdGroupFn(spec.HotKeys)
	cspec.HintedHandoff = true
	cspec.HintQueueLimit = spec.HintQueueLimit
	if withRepair {
		cspec.Repair = repair.Options{
			Enabled:        true,
			Interval:       spec.RepairInterval,
			Concurrency:    spec.RepairConcurrency,
			LeavesPerRange: spec.RepairLeaves,
		}
	}
	c, err := cluster.BuildSim(s, cspec)
	if err != nil {
		return churnRun{}, err
	}
	if spec.Scenario.Prepare != nil {
		if stop := spec.Scenario.Prepare(s, c); stop != nil {
			defer stop()
		}
	}

	tols := []float64{spec.HotTolerance, spec.ColdTolerance}
	ctl := core.NewController(core.ControllerConfig{
		Policy: core.Policy{
			Name:               fmt.Sprintf("churn-%d%%", int(spec.HotTolerance*100+0.5)),
			ToleratedStaleRate: spec.HotTolerance,
		},
		N:                    cspec.RF,
		BandwidthBytesPerSec: cspec.Profile.BandwidthBytesPerSec,
		Groups:               2,
		GroupFn:              cspec.GroupFn,
		GroupTolerances:      tols,
	})
	mon := core.NewMonitor(core.MonitorConfig{
		ID:             "harmony-monitor",
		Nodes:          c.NodeIDs(),
		Interval:       spec.Scenario.MonitorInterval,
		ReplicaSetSize: cspec.RF,
		OnObservation:  ctl.Observe,
	}, s, c.Bus)
	c.Net.Colocate("harmony-monitor", c.NodeIDs()[0])
	c.Bus.Register("harmony-monitor", s, mon)

	// The victim: with RF=5 over 6 nodes it replicates nearly every key. It
	// stays in the client rotation — drivers eat timeouts while it is down
	// (a short OpTimeout keeps threads cycling), and the moment it returns
	// it coordinates ~1/6 of the traffic, serving CL=ONE reads from its own
	// stale engine. That is exactly how a recovered replica's divergence
	// reaches users in production.
	victim := c.NodeIDs()[1]

	hotWl := ycsb.Workload{
		Name: "churn-hot", ReadProportion: 0.5, UpdateProportion: 0.5,
		RecordCount: spec.HotKeys, ValueBytes: 1024,
		RequestDistribution: ycsb.DistZipfian,
	}
	// Cold data is written rarely: a key dirtied during the outage stays
	// divergent until read repair happens to sample it or anti-entropy
	// streams it — foreground overwrites are too rare to self-heal, which
	// is what makes repair the load-bearing mechanism here.
	coldWl := ycsb.Workload{
		Name: "churn-cold", ReadProportion: 0.95, UpdateProportion: 0.05,
		RecordCount: spec.TotalKeys, ValueBytes: 1024,
		RequestDistribution: ycsb.DistUniform,
	}
	newRunner := func(wl ycsb.Workload, threads int, arrival float64, prefix string, seedOff int64) (*ycsb.Runner, error) {
		return ycsb.NewRunner(ycsb.RunConfig{
			Workload:     wl,
			Threads:      threads,
			ShadowEvery:  2,
			Seed:         opts.Seed + seedOff,
			ClientPrefix: prefix,
			Policy:       ctl,
			ArrivalRate:  arrival,
			OpTimeout:    750 * time.Millisecond,
		}, s, c)
	}
	hotR, err := newRunner(hotWl, spec.HotThreads, spec.HotArrival, "hot", 101)
	if err != nil {
		return churnRun{}, err
	}
	coldR, err := newRunner(coldWl, spec.ColdThreads, spec.ColdArrival, "cold", 202)
	if err != nil {
		return churnRun{}, err
	}
	coldR.Load()

	mon.Start()
	hotR.Start()
	coldR.Start()

	// Staleness windows: per-group shadow-probe deltas on a fixed cadence.
	var windows []ChurnWindow
	tickerStart := s.Now()
	last := c.AggregateMetrics()
	windowStop := sim.Every(s, func() time.Duration { return spec.WindowLen }, func() {
		cur := c.AggregateMetrics()
		w := ChurnWindow{}
		for g := 0; g < 2; g++ {
			var samples, stale uint64
			if g < len(cur.GroupShadowSamples) && g < len(last.GroupShadowSamples) {
				samples = cur.GroupShadowSamples[g] - last.GroupShadowSamples[g]
				stale = cur.GroupShadowStale[g] - last.GroupShadowStale[g]
			}
			frac := 0.0
			if samples > 0 {
				frac = float64(stale) / float64(samples)
			}
			w.Samples = append(w.Samples, samples)
			w.Stale = append(w.Stale, stale)
			w.Fraction = append(w.Fraction, frac)
		}
		last = cur
		windows = append(windows, w)
	})

	// Warm-up, then the schedule: baseline -> outage -> recovery -> watch.
	warmup := 8 * spec.Scenario.MonitorInterval
	if warmup < 2*time.Second {
		warmup = 2 * time.Second
	}
	s.RunFor(warmup)
	hotR.ResetMeasurement()
	coldR.ResetMeasurement()
	s.RunFor(spec.Baseline)
	c.Faults.Apply(faults.Update{Down: []string{string(victim)}})
	s.RunFor(spec.Outage)
	if spec.DropHintsAtRecovery {
		for _, n := range c.Nodes {
			n.DropHints()
		}
	}
	c.Faults.Apply(faults.Update{Up: []string{string(victim)}})
	recoveredAt := s.Now()
	s.RunFor(spec.PostWatch)
	windowStop()
	hotR.Stop()
	coldR.Stop()
	mon.Stop()
	hotR.Drain()
	coldR.Drain()

	// Assemble the run: window i covers [tickerStart + i*WindowLen,
	// tickerStart + (i+1)*WindowLen); offsets are relative to the victim's
	// recovery instant, and the post-recovery horizon starts at the first
	// window fully after it.
	recoveryOffset := recoveredAt.Sub(tickerStart)
	postStart := len(windows)
	for i := range windows {
		start := time.Duration(i) * spec.WindowLen
		windows[i].OffsetMs = durMs(start - recoveryOffset)
		if start >= recoveryOffset && i < postStart {
			postStart = i
		}
	}

	run := churnRun{victim: string(victim)}
	run.Policy = "hints-only"
	if withRepair {
		run.Policy = "repair"
	}
	run.Windows = windows
	hotRep, coldRep := hotR.Report(), coldR.Report()
	run.Operations = hotRep.Operations + coldRep.Operations
	run.Errors = hotRep.Errors + coldRep.Errors
	run.ThroughputOps = hotRep.ThroughputOps + coldRep.ThroughputOps
	agg := c.AggregateMetrics()
	run.HintsQueued = agg.HintsQueued
	run.HintsDropped = agg.HintsDropped
	run.RowsHealed = agg.RepairRows
	for _, n := range c.Nodes {
		if m := n.RepairManager(); m != nil {
			run.RepairBytes += m.Stats().BytesStreamed
		}
	}

	names := []string{"hot", "cold"}
	tailStart := postStart + (len(windows)-postStart)*3/4
	for g := 0; g < 2; g++ {
		cg := ChurnGroup{Name: names[g], Tolerance: tols[g], RecoveredWithinMs: -1,
			FinalLevel: ctl.GroupLast(g).Level.String()}
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
			within := w.Samples[g] < 10 || w.Fraction[g] <= tols[g]
			if within {
				streak++
				if streak == spec.RecoverWindows && cg.RecoveredWithinMs < 0 {
					// Recovery dates from the START of the stable streak.
					first := i - spec.RecoverWindows + 1
					cg.RecoveredWithinMs = durMs(time.Duration(first)*spec.WindowLen - recoveryOffset)
					if cg.RecoveredWithinMs < 0 {
						cg.RecoveredWithinMs = 0
					}
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
		run.Groups = append(run.Groups, cg)
	}
	return run, nil
}
