package bench

import (
	"fmt"
	"strings"
	"time"

	"harmony/internal/client"
	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/faults"
	"harmony/internal/obs"
	"harmony/internal/repair"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/wire"
	"harmony/internal/ycsb"
)

// The partition experiment is the availability half of the failure story:
// the cluster is split into a majority and a minority side by a fault-plane
// partition (the network cut) plus a conviction (the failure detectors
// converging on it), load keeps arriving on the majority, and explicit-level
// probes interrogate the minority. The pins are the CAP ledger a quorum
// system owes its operators: the majority keeps serving at quorum with
// bounded degradation, the minority refuses quorum work fast (no hangs past
// the deadline) while still answering CL=ONE from its own replicas, the
// controller holds diverged groups at quorum once repair makes the
// divergence visible, and staleness drains back under tolerance after the
// heal. CheckPartition turns those pins into CI assertions on the result.

// PartitionSpec parameterizes the partition experiment.
type PartitionSpec struct {
	Scenario Scenario
	// HotKeys / TotalKeys split the keyspace as in the hotcold experiment.
	HotKeys   int64
	TotalKeys int64
	// HotThreads / ColdThreads size the majority-side load pools;
	// HotArrival / ColdArrival drive them open loop (ops/s) so offered load
	// does not pause for the cut.
	HotThreads, ColdThreads int
	HotArrival, ColdArrival float64
	// HotTolerance / ColdTolerance are the per-group stale-read targets.
	HotTolerance, ColdTolerance float64
	// MinorityNodes is how many nodes land on the small side of the cut
	// (the last ones in topology order; the monitor stays with the
	// majority).
	MinorityNodes int
	// Baseline is observed before the cut, Cut is how long the partition
	// holds, PostWatch how long re-convergence is observed after the heal.
	Baseline, Cut, PostWatch time.Duration
	// DetectionDelay models failure-detector convergence: the gap between
	// the network cut (or heal) and every node's liveness view reflecting
	// it. During it, cross-cut operations time out instead of failing fast.
	DetectionDelay time.Duration
	// OpTimeout bounds every client operation — the fail-fast pin is that
	// no probe error takes much longer than this.
	OpTimeout time.Duration
	// ProbeInterval is the minority prober's cadence: each tick issues a
	// CL=ONE read, a QUORUM read, and a QUORUM write at explicit levels.
	ProbeInterval time.Duration
	// WindowLen / RecoverWindows: staleness windowing as in churn.
	WindowLen      time.Duration
	RecoverWindows int
	// HintQueueLimit caps coordinator hint queues during the cut.
	HintQueueLimit int
	// RepairInterval / RepairConcurrency / RepairLeaves tune anti-entropy
	// (always enabled here: the post-heal convergence pin depends on it).
	RepairInterval    time.Duration
	RepairConcurrency int
	RepairLeaves      int
}

// DefaultPartitionSpec returns the standard configuration: the churn
// experiment's 6-node RF=5 cluster (full-enough replication that every key
// keeps a replica on both sides of any 4/2 split — minority CL=ONE
// availability holds by construction, and the majority always retains a
// quorum), a 5s cut, a 4/2 split.
func DefaultPartitionSpec() PartitionSpec {
	sc := Grid5000()
	sc.Name = "partition-grid5000"
	sc.Spec.RacksPerDC = 2
	sc.Spec.NodesPerRack = 3
	sc.Spec.HintedHandoff = true
	return PartitionSpec{
		Scenario:          sc,
		HotKeys:           400,
		TotalKeys:         8_000,
		HotThreads:        10,
		ColdThreads:       25,
		HotArrival:        1200,
		ColdArrival:       4000,
		HotTolerance:      0.05,
		ColdTolerance:     0.30,
		MinorityNodes:     2,
		Baseline:          2 * time.Second,
		Cut:               5 * time.Second,
		PostWatch:         10 * time.Second,
		DetectionDelay:    500 * time.Millisecond,
		OpTimeout:         750 * time.Millisecond,
		ProbeInterval:     50 * time.Millisecond,
		WindowLen:         250 * time.Millisecond,
		RecoverWindows:    4,
		HintQueueLimit:    2_000,
		RepairInterval:    300 * time.Millisecond,
		RepairConcurrency: 3,
		RepairLeaves:      64,
	}
}

// PartitionProbe tallies one phase of the minority prober: explicit-level
// operations issued against minority coordinators only.
type PartitionProbe struct {
	OneOK  int64 `json:"one_ok"`
	OneErr int64 `json:"one_err"`
	// Quorum* cover QUORUM reads, Write* QUORUM writes.
	QuorumOK  int64 `json:"quorum_ok"`
	QuorumErr int64 `json:"quorum_err"`
	WriteOK   int64 `json:"write_ok"`
	WriteErr  int64 `json:"write_err"`
	// WorstQuorumErrMs is the slowest failed quorum operation (read or
	// write) in the phase — the fail-fast pin: it must stay near the
	// operation deadline, never hang past it.
	WorstQuorumErrMs float64 `json:"worst_quorum_err_ms"`
	// DeadlineMs echoes the configured per-op budget the pin is against.
	DeadlineMs float64 `json:"deadline_ms"`
}

// OneFraction returns the CL=ONE success fraction of the phase.
func (p PartitionProbe) OneFraction() float64 {
	if p.OneOK+p.OneErr == 0 {
		return 0
	}
	return float64(p.OneOK) / float64(p.OneOK+p.OneErr)
}

// PartitionResult is the partition experiment's outcome, shared between the
// simulated and live backends (out/partition.json).
type PartitionResult struct {
	Backend  string   `json:"backend"` // "sim" or "live"
	Scenario string   `json:"scenario"`
	Nodes    int      `json:"nodes"`
	RF       int      `json:"rf"`
	Majority []string `json:"majority"`
	Minority []string `json:"minority"`
	CutMs    float64  `json:"cut_ms"`
	// BaselineTputOps / CutTputOps are the majority pool's goodput
	// (successful ops/s) before and during the cut; AvailabilityRatio is
	// their quotient — the majority-stays-available pin.
	BaselineTputOps   float64 `json:"baseline_tput_ops"`
	CutTputOps        float64 `json:"cut_tput_ops"`
	AvailabilityRatio float64 `json:"availability_ratio"`
	// DetectMs (live backend) is how long the majority's failure detectors
	// took to convict the cut — from installing the partition to every
	// majority member reporting a shrunken alive count. Until conviction,
	// operations whose replica choice touches a cut peer burn their full
	// deadline (phi accrual is detector physics, not a code path to
	// optimize away), so the availability ratio measures goodput from
	// conviction onward and this field pins the blind window separately
	// against DetectBoundMs. -1 means the detectors never convicted within
	// the experiment's wait budget. Zero bound (sim backend, where the
	// converged view is installed directly) skips the pin.
	DetectMs      float64 `json:"detect_ms,omitempty"`
	DetectBoundMs float64 `json:"detect_bound_ms,omitempty"`
	// ProbeBaseline / ProbeCut are the minority prober's phase tallies.
	ProbeBaseline PartitionProbe `json:"probe_baseline"`
	ProbeCut      PartitionProbe `json:"probe_cut"`
	// Holds counts divergence-hold transitions the controller recorded in
	// its decision trace (groups pinned to >= quorum while repair drains
	// the partition's divergence).
	Holds int `json:"divergence_holds"`
	// Windows is the staleness time series (offsets relative to the heal);
	// Groups the per-group recovery assembly over the post-heal horizon.
	Windows []ChurnWindow `json:"windows"`
	Groups  []ChurnGroup  `json:"groups"`
	// HintsQueued / RowsHealed summarize the repair ledger of the run.
	HintsQueued uint64 `json:"hints_queued"`
	RowsHealed  uint64 `json:"rows_healed"`
	// Trace is the controller's decision trace (level flips, divergence
	// hold/release) over the run.
	Trace []obs.Event `json:"trace,omitempty"`
	// Series is the scraped per-second time series (live backend only).
	Series *LiveSeries `json:"series,omitempty"`
}

// Format renders the result.
func (r PartitionResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== partition (%s %s, %d nodes rf=%d, cut %.0fms, majority %d / minority %d) ==\n",
		r.Backend, r.Scenario, r.Nodes, r.RF, r.CutMs, len(r.Majority), len(r.Minority))
	fmt.Fprintf(&b, "majority goodput: baseline %.0f ops/s, during cut %.0f ops/s (ratio %.2f)\n",
		r.BaselineTputOps, r.CutTputOps, r.AvailabilityRatio)
	if r.DetectBoundMs > 0 {
		det := "NEVER"
		if r.DetectMs >= 0 {
			det = fmt.Sprintf("%.0fms", r.DetectMs)
		}
		fmt.Fprintf(&b, "detector convicted the cut in %s (bound %.0fms); availability measured post-conviction\n",
			det, r.DetectBoundMs)
	}
	for _, ph := range []struct {
		name string
		p    PartitionProbe
	}{{"baseline", r.ProbeBaseline}, {"cut", r.ProbeCut}} {
		fmt.Fprintf(&b, "minority %-8s ONE %d/%d ok (%.2f)  QUORUM-read %d ok / %d err  QUORUM-write %d ok / %d err  worst-err %.0fms (deadline %.0fms)\n",
			ph.name, ph.p.OneOK, ph.p.OneOK+ph.p.OneErr, ph.p.OneFraction(),
			ph.p.QuorumOK, ph.p.QuorumErr, ph.p.WriteOK, ph.p.WriteErr,
			ph.p.WorstQuorumErrMs, ph.p.DeadlineMs)
	}
	fmt.Fprintf(&b, "divergence holds: %d  hints queued: %d  rows healed: %d\n",
		r.Holds, r.HintsQueued, r.RowsHealed)
	for _, g := range r.Groups {
		rec := "NEVER"
		if g.RecoveredWithinMs >= 0 {
			rec = fmt.Sprintf("%.0fms", g.RecoveredWithinMs)
		}
		fmt.Fprintf(&b, "  %-5s tol=%.2f level=%-6s recovered=%-8s post-stale=%d/%d (%.3f) worst-window=%.3f tail=%.3f\n",
			g.Name, g.Tolerance, g.FinalLevel, rec, g.PostStale, g.PostSamples, g.PostFraction, g.WorstWindow, g.TailFraction)
	}
	return b.String()
}

// CheckPartition pins the partition contract on a result and returns the
// violations (empty = pass). The pins are deliberately loose enough for the
// live backend's scheduler noise while still catching real regressions:
// majority availability >= 80% of baseline, minority CL=ONE mostly served,
// zero minority quorum successes during the cut, every quorum refusal
// bounded near the deadline, and post-heal staleness back within tolerance.
func CheckPartition(r PartitionResult) []string {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	if r.ProbeBaseline.OneOK == 0 || r.ProbeBaseline.QuorumOK == 0 || r.ProbeBaseline.WriteOK == 0 {
		fail("baseline probe did not exercise all levels: %+v", r.ProbeBaseline)
	}
	if r.AvailabilityRatio < 0.8 {
		fail("majority availability ratio %.2f < 0.80 (baseline %.0f, cut %.0f ops/s)",
			r.AvailabilityRatio, r.BaselineTputOps, r.CutTputOps)
	}
	if r.DetectBoundMs > 0 && (r.DetectMs < 0 || r.DetectMs > r.DetectBoundMs) {
		fail("partition detection took %.0fms, past the %.0fms bound (-1 = never convicted)",
			r.DetectMs, r.DetectBoundMs)
	}
	p := r.ProbeCut
	if p.OneOK == 0 {
		fail("minority served no CL=ONE reads during the cut")
	} else if f := p.OneFraction(); f < 0.75 {
		fail("minority CL=ONE availability %.2f < 0.75 during the cut (%d ok / %d err)", f, p.OneOK, p.OneErr)
	}
	if p.QuorumOK != 0 || p.WriteOK != 0 {
		fail("minority served quorum work during the cut (reads %d, writes %d) — split brain", p.QuorumOK, p.WriteOK)
	}
	if p.QuorumErr == 0 && p.WriteErr == 0 {
		fail("cut probe recorded no quorum refusals — the partition never bit")
	}
	if bound := 1.5*p.DeadlineMs + 250; p.WorstQuorumErrMs > bound {
		fail("minority quorum refusal took %.0fms, past the fail-fast bound %.0fms", p.WorstQuorumErrMs, bound)
	}
	for _, g := range r.Groups {
		if g.RecoveredWithinMs < 0 {
			fail("group %s never re-converged within tolerance %.2f after the heal", g.Name, g.Tolerance)
		}
		if g.TailFraction > g.Tolerance {
			fail("group %s post-heal tail staleness %.3f still above tolerance %.2f", g.Name, g.TailFraction, g.Tolerance)
		}
	}
	if r.Backend == "sim" && r.Holds == 0 {
		// Deterministic backend: the cut's divergence must trip at least one
		// controller hold. (Live timing is too noisy to pin this.)
		fail("controller recorded no divergence holds in the decision trace")
	}
	return v
}

// countHolds counts divergence-hold transitions in a decision trace.
func countHolds(events []obs.Event) int {
	n := 0
	for _, e := range events {
		if e.Kind == obs.EventDivergenceHold {
			n++
		}
	}
	return n
}

// Partition runs the simulated partition experiment.
func Partition(spec PartitionSpec, opts Options) (PartitionResult, error) {
	opts = opts.withDefaults()
	if spec.HotKeys <= 0 || spec.TotalKeys <= spec.HotKeys {
		return PartitionResult{}, fmt.Errorf("bench: partition needs 0 < HotKeys < TotalKeys, got %d/%d", spec.HotKeys, spec.TotalKeys)
	}
	if spec.Cut <= spec.DetectionDelay || spec.PostWatch <= spec.DetectionDelay {
		return PartitionResult{}, fmt.Errorf("bench: partition needs Cut and PostWatch > DetectionDelay")
	}
	if spec.MinorityNodes <= 0 {
		return PartitionResult{}, fmt.Errorf("bench: partition needs a positive MinorityNodes")
	}

	s := sim.New(opts.Seed)
	cspec := spec.Scenario.Spec
	cspec.Groups = 2
	cspec.GroupFn = hotColdGroupFn(spec.HotKeys)
	cspec.HintedHandoff = true
	cspec.HintQueueLimit = spec.HintQueueLimit
	cspec.Repair = repair.Options{
		Enabled:        true,
		Interval:       spec.RepairInterval,
		Concurrency:    spec.RepairConcurrency,
		LeavesPerRange: spec.RepairLeaves,
	}
	c, err := cluster.BuildSim(s, cspec)
	if err != nil {
		return PartitionResult{}, err
	}
	ids := c.NodeIDs()
	if spec.MinorityNodes >= len(ids) {
		return PartitionResult{}, fmt.Errorf("bench: MinorityNodes %d must be < cluster size %d", spec.MinorityNodes, len(ids))
	}
	majority := ids[:len(ids)-spec.MinorityNodes]
	minority := ids[len(ids)-spec.MinorityNodes:]
	majStrs := make([]string, len(majority))
	minStrs := make([]string, len(minority))
	for i, id := range majority {
		majStrs[i] = string(id)
	}
	for i, id := range minority {
		minStrs[i] = string(id)
	}

	tols := []float64{spec.HotTolerance, spec.ColdTolerance}
	trace := obs.NewTrace(4096)
	ctl := core.NewController(core.ControllerConfig{
		Policy: core.Policy{
			Name:               "partition",
			ToleratedStaleRate: spec.HotTolerance,
		},
		N:                    cspec.RF,
		BandwidthBytesPerSec: cspec.Profile.BandwidthBytesPerSec,
		Groups:               2,
		GroupFn:              cspec.GroupFn,
		GroupTolerances:      tols,
		Trace:                trace,
	})
	mon := core.NewMonitor(core.MonitorConfig{
		ID:             "harmony-monitor",
		Nodes:          ids,
		Interval:       spec.Scenario.MonitorInterval,
		ReplicaSetSize: cspec.RF,
		OnObservation:  ctl.Observe,
	}, s, c.Bus)
	c.Net.Colocate("harmony-monitor", majority[0])
	c.Bus.Register("harmony-monitor", s, mon)

	// Majority load: the hot/cold pools from churn, restricted to majority
	// coordinators (clients colocated with the big side of the cut).
	hotWl := ycsb.Workload{
		Name: "part-hot", ReadProportion: 0.5, UpdateProportion: 0.5,
		RecordCount: spec.HotKeys, ValueBytes: 1024,
		RequestDistribution: ycsb.DistZipfian,
	}
	coldWl := ycsb.Workload{
		Name: "part-cold", ReadProportion: 0.95, UpdateProportion: 0.05,
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
			OpTimeout:    spec.OpTimeout,
			Coordinators: majority,
		}, s, c)
	}
	hotR, err := newRunner(hotWl, spec.HotThreads, spec.HotArrival, "phot", 101)
	if err != nil {
		return PartitionResult{}, err
	}
	coldR, err := newRunner(coldWl, spec.ColdThreads, spec.ColdArrival, "pcold", 202)
	if err != nil {
		return PartitionResult{}, err
	}
	coldR.Load()

	// Minority prober: explicit-level rounds against minority coordinators
	// only, one attempt per op so every refusal's latency is the server
	// path's own (no client retries smearing it).
	prb, err := newSimProber(s, c, minority, spec.OpTimeout, spec.TotalKeys)
	if err != nil {
		return PartitionResult{}, err
	}
	var discard, probeBase, probeCut PartitionProbe
	prb.cur = &discard
	probeStop := sim.Every(s, func() time.Duration { return spec.ProbeInterval }, prb.round)

	mon.Start()
	hotR.Start()
	coldR.Start()

	// Staleness windows on a fixed cadence, as in churn.
	var windows []ChurnWindow
	warmup := 8 * spec.Scenario.MonitorInterval
	if warmup < 2*time.Second {
		warmup = 2 * time.Second
	}
	s.RunFor(warmup)
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

	// Baseline.
	hotR.ResetMeasurement()
	coldR.ResetMeasurement()
	prb.cur = &probeBase
	s.RunFor(spec.Baseline)
	baseOps, baseErrs := runnerDeltas(hotR, coldR)
	baselineTput := goodput(baseOps, baseErrs, spec.Baseline)

	// The cut severs member<->member delivery immediately (the monitor,
	// colocated on the majority, is cut off from the minority too); the
	// conviction (each side's detectors giving up on the other) lands only
	// after the detection delay, as a real gossip detector's would.
	hotR.ResetMeasurement()
	coldR.ResetMeasurement()
	prb.cur = &probeCut
	sides := &faults.PartitionSpec{A: majStrs, B: minStrs}
	c.Faults.Apply(faults.Update{Partition: sides})
	opts.progress("partition %s: cut %v | %v", spec.Scenario.Name, majStrs, minStrs)
	s.RunFor(spec.DetectionDelay)
	c.Faults.Apply(faults.Update{Convict: sides})
	s.RunFor(spec.Cut - spec.DetectionDelay)
	cutOps, cutErrs := runnerDeltas(hotR, coldR)
	cutTput := goodput(cutOps, cutErrs, spec.Cut)

	// Heal: delivery restores immediately, detectors re-converge after the
	// delay, and the cross-cut recovery trigger starts anti-entropy.
	c.Faults.Apply(faults.Update{Heal: true})
	healedAt := s.Now()
	prb.cur = &discard
	s.RunFor(spec.DetectionDelay)
	c.Faults.Apply(faults.Update{Acquit: true})
	opts.progress("partition %s: healed, watching re-convergence", spec.Scenario.Name)
	s.RunFor(spec.PostWatch - spec.DetectionDelay)

	windowStop()
	probeStop()
	hotR.Stop()
	coldR.Stop()
	mon.Stop()
	hotR.Drain()
	coldR.Drain()

	probeBase.DeadlineMs = durMs(spec.OpTimeout)
	probeCut.DeadlineMs = durMs(spec.OpTimeout)
	agg := c.AggregateMetrics()
	res := PartitionResult{
		Backend:         "sim",
		Scenario:        spec.Scenario.Name,
		Nodes:           len(ids),
		RF:              cspec.RF,
		Majority:        majStrs,
		Minority:        minStrs,
		CutMs:           durMs(spec.Cut),
		BaselineTputOps: baselineTput,
		CutTputOps:      cutTput,
		ProbeBaseline:   probeBase,
		ProbeCut:        probeCut,
		Windows:         windows,
		HintsQueued:     agg.HintsQueued,
		RowsHealed:      agg.RepairRows,
		Trace:           trace.Events(),
		Holds:           countHolds(trace.Events()),
	}
	if baselineTput > 0 {
		res.AvailabilityRatio = cutTput / baselineTput
	}
	res.Groups = assemblePartitionGroups(windows, tickerStart, healedAt, spec.WindowLen, spec.RecoverWindows, tols, ctl)
	opts.progress("partition %s: availability %.2f, minority ONE %.2f, holds %d",
		spec.Scenario.Name, res.AvailabilityRatio, probeCut.OneFraction(), res.Holds)
	return res, nil
}

// runnerDeltas sums operations and errors across both pools since their last
// ResetMeasurement.
func runnerDeltas(rs ...*ycsb.Runner) (ops, errs int64) {
	for _, r := range rs {
		rep := r.Report()
		ops += rep.Operations
		errs += rep.Errors
	}
	return ops, errs
}

// goodput converts an op/err delta over a phase into successful ops/s.
func goodput(ops, errs int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops-errs) / d.Seconds()
}

// assemblePartitionGroups runs the churn-style window assembly: per-group
// recovery point, post-heal aggregate and tail staleness. Offsets are
// relative to the heal instant.
func assemblePartitionGroups(windows []ChurnWindow, tickerStart, healedAt time.Time,
	windowLen time.Duration, recoverWindows int, tols []float64, ctl *core.Controller) []ChurnGroup {
	recoveryOffset := healedAt.Sub(tickerStart)
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
			within := w.Samples[g] < 10 || w.Fraction[g] <= tols[g]
			if within {
				streak++
				if streak == recoverWindows && cg.RecoveredWithinMs < 0 {
					first := i - recoverWindows + 1
					cg.RecoveredWithinMs = durMs(time.Duration(first)*windowLen - recoveryOffset)
					if cg.RecoveredWithinMs < 0 {
						cg.RecoveredWithinMs = 0
					}
				}
			} else {
				streak = 0
				cg.RecoveredWithinMs = -1
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

// simProber issues the minority's explicit-level probe rounds on the sim.
// All state is touched on the sim runtime only.
type simProber struct {
	s    *sim.Sim
	drv  *client.Driver
	keys int64
	next int64
	cur  *PartitionProbe
}

func newSimProber(s *sim.Sim, c *cluster.Cluster, coords []ring.NodeID, timeout time.Duration, keys int64) (*simProber, error) {
	drv, err := client.New(client.Options{
		ID:           "part-probe",
		Coordinators: coords,
		Policy:       client.Fixed{Write: wire.Quorum},
		Timeout:      timeout,
	}, s, c.Bus)
	if err != nil {
		return nil, err
	}
	c.Bus.Register("part-probe", s, drv)
	return &simProber{s: s, drv: drv, keys: keys}, nil
}

// round issues one probe triple: CL=ONE read, QUORUM read, QUORUM write.
// Each lands in whichever phase tally is current when it COMPLETES, so a
// probe straddling a phase boundary books where its outcome was observed.
func (p *simProber) round() {
	key := ycsb.Key(p.next % p.keys)
	p.next++
	start := p.s.Now()
	p.drv.ReadAt(key, wire.One, func(r client.ReadResult) {
		if r.Err != nil {
			p.cur.OneErr++
		} else {
			p.cur.OneOK++
		}
	})
	p.drv.ReadAt(key, wire.Quorum, func(r client.ReadResult) {
		if r.Err != nil {
			p.cur.QuorumErr++
			p.noteErrLatency(start)
		} else {
			p.cur.QuorumOK++
		}
	})
	p.drv.Write(key, []byte("probe"), func(r client.WriteResult) {
		if r.Err != nil {
			p.cur.WriteErr++
			p.noteErrLatency(start)
		} else {
			p.cur.WriteOK++
		}
	})
}

func (p *simProber) noteErrLatency(start time.Time) {
	if ms := durMs(p.s.Now().Sub(start)); ms > p.cur.WorstQuorumErrMs {
		p.cur.WorstQuorumErrMs = ms
	}
}
