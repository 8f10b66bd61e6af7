package bench

import (
	"fmt"
	"strings"
	"time"

	"harmony/internal/client"
	"harmony/internal/core"
	"harmony/internal/faults"
	"harmony/internal/obs"
	"harmony/internal/repair"
	"harmony/internal/ring"
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
	formatChurnGroups(&b, r.Groups)
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

	cspec := hotColdClusterSpec(spec.Scenario, spec.HotKeys)
	cspec.HintedHandoff = true
	cspec.HintQueueLimit = spec.HintQueueLimit
	cspec.Repair = repair.Options{
		Enabled:        true,
		Interval:       spec.RepairInterval,
		Concurrency:    spec.RepairConcurrency,
		LeavesPerRange: spec.RepairLeaves,
	}
	s, c, undo, err := buildSim(opts.Seed, spec.Scenario, cspec)
	if err != nil {
		return PartitionResult{}, err
	}
	defer undo()
	ids := c.NodeIDs()
	if spec.MinorityNodes >= len(ids) {
		return PartitionResult{}, fmt.Errorf("bench: MinorityNodes %d must be < cluster size %d", spec.MinorityNodes, len(ids))
	}
	majority, minority := ids[:len(ids)-spec.MinorityNodes], ids[len(ids)-spec.MinorityNodes:]

	tols := []float64{spec.HotTolerance, spec.ColdTolerance}
	trace := obs.NewTrace(4096)
	ctl := core.NewController(hotColdController("partition", cspec.RF, cspec.Profile.BandwidthBytesPerSec, spec.HotKeys, tols, trace))
	// Majority load: clients colocated with the big side of the cut.
	b, err := newSimBackend(s, c, ctl, spec.Scenario.MonitorInterval, cspec.RF, loadPools{
		hotKeys: spec.HotKeys, totalKeys: spec.TotalKeys,
		hot: spec.HotThreads, cold: spec.ColdThreads,
		hotArrival: spec.HotArrival, coldArrival: spec.ColdArrival,
		valueBytes: 1024, verifyEvery: 2, timeout: spec.OpTimeout,
		coords: majority, prefix: "p", seed: opts.Seed,
	})
	if err != nil {
		return PartitionResult{}, err
	}
	drv, err := client.New(probeOptions(minority, spec.OpTimeout), s, c.Bus)
	if err != nil {
		return PartitionResult{}, err
	}
	c.Bus.Register("part-probe", s, drv)
	prb := startProber(s, drv, spec.TotalKeys, spec.ProbeInterval)

	res, err := runPartitionSchedule(b, ctl, trace, prb, partitionPlan{
		label:    spec.Scenario.Name,
		majority: majority, minority: minority,
		warmup:   max(8*spec.Scenario.MonitorInterval, 2*time.Second),
		baseline: spec.Baseline, cut: spec.Cut, postWatch: spec.PostWatch,
		windowLen: spec.WindowLen, recoverWindows: spec.RecoverWindows, tols: tols,
		opTimeout: spec.OpTimeout,
		// The cut severs member<->member delivery at once (the monitor,
		// colocated on the majority, is cut off from the minority too); each
		// side's detectors give up on the other only after the detection
		// delay, as a real gossip detector's would, and that blind window is
		// part of the measured cut.
		measureBlind: true,
		convict: func(sides faults.PartitionSpec) float64 {
			s.RunFor(spec.DetectionDelay)
			c.Faults.Apply(faults.Update{Convict: &sides})
			return 0
		},
		acquit: func() {
			s.RunFor(spec.DetectionDelay)
			c.Faults.Apply(faults.Update{Acquit: true})
		},
	}, opts)
	if err != nil {
		return PartitionResult{}, err
	}
	res.Backend, res.Scenario, res.RF = "sim", spec.Scenario.Name, cspec.RF
	return res, nil
}

// partitionPlan is the partition schedule's shape, and how a backend's
// detectors come to agree with a cut and with its heal.
type partitionPlan struct {
	label                            string
	majority, minority               []ring.NodeID
	warmup, baseline, cut, postWatch time.Duration
	windowLen                        time.Duration
	recoverWindows                   int
	tols                             []float64
	opTimeout                        time.Duration
	// convict returns once the detectors have convicted the cut, with how
	// long that took in ms (0 when the backend installs the view itself,
	// -1 when they never did). measureBlind counts the time until then
	// toward the cut's goodput and probes; otherwise the probes made in it
	// are discarded and the cut is measured from conviction on.
	convict      func(sides faults.PartitionSpec) (detectMs float64)
	measureBlind bool
	// acquit, when set, returns once the detectors have re-admitted the
	// far side after the heal; the rest of the post-watch follows it.
	acquit func()
}

// runPartitionSchedule runs the partition schedule on b, with load on the
// majority and the prober on the minority: warm up, watch a baseline, cut,
// hold the cut, heal, watch re-convergence.
func runPartitionSchedule(b backend, ctl *core.Controller, trace *obs.Trace, prb *prober, p partitionPlan, opts Options) (PartitionResult, error) {
	rt := b.runtime()
	b.start()
	b.wait(p.warmup)
	win := sampleWindows(rt, p.windowLen, b.verified)

	b.resetLoad()
	prb.to(&prb.base)
	baseStart := rt.Now()
	b.wait(p.baseline)
	load := b.load()
	baselineTput := goodput(load.ops, load.errs, rt.Now().Sub(baseStart))

	res := PartitionResult{
		Nodes:    len(p.majority) + len(p.minority),
		Majority: nodeNames(p.majority),
		Minority: nodeNames(p.minority),
		CutMs:    durMs(p.cut),
	}
	sides := faults.PartitionSpec{A: res.Majority, B: res.Minority}
	var cutStart time.Time
	measureCut := func() {
		b.resetLoad()
		prb.to(&prb.cut)
		cutStart = rt.Now()
	}
	if p.measureBlind {
		measureCut()
	} else {
		prb.to(&prb.discard)
	}
	if err := b.apply(faults.Update{Partition: &sides}); err != nil {
		return PartitionResult{}, err
	}
	opts.progress("partition %s: cut %v | %v", p.label, res.Majority, res.Minority)
	res.DetectMs = p.convict(sides)
	if !p.measureBlind {
		measureCut()
	}
	b.wait(p.cut - rt.Now().Sub(cutStart))
	load = b.load()
	cutTput := goodput(load.ops, load.errs, rt.Now().Sub(cutStart))

	// Heal: delivery restores at once, and the recovery trigger starts
	// anti-entropy across the former cut.
	prb.to(&prb.discard)
	if err := b.apply(faults.Update{Heal: true}); err != nil {
		return PartitionResult{}, err
	}
	healedAt := rt.Now()
	if p.acquit != nil {
		p.acquit()
	}
	opts.progress("partition %s: healed, watching re-convergence", p.label)
	b.wait(p.postWatch - rt.Now().Sub(healedAt))

	res.Windows = win.finish()
	prb.stop()
	b.stop()
	led := b.ledger()
	res.ProbeBaseline, res.ProbeCut = prb.phases()
	res.ProbeBaseline.DeadlineMs = durMs(p.opTimeout)
	res.ProbeCut.DeadlineMs = durMs(p.opTimeout)
	res.BaselineTputOps, res.CutTputOps = baselineTput, cutTput
	if baselineTput > 0 {
		res.AvailabilityRatio = cutTput / baselineTput
	}
	res.HintsQueued, res.RowsHealed = led.hintsQueued, led.rowsHealed
	res.Groups = assembleGroups(res.Windows, healedAt.Sub(win.start), p.windowLen, p.recoverWindows, p.tols, groupLevels(ctl))
	res.Trace = trace.Events()
	res.Holds = countHolds(res.Trace)
	opts.progress("partition %s: availability %.2f, minority ONE %.2f, holds %d",
		p.label, res.AvailabilityRatio, res.ProbeCut.OneFraction(), res.Holds)
	return res, nil
}

// nodeNames converts member ids to the fault plane's names.
func nodeNames(ids []ring.NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}

// goodput converts an op/err delta over a phase into successful ops/s.
func goodput(ops, errs int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops-errs) / d.Seconds()
}
