package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"harmony/internal/client"
	"harmony/internal/faults"
)

// LiveHotColdSpec parameterizes the live hot/cold experiment — the same
// comparison as HotColdSpec (per-group multi-model controller vs one global
// knob) but over a spawned process cluster.
type LiveHotColdSpec struct {
	Procs int
	RF    int
	// HotKeys / TotalKeys split the keyspace as in the simulated variant.
	HotKeys   int64
	TotalKeys int64
	// HotWorkers / ColdWorkers size the closed-loop client pools.
	HotWorkers, ColdWorkers int
	// HotTolerance / ColdTolerance are the per-group stale targets; the
	// global arm runs everything at the hot tolerance.
	HotTolerance, ColdTolerance float64
	ValueBytes                  int
	// VerifyEvery probes every k-th read with a dual read (§V-F literal).
	VerifyEvery int
	// ControllerBandwidth parameterizes Tp's transfer term. Loopback RTTs
	// are microseconds, so the latency term alone would let the estimator
	// serve everything at ONE; the bandwidth term stands in for the
	// provisioned per-replica bandwidth of a real deployment, exactly as
	// the scenario profiles do for the simulated benches.
	ControllerBandwidth float64
	MonitorInterval     time.Duration
	Warmup, Measure     time.Duration
	// LogDir keeps member logs (empty = temp, removed).
	LogDir string
}

// DefaultLiveHotColdSpec returns a configuration sized for a laptop/CI
// machine: a 5-process cluster and a few seconds of measured load.
func DefaultLiveHotColdSpec() LiveHotColdSpec {
	return LiveHotColdSpec{
		Procs:               5,
		RF:                  3,
		HotKeys:             200,
		TotalKeys:           4000,
		HotWorkers:          5,
		ColdWorkers:         10,
		HotTolerance:        0.05,
		ColdTolerance:       0.60,
		ValueBytes:          3072,
		VerifyEvery:         8,
		ControllerBandwidth: 8 << 20,
		MonitorInterval:     500 * time.Millisecond,
		Warmup:              3 * time.Second,
		Measure:             8 * time.Second,
	}
}

// LiveHotColdResult compares the two controller arms over the live cluster.
type LiveHotColdResult struct {
	Procs     int        `json:"procs"`
	RF        int        `json:"rf"`
	HotKeys   int64      `json:"hot_keys"`
	TotalKeys int64      `json:"total_keys"`
	MeasureMs float64    `json:"measure_ms"`
	PerGroup  HotColdRun `json:"per_group"`
	Global    HotColdRun `json:"global"`
	// ThroughputGain is PerGroup/Global - 1, the headline of the live run.
	ThroughputGain float64 `json:"throughput_gain"`
	// PerGroupSeries / GlobalSeries are the scraped per-second time series
	// of each arm's measured interval, including the merged decision trace.
	PerGroupSeries *LiveSeries `json:"per_group_series,omitempty"`
	GlobalSeries   *LiveSeries `json:"global_series,omitempty"`
}

// Format renders the comparison.
func (r LiveHotColdResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== live hotcold (%d procs, rf=%d, %d hot / %d total keys, %.0fms measured) ==\n",
		r.Procs, r.RF, r.HotKeys, r.TotalKeys, r.MeasureMs)
	formatHotColdRuns(&b, r.PerGroup, r.Global)
	fmt.Fprintf(&b, "throughput gain per-group vs global: %+.0f%%\n", r.ThroughputGain*100)
	return b.String()
}

// LiveHotCold runs both arms against freshly spawned clusters and compares
// them. opts supplies Seed and Progress; the spec supplies durations (live
// runs are time-bounded, not op-bounded — wall clock is real here).
func LiveHotCold(spec LiveHotColdSpec, opts Options) (LiveHotColdResult, error) {
	opts = opts.withDefaults()
	if spec.HotKeys <= 0 || spec.TotalKeys <= spec.HotKeys {
		return LiveHotColdResult{}, fmt.Errorf("bench: live hotcold needs 0 < HotKeys < TotalKeys, got %d/%d", spec.HotKeys, spec.TotalKeys)
	}
	res := LiveHotColdResult{
		Procs: spec.Procs, RF: spec.RF,
		HotKeys: spec.HotKeys, TotalKeys: spec.TotalKeys,
		MeasureMs: durMs(spec.Measure),
	}
	perGroup, perSeries, err := runLiveHotCold(spec, opts, true)
	if err != nil {
		return LiveHotColdResult{}, fmt.Errorf("bench: live hotcold per-group: %w", err)
	}
	global, globalSeries, err := runLiveHotCold(spec, opts, false)
	if err != nil {
		return LiveHotColdResult{}, fmt.Errorf("bench: live hotcold global: %w", err)
	}
	res.PerGroup, res.Global = perGroup, global
	res.PerGroupSeries, res.GlobalSeries = perSeries, globalSeries
	res.RF = max(spec.RF, 1)
	if global.ThroughputOps > 0 {
		res.ThroughputGain = perGroup.ThroughputOps/global.ThroughputOps - 1
	}
	opts.progress("live hotcold: per-group %.0f vs global %.0f ops/s (%+.0f%%)",
		perGroup.ThroughputOps, global.ThroughputOps, res.ThroughputGain*100)
	return res, nil
}

// runLiveHotCold measures one arm: spawn, preload, warm up, measure. The
// returned series is the scraped per-second view of the measured interval.
func runLiveHotCold(spec LiveHotColdSpec, opts Options, perGroup bool) (HotColdRun, *LiveSeries, error) {
	arm := "global"
	if perGroup {
		arm = "per-group"
	}
	lc, err := StartLiveCluster(LiveClusterConfig{
		Procs: spec.Procs, RF: spec.RF,
		HotKeys: spec.HotKeys, Streams: liveStreams,
		LogDir: spec.LogDir,
	})
	if err != nil {
		return HotColdRun{}, nil, err
	}
	opts.progress("live hotcold %s: %d procs up, preloading %d keys", arm, spec.Procs, spec.TotalKeys)
	// Two models with split tolerances (per-group), or one global model at
	// the hot tolerance.
	tols := []float64{spec.HotTolerance, spec.ColdTolerance}
	models := tols
	if !perGroup {
		models = tols[:1]
	}
	b, err := newLiveBackend(lc, hotColdController("live-hotcold", lc.RF(), spec.ControllerBandwidth, spec.HotKeys, models, nil), spec.MonitorInterval, loadPools{
		hotKeys: spec.HotKeys, totalKeys: spec.TotalKeys,
		hot: spec.HotWorkers, cold: spec.ColdWorkers,
		valueBytes: spec.ValueBytes, verifyEvery: spec.VerifyEvery,
		timeout: 2 * time.Second, seed: opts.Seed,
	})
	if err != nil {
		return HotColdRun{}, nil, err
	}
	defer b.close()
	b.start()
	b.wait(spec.Warmup)
	b.resetLoad()
	b.wait(spec.Measure)
	load := b.stop()
	run := HotColdRun{
		Policy:        arm,
		ThroughputOps: load.tput,
		Operations:    load.ops,
		Errors:        load.errs,
		ReadP99Ms:     float64(b.final.readP99) / 1e6,
		Groups:        hotColdGroups(tols, b.final.opCounts, groupLevels(b.ctl)),
	}
	return run, b.series, nil
}

// LiveChurnSpec parameterizes the live failure/churn experiment: a member
// is killed with SIGKILL mid-run, restarted empty, and the per-group
// staleness trajectory is watched while repair (or hints alone) heals it.
type LiveChurnSpec struct {
	Procs int
	RF    int
	// HotKeys / TotalKeys split the keyspace as in hotcold.
	HotKeys   int64
	TotalKeys int64
	// HotWorkers / ColdWorkers size the closed-loop pools.
	HotWorkers, ColdWorkers int
	// HotTolerance / ColdTolerance are the per-group stale targets.
	HotTolerance, ColdTolerance float64
	ValueBytes                  int
	// VerifyEvery probes every k-th read (staleness windows need density).
	VerifyEvery int
	// OpTimeout keeps workers cycling while the victim is down.
	OpTimeout time.Duration
	// ControllerBandwidth: see LiveHotColdSpec.
	ControllerBandwidth float64
	MonitorInterval     time.Duration
	GossipInterval      time.Duration
	// Warmup precedes measurement; Baseline is watched before the kill;
	// Outage is how long the victim stays dead; PostWatch how long recovery
	// is observed after the restart.
	Warmup, Baseline, Outage, PostWatch time.Duration
	// WindowLen is the staleness window; RecoverWindows the consecutive
	// within-tolerance windows that declare a group recovered.
	WindowLen      time.Duration
	RecoverWindows int
	// HintQueueLimit caps hints so the outage genuinely loses data.
	HintQueueLimit int
	// RepairInterval tunes anti-entropy cadence in the repair arm.
	RepairInterval time.Duration
	LogDir         string
}

// DefaultLiveChurnSpec returns the standard live failure schedule: a
// 5-process RF=4 cluster (a recovered replica's divergence is visible to a
// large share of CL=ONE reads), a 3s SIGKILL outage, capped hints.
func DefaultLiveChurnSpec() LiveChurnSpec {
	return LiveChurnSpec{
		Procs:               5,
		RF:                  4,
		HotKeys:             200,
		TotalKeys:           3000,
		HotWorkers:          4,
		ColdWorkers:         8,
		HotTolerance:        0.05,
		ColdTolerance:       0.50,
		ValueBytes:          256,
		VerifyEvery:         2,
		OpTimeout:           750 * time.Millisecond,
		ControllerBandwidth: 1 << 20,
		MonitorInterval:     400 * time.Millisecond,
		GossipInterval:      200 * time.Millisecond,
		Warmup:              2 * time.Second,
		Baseline:            2 * time.Second,
		Outage:              3 * time.Second,
		PostWatch:           8 * time.Second,
		WindowLen:           500 * time.Millisecond,
		RecoverWindows:      4,
		HintQueueLimit:      200,
		RepairInterval:      500 * time.Millisecond,
	}
}

// LiveChurnResult compares three recovery modes over identical live failure
// schedules: anti-entropy repair, hints alone, and a persistent restart
// where the victim recovers its pre-crash rows from its bitcask data dir.
type LiveChurnResult struct {
	Procs     int      `json:"procs"`
	RF        int      `json:"rf"`
	Victim    string   `json:"victim"`
	HotKeys   int64    `json:"hot_keys"`
	TotalKeys int64    `json:"total_keys"`
	OutageMs  float64  `json:"outage_ms"`
	Repair    ChurnRun `json:"repair"`
	HintsOnly ChurnRun `json:"hints_only"`
	Persist   ChurnRun `json:"persist"`
	// *Series are the scraped per-second time series of each arm's measured
	// interval (baseline through post-watch), including the decision trace.
	RepairSeries    *LiveSeries `json:"repair_series,omitempty"`
	HintsOnlySeries *LiveSeries `json:"hints_only_series,omitempty"`
	PersistSeries   *LiveSeries `json:"persist_series,omitempty"`
}

// Format renders the comparison.
func (r LiveChurnResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== live churn (%d procs, rf=%d, victim %s killed for %.0fms, %d hot / %d total keys) ==\n",
		r.Procs, r.RF, r.Victim, r.OutageMs, r.HotKeys, r.TotalKeys)
	formatChurnRuns(&b, r.Repair, r.HintsOnly, r.Persist)
	return b.String()
}

// LiveChurn runs the failure schedule for all three recovery modes over
// freshly spawned live clusters: repair, hints-only, and persistent restart.
func LiveChurn(spec LiveChurnSpec, opts Options) (LiveChurnResult, error) {
	opts = opts.withDefaults()
	if spec.HotKeys <= 0 || spec.TotalKeys <= spec.HotKeys {
		return LiveChurnResult{}, fmt.Errorf("bench: live churn needs 0 < HotKeys < TotalKeys, got %d/%d", spec.HotKeys, spec.TotalKeys)
	}
	if spec.WindowLen <= 0 || spec.Outage <= 0 || spec.PostWatch < spec.WindowLen {
		return LiveChurnResult{}, fmt.Errorf("bench: live churn needs positive WindowLen/Outage and PostWatch >= WindowLen")
	}
	res := LiveChurnResult{
		Procs: spec.Procs, RF: spec.RF,
		HotKeys: spec.HotKeys, TotalKeys: spec.TotalKeys,
		OutageMs: durMs(spec.Outage),
	}
	var err error
	if res.Repair, res.RepairSeries, res.Victim, err = runLiveChurn(spec, opts, "repair"); err != nil {
		return LiveChurnResult{}, fmt.Errorf("bench: live churn repair: %w", err)
	}
	if res.HintsOnly, res.HintsOnlySeries, _, err = runLiveChurn(spec, opts, "hints-only"); err != nil {
		return LiveChurnResult{}, fmt.Errorf("bench: live churn hints-only: %w", err)
	}
	if res.Persist, res.PersistSeries, _, err = runLiveChurn(spec, opts, "persist"); err != nil {
		return LiveChurnResult{}, fmt.Errorf("bench: live churn persist: %w", err)
	}
	opts.progress("live churn: post-stale hot/cold — repair %.3f/%.3f, hints-only %.3f/%.3f, persist %.3f/%.3f (%d rows recovered)",
		res.Repair.Groups[0].PostFraction, res.Repair.Groups[1].PostFraction,
		res.HintsOnly.Groups[0].PostFraction, res.HintsOnly.Groups[1].PostFraction,
		res.Persist.Groups[0].PostFraction, res.Persist.Groups[1].PostFraction,
		res.Persist.RowsRecovered)
	return res, nil
}

// runLiveChurn spawns one arm's cluster — anti-entropy on every member in
// the "repair" arm, bitcask data dirs on group commit in the "persist" arm,
// so the victim restarts with its pre-crash rows — and runs the failure
// schedule on it. Every other arm's victim restarts empty.
func runLiveChurn(spec LiveChurnSpec, opts Options, arm string) (ChurnRun, *LiveSeries, string, error) {
	dataDir := ""
	if arm == "persist" {
		dir, err := os.MkdirTemp("", "harmony-churn-data-*")
		if err != nil {
			return ChurnRun{}, nil, "", fmt.Errorf("bench: churn data dir: %w", err)
		}
		defer os.RemoveAll(dir)
		dataDir = dir
	}
	lc, err := StartLiveCluster(LiveClusterConfig{
		Procs: spec.Procs, RF: spec.RF,
		GossipInterval: spec.GossipInterval,
		Repair:         arm == "repair", RepairInterval: spec.RepairInterval,
		HotKeys: spec.HotKeys, HintQueueLimit: spec.HintQueueLimit,
		Streams: liveStreams, DataDir: dataDir,
		LogDir: spec.LogDir,
	})
	if err != nil {
		return ChurnRun{}, nil, "", err
	}
	opts.progress("live churn %s: %d procs up, preloading %d keys", arm, spec.Procs, spec.TotalKeys)
	tols := []float64{spec.HotTolerance, spec.ColdTolerance}
	b, err := newLiveBackend(lc, hotColdController("live-churn", lc.RF(), spec.ControllerBandwidth, spec.HotKeys, tols, nil), spec.MonitorInterval, loadPools{
		hotKeys: spec.HotKeys, totalKeys: spec.TotalKeys,
		hot: spec.HotWorkers, cold: spec.ColdWorkers,
		valueBytes: spec.ValueBytes, verifyEvery: spec.VerifyEvery,
		timeout: spec.OpTimeout, seed: opts.Seed,
	})
	if err != nil {
		return ChurnRun{}, nil, "", err
	}
	defer b.close()
	victim := lc.IDs()[1]
	run, err := runChurnSchedule(b, b.ctl, churnPlan{
		arm: arm, victim: victim,
		warmup: spec.Warmup, baseline: spec.Baseline, outage: spec.Outage, postWatch: spec.PostWatch,
		windowLen: spec.WindowLen, recoverWindows: spec.RecoverWindows, tols: tols,
	}, opts)
	return run, b.series, string(victim), err
}

// The live partition experiment runs the same contract as the simulated one
// against spawned server processes: the cut is installed at runtime by
// POSTing the same faults.Update JSON the admin endpoint accepts to every
// member's /faults, gossip does the failure detection for real (no injected
// liveness view), and the heal is another POST. Full replication (RF =
// Procs) keeps the availability argument constructive: every key has a
// replica on both sides of any split, so CL=ONE stays answerable from the
// minority while quorum work there must refuse.

// LivePartitionSpec parameterizes the live partition experiment.
type LivePartitionSpec struct {
	Procs int
	// MinorityNodes land on the small side of the cut.
	MinorityNodes int
	// HotKeys / TotalKeys split the keyspace as in hotcold.
	HotKeys   int64
	TotalKeys int64
	// HotWorkers / ColdWorkers size the majority-side closed-loop pools.
	HotWorkers, ColdWorkers int
	// HotTolerance / ColdTolerance are the per-group stale targets.
	HotTolerance, ColdTolerance float64
	ValueBytes                  int
	// VerifyEvery probes every k-th read (staleness windows need density).
	VerifyEvery int
	// OpTimeout bounds every client operation (the fail-fast pin).
	OpTimeout time.Duration
	// ProbeInterval is the minority prober's cadence.
	ProbeInterval time.Duration
	// ControllerBandwidth: see LiveHotColdSpec.
	ControllerBandwidth float64
	MonitorInterval     time.Duration
	// GossipInterval tunes detection speed: the minority must convict the
	// majority (and vice versa) well inside the cut.
	GossipInterval time.Duration
	// DetectTimeout bounds how long the experiment waits for the majority's
	// detectors to convict the cut before starting the cut measurement; it
	// doubles as the contract's DetectBoundMs pin on the blind window.
	DetectTimeout time.Duration
	// Warmup precedes measurement; Baseline is watched before the cut, Cut
	// is how long the partition holds, PostWatch the re-convergence watch.
	Warmup, Baseline, Cut, PostWatch time.Duration
	WindowLen                        time.Duration
	RecoverWindows                   int
	HintQueueLimit                   int
	RepairInterval                   time.Duration
	LogDir                           string
}

// DefaultLivePartitionSpec returns the standard live schedule: a 5-process
// fully replicated cluster split 3/2 for 6 seconds.
func DefaultLivePartitionSpec() LivePartitionSpec {
	return LivePartitionSpec{
		Procs:               5,
		MinorityNodes:       2,
		HotKeys:             200,
		TotalKeys:           3000,
		HotWorkers:          4,
		ColdWorkers:         8,
		HotTolerance:        0.05,
		ColdTolerance:       0.50,
		ValueBytes:          256,
		VerifyEvery:         2,
		OpTimeout:           750 * time.Millisecond,
		ProbeInterval:       100 * time.Millisecond,
		ControllerBandwidth: 1 << 20,
		MonitorInterval:     400 * time.Millisecond,
		GossipInterval:      150 * time.Millisecond,
		DetectTimeout:       5 * time.Second,
		Warmup:              2 * time.Second,
		Baseline:            2 * time.Second,
		Cut:                 6 * time.Second,
		PostWatch:           8 * time.Second,
		WindowLen:           500 * time.Millisecond,
		RecoverWindows:      4,
		HintQueueLimit:      2_000,
		RepairInterval:      500 * time.Millisecond,
	}
}

// LivePartition runs the partition experiment over a spawned cluster and
// returns the shared PartitionResult (Backend "live").
func LivePartition(spec LivePartitionSpec, opts Options) (PartitionResult, error) {
	opts = opts.withDefaults()
	if spec.HotKeys <= 0 || spec.TotalKeys <= spec.HotKeys {
		return PartitionResult{}, fmt.Errorf("bench: live partition needs 0 < HotKeys < TotalKeys, got %d/%d", spec.HotKeys, spec.TotalKeys)
	}
	if spec.MinorityNodes <= 0 || spec.MinorityNodes >= spec.Procs-spec.MinorityNodes {
		return PartitionResult{}, fmt.Errorf("bench: live partition needs 0 < MinorityNodes < Procs/2, got %d/%d", spec.MinorityNodes, spec.Procs)
	}
	lc, err := StartLiveCluster(LiveClusterConfig{
		Procs: spec.Procs, RF: spec.Procs,
		GossipInterval: spec.GossipInterval,
		Repair:         true, RepairInterval: spec.RepairInterval,
		HotKeys: spec.HotKeys, HintQueueLimit: spec.HintQueueLimit,
		Streams: liveStreams,
		LogDir:  spec.LogDir,
	})
	if err != nil {
		return PartitionResult{}, err
	}
	ids := lc.IDs()
	majority, minority := ids[:len(ids)-spec.MinorityNodes], ids[len(ids)-spec.MinorityNodes:]
	opts.progress("live partition: %d procs up (rf=%d), preloading %d keys", spec.Procs, spec.Procs, spec.TotalKeys)
	tols := []float64{spec.HotTolerance, spec.ColdTolerance}
	b, err := newLiveBackend(lc, hotColdController("live-partition", lc.RF(), spec.ControllerBandwidth, spec.HotKeys, tols, nil), spec.MonitorInterval, loadPools{
		hotKeys: spec.HotKeys, totalKeys: spec.TotalKeys,
		hot: spec.HotWorkers, cold: spec.ColdWorkers,
		valueBytes: spec.ValueBytes, verifyEvery: spec.VerifyEvery,
		timeout: spec.OpTimeout, coords: majority, seed: opts.Seed,
	})
	if err != nil {
		return PartitionResult{}, err
	}
	defer b.close()
	tcp, err := b.endpoint("part-probe")
	if err != nil {
		return PartitionResult{}, err
	}
	drv, err := client.New(probeOptions(minority, spec.OpTimeout), b.rt, tcp)
	if err != nil {
		return PartitionResult{}, err
	}
	tcp.SetHandler(drv)
	prb := startProber(b.rt, drv, spec.TotalKeys, spec.ProbeInterval)

	res, err := runPartitionSchedule(b, b.ctl, b.trace, prb, partitionPlan{
		label:    fmt.Sprintf("live-%dproc", spec.Procs),
		majority: majority, minority: minority,
		warmup: spec.Warmup, baseline: spec.Baseline, cut: spec.Cut, postWatch: spec.PostWatch,
		windowLen: spec.WindowLen, recoverWindows: spec.RecoverWindows, tols: tols,
		opTimeout: spec.OpTimeout,
		// Gossip convicts the far side on its own. Until it does, any
		// operation whose replica choice touches a cut peer burns its full
		// deadline: that blind window is phi-accrual physics, so the cut is
		// measured only once every majority member reports a shrunken alive
		// count, and the window's length is pinned separately (DetectMs).
		// Probes until then are discarded: a quorum probe straddling the
		// POST loop may still legitimately succeed, and must not book into
		// the cut tally where any success is scored as split brain.
		convict: func(faults.PartitionSpec) float64 {
			start := time.Now()
			for time.Since(start) < spec.DetectTimeout {
				if a := b.maxAliveOf(majority); a > 0 && a <= len(majority) {
					detectMs := durMs(time.Since(start))
					opts.progress("live partition: majority convicted the cut in %.0fms", detectMs)
					time.Sleep(spec.OpTimeout) // drain ops issued against the pre-conviction view
					return detectMs
				}
				time.Sleep(50 * time.Millisecond)
			}
			opts.progress("live partition: majority never convicted the cut within %v", spec.DetectTimeout)
			time.Sleep(spec.OpTimeout)
			return -1
		},
	}, opts)
	if err != nil {
		return PartitionResult{}, err
	}
	res.Backend, res.Scenario, res.RF = "live", fmt.Sprintf("live-%dproc", spec.Procs), spec.Procs
	res.DetectBoundMs = durMs(spec.DetectTimeout)
	res.Series = b.series
	return res, nil
}

// postFaults ships an Update to one member's admin /faults endpoint.
func postFaults(admin string, upd faults.Update) error {
	body, err := json.Marshal(upd)
	if err != nil {
		return err
	}
	resp, err := http.Post("http://"+admin+"/faults", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s/faults: %d %s", admin, resp.StatusCode, msg)
	}
	return nil
}
