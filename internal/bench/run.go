package bench

import (
	"fmt"
	"time"

	"harmony/internal/core"
	"harmony/internal/ycsb"
)

// RunSpec fully determines one measurement point.
type RunSpec struct {
	Scenario Scenario
	Policy   PolicySpec
	Workload ycsb.Workload
	Threads  int
	Ops      int64
	Seed     int64
	// ArrivalRate, when positive, drives the run open-loop: Poisson
	// arrivals at this aggregate rate instead of the closed thread loop.
	ArrivalRate float64
}

// RunResult is one completed measurement point.
type RunResult struct {
	Spec      RunSpec
	Report    ycsb.Report
	decisions []core.Decision // Harmony's trace (empty for static policies)
}

// RunPolicy executes one point: build the cluster, wire the policy (with
// monitor + controller for Harmony), load the records, drive the workload to
// the op budget and report.
func RunPolicy(spec RunSpec) (RunResult, error) {
	if spec.Ops <= 0 {
		return RunResult{}, fmt.Errorf("bench: op budget required")
	}
	s, c, undo, err := buildSim(spec.Seed, spec.Scenario, spec.Scenario.Spec)
	if err != nil {
		return RunResult{}, err
	}
	defer undo()
	policy, ctl := spec.Policy.policy(spec.Scenario.Spec.RF, spec.Workload, spec.Scenario.Spec.Profile)
	var mon *core.Monitor
	if ctl != nil {
		mon = simMonitor(s, c, core.MonitorConfig{
			Interval:       spec.Scenario.MonitorInterval,
			ReplicaSetSize: spec.Scenario.Spec.RF,
			OnObservation:  ctl.Observe,
		})
		mon.Start()
	}
	runner, err := ycsb.NewRunner(ycsb.RunConfig{
		Workload:    spec.Workload,
		Threads:     spec.Threads,
		Policy:      policy,
		ShadowEvery: 5, // sample 20% of reads for the staleness probe
		Seed:        spec.Seed,
		ArrivalRate: spec.ArrivalRate,
	}, s, c)
	if err != nil {
		return RunResult{}, err
	}
	runner.Load()
	// Warm up long enough for several monitor rounds so Harmony reaches
	// its steady consistency level before measurement starts.
	warmup := 6 * spec.Scenario.MonitorInterval
	if warmup < time.Second {
		warmup = time.Second
	}
	report, err := runner.RunMeasured(warmup, spec.Ops)
	if err != nil {
		return RunResult{}, err
	}
	if mon != nil {
		mon.Stop()
	}
	res := RunResult{Spec: spec, Report: report}
	if ctl != nil {
		res.decisions = ctl.History()
	}
	return res, nil
}

// Grid is the full (policy × threads) measurement matrix for one scenario;
// figures 5(a-d) and 6(a-b) are different projections of it.
type Grid struct {
	Scenario Scenario
	policies []PolicySpec
	Threads  []int
	// Results indexed [policy][thread].
	Results [][]RunResult
}

// Options tune experiment cost; zero values select defaults, except Seed,
// where zero is a seed like any other.
type Options struct {
	// OpsPerPoint is the operation budget per measurement point
	// (default 30000). The paper ran 3M (Grid'5000) / 10M (EC2); rates and
	// percentiles converge far earlier, and the CLI can raise this.
	OpsPerPoint int64
	// Threads overrides the thread sweep.
	Threads []int
	// Seed feeds all randomness.
	Seed int64
	// PhaseDuration is the virtual time per thread phase in Fig. 4(a);
	// zero selects defaultFig4aPhase.
	PhaseDuration time.Duration
	// ArrivalRate, when positive, drives every measurement point open
	// loop: Poisson arrivals at this aggregate ops/s instead of the
	// paper's closed thread loop.
	ArrivalRate float64
	// Progress, when set, receives one line per completed point.
	Progress func(string)
}

func (o Options) withDefaults() Options {
	if o.OpsPerPoint <= 0 {
		o.OpsPerPoint = 30000
	}
	if len(o.Threads) == 0 {
		o.Threads = threadSweep
	}
	return o
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// RunGrid measures every (policy, threads) combination of a scenario under
// Workload-A, the paper's evaluation workload.
func RunGrid(sc Scenario, policies []PolicySpec, opts Options) (Grid, error) {
	opts = opts.withDefaults()
	g := Grid{Scenario: sc, policies: policies, Threads: opts.Threads}
	for pi, pol := range policies {
		row := make([]RunResult, 0, len(opts.Threads))
		for ti, th := range opts.Threads {
			spec := RunSpec{
				Scenario:    sc,
				Policy:      pol,
				Workload:    ycsb.WorkloadA(),
				Threads:     th,
				Ops:         opts.OpsPerPoint,
				Seed:        opts.Seed + int64(pi*1000+ti),
				ArrivalRate: opts.ArrivalRate,
			}
			res, err := RunPolicy(spec)
			if err != nil {
				return Grid{}, fmt.Errorf("bench: %s/%s/%d threads: %w", sc.Name, pol.Name(), th, err)
			}
			opts.progress("%s %-14s threads=%-3d tput=%8.0f ops/s p99=%8s stale=%d/%d",
				sc.Name, pol.Name(), th, res.Report.ThroughputOps,
				res.Report.ReadLatency.P99().Round(10*time.Microsecond),
				res.Report.StaleReads, res.Report.ShadowSamples)
			row = append(row, res)
		}
		g.Results = append(g.Results, row)
	}
	return g, nil
}

// LatencyFigure projects the grid onto Fig. 5(a)/(b): 99th-percentile read
// latency (ms) against client threads.
func (g Grid) LatencyFigure(id string) Figure {
	f := Figure{
		ID:     id,
		Title:  fmt.Sprintf("99th percentile read latency vs client threads (%s)", g.Scenario.Name),
		XLabel: "threads",
		YLabel: "99th percentile latency (ms)",
	}
	for pi, pol := range g.policies {
		s := Series{Name: pol.Name()}
		for ti, th := range g.Threads {
			p99 := g.Results[pi][ti].Report.ReadLatency.P99()
			s.Points = append(s.Points, Point{X: float64(th), Y: float64(p99) / 1e6})
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// ThroughputFigure projects the grid onto Fig. 5(c)/(d): operations per
// second against client threads.
func (g Grid) ThroughputFigure(id string) Figure {
	f := Figure{
		ID:     id,
		Title:  fmt.Sprintf("throughput vs client threads (%s)", g.Scenario.Name),
		XLabel: "threads",
		YLabel: "throughput (ops/s)",
	}
	for pi, pol := range g.policies {
		s := Series{Name: pol.Name()}
		for ti, th := range g.Threads {
			s.Points = append(s.Points, Point{X: float64(th), Y: g.Results[pi][ti].Report.ThroughputOps})
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// StalenessFigure projects the grid onto Fig. 6(a)/(b): the number of stale
// reads measured by the dual-read probe against client threads. Counts are
// normalized per 100k reads so different op budgets remain comparable.
func (g Grid) StalenessFigure(id string) Figure {
	f := Figure{
		ID:     id,
		Title:  fmt.Sprintf("stale reads vs client threads (%s)", g.Scenario.Name),
		XLabel: "threads",
		YLabel: "stale reads per 100k reads",
	}
	for pi, pol := range g.policies {
		s := Series{Name: pol.Name()}
		for ti, th := range g.Threads {
			rep := g.Results[pi][ti].Report
			y := 0.0
			if rep.ShadowSamples > 0 {
				y = float64(rep.StaleReads) / float64(rep.ShadowSamples) * 100000
			}
			s.Points = append(s.Points, Point{X: float64(th), Y: y})
		}
		f.Series = append(f.Series, s)
	}
	return f
}
