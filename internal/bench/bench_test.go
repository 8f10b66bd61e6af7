package bench

import (
	"strings"
	"testing"
	"time"

	"harmony/internal/ycsb"
)

// quickOpts keeps in-test experiment cost low while still exercising the
// full pipeline (cluster, workload, monitor, controller, figures).
func quickOpts() Options {
	return Options{
		OpsPerPoint:   4000,
		Threads:       []int{4, 40},
		Seed:          1,
		PhaseDuration: 2 * time.Second,
	}
}

func TestFigureFormatAndCSV(t *testing.T) {
	f := Figure{
		ID: "figx", Title: "test", XLabel: "threads", YLabel: "ops/s",
		Series: []Series{
			{Name: "a", Points: []Point{{X: 1, Y: 10}, {X: 2, Y: 20}}},
			{Name: "b", Points: []Point{{X: 1, Y: 30}}},
		},
	}
	out := f.Format()
	for _, want := range []string{"figx", "threads", "a", "b", "10", "30", "ops/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
	// Missing point renders as '-'.
	if !strings.Contains(out, "-") {
		t.Fatalf("missing point not rendered:\n%s", out)
	}
	csv := f.CSV()
	if !strings.Contains(csv, "figx,a,1,10") {
		t.Fatalf("CSV malformed:\n%s", csv)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 { // header + 3 points
		t.Fatalf("CSV has %d lines", len(lines))
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]PolicySpec{
		"Eventual":    {Kind: PolicyEventual},
		"Strong":      {Kind: PolicyStrong},
		"Harmony-20%": {Kind: PolicyHarmony, Tolerance: 0.2},
	}
	for want, p := range cases {
		if got := p.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

// TestSeedZeroIsItsOwnSeed: seed 0 must not be mapped onto another seed,
// or a sweep over seeds 0..N would run one of them twice.
func TestSeedZeroIsItsOwnSeed(t *testing.T) {
	run := func(seed int64) RunResult {
		g, err := RunGrid(Grid5000(), []PolicySpec{{Kind: PolicyEventual}},
			Options{OpsPerPoint: 500, Threads: []int{4}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return g.Results[0][0]
	}
	zero, one := run(0), run(1)
	if zero.Spec.Seed != 0 {
		t.Fatalf("seed 0 ran as seed %d", zero.Spec.Seed)
	}
	if zero.Report.ReadLatency.Mean() == one.Report.ReadLatency.Mean() {
		t.Fatal("seeds 0 and 1 produced the same run")
	}
}

func TestScenarios(t *testing.T) {
	g, e := Grid5000(), EC2()
	if g.Name != "grid5000" || e.Name != "ec2" {
		t.Fatal("scenario names")
	}
	if g.HarmonyTolerances != [2]float64{0.20, 0.40} {
		t.Fatalf("grid5000 tolerances = %v", g.HarmonyTolerances)
	}
	if e.HarmonyTolerances != [2]float64{0.40, 0.60} {
		t.Fatalf("ec2 tolerances = %v", e.HarmonyTolerances)
	}
	pols := StandardPolicies(g)
	if len(pols) != 4 {
		t.Fatalf("standard policies = %d", len(pols))
	}
}

func TestRunPolicyValidation(t *testing.T) {
	if _, err := RunPolicy(RunSpec{Scenario: Grid5000(), Workload: ycsb.WorkloadA(), Threads: 1}); err == nil {
		t.Fatal("zero op budget accepted")
	}
}

func TestRunPolicyEventualVsStrong(t *testing.T) {
	sc := Grid5000()
	ev, err := RunPolicy(RunSpec{
		Scenario: sc, Policy: PolicySpec{Kind: PolicyEventual},
		Workload: ycsb.WorkloadA(), Threads: 40, Ops: 6000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunPolicy(RunSpec{
		Scenario: sc, Policy: PolicySpec{Kind: PolicyStrong},
		Workload: ycsb.WorkloadA(), Threads: 40, Ops: 6000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's core ordering: strong has zero stale reads and lower
	// throughput; eventual has stale reads and lower read latency.
	if st.Report.StaleReads != 0 {
		t.Fatalf("strong run had %d stale reads", st.Report.StaleReads)
	}
	if ev.Report.StaleReads == 0 {
		t.Fatal("eventual run had zero stale reads — staleness not modeled")
	}
	if ev.Report.ThroughputOps <= st.Report.ThroughputOps {
		t.Fatalf("eventual tput %.0f <= strong %.0f", ev.Report.ThroughputOps, st.Report.ThroughputOps)
	}
	if ev.Report.ReadLatency.P99() >= st.Report.ReadLatency.P99() {
		t.Fatalf("eventual p99 %v >= strong %v", ev.Report.ReadLatency.P99(), st.Report.ReadLatency.P99())
	}
	if len(ev.Decisions) != 0 {
		t.Fatal("static policy produced decisions")
	}
}

func TestRunPolicyHarmonyAdapts(t *testing.T) {
	res, err := RunPolicy(RunSpec{
		Scenario: Grid5000(),
		Policy:   PolicySpec{Kind: PolicyHarmony, Tolerance: 0.05},
		Workload: ycsb.WorkloadA(), Threads: 60, Ops: 8000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) == 0 {
		t.Fatal("no controller decisions recorded")
	}
	// A 5% tolerance under a 60-thread update-heavy load must escalate.
	sawEscalation := false
	for _, d := range res.Decisions {
		if d.Xn > 1 {
			sawEscalation = true
		}
	}
	if !sawEscalation {
		t.Fatal("Harmony-5% never escalated above ONE")
	}
	// And the escalation must buy fewer stale reads than eventual.
	ev, err := RunPolicy(RunSpec{
		Scenario: Grid5000(), Policy: PolicySpec{Kind: PolicyEventual},
		Workload: ycsb.WorkloadA(), Threads: 60, Ops: 8000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	hRate := ratio(res.Report.StaleReads, res.Report.ShadowSamples)
	eRate := ratio(ev.Report.StaleReads, ev.Report.ShadowSamples)
	if hRate >= eRate {
		t.Fatalf("Harmony-5%% stale rate %.4f not below eventual %.4f", hRate, eRate)
	}
}

func TestRunGridShape(t *testing.T) {
	opts := quickOpts()
	g, err := RunGrid(Grid5000(), []PolicySpec{{Kind: PolicyEventual}, {Kind: PolicyStrong}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Results) != 2 || len(g.Results[0]) != 2 {
		t.Fatalf("grid shape = %dx%d", len(g.Results), len(g.Results[0]))
	}
	lat := g.LatencyFigure("fig5a")
	tput := g.ThroughputFigure("fig5c")
	stale := g.StalenessFigure("fig6a")
	for _, f := range []Figure{lat, tput, stale} {
		if len(f.Series) != 2 {
			t.Fatalf("%s has %d series", f.ID, len(f.Series))
		}
		for _, s := range f.Series {
			if len(s.Points) != 2 {
				t.Fatalf("%s/%s has %d points", f.ID, s.Name, len(s.Points))
			}
		}
	}
	// Throughput must grow with threads for both policies.
	for _, s := range tput.Series {
		if s.Points[1].Y <= s.Points[0].Y {
			t.Fatalf("throughput not increasing from 4 to 40 threads: %+v", s)
		}
	}
}

func TestFig4aSeries(t *testing.T) {
	opts := quickOpts()
	fig, err := Fig4a(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("fig4a series = %d, want workload A and B", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) < 5 {
			t.Fatalf("series %s has only %d samples", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y < 0 || p.Y > 1 {
				t.Fatalf("estimate out of range: %v", p.Y)
			}
		}
	}
	// The paper's robust Fig. 4(a) claim: the estimate decreases as the
	// thread count steps down, for both workloads. Compare the first
	// phase's average against the last phase's.
	for _, s := range fig.Series {
		third := len(s.Points) / 3
		if third == 0 {
			t.Fatalf("series %s too short", s.Name)
		}
		head, tail := 0.0, 0.0
		for _, p := range s.Points[:third] {
			head += p.Y
		}
		for _, p := range s.Points[len(s.Points)-third:] {
			tail += p.Y
		}
		if head <= tail {
			t.Fatalf("series %s estimate did not decrease with threads: head=%.3f tail=%.3f",
				s.Name, head/float64(third), tail/float64(third))
		}
	}
	// Weak A-vs-B sanity: the closed form puts A at or slightly above B at
	// equal offered load; allow measurement noise but catch inversions.
	avg := func(s Series) float64 {
		sum := 0.0
		for _, p := range s.Points {
			sum += p.Y
		}
		return sum / float64(len(s.Points))
	}
	if a, b := avg(fig.Series[0]), avg(fig.Series[1]); a < 0.7*b {
		t.Fatalf("workload A estimate (%.3f) far below workload B (%.3f)", a, b)
	}
}

func TestFig4bMonotoneInLatency(t *testing.T) {
	est1, err := fig4bPoint(time.Millisecond, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	est2, err := fig4bPoint(30*time.Millisecond, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if est2 <= est1 {
		t.Fatalf("estimate at 30ms (%.3f) not above 1ms (%.3f)", est2, est1)
	}
	if est1 < 0 || est2 > 1 {
		t.Fatalf("estimates out of range: %v %v", est1, est2)
	}
}

func TestHeadlineComputesRatios(t *testing.T) {
	opts := quickOpts()
	opts.OpsPerPoint = 6000
	sum, err := Headline(Grid5000(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.EventualStale == 0 {
		t.Fatal("eventual baseline had no stale reads")
	}
	if sum.StaleReductionVsEventual <= 0 {
		t.Fatalf("no stale reduction: %+v", sum)
	}
	if sum.ThroughputGainVsStrong <= 0 {
		t.Fatalf("no throughput gain over strong: %+v", sum)
	}
	out := sum.Format()
	if !strings.Contains(out, "stale reads") || !strings.Contains(out, "throughput") {
		t.Fatalf("format missing sections:\n%s", out)
	}
}

func TestScenarioRegistry(t *testing.T) {
	ss := Scenarios()
	for _, name := range []string{"grid5000", "ec2", "wan-heavytail", "degraded", "congested-bimodal", "drifting"} {
		sc, ok := ss[name]
		if !ok {
			t.Fatalf("registry missing scenario %q", name)
		}
		if sc.Name != name || sc.Spec.Profile.Name != name {
			t.Fatalf("scenario %q mismatched: profile %q", name, sc.Spec.Profile.Name)
		}
		if sc.MonitorInterval <= 0 || sc.HarmonyTolerances[0] <= 0 {
			t.Fatalf("scenario %q not fully configured: %+v", name, sc)
		}
	}
	if len(ss) != 6 {
		t.Fatalf("registry has %d scenarios, want 6", len(ss))
	}
	if ss["drifting"].Prepare == nil {
		t.Fatal("drifting scenario has no Prepare hook")
	}
}

// TestHotColdPerGroupBeatsGlobal pins the tentpole acceptance criterion:
// per-group adaptation achieves throughput at least matching the global
// Harmony controller while every group's measured staleness stays within
// its tolerance.
func TestHotColdPerGroupBeatsGlobal(t *testing.T) {
	spec := DefaultHotColdSpec()
	res, err := HotCold(spec, Options{OpsPerPoint: 12000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	if res.PerGroup.ThroughputOps < res.Global.ThroughputOps {
		t.Fatalf("per-group throughput %.0f below global %.0f",
			res.PerGroup.ThroughputOps, res.Global.ThroughputOps)
	}
	if len(res.PerGroup.Groups) != 2 {
		t.Fatalf("groups = %+v", res.PerGroup.Groups)
	}
	for _, g := range res.PerGroup.Groups {
		if !g.WithinTolerance {
			t.Fatalf("per-group run: %s staleness %.3f exceeds tolerance %.2f",
				g.Name, g.StaleFraction, g.Tolerance)
		}
		if g.ShadowSamples == 0 {
			t.Fatalf("%s group never probed", g.Name)
		}
	}
	// The differentiation that buys the throughput: the hot group holds a
	// level above ONE while the cold group's reads stay eventual.
	hot, cold := res.PerGroup.Groups[0], res.PerGroup.Groups[1]
	if hot.FinalLevel == "ONE" {
		t.Fatalf("hot group never escalated: %+v", hot)
	}
	if cold.FinalLevel != "ONE" {
		t.Fatalf("cold group did not stay eventual: %+v", cold)
	}
	if res.PerGroup.Errors > res.PerGroup.Operations/50 || res.Global.Errors > res.Global.Operations/50 {
		t.Fatalf("excessive errors: per-group %d, global %d", res.PerGroup.Errors, res.Global.Errors)
	}

	// Session arm: the hot group must be served at the SESSION tier, keep
	// its session contract (zero regressions over client.Session traffic),
	// stay within tolerance, and come out cheaper than the global arm whose
	// single knob drags every read to quorum-or-stronger.
	sess := res.Session
	if len(sess.Groups) != 2 {
		t.Fatalf("session arm groups = %+v", sess.Groups)
	}
	shot := sess.Groups[0]
	if shot.FinalLevel != "SESSION" || !shot.SessionServed {
		t.Fatalf("hot group not session-served: %+v", shot)
	}
	if !shot.WithinTolerance {
		t.Fatalf("session arm hot group out of tolerance: %+v", shot)
	}
	if sess.SessionRegressions != 0 {
		t.Fatalf("session arm observed %d regressions", sess.SessionRegressions)
	}
	if sess.SessionReads == 0 {
		t.Fatal("session arm coordinated no SESSION reads")
	}
	if sess.ThroughputOps <= res.Global.ThroughputOps {
		t.Fatalf("session arm throughput %.0f not above global %.0f",
			sess.ThroughputOps, res.Global.ThroughputOps)
	}
}

func TestHotColdValidation(t *testing.T) {
	spec := DefaultHotColdSpec()
	spec.HotKeys = spec.TotalKeys
	if _, err := HotCold(spec, Options{}); err == nil {
		t.Fatal("degenerate key split accepted")
	}
}

// TestDriftingScenarioReAdapts drives the drifting profile end to end: the
// controller must emit decisions on both sides of the regime change, and
// the latency estimate it sees must grow as the jitter drifts degraded.
func TestDriftingScenarioReAdapts(t *testing.T) {
	sc := Drifting()
	res, err := RunPolicy(RunSpec{
		Scenario: sc,
		Policy:   PolicySpec{Kind: PolicyHarmony, Tolerance: sc.HarmonyTolerances[0]},
		Workload: ycsb.WorkloadA(),
		Threads:  40,
		Ops:      60000,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := res.Decisions
	if len(ds) < 8 {
		t.Fatalf("only %d decisions across the drift", len(ds))
	}
	// Compare the controller's measured Tp early (healthy regime) vs late
	// (degraded regime): the drift must be visible to the monitor.
	early, late := ds[1].Model.Tp, ds[len(ds)-1].Model.Tp
	if late < early*3/2 {
		t.Fatalf("latency estimate did not degrade across the drift: early %v, late %v", early, late)
	}
}

// TestStressScenariosRunAdaptive drives each new network profile through a
// full adaptive run: cluster build, monitor, controller, workload. The
// point is scenario-diverse timing — the controller must produce decisions
// and the staleness probe must engage under Pareto, floored-exponential
// and bimodal jitter alike.
func TestStressScenariosRunAdaptive(t *testing.T) {
	for _, sc := range []Scenario{WANHeavyTail(), Degraded(), CongestedBimodal()} {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := RunPolicy(RunSpec{
				Scenario: sc,
				Policy:   PolicySpec{Kind: PolicyHarmony, Tolerance: sc.HarmonyTolerances[0]},
				Workload: ycsb.WorkloadA(),
				Threads:  8,
				Ops:      1500,
				Seed:     21,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.Operations < 1500 {
				t.Fatalf("run incomplete: %+v", res.Report)
			}
			// Heavy-tailed jitter legitimately trips the 5s op timeout on
			// the deepest draws; anything beyond a stray handful is a bug.
			if res.Report.Errors > res.Report.Operations/50 {
				t.Fatalf("%d/%d operations errored", res.Report.Errors, res.Report.Operations)
			}
			if res.Report.ThroughputOps <= 0 {
				t.Fatal("no throughput")
			}
			if len(res.Decisions) == 0 {
				t.Fatal("controller made no decisions")
			}
			if res.Report.ShadowSamples == 0 {
				t.Fatal("staleness probe never engaged")
			}
			if res.Report.ReadLatency.Count() == 0 {
				t.Fatal("no read latencies recorded")
			}
		})
	}
}
