package ycsb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/cluster"
	"harmony/internal/sim"
	"harmony/internal/wire"
)

func TestWorkloadPresetsValid(t *testing.T) {
	for _, w := range []Workload{WorkloadA(), WorkloadB()} {
		if err := w.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", w.Name, err)
		}
		if _, err := w.NewChooser(); err != nil {
			t.Errorf("preset %s chooser: %v", w.Name, err)
		}
	}
}

func TestWorkloadValidation(t *testing.T) {
	w := WorkloadA()
	w.ReadProportion = 0.9 // now sums to 1.4
	if err := w.Validate(); err == nil {
		t.Fatal("bad proportions accepted")
	}
	w = WorkloadA()
	w.RecordCount = 0
	if err := w.Validate(); err == nil {
		t.Fatal("zero records accepted")
	}
	w = WorkloadA()
	w.ValueBytes = 0
	if err := w.Validate(); err == nil {
		t.Fatal("zero value size accepted")
	}
	bad := Workload{Name: "x", ReadProportion: 1, RecordCount: 10, ValueBytes: 8, RequestDistribution: "mystery"}
	if _, err := bad.NewChooser(); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

func TestKeyFormat(t *testing.T) {
	if got := string(Key(42)); got != "user0000000042" {
		t.Fatalf("key = %q", got)
	}
	cases := []int64{0, 9, -1, -9, -10, -123456789, -1234567890, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for p := int64(10); p > 0 && p <= math.MaxInt64/10*10; p *= 10 {
		cases = append(cases, p-1, p, p+1, -p+1, -p, -p-1)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		v := rng.Int63() >> rng.Intn(63)
		if rng.Intn(2) == 0 {
			v = -v
		}
		cases = append(cases, v)
	}
	for _, i := range cases {
		if got, want := string(Key(i)), fmt.Sprintf("user%010d", i); got != want {
			t.Fatalf("Key(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestOpTypeString(t *testing.T) {
	if opRead.String() != "read" || opUpdate.String() != "update" || opType(7).String() != "op(7)" {
		t.Fatal("op names")
	}
}

// smallSpec keeps test runs quick: 2 racks x 3 nodes, RF=3, tiny records.
func smallSpec() cluster.Spec {
	spec := cluster.DefaultSpec()
	spec.RacksPerDC = 2
	spec.NodesPerRack = 3
	spec.RF = 3
	return spec
}

func smallWorkload(w Workload) Workload {
	w.RecordCount = 500
	w.ValueBytes = 128
	return w
}

func newRunner(t *testing.T, cfg RunConfig) (*sim.Sim, *cluster.Cluster, *Runner) {
	t.Helper()
	s := sim.New(cfg.Seed + 1)
	c, err := cluster.BuildSim(s, smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(cfg, s, c)
	if err != nil {
		t.Fatal(err)
	}
	r.Load()
	return s, c, r
}

func TestRunnerCompletesOpBudget(t *testing.T) {
	_, _, r := newRunner(t, RunConfig{
		Workload:   smallWorkload(WorkloadA()),
		Threads:    8,
		Operations: 2000,
		Seed:       42,
	})
	rep, err := r.runOps()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Operations < 2000 {
		t.Fatalf("completed %d ops, want >= 2000", rep.Operations)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors", rep.Errors)
	}
	if rep.ThroughputOps <= 0 {
		t.Fatal("no throughput")
	}
	// Workload A is 50/50: both op kinds must appear in sensible ratio.
	if rep.Reads == 0 || rep.Updates == 0 {
		t.Fatalf("reads=%d updates=%d", rep.Reads, rep.Updates)
	}
	ratio := float64(rep.Reads) / float64(rep.Reads+rep.Updates)
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("read ratio = %v, want ~0.5", ratio)
	}
	if rep.ReadLatency.Count() == 0 || rep.updateLatency.Count() == 0 {
		t.Fatal("latency histograms empty")
	}
}

func TestRunnerWorkloadBMix(t *testing.T) {
	_, _, r := newRunner(t, RunConfig{
		Workload:   smallWorkload(WorkloadB()),
		Threads:    4,
		Operations: 2000,
		Seed:       7,
	})
	rep, err := r.runOps()
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(rep.Reads) / float64(rep.Reads+rep.Updates)
	if ratio < 0.9 {
		t.Fatalf("workload B read ratio = %v, want ~0.95", ratio)
	}
}

func TestRunnerLoadPopulatesAllReplicas(t *testing.T) {
	s, c, _ := newRunner(t, RunConfig{
		Workload: smallWorkload(WorkloadB()),
		Threads:  1,
		Seed:     9,
	})
	_ = s
	// Spot-check that a loaded key reads back at ALL.
	drv, err := client.New(client.Options{ID: "check", Coordinators: c.NodeIDs()}, s, c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	c.Bus.Register("check", s, drv)
	var res client.ReadResult
	done := false
	drv.ReadAt(Key(123), wire.All, func(rr client.ReadResult) { res = rr; done = true })
	s.RunFor(5 * time.Second)
	if !done || res.Err != nil || !res.Found {
		t.Fatalf("loaded key not readable at ALL: %+v done=%v", res, done)
	}
	if len(res.Value) != 128 {
		t.Fatalf("value size = %d, want 128", len(res.Value))
	}
}

func TestRunnerPhases(t *testing.T) {
	s, _, r := newRunner(t, RunConfig{
		Workload: smallWorkload(WorkloadA()),
		Threads:  8,
		Seed:     3,
	})
	r.Start()
	s.RunFor(2 * time.Second)
	atFull := r.Completed()
	if atFull == 0 {
		t.Fatal("no ops at 8 threads")
	}
	r.SetActiveThreads(1)
	s.RunFor(2 * time.Second)
	atOne := r.Completed() - atFull
	if atOne == 0 {
		t.Fatal("no ops at 1 thread")
	}
	// Throughput with 1 thread must be well below 8 threads.
	if float64(atOne) > 0.7*float64(atFull) {
		t.Fatalf("throttling had no effect: %d vs %d", atOne, atFull)
	}
	// Scale back up: parked threads must wake.
	r.SetActiveThreads(8)
	s.RunFor(2 * time.Second)
	atFull2 := r.Completed() - atFull - atOne
	if float64(atFull2) < 2*float64(atOne) {
		t.Fatalf("threads did not resume: %d vs %d", atFull2, atOne)
	}
	r.Stop()
	r.Drain()
}

func TestRunnerStopParksThreads(t *testing.T) {
	s, _, r := newRunner(t, RunConfig{
		Workload: smallWorkload(WorkloadA()),
		Threads:  4,
		Seed:     5,
	})
	r.Start()
	s.RunFor(time.Second)
	r.Stop()
	r.Drain()
	done := r.Completed()
	s.RunFor(5 * time.Second)
	if r.Completed() != done {
		t.Fatalf("ops continued after Stop: %d -> %d", done, r.Completed())
	}
}

func TestRunnerShadowMeasuresStaleness(t *testing.T) {
	// Workload A at ONE with shadow probes on an update-heavy mix must
	// observe some staleness (the paper's premise).
	_, _, r := newRunner(t, RunConfig{
		Workload:    smallWorkload(WorkloadA()),
		Threads:     16,
		Operations:  6000,
		Seed:        11,
		ShadowEvery: 1,
		Policy:      client.Fixed{},
	})
	rep, err := r.runOps()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShadowSamples == 0 {
		t.Fatal("no shadow samples")
	}
	if rep.StaleReads == 0 {
		t.Fatal("update-heavy eventual-consistency run measured zero stale reads")
	}
	if f := rep.StaleFraction(); f <= 0 || f > 1 {
		t.Fatalf("stale fraction = %v", f)
	}
}

func TestRunnerStrongConsistencyZeroStale(t *testing.T) {
	_, _, r := newRunner(t, RunConfig{
		Workload:    smallWorkload(WorkloadA()),
		Threads:     16,
		Operations:  3000,
		Seed:        13,
		ShadowEvery: 1,
		Policy:      client.Fixed{Read: wire.All},
	})
	rep, err := r.runOps()
	if err != nil {
		t.Fatal(err)
	}
	if rep.StaleReads != 0 {
		t.Fatalf("strong consistency measured %d stale reads", rep.StaleReads)
	}
}

func TestRunnerRejectsBadConfig(t *testing.T) {
	s := sim.New(1)
	c, err := cluster.BuildSim(s, smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(RunConfig{Workload: smallWorkload(WorkloadA()), Threads: 0}, s, c); err == nil {
		t.Fatal("threads=0 accepted")
	}
	bad := smallWorkload(WorkloadA())
	bad.ReadProportion = 2
	if _, err := NewRunner(RunConfig{Workload: bad, Threads: 1}, s, c); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestChooseOpDistribution(t *testing.T) {
	r := &Runner{cfg: RunConfig{Workload: WorkloadA()}}
	rng := rand.New(rand.NewSource(1))
	counts := map[opType]int{}
	for i := 0; i < 10000; i++ {
		counts[r.chooseOp(rng)]++
	}
	if counts[opRead] < 4500 || counts[opRead] > 5500 {
		t.Fatalf("read count = %d, want ~5000", counts[opRead])
	}
	if counts[opRead]+counts[opUpdate] != 10000 {
		t.Fatalf("unexpected op kinds: %v", counts)
	}
}

func TestKeyIndexRoundTrip(t *testing.T) {
	for _, i := range []int64{0, 1, 99, 100_000, 9_999_999_999, math.MaxInt64} {
		got, ok := KeyIndex(Key(i))
		if !ok || got != i {
			t.Fatalf("KeyIndex(Key(%d)) = %d, %v", i, got, ok)
		}
	}
	for _, bad := range [][]byte{
		nil, []byte("user"), []byte("userX000000001"), []byte("customer1"),
		// past math.MaxInt64: must not wrap to a negative index or 0
		[]byte("user9223372036854775808"), []byte("user18446744073709551616"),
		[]byte("user99999999999999999999"), []byte("user-0000000001"),
	} {
		if _, ok := KeyIndex(bad); ok {
			t.Fatalf("KeyIndex(%q) accepted", bad)
		}
	}
}

func TestRunnerOpenLoopPoissonRate(t *testing.T) {
	// Open loop: the offered rate is the configured arrival rate, not a
	// function of completions.
	const rate = 1000.0
	s, _, r := newRunner(t, RunConfig{
		Workload:    smallWorkload(WorkloadA()),
		Threads:     8,
		Seed:        7,
		ArrivalRate: rate,
	})
	r.Start()
	s.RunFor(4 * time.Second)
	r.Stop()
	r.Drain()
	rep := r.Report()
	if rep.ThroughputOps < rate*0.9 || rep.ThroughputOps > rate*1.1 {
		t.Fatalf("open-loop throughput = %.0f ops/s, want ~%.0f", rep.ThroughputOps, rate)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors", rep.Errors)
	}
}

func TestRunnerOpenLoopIgnoresThreadParking(t *testing.T) {
	// SetActiveThreads is a closed-loop concept; the Poisson process keeps
	// offering load regardless.
	s, _, r := newRunner(t, RunConfig{
		Workload:    smallWorkload(WorkloadA()),
		Threads:     4,
		Seed:        9,
		ArrivalRate: 500,
	})
	r.Start()
	r.SetActiveThreads(0)
	s.RunFor(2 * time.Second)
	r.Stop()
	r.Drain()
	if c := r.Completed(); c < 800 {
		t.Fatalf("open loop issued only %d ops with parked threads", c)
	}
}

func TestRunnerReportsGroupStaleness(t *testing.T) {
	spec := smallSpec()
	spec.Groups = 2
	spec.GroupFn = func(key []byte) int {
		if idx, ok := KeyIndex(key); ok && idx < 100 {
			return 0
		}
		return 1
	}
	s := sim.New(11)
	c, err := cluster.BuildSim(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(RunConfig{
		Workload:    smallWorkload(WorkloadA()),
		Threads:     8,
		Operations:  3000,
		Seed:        11,
		ShadowEvery: 2,
	}, s, c)
	if err != nil {
		t.Fatal(err)
	}
	r.Load()
	rep, err := r.runOps()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 2 {
		t.Fatalf("groups in report = %d, want 2", len(rep.Groups))
	}
	var reads, writes, samples, stale uint64
	for _, g := range rep.Groups {
		reads += g.Reads
		writes += g.Writes
		samples += g.ShadowSamples
		stale += g.StaleReads
	}
	m := c.AggregateMetrics()
	if reads != m.Reads || writes != m.Writes {
		t.Fatalf("group ops (%d r, %d w) do not partition totals (%d r, %d w)", reads, writes, m.Reads, m.Writes)
	}
	if samples != rep.ShadowSamples || stale != rep.StaleReads {
		t.Fatalf("group probes (%d/%d) do not partition totals (%d/%d)", stale, samples, rep.StaleReads, rep.ShadowSamples)
	}
	// Zipfian traffic concentrates on low indices: group 0 (first 100
	// keys) must have seen a healthy share of the traffic.
	if rep.Groups[0].Reads == 0 || rep.Groups[1].Reads == 0 {
		t.Fatalf("degenerate group split: %+v", rep.Groups)
	}
}

func TestRunnerPolicyShapesEveryRead(t *testing.T) {
	// A policy forcing ALL must shape every coordinated read.
	s, c, r := newRunner(t, RunConfig{
		Workload:   smallWorkload(WorkloadA()),
		Threads:    4,
		Operations: 500,
		Seed:       13,
		Policy:     allReads{},
	})
	_ = s
	if _, err := r.runOps(); err != nil {
		t.Fatal(err)
	}
	m := c.AggregateMetrics()
	if m.LevelUse[wire.One] != 0 || m.LevelUse[wire.All] == 0 {
		t.Fatalf("policy ignored: level use = %v", m.LevelUse)
	}
}

type allReads struct{}

func (allReads) LevelsFor([]byte) (read, write wire.ConsistencyLevel) { return wire.All, wire.One }

func TestRunnerSessionMode(t *testing.T) {
	// Session mode over a SESSION policy: every coordinated read is
	// token-checked and no session may observe a version regression.
	_, c, r := newRunner(t, RunConfig{
		Workload:   smallWorkload(WorkloadA()),
		Threads:    8,
		Operations: 2000,
		Seed:       17,
		Policy:     client.Fixed{Read: wire.Session},
		Sessions:   true,
	})
	rep, err := r.runOps()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionRegressions != 0 {
		t.Fatalf("SESSION run observed %d regressions", rep.SessionRegressions)
	}
	m := c.AggregateMetrics()
	if m.LevelUse[wire.Session] == 0 {
		t.Fatal("no reads coordinated at SESSION")
	}
	if rep.LevelUse[wire.Session] == 0 {
		t.Fatal("report missed the SESSION level tally")
	}
}
