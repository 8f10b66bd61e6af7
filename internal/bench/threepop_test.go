package bench

import (
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/grouping"
	"harmony/internal/sim"
	"harmony/internal/ycsb"
)

// TestThreePopulationLearnsMiddleTier drives a hot/warm/cold workload and
// verifies the grouping subsystem at K=3 learns a USEFUL middle tier: the
// three populations land in three distinct categories whose tolerances
// order hot < warm < cold, and every group's measured staleness honors its
// learned tolerance. (PR 3 proved K=2 end to end; the subsystem always
// supported arbitrary K — this is the first workload that rewards it.)
func TestThreePopulationLearnsMiddleTier(t *testing.T) {
	t.Parallel()
	const (
		hotKeys   = 300
		warmStart = 3000
		// The warm population must fit inside the nodes' key samples: keys
		// the sampler never exports default to the loose group (unsampled
		// means cold by construction), so a middle tier is only learnable
		// for data hot enough to be observed.
		warmKeys  = 600
		totalKeys = 20_000
		minTol    = 0.05
		maxTol    = 0.50
	)
	s := sim.New(5)
	sc := Grid5000()
	cspec := sc.Spec
	cspec.Groups = 3
	tols := []float64{minTol, (minTol + maxTol) / 2, maxTol}
	initial, err := grouping.Uniform(tols, 2)
	if err != nil {
		t.Fatal(err)
	}
	cspec.GroupFn = initial.GroupOf
	cspec.KeySampleLimit = 512
	cspec.KeyStatsDecay = 0.8
	c, err := cluster.BuildSim(s, cspec)
	if err != nil {
		t.Fatal(err)
	}

	ctl := core.NewController(core.ControllerConfig{
		Policy:               core.Policy{Name: "threepop", ToleratedStaleRate: minTol},
		N:                    cspec.RF,
		BandwidthBytesPerSec: cspec.Profile.BandwidthBytesPerSec,
		Groups:               3,
		GroupFn:              cspec.GroupFn,
		GroupTolerances:      tols,
	})
	rg, err := grouping.New(grouping.Config{
		Self:         "harmony-monitor",
		Nodes:        c.NodeIDs(),
		K:            3,
		MinTolerance: minTol,
		MaxTolerance: maxTol,
		Interval:     time.Second,
		Seed:         5,
		Controller:   ctl,
		Initial:      initial,
	}, s, c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	mon := core.NewMonitor(core.MonitorConfig{
		ID:             "harmony-monitor",
		Nodes:          c.NodeIDs(),
		Interval:       sc.MonitorInterval,
		ReplicaSetSize: cspec.RF,
		OnObservation:  ctl.Observe,
		OnNodeStats:    rg.IngestStats,
	}, s, c.Bus)
	c.Net.Colocate("harmony-monitor", c.NodeIDs()[0])
	c.Bus.Register("harmony-monitor", s, mon)

	newRunner := func(wl ycsb.Workload, threads int, offset int64, prefix string, seedOff int64) *ycsb.Runner {
		r, err := ycsb.NewRunner(ycsb.RunConfig{
			Workload:     wl,
			Threads:      threads,
			ShadowEvery:  4,
			Seed:         5 + seedOff,
			ClientPrefix: prefix,
			Policy:       ctl,
			KeyOffset:    offset,
		}, s, c)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	hotR := newRunner(ycsb.Workload{
		Name: "threepop-hot", ReadProportion: 0.3, UpdateProportion: 0.7,
		RecordCount: hotKeys, ValueBytes: 1024, RequestDistribution: ycsb.DistZipfian,
	}, 12, 0, "hot", 101)
	warmR := newRunner(ycsb.Workload{
		Name: "threepop-warm", ReadProportion: 0.7, UpdateProportion: 0.3,
		RecordCount: warmKeys, ValueBytes: 1024, RequestDistribution: ycsb.DistUniform,
	}, 12, warmStart, "warm", 202)
	coldR := newRunner(ycsb.Workload{
		Name: "threepop-cold", ReadProportion: 0.97, UpdateProportion: 0.03,
		RecordCount: totalKeys, ValueBytes: 1024, RequestDistribution: ycsb.DistUniform,
	}, 30, 0, "cold", 303)
	coldR.Load() // spans the whole keyspace

	mon.Start()
	rg.Start()
	hotR.Start()
	warmR.Start()
	coldR.Start()
	// Enough regroup cycles for the learned assignment to stabilize.
	s.RunFor(5 * time.Second)
	hotR.ResetMeasurement()
	warmR.ResetMeasurement()
	coldR.ResetMeasurement()
	const ops = 10_000
	for hotR.Completed()+warmR.Completed()+coldR.Completed() < ops {
		if !s.Step() {
			t.Fatal("simulation went idle")
		}
	}
	rep := hotR.Report()
	hotR.Stop()
	warmR.Stop()
	coldR.Stop()
	rg.Stop()
	mon.Stop()
	hotR.Drain()
	warmR.Drain()
	coldR.Drain()

	if rg.Epochs() == 0 {
		t.Fatal("no learned epoch was ever applied")
	}
	cur := rg.Current()
	if got := cur.Groups(); got != 3 {
		t.Fatalf("learned %d groups, want 3", got)
	}
	learnedTols := cur.Tolerances()

	// The three populations must occupy three distinct tiers, ordered by
	// contention: the plurality group of each population's probe keys.
	plurality := func(start int64, n int) int {
		votes := map[int]int{}
		for i := int64(0); i < int64(n); i++ {
			votes[cur.GroupOf(ycsb.Key(start+i))]++
		}
		best, bestN := -1, 0
		for g, v := range votes {
			if v > bestN {
				best, bestN = g, v
			}
		}
		return best
	}
	gh := plurality(0, 40)
	gw := plurality(warmStart, 40)
	gc := plurality(15_000, 40)
	t.Logf("epochs=%d tols=%v hot->%d warm->%d cold->%d", rg.Epochs(), learnedTols, gh, gw, gc)
	if gh == gw || gw == gc || gh == gc {
		t.Fatalf("populations share categories: hot=%d warm=%d cold=%d", gh, gw, gc)
	}
	if !(learnedTols[gh] < learnedTols[gw] && learnedTols[gw] < learnedTols[gc]) {
		t.Fatalf("middle tier not useful: tol(hot)=%.3f tol(warm)=%.3f tol(cold)=%.3f",
			learnedTols[gh], learnedTols[gw], learnedTols[gc])
	}

	// Per-group tolerance compliance over the measured window.
	if len(rep.Groups) != 3 {
		t.Fatalf("report has %d groups, want 3", len(rep.Groups))
	}
	for g, gs := range rep.Groups {
		if gs.ShadowSamples == 0 {
			t.Fatalf("group %d never probed (reads=%d writes=%d)", g, gs.Reads, gs.Writes)
		}
		if frac := gs.StaleFraction(); frac > learnedTols[g] {
			t.Fatalf("group %d stale fraction %.3f exceeds learned tolerance %.3f",
				g, frac, learnedTols[g])
		}
	}
}
