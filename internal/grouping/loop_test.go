package grouping

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/sim"
	"harmony/internal/wire"
)

// TestOnlineRegroupingLoopEndToEnd drives the full loop on a simulated
// cluster: nodes sample the keys they coordinate, the monitor taps every
// stats response into the regrouper, the regrouper learns a hot/cold split
// and broadcasts a GroupUpdate, nodes swap their group functions and
// re-baseline, and the controller regroups in lockstep — all while client
// traffic keeps flowing.
func TestOnlineRegroupingLoopEndToEnd(t *testing.T) {
	s := sim.New(3)
	initial, err := Uniform([]float64{0.02, 0.6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.DefaultSpec()
	spec.Groups = 2
	spec.GroupFn = initial.GroupOf
	spec.KeySampleLimit = 64
	c, err := cluster.BuildSim(s, spec)
	if err != nil {
		t.Fatal(err)
	}

	ctl := core.NewController(core.ControllerConfig{
		Policy:          core.Policy{ToleratedStaleRate: 0.02},
		N:               spec.RF,
		AvgWriteBytes:   128,
		Groups:          2,
		GroupFn:         initial.GroupOf,
		GroupTolerances: initial.Tolerances(),
	})
	rg, err := New(Config{
		Self:         "harmony-monitor",
		Nodes:        c.NodeIDs(),
		K:            2,
		MinTolerance: 0.02,
		MaxTolerance: 0.6,
		Interval:     500 * time.Millisecond,
		minKeys:      24,
		Seed:         3,
		Controller:   ctl,
		Initial:      initial,
		OnRegroup: func(a *Assignment) {
			t.Logf("epoch %d: len=%d hot3->%d cold42->%d tols=%v",
				a.Epoch(), a.Len(), a.GroupOf([]byte("hot3")), a.GroupOf([]byte("cold42")), a.Tolerances())
		},
	}, s, c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	mon := core.NewMonitor(core.MonitorConfig{
		ID:             "harmony-monitor",
		Nodes:          c.NodeIDs(),
		Interval:       250 * time.Millisecond,
		ReplicaSetSize: spec.RF,
		OnObservation:  ctl.Observe,
		OnNodeStats:    rg.IngestStats,
	}, s, c.Bus)
	c.Net.Colocate("harmony-monitor", c.NodeIDs()[0])
	c.Bus.Register("harmony-monitor", s, mon)
	mon.Start()
	rg.Start()

	// Synthetic traffic straight at the coordinators: 16 write-contended
	// hot keys (50/50), 200 read-mostly cold keys (95/5). Keys, ops and
	// coordinators draw from a seeded rng — deterministic, but free of the
	// modular aliasing a counter-based generator would bake into each
	// node's local sample.
	nodes := c.NodeIDs()
	rng := rand.New(rand.NewSource(99))
	var seq uint64
	s.Ticker(2*time.Millisecond, func() {
		co := nodes[rng.Intn(len(nodes))]
		seq++
		hot := []byte(fmt.Sprintf("hot%d", rng.Intn(16)))
		if rng.Float64() < 0.5 {
			c.Bus.Send("lg", co, wire.WriteRequest{ID: seq, Key: hot, Value: []byte("v"), Level: wire.One})
		} else {
			c.Bus.Send("lg", co, wire.ReadRequest{ID: seq, Key: hot, Level: wire.One})
		}
		seq++
		cold := []byte(fmt.Sprintf("cold%d", rng.Intn(200)))
		if rng.Float64() < 0.05 {
			c.Bus.Send("lg", co, wire.WriteRequest{ID: seq, Key: cold, Value: []byte("v"), Level: wire.One})
		} else {
			c.Bus.Send("lg", co, wire.ReadRequest{ID: seq, Key: cold, Level: wire.One})
		}
	})
	s.RunFor(6 * time.Second)
	mon.Stop()
	rg.Stop()
	// Drain: an epoch broadcast right at the horizon still has its
	// GroupUpdates in flight; let them land before asserting convergence.
	s.RunFor(500 * time.Millisecond)

	if rg.Epochs() == 0 {
		t.Fatal("the loop never applied a learned epoch")
	}
	cur := rg.Current()
	if g := cur.GroupOf([]byte("hot3")); g != 0 {
		t.Fatalf("hot key learned into group %d, want tight group 0", g)
	}
	if g := cur.GroupOf([]byte("cold42")); g != 1 {
		t.Fatalf("cold key learned into group %d, want loose group 1", g)
	}
	if ctl.Epoch() != cur.Epoch() {
		t.Fatalf("controller epoch %d != assignment epoch %d", ctl.Epoch(), cur.Epoch())
	}
	for _, n := range c.Nodes {
		if n.Epoch() != cur.Epoch() {
			t.Fatalf("node %s at epoch %d, want %d", n.ID(), n.Epoch(), cur.Epoch())
		}
	}
	// Post-regroup telemetry flows under the new groups: hot traffic lands
	// in group 0.
	m := c.AggregateMetrics()
	if len(m.GroupReads) != 2 || m.GroupReads[0] == 0 || m.GroupWrites[0] == 0 {
		t.Fatalf("post-regroup group counters = reads %v writes %v", m.GroupReads, m.GroupWrites)
	}
}
