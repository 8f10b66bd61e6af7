// Georeplication: data replicated over two geographically distant
// datacenters, the deployment §IV of the paper highlights ("data may be
// replicated over geographically distant data centers"). Cross-DC
// propagation takes tens of milliseconds, so the stale-read estimate is
// dominated by network latency: Harmony escalates the read level while the
// WAN is degraded and relaxes when it recovers.
//
// The load is open loop (fixed arrival rate): user demand does not slow
// down because the backend got slower, which is exactly when latency-driven
// staleness bites.
//
//	go run ./examples/georeplication
package main

import (
	"fmt"
	"log"
	"time"

	"harmony/internal/client"
	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/faults"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/simnet"
	"harmony/internal/wire"
	"harmony/internal/ycsb"
)

type sink struct{}

func (sink) Deliver(ring.NodeID, wire.Message) {}

func main() {
	s := sim.New(314)
	spec := cluster.DefaultSpec()
	spec.DCs = 2 // two sites; NetworkTopologyStrategy spreads replicas over both
	spec.RacksPerDC = 2
	spec.NodesPerRack = 5
	spec.Profile = simnet.Grid5000Profile() // healthy inter-DC: 5ms one-way

	c, err := cluster.BuildSim(s, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two-DC cluster: %d nodes, RF=%d spread across %v\n",
		len(c.Nodes), spec.RF, c.Topo.DCs())

	var trace []core.Decision
	ctl := core.NewController(core.ControllerConfig{
		Policy:               core.Policy{Name: "geo", ToleratedStaleRate: 0.50},
		N:                    spec.RF,
		AvgWriteBytes:        1024,
		BandwidthBytesPerSec: spec.Profile.BandwidthBytesPerSec,
		OnDecision:           func(d core.Decision) { trace = append(trace, d) },
	})
	mon := core.NewMonitor(core.MonitorConfig{
		ID:             "geo-monitor",
		Nodes:          c.NodeIDs(),
		Interval:       500 * time.Millisecond,
		ReplicaSetSize: spec.RF,
		OnObservation:  ctl.Observe,
	}, s, c.Bus)
	c.Net.Colocate("geo-monitor", c.NodeIDs()[0])
	c.Bus.Register("geo-monitor", s, mon)

	// Preload records, then offer a constant 2000 ops/s (50/50 read/update).
	loader, err := ycsb.NewRunner(ycsb.RunConfig{Workload: ycsb.WorkloadA(), Threads: 1, Seed: 11}, s, c)
	if err != nil {
		log.Fatal(err)
	}
	loader.Load()
	stopLoad := openLoad(s, c, ctl, 2000)
	mon.Start()

	report := func(phase string) {
		d := ctl.Last()
		fmt.Printf("%-26s estimate=%.3f level=%-6s Xn=%d (Tp=%v)\n",
			phase, d.Estimate, d.Level, d.Xn, d.Model.Tp.Round(100*time.Microsecond))
	}

	// Phase 1: healthy inter-DC link.
	s.RunFor(5 * time.Second)
	report("healthy inter-DC link:")
	healthyXn := ctl.Last().Xn

	// Phase 2: the WAN degrades — +60ms on every cross-DC link.
	var slow faults.Update
	ids := c.NodeIDs()
	for _, a := range ids {
		ia, _ := c.Topo.Info(a)
		for _, b := range ids {
			ib, _ := c.Topo.Info(b)
			if ia.DC != ib.DC {
				slow.Set = append(slow.Set, faults.RuleUpdate{From: string(a), To: string(b), Rule: faults.Rule{Delay: 60 * time.Millisecond}})
			}
		}
	}
	c.Faults.Apply(slow)
	s.RunFor(5 * time.Second)
	report("degraded WAN (+60ms):")
	degradedXn := ctl.Last().Xn

	// Phase 3: recovery.
	c.Faults.Apply(faults.Update{Clear: true})
	s.RunFor(5 * time.Second)
	report("recovered:")
	recoveredXn := ctl.Last().Xn

	stopLoad()
	mon.Stop()

	fmt.Printf("\nHarmony raised reads from Xn=%d to Xn=%d replicas while propagation\n",
		healthyXn, degradedXn)
	fmt.Printf("was slow, and relaxed back to Xn=%d once the WAN recovered —\n", recoveredXn)
	fmt.Printf("%d decisions, no operator in the loop.\n", len(trace))
}

// openLoad offers fixed-rate workload-A traffic whose reads use the level
// Harmony currently advertises for their key.
func openLoad(s *sim.Sim, c *cluster.Cluster, levels client.ConsistencyPolicy, opsPerSec float64) (stop func()) {
	rng := s.NewStream()
	chooser, err := ycsb.WorkloadA().NewChooser()
	if err != nil {
		log.Fatal(err)
	}
	payload := make([]byte, 1024)
	rng.Read(payload)
	coords := c.NodeIDs()
	c.Bus.Register("geo-load", s, sink{})
	var id uint64
	interval := time.Duration(float64(time.Second) / (opsPerSec / 2))
	stopR := s.Ticker(interval, func() {
		id++
		key := ycsb.Key(chooser.Next(rng))
		level, _ := levels.LevelsFor(key)
		c.Bus.Send("geo-load", coords[int(id)%len(coords)],
			wire.ReadRequest{ID: id, Key: key, Level: level})
	})
	stopW := s.Ticker(interval, func() {
		id++
		key := ycsb.Key(chooser.Next(rng))
		c.Bus.Send("geo-load", coords[int(id)%len(coords)],
			wire.WriteRequest{ID: id, Key: key, Value: payload, Level: wire.One})
	})
	return func() { stopR(); stopW() }
}
