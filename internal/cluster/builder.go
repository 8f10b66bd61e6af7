package cluster

import (
	"fmt"
	"math/rand"
	"time"

	"harmony/internal/dist"
	"harmony/internal/faults"
	"harmony/internal/repair"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/simnet"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

// Spec describes a whole cluster to assemble; it is the shared entry point
// for tests, benchmarks and examples.
type Spec struct {
	// DCs is the number of datacenters; RacksPerDC and NodesPerRack shape
	// each one identically.
	DCs, RacksPerDC, NodesPerRack int
	// RF is the replication factor (the paper uses 5).
	RF int
	// VNodes per physical node; zero means 16.
	VNodes int
	// Profile is the network latency profile.
	Profile simnet.Profile
	// ReadRepairChance is the probability a read fans out to all replicas
	// for background repair (Cassandra's read_repair_chance; the paper's
	// deployment era defaulted to sampled repair).
	ReadRepairChance float64
	// HintedHandoff toggles hint queues for down replicas.
	HintedHandoff bool
	// HintQueueLimit caps each node's total queued hints; overflow drops
	// the mutation (Metrics.HintsDropped). Zero means unlimited.
	HintQueueLimit int
	// Repair enables background anti-entropy on every node: Merkle-tree
	// sessions between replica peers, run periodically and on recovery
	// triggers (a fault-plane Up or Acquit). See internal/repair.
	Repair repair.Options
	// ReadTimeout/WriteTimeout propagate to every node.
	ReadTimeout, WriteTimeout time.Duration
	// Service models each node's finite processing capacity; the zero
	// value selects DefaultServiceProfile.
	Service ServiceProfile
	// Groups and GroupFn configure per-key-group telemetry on every node:
	// each coordinated read/write is tagged into a group and tallied
	// separately, so the monitoring pipeline can adapt consistency per
	// group instead of cluster-wide. Zero Groups means one implicit group
	// (the classic global pipeline). This is only the epoch-0 assignment:
	// the regrouping subsystem replaces it at runtime via wire.GroupUpdate.
	Groups  int
	GroupFn func(key []byte) int
	// KeySampleLimit and KeyStatsDecay configure per-key access sampling
	// on every node for the online regrouping loop (see Config); zero
	// KeySampleLimit disables sampling.
	KeySampleLimit int
	KeyStatsDecay  float64
	// MaxInFlight bounds each node's in-flight coordinator ops; at the
	// bound further client requests are shed with wire.ErrOverloaded. Zero
	// means unlimited (see Config.MaxInFlight).
	MaxInFlight int
}

// ServiceProfile gives per-message-class service times for the node queue.
// Actual service times are the class mean multiplied by a lognormal jitter
// with unit mean and a 99th percentile of 3x, modeling the variance real
// storage nodes exhibit (page-cache misses, GC pauses, compaction
// interference). The jitter is what separates "wait for the first replica"
// from "wait for the slowest of five" in the latency distributions.
type ServiceProfile struct {
	CoordRead    time.Duration // coordinating a client read
	CoordWrite   time.Duration // coordinating a client write
	ReplicaRead  time.Duration // serving a replica-local read
	ReplicaWrite time.Duration // applying a mutation or repair
	Response     time.Duration // handling replica responses/acks
	Other        time.Duration // stats, ping, gossip
}

// DefaultServiceProfile bounds the 20-node cluster at roughly 30k
// Workload-A ops/s at consistency level ONE, so closed-loop saturation
// lands in the same client-thread regime as the paper's testbeds (peak
// near 90 threads, Fig. 5(c)).
func DefaultServiceProfile() ServiceProfile {
	return ServiceProfile{
		CoordRead:    50 * time.Microsecond,
		CoordWrite:   50 * time.Microsecond,
		ReplicaRead:  160 * time.Microsecond,
		ReplicaWrite: 200 * time.Microsecond,
		Response:     8 * time.Microsecond,
		Other:        5 * time.Microsecond,
	}
}

// Scale returns the profile with every service time multiplied by f;
// virtualized testbeds (the EC2 scenario) use f > 1.
func (p ServiceProfile) Scale(f float64) ServiceProfile {
	mul := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	return ServiceProfile{
		CoordRead:    mul(p.CoordRead),
		CoordWrite:   mul(p.CoordWrite),
		ReplicaRead:  mul(p.ReplicaRead),
		ReplicaWrite: mul(p.ReplicaWrite),
		Response:     mul(p.Response),
		Other:        mul(p.Other),
	}
}

// Timer converts the profile into a transport.ServiceTimer drawing jitter
// from rng (which must belong to the node's runtime).
func (p ServiceProfile) Timer(rng *rand.Rand) transport.ServiceTimer {
	jitter := dist.LognormalFromMeanP99(1.0, 3.0)
	return func(m wire.Message) time.Duration {
		var base time.Duration
		switch m.(type) {
		case wire.ReadRequest:
			base = p.CoordRead
		case wire.WriteRequest:
			base = p.CoordWrite
		case wire.ReplicaRead:
			base = p.ReplicaRead
		case wire.Mutation, wire.Repair:
			base = p.ReplicaWrite
		case wire.ReplicaReadResp, wire.MutationAck:
			return p.Response // cheap fixed-cost handling
		default:
			return p.Other
		}
		return time.Duration(float64(base) * jitter.Sample(rng))
	}
}

func (p ServiceProfile) isZero() bool {
	return p == ServiceProfile{}
}

// DefaultSpec mirrors the paper's Grid'5000 configuration scaled to
// simulation: one DC, four racks of five nodes (20 nodes), RF=5,
// topology-aware placement, read repair on.
func DefaultSpec() Spec {
	return Spec{
		DCs:              1,
		RacksPerDC:       4,
		NodesPerRack:     5,
		RF:               5,
		VNodes:           16,
		Profile:          simnet.Grid5000Profile(),
		ReadRepairChance: 0.1,
	}
}

// Cluster bundles a running set of nodes with the fabric connecting them.
type Cluster struct {
	Topo     *ring.Topology
	Ring     *ring.Ring
	Strategy ring.Strategy
	Net      *simnet.Net
	Bus      *transport.Bus
	Nodes    []*Node
	byID     map[ring.NodeID]*Node

	// Faults is the cluster's fault plane: every message on the bus — node,
	// client and monitor alike — crosses its link table, and every node's
	// failure detector reads its convictions. Cuts, slow links, crashes
	// (Update.Down/Up) and converged partition views (Convict/Acquit) are
	// Updates, the same documents a live member's admin endpoint accepts;
	// Faults.Run replays a timed faults.Plan.
	Faults *faults.Plane
	// faultsRT runs plan steps; stopped with the cluster when it is a
	// dedicated mailbox runtime (BuildReal).
	faultsRT sim.Runtime
}

// BuildSim assembles the cluster on a discrete-event simulator. All nodes
// share the simulator as their runtime (the DES is single-threaded, so this
// preserves the per-node serialization contract).
func BuildSim(s *sim.Sim, spec Spec) (*Cluster, error) {
	return build(spec, func(ring.NodeID) sim.Runtime { return s }, s)
}

// BuildReal assembles the cluster on real-time mailbox runtimes (one
// goroutine per node). The caller must Stop the returned cluster.
func BuildReal(spec Spec, seed int64) (*Cluster, error) {
	seedSim := sim.New(seed) // used only as a deterministic RNG source
	return build(spec, func(ring.NodeID) sim.Runtime { return sim.NewRealRuntime() }, seedSim)
}

func build(spec Spec, rtFor func(ring.NodeID) sim.Runtime, s *sim.Sim) (*Cluster, error) {
	if spec.DCs <= 0 || spec.RacksPerDC <= 0 || spec.NodesPerRack <= 0 {
		return nil, fmt.Errorf("cluster: spec must have positive dimensions, got %+v", spec)
	}
	if spec.RF <= 0 {
		return nil, fmt.Errorf("cluster: replication factor must be positive")
	}
	if spec.VNodes == 0 {
		spec.VNodes = 16
	}
	var infos []ring.NodeInfo
	for dc := 1; dc <= spec.DCs; dc++ {
		for rack := 1; rack <= spec.RacksPerDC; rack++ {
			for i := 1; i <= spec.NodesPerRack; i++ {
				infos = append(infos, ring.NodeInfo{
					ID:   ring.NodeID(fmt.Sprintf("dc%d-r%d-n%d", dc, rack, i)),
					DC:   fmt.Sprintf("dc%d", dc),
					Rack: fmt.Sprintf("r%d", rack),
				})
			}
		}
	}
	topo, err := ring.NewTopology(infos)
	if err != nil {
		return nil, err
	}
	rng, err := ring.Build(topo, spec.VNodes)
	if err != nil {
		return nil, err
	}
	strat := ring.NetworkTopologyStrategy{RF: spec.RF}
	net := simnet.New(topo, spec.Profile, s.NewStream())
	ids := make([]ring.NodeID, len(infos))
	for i, info := range infos {
		ids[i] = info.ID
	}
	faultsRT := rtFor("faults")
	plane := faults.New(faultsRT, s.NewStream().Int63(), ids)
	bus := transport.NewBus(net, plane)
	c := &Cluster{
		Topo:     topo,
		Ring:     rng,
		Strategy: strat,
		Net:      net,
		Bus:      bus,
		Faults:   plane,
		faultsRT: faultsRT,
		byID:     make(map[ring.NodeID]*Node),
	}
	// A recovered peer gets a priority anti-entropy session from every node
	// that convicted it: the simulated gossip.Config.OnRecover.
	plane.OnRecover(func(observer, peer ring.NodeID) {
		if n := c.byID[observer]; n != nil && n.RepairManager() != nil {
			n.RepairManager().PeerRecovered(peer)
		}
	})
	svc := spec.Service
	if svc.isZero() {
		svc = DefaultServiceProfile()
	}
	for _, info := range infos {
		rt := rtFor(info.ID)
		self := info.ID
		n := New(Config{
			ID:               info.ID,
			Ring:             rng,
			Strategy:         strat,
			ReadTimeout:      spec.ReadTimeout,
			WriteTimeout:     spec.WriteTimeout,
			ReadRepairChance: spec.ReadRepairChance,
			HintedHandoff:    spec.HintedHandoff,
			HintQueueLimit:   spec.HintQueueLimit,
			Repair:           spec.Repair,
			Groups:           spec.Groups,
			GroupFn:          spec.GroupFn,
			KeySampleLimit:   spec.KeySampleLimit,
			KeyStatsDecay:    spec.KeyStatsDecay,
			MaxInFlight:      spec.MaxInFlight,
			Alive:            func(peer ring.NodeID) bool { return plane.Alive(self, peer) },
			AliveCount:       func() int { return plane.AliveCount(self) },
			Rand:             s.NewStream(),
		}, rt, bus)
		bus.Register(info.ID, rt, transport.NewServiceQueue(rt, n, svc.Timer(s.NewStream())))
		n.Start()
		c.Nodes = append(c.Nodes, n)
		c.byID[info.ID] = n
	}
	return c, nil
}

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id ring.NodeID) *Node { return c.byID[id] }

// NodeIDs returns all node IDs in deterministic order.
func (c *Cluster) NodeIDs() []ring.NodeID { return c.Topo.Nodes() }

// AggregateMetrics sums metrics across all nodes. Per-group counters only
// aggregate over nodes at the newest grouping epoch: during a GroupUpdate
// rollout a laggard node's group counters still describe the old epoch's
// groups, and mixing the two would attribute one epoch's traffic to
// another epoch's groups (the same invariant the monitor enforces with its
// epoch consensus). Aggregate counters always cover every node.
func (c *Cluster) AggregateMetrics() Metrics {
	var total Metrics
	snaps := make([]Metrics, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		s := n.Snapshot()
		snaps = append(snaps, s)
		if s.GroupEpoch > total.GroupEpoch {
			total.GroupEpoch = s.GroupEpoch
		}
	}
	for _, s := range snaps {
		total.Reads += s.Reads
		total.Writes += s.Writes
		total.ReplicaOps += s.ReplicaOps
		total.BytesRead += s.BytesRead
		total.BytesWritten += s.BytesWritten
		total.RepairsSent += s.RepairsSent
		total.HintsQueued += s.HintsQueued
		total.HintsReplayed += s.HintsReplayed
		total.HintsDropped += s.HintsDropped
		total.ReadTimeouts += s.ReadTimeouts
		total.WriteTimeouts += s.WriteTimeouts
		total.Unavailable += s.Unavailable
		total.Overloaded += s.Overloaded
		total.RepairRows += s.RepairRows
		total.RepairAgeMs += s.RepairAgeMs
		total.ShadowSamples += s.ShadowSamples
		total.ShadowStale += s.ShadowStale
		total.SessionUpgrades += s.SessionUpgrades
		total.SessionRepolls += s.SessionRepolls
		for i := range s.LevelUse {
			total.LevelUse[i] += s.LevelUse[i]
		}
		if s.GroupEpoch != total.GroupEpoch {
			continue // old-epoch groups: counters describe retired groups
		}
		total.GroupReads = addCounters(total.GroupReads, s.GroupReads)
		total.GroupWrites = addCounters(total.GroupWrites, s.GroupWrites)
		total.GroupBytesWritten = addCounters(total.GroupBytesWritten, s.GroupBytesWritten)
		total.GroupShadowSamples = addCounters(total.GroupShadowSamples, s.GroupShadowSamples)
		total.GroupShadowStale = addCounters(total.GroupShadowStale, s.GroupShadowStale)
		total.GroupRepairRows = addCounters(total.GroupRepairRows, s.GroupRepairRows)
		total.GroupRepairAgeMs = addCounters(total.GroupRepairAgeMs, s.GroupRepairAgeMs)
	}
	return total
}

// addCounters element-wise adds src into dst, growing dst as needed.
func addCounters(dst, src []uint64) []uint64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// Stop shuts down node maintenance and, for real-time runtimes, their
// mailbox goroutines.
func (c *Cluster) Stop() {
	for _, n := range c.Nodes {
		n.Stop()
		if rr, ok := n.rt.(*sim.RealRuntime); ok {
			rr.Stop()
		}
	}
	if rr, ok := c.faultsRT.(*sim.RealRuntime); ok {
		rr.Stop()
	}
}
