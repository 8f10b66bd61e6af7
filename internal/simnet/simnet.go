// Package simnet models the network connecting storage nodes and clients:
// per-pair base latency derived from the cluster topology, stochastic jitter,
// and bandwidth-proportional serialization delay. Faults (cuts, slow links)
// belong to the fault plane, internal/faults. It backs the discrete-event
// transport used by every experiment, and it is where the two testbed
// profiles from the paper's evaluation live: a Grid'5000-like LAN and an
// EC2-like virtualized WAN.
package simnet

import (
	"math/rand"
	"sync"
	"time"

	"harmony/internal/dist"
	"harmony/internal/ring"
)

// Profile describes the latency character of a deployment. All durations are
// one-way.
type Profile struct {
	Name string
	// Base one-way latency per proximity class (same node, same rack, same
	// DC, cross DC). Index with ring.Topology.Distance.
	Base [4]time.Duration
	// Jitter scales the base latency multiplicatively: effective = base *
	// jitter.Sample(). Use dist.Constant{V:1} for a noiseless network.
	Jitter dist.Sampler
	// BandwidthBytesPerSec models serialization delay: transferring n bytes
	// adds n/Bandwidth seconds. Zero disables the term.
	BandwidthBytesPerSec float64
	// ClientLatency is the one-way latency between external clients and any
	// storage node (clients are "near" the cluster, e.g. same AZ).
	ClientLatency time.Duration
}

// Grid5000Profile approximates the paper's first testbed: physical nodes on
// gigabit Ethernet inside one site — sub-millisecond, stable latency
// between replicas. ClientLatency folds in the whole client-side stack the
// paper's YCSB deployment pays per operation (client host hop plus
// Thrift/RPC and server request handling); it sets the base per-operation
// latency floor that, against the cluster's service capacity, places
// closed-loop saturation near 90 threads exactly as Fig. 5(c) shows.
func Grid5000Profile() Profile {
	return Profile{
		Name:                 "grid5000",
		Base:                 [4]time.Duration{20 * time.Microsecond, 150 * time.Microsecond, 400 * time.Microsecond, 5 * time.Millisecond},
		Jitter:               dist.LognormalFromMeanP99(1.0, 2.5),
		BandwidthBytesPerSec: 125e6, // 1 Gb/s
		ClientLatency:        1200 * time.Microsecond,
	}
}

// EC2Profile approximates the paper's second testbed: virtualized instances
// with ~5x the base latency of Grid'5000 and heavy-tailed jitter reaching
// tens of milliseconds (the variability Fig. 4(b) shows).
func EC2Profile() Profile {
	return Profile{
		Name:                 "ec2",
		Base:                 [4]time.Duration{50 * time.Microsecond, 750 * time.Microsecond, 2000 * time.Microsecond, 25 * time.Millisecond},
		Jitter:               dist.LognormalFromMeanP99(1.3, 12.0),
		BandwidthBytesPerSec: 60e6, // shared virtualized NIC
		ClientLatency:        2500 * time.Microsecond,
	}
}

// WANHeavyTailProfile models a geo-replicated deployment whose cross-DC
// links ride the public internet: moderate base latencies but Pareto
// (power-law) jitter, so the p99.9 is many multiples of the median. This
// is the regime where "wait for the slowest of N replicas" dominates and
// an adaptive controller has the most to gain from backing off.
func WANHeavyTailProfile() Profile {
	return Profile{
		Name: "wan-heavytail",
		Base: [4]time.Duration{100 * time.Microsecond, 1 * time.Millisecond, 5 * time.Millisecond, 80 * time.Millisecond},
		// Unit-mean Pareto with shape 2.2: p99 ~ 4.4x the base latency,
		// p99.99 ~ 36x — the long tail WAN paths exhibit.
		Jitter:               dist.ParetoFromMean(1.0, 2.2),
		BandwidthBytesPerSec: 30e6,
		ClientLatency:        5 * time.Millisecond,
	}
}

// DegradedProfile models a cluster limping through an incident (failing
// NIC, saturated switch, noisy neighbor): every message pays a hard floor
// of slowness plus an exponential tail, doubling the effective latency on
// average. Controllers tuned on healthy profiles must re-adapt here.
func DegradedProfile() Profile {
	return Profile{
		Name: "degraded",
		Base: [4]time.Duration{50 * time.Microsecond, 500 * time.Microsecond, 1500 * time.Microsecond, 20 * time.Millisecond},
		// Shifted exponential: never faster than 0.8x nominal, mean 2.0x,
		// with a memoryless tail of multi-x stalls.
		Jitter:               dist.Shifted{Base: dist.NewExponential(1.2), Offset: 0.8},
		BandwidthBytesPerSec: 20e6,
		ClientLatency:        4 * time.Millisecond,
	}
}

// CongestedBimodalProfile models intra-DC congestion events: most messages
// see well-behaved lognormal jitter, but a fraction hit a congested path
// (queue buildup, incast) and arrive several times late. The two regimes
// are exactly what a single-mode latency assumption gets wrong.
func CongestedBimodalProfile() Profile {
	return Profile{
		Name: "congested-bimodal",
		Base: [4]time.Duration{30 * time.Microsecond, 300 * time.Microsecond, 1 * time.Millisecond, 12 * time.Millisecond},
		// 85% fast mode (lognormal, p99 = 2x), 15% congested mode at 4-6x+
		// (shifted exponential); overall mean multiplier 1.75.
		Jitter: dist.NewBimodal(
			dist.LognormalFromMeanP99(1.0, 2.0),
			dist.Shifted{Base: dist.NewExponential(2.0), Offset: 4},
			0.15,
		),
		BandwidthBytesPerSec: 80e6,
		ClientLatency:        2 * time.Millisecond,
	}
}

// DriftingProfile models a network whose jitter degrades mid-run: it
// starts as the healthy Grid'5000-like LAN and drifts toward the degraded
// regime (latency floor plus exponential stalls) as the returned knob's
// progress moves from 0 to 1. Callers schedule the drift themselves —
// typically sim.Every advancing SetProgress over the experiment — which
// is exactly the re-adaptation-speed stimulus a controller tuned on the
// healthy network must survive. Each call returns an independent knob, so
// concurrent experiments do not share drift state.
func DriftingProfile() (Profile, *dist.Drifting) {
	drift := dist.NewDrifting(
		dist.LognormalFromMeanP99(1.0, 2.5),
		dist.Shifted{Base: dist.NewExponential(1.2), Offset: 0.8},
	)
	return Profile{
		Name:                 "drifting",
		Base:                 [4]time.Duration{25 * time.Microsecond, 200 * time.Microsecond, 600 * time.Microsecond, 8 * time.Millisecond},
		Jitter:               drift,
		BandwidthBytesPerSec: 100e6,
		ClientLatency:        1500 * time.Microsecond,
	}, drift
}

// UniformProfile gives every pair the same one-way latency; used by the
// Fig. 4(b) sweep where latency is the controlled variable.
func UniformProfile(oneWay time.Duration) Profile {
	return Profile{
		Name:          "uniform",
		Base:          [4]time.Duration{oneWay, oneWay, oneWay, oneWay},
		Jitter:        dist.Constant{V: 1},
		ClientLatency: oneWay,
	}
}

// Net prices messages: a latency class per pair of hosts, from the cluster
// topology, and one delay draw per message. Cuts, slow links and every other
// fault live in the fabric's fault plane (internal/faults), which stores each
// link's class next to its fault state; Net keeps the profile, the
// colocation of external endpoints, and the jitter draw.
type Net struct {
	topo    *ring.Topology
	profile Profile
	rng     *rand.Rand

	mu        sync.Mutex // guards colocated; Delay's caller serializes the rng
	colocated map[ring.NodeID]ring.NodeID
}

// New creates a network over topo with the given profile. rng drives jitter
// and must be dedicated to this Net for determinism.
func New(topo *ring.Topology, profile Profile, rng *rand.Rand) *Net {
	if profile.Jitter == nil {
		profile.Jitter = dist.Constant{V: 1}
	}
	return &Net{
		topo:      topo,
		profile:   profile,
		rng:       rng,
		colocated: make(map[ring.NodeID]ring.NodeID),
	}
}

// Colocate places an external endpoint (a monitor or an embedded client) on
// the same host as a cluster node: it shares the host's links, paying their
// latencies instead of the external ClientLatency, and every fault on them.
// The paper's monitoring module runs inside the cluster, so its pings
// observe inter-replica latency. Colocate before the endpoint registers on
// the bus.
func (n *Net) Colocate(id, host ring.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.colocated[id] = host
}

// Host is the endpoint whose links id uses: its colocation host, or itself.
func (n *Net) Host(id ring.NodeID) ring.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	if host, ok := n.colocated[id]; ok {
		return host
	}
	return id
}

// clientClass is the latency class of a link with an end outside the
// topology (an external client); the classes below it index Profile.Base.
const clientClass = uint8(len(Profile{}.Base))

// Class is the latency class of the a→b link between two hosts: their
// ring.Topology.Distance when both are cluster nodes, the client class
// otherwise.
func (n *Net) Class(a, b ring.NodeID) uint8 {
	_, aIn := n.topo.Info(a)
	_, bIn := n.topo.Info(b)
	if aIn && bIn {
		return uint8(n.topo.Distance(a, b))
	}
	return clientClass
}

// Delay draws the one-way delivery delay of a message of size bytes on a
// link of the given class. It is not safe for concurrent use: the bus calls
// it under its own lock.
func (n *Net) Delay(class uint8, bytes int) time.Duration {
	base := n.profile.ClientLatency
	if class < clientClass {
		base = n.profile.Base[class]
	}
	d := time.Duration(float64(base) * n.profile.Jitter.Sample(n.rng))
	if n.profile.BandwidthBytesPerSec > 0 && bytes > 0 {
		d += time.Duration(float64(bytes) / n.profile.BandwidthBytesPerSec * float64(time.Second))
	}
	if d < 0 {
		d = 0
	}
	return d
}
