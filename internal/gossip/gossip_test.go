package gossip

import (
	"fmt"
	"testing"
	"time"

	"harmony/internal/faults"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/simnet"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

// gossipCluster wires n gossipers over a simulated LAN.
func gossipCluster(t *testing.T, s *sim.Sim, n int) (*transport.Bus, *faults.Plane, []*Gossiper, []ring.NodeID) {
	t.Helper()
	var infos []ring.NodeInfo
	var ids []ring.NodeID
	for i := 0; i < n; i++ {
		id := ring.NodeID(fmt.Sprintf("g%02d", i))
		ids = append(ids, id)
		infos = append(infos, ring.NodeInfo{ID: id, DC: "dc1", Rack: fmt.Sprintf("r%d", i%3)})
	}
	topo, err := ring.NewTopology(infos)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(topo, simnet.UniformProfile(500*time.Microsecond), s.NewStream())
	plane := faults.New(s, 1, ids)
	bus := transport.NewBus(net, plane)
	var gs []*Gossiper
	for i, id := range ids {
		g := New(Config{ID: id, Peers: ids, Interval: time.Second, Seed: int64(i)}, s, bus)
		bus.Register(id, s, g)
		g.Start()
		gs = append(gs, g)
	}
	return bus, plane, gs, ids
}

func TestGossipConvergesMembership(t *testing.T) {
	s := sim.New(11)
	_, _, gs, ids := gossipCluster(t, s, 12)
	s.RunFor(15 * time.Second)
	for i, g := range gs {
		if got := len(g.Members()); got != len(ids) {
			t.Fatalf("gossiper %d knows %d members, want %d", i, got, len(ids))
		}
	}
}

func TestGossipAllAliveUnderNormalOperation(t *testing.T) {
	s := sim.New(12)
	_, _, gs, ids := gossipCluster(t, s, 8)
	s.RunFor(30 * time.Second)
	for _, g := range gs {
		for _, id := range ids {
			if !g.Alive(id) {
				t.Fatalf("%v convicted healthy peer %v (phi=%v)", g.cfg.ID, id, g.Phi(id))
			}
		}
	}
}

func TestGossipDetectsDeadNode(t *testing.T) {
	s := sim.New(13)
	_, plane, gs, ids := gossipCluster(t, s, 8)
	s.RunFor(20 * time.Second) // warm up arrival windows
	victim := ids[3]
	plane.Apply(faults.Update{Partition: &faults.PartitionSpec{A: []string{string(victim)}, B: []string{faults.Wildcard}}})
	s.RunFor(60 * time.Second)
	convicted := 0
	for i, g := range gs {
		if ids[i] == victim {
			continue
		}
		if !g.Alive(victim) {
			convicted++
		}
	}
	if convicted < 6 {
		t.Fatalf("only %d/7 peers convicted the dead node", convicted)
	}
	// Unrelated peers stay alive.
	for i, g := range gs {
		if ids[i] == victim {
			continue
		}
		for _, id := range ids {
			if id == victim || id == ids[i] {
				continue
			}
			if !g.Alive(id) {
				t.Fatalf("%v wrongly convicted %v", ids[i], id)
			}
		}
	}
}

func TestGossipRecoversAfterHeal(t *testing.T) {
	s := sim.New(14)
	_, plane, gs, ids := gossipCluster(t, s, 6)
	s.RunFor(20 * time.Second)
	victim := ids[0]
	plane.Apply(faults.Update{Partition: &faults.PartitionSpec{A: []string{string(victim)}, B: []string{faults.Wildcard}}})
	s.RunFor(60 * time.Second)
	if gs[1].Alive(victim) {
		t.Fatal("victim not convicted while isolated")
	}
	plane.Apply(faults.Update{Heal: true})
	s.RunFor(30 * time.Second)
	if !gs[1].Alive(victim) {
		t.Fatalf("victim not resurrected after heal (phi=%v)", gs[1].Phi(victim))
	}
}

func TestGossipTransitiveSpread(t *testing.T) {
	// A node that can only talk to one peer still learns the full view.
	s := sim.New(15)
	_, plane, gs, ids := gossipCluster(t, s, 10)
	// Cut node 0 off from everyone except node 1.
	var rest []string
	for _, id := range ids[2:] {
		rest = append(rest, string(id))
	}
	plane.Apply(faults.Update{Partition: &faults.PartitionSpec{A: []string{string(ids[0])}, B: rest}})
	s.RunFor(30 * time.Second)
	if got := len(gs[0].Members()); got != len(ids) {
		t.Fatalf("partially-connected node sees %d members, want %d", got, len(ids))
	}
}

func TestPhiGrowsWithSilence(t *testing.T) {
	s := sim.New(16)
	_, plane, gs, ids := gossipCluster(t, s, 4)
	s.RunFor(20 * time.Second)
	victim := ids[2]
	phiBefore := gs[0].Phi(victim)
	plane.Apply(faults.Update{Partition: &faults.PartitionSpec{A: []string{string(victim)}, B: []string{faults.Wildcard}}})
	s.RunFor(10 * time.Second)
	phi10 := gs[0].Phi(victim)
	s.RunFor(20 * time.Second)
	phi30 := gs[0].Phi(victim)
	if !(phiBefore < phi10 && phi10 < phi30) {
		t.Fatalf("phi not monotone under silence: %v, %v, %v", phiBefore, phi10, phi30)
	}
}

func TestUnknownPeerOptimisticallyAlive(t *testing.T) {
	s := sim.New(17)
	g := New(Config{ID: "solo", Peers: []ring.NodeID{"solo", "other"}}, s, transport.NewLoopback())
	if !g.Alive("other") {
		t.Fatal("unknown peer not optimistically alive")
	}
	if !g.Alive("solo") {
		t.Fatal("self not alive")
	}
}

func TestGossipStopHaltsRounds(t *testing.T) {
	s := sim.New(18)
	_, _, gs, _ := gossipCluster(t, s, 3)
	s.RunFor(5 * time.Second)
	r := gs[0].Rounds()
	gs[0].Stop()
	s.RunFor(10 * time.Second)
	if gs[0].Rounds() != r {
		t.Fatalf("rounds advanced after Stop: %d -> %d", r, gs[0].Rounds())
	}
}

func TestArrivalWindowStats(t *testing.T) {
	w := &arrivalWindow{}
	t0 := time.Unix(0, 0)
	for i := 1; i <= 50; i++ {
		w.observe(t0.Add(time.Duration(i) * time.Second))
	}
	if m := w.mean(); m < 0.99 || m > 1.01 {
		t.Fatalf("mean interval = %v, want ~1s", m)
	}
	// After 10 missing heartbeats, phi should be well above the threshold.
	phi := w.phi(t0.Add(60*time.Second), time.Second)
	if phi < 4 {
		t.Fatalf("phi after 10s silence = %v, want > 4", phi)
	}
	// Immediately after a heartbeat, phi is ~0.
	if p := w.phi(t0.Add(50*time.Second+time.Millisecond), time.Second); p > 0.1 {
		t.Fatalf("phi right after heartbeat = %v", p)
	}
}

// heartbeat delivers one version of peer "p" to g.
func heartbeat(g *Gossiper, version uint64) {
	g.Deliver("p", wire.GossipSyn{From: "p", Digests: []wire.GossipEntry{{Node: "p", Generation: 1, Version: version}}})
}

// TestBootBurstDoesNotConvict: a peer's first ten versions arrive 100 µs
// apart (the start-up burst), then heartbeats come once per round. A mean
// fitted to the burst alone would convict the peer at the first normal
// round; the interval floor keeps it alive.
func TestBootBurstDoesNotConvict(t *testing.T) {
	s := sim.New(19)
	g := New(Config{ID: "self", Peers: []ring.NodeID{"self", "p"}, Interval: time.Second}, s, transport.NewLoopback())
	for v := uint64(1); v <= 10; v++ {
		heartbeat(g, v)
		s.RunFor(100 * time.Microsecond)
	}
	for v := uint64(11); v <= 12; v++ {
		s.RunFor(time.Second)
		if !g.Alive("p") {
			t.Fatalf("healthy peer convicted one round after the boot burst (phi=%v)", g.Phi("p"))
		}
		heartbeat(g, v)
	}
}

// TestBootBurstThenSilenceConvicts: the floor must not hide a peer that
// dies right after the burst — twenty silent rounds still convict it.
func TestBootBurstThenSilenceConvicts(t *testing.T) {
	s := sim.New(20)
	g := New(Config{ID: "self", Peers: []ring.NodeID{"self", "p"}, Interval: time.Second}, s, transport.NewLoopback())
	for v := uint64(1); v <= 10; v++ {
		heartbeat(g, v)
		s.RunFor(100 * time.Microsecond)
	}
	s.RunFor(20 * time.Second)
	if g.Alive("p") {
		t.Fatalf("peer silent for twenty rounds still alive (phi=%v)", g.Phi("p"))
	}
}

// TestOnRecoverFiresOncePerTransition verifies the anti-entropy trigger: a
// convicted peer that starts heartbeating again fires OnRecover exactly
// once, and a healthy peer never fires it.
func TestOnRecoverFiresOncePerTransition(t *testing.T) {
	s := sim.New(15)
	var infos []ring.NodeInfo
	var ids []ring.NodeID
	for i := 0; i < 6; i++ {
		id := ring.NodeID(fmt.Sprintf("g%02d", i))
		ids = append(ids, id)
		infos = append(infos, ring.NodeInfo{ID: id, DC: "dc1", Rack: "r1"})
	}
	topo, err := ring.NewTopology(infos)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(topo, simnet.UniformProfile(500*time.Microsecond), s.NewStream())
	plane := faults.New(s, 1, ids)
	bus := transport.NewBus(net, plane)
	recovered := map[ring.NodeID]int{}
	var gs []*Gossiper
	for i, id := range ids {
		cfg := Config{ID: id, Peers: ids, Interval: time.Second, Seed: int64(i)}
		if i == 1 {
			cfg.OnRecover = func(peer ring.NodeID) { recovered[peer]++ }
		}
		g := New(cfg, s, bus)
		bus.Register(id, s, g)
		g.Start()
		gs = append(gs, g)
	}
	s.RunFor(20 * time.Second)
	if len(recovered) != 0 {
		t.Fatalf("OnRecover fired with no failures: %v", recovered)
	}
	victim := ids[0]
	plane.Apply(faults.Update{Partition: &faults.PartitionSpec{A: []string{string(victim)}, B: []string{faults.Wildcard}}})
	s.RunFor(60 * time.Second)
	if gs[1].Alive(victim) {
		t.Fatal("victim not convicted while isolated")
	}
	plane.Apply(faults.Update{Heal: true})
	s.RunFor(30 * time.Second)
	if got := recovered[victim]; got != 1 {
		t.Fatalf("OnRecover fired %d times for the recovered victim, want 1", got)
	}
	for id, n := range recovered {
		if id != victim {
			t.Fatalf("OnRecover fired %d times for healthy peer %v", n, id)
		}
	}
}
