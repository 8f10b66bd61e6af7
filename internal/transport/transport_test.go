package transport

import (
	"testing"
	"time"

	"harmony/internal/faults"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/simnet"
	"harmony/internal/wire"
)

func testTopo(t *testing.T) *ring.Topology {
	t.Helper()
	topo, err := ring.NewTopology([]ring.NodeInfo{
		{ID: "a", DC: "dc1", Rack: "r1"},
		{ID: "b", DC: "dc1", Rack: "r1"},
		{ID: "c", DC: "dc1", Rack: "r2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

type capture struct {
	froms []ring.NodeID
	msgs  []wire.Message
	times []time.Time
	rt    sim.Runtime
}

func (c *capture) Deliver(from ring.NodeID, m wire.Message) {
	c.froms = append(c.froms, from)
	c.msgs = append(c.msgs, m)
	c.times = append(c.times, c.rt.Now())
}

func TestBusDeliversWithDelay(t *testing.T) {
	s := sim.New(1)
	bus, _ := newBus(t, s, simnet.UniformProfile(3*time.Millisecond))
	sink := &capture{rt: s}
	bus.Register("b", s, sink)
	start := s.Now()
	bus.Send("a", "b", wire.Ping{ID: 1})
	s.RunUntilIdle(100)
	if len(sink.msgs) != 1 {
		t.Fatalf("delivered %d messages", len(sink.msgs))
	}
	if got := sink.times[0].Sub(start); got != 3*time.Millisecond {
		t.Fatalf("delay = %v, want 3ms", got)
	}
	if sink.froms[0] != "a" {
		t.Fatalf("from = %v", sink.froms[0])
	}
}

func TestBusDropsToUnknown(t *testing.T) {
	s := sim.New(1)
	bus, _ := newBus(t, s, simnet.UniformProfile(time.Millisecond))
	bus.Send("a", "zzz", wire.Ping{ID: 1})
	s.RunUntilIdle(10)
	if d, dropped := bus.Stats(); d != 0 || dropped != 1 {
		t.Fatalf("delivered=%d dropped=%d", d, dropped)
	}
}

func TestBusDropsAcrossPartition(t *testing.T) {
	s := sim.New(1)
	bus, plane := newBus(t, s, simnet.UniformProfile(time.Millisecond))
	sink := &capture{rt: s}
	bus.Register("b", s, sink)
	plane.Apply(faults.Update{Partition: &faults.PartitionSpec{A: []string{"a"}, B: []string{"b"}}})
	bus.Send("a", "b", wire.Ping{ID: 1})
	s.RunUntilIdle(10)
	if len(sink.msgs) != 0 {
		t.Fatal("message crossed a partition")
	}
	plane.Apply(faults.Update{Heal: true})
	bus.Send("a", "b", wire.Ping{ID: 2})
	s.RunUntilIdle(10)
	if len(sink.msgs) != 1 {
		t.Fatal("message not delivered after heal")
	}

	// A crashed node is cut off from every member, both ways; an endpoint
	// colocated on a member shares that member's links.
	net := bus.net
	net.Colocate("mon", "a")
	mon := &capture{rt: s}
	bus.Register("mon", s, mon)
	cSink := &capture{rt: s}
	bus.Register("c", s, cSink)
	plane.Apply(faults.Update{Down: []string{"c"}})
	bus.Send("mon", "c", wire.Ping{ID: 3})
	bus.Send("c", "mon", wire.Ping{ID: 4})
	bus.Send("c", "b", wire.Ping{ID: 5})
	bus.Send("client", "c", wire.Ping{ID: 6}) // not a member: unaffected
	s.RunUntilIdle(10)
	if len(mon.msgs) != 0 || len(sink.msgs) != 1 || len(cSink.msgs) != 1 {
		t.Fatalf("down node: mon got %d, b got %d, c got %d; want 0, 1, 1", len(mon.msgs), len(sink.msgs), len(cSink.msgs))
	}
	plane.Apply(faults.Update{Up: []string{"c"}})
	bus.Send("mon", "c", wire.Ping{ID: 7})
	s.RunUntilIdle(10)
	if len(cSink.msgs) != 2 {
		t.Fatal("restored node unreachable")
	}
}

func TestBusUnregisterDropsInFlight(t *testing.T) {
	s := sim.New(1)
	bus, _ := newBus(t, s, simnet.UniformProfile(5*time.Millisecond))
	sink := &capture{rt: s}
	bus.Register("b", s, sink)
	bus.Send("a", "b", wire.Ping{ID: 1})
	bus.unregister("b") // before delivery fires
	s.RunUntilIdle(10)
	if len(sink.msgs) != 0 {
		t.Fatal("message delivered to unregistered endpoint")
	}
}

func TestBusDegradedLink(t *testing.T) {
	s := sim.New(1)
	bus, plane := newBus(t, s, simnet.UniformProfile(time.Millisecond))
	sink := &capture{rt: s}
	bus.Register("b", s, sink)
	plane.Apply(faults.Update{Set: []faults.RuleUpdate{{From: "a", To: "b", Rule: faults.Rule{Delay: 50 * time.Millisecond}}}})
	start := s.Now()
	bus.Send("a", "b", wire.Ping{ID: 1})
	bus.Send("c", "b", wire.Ping{ID: 2})
	s.RunUntilIdle(10)
	if got := sink.times[0].Sub(start); got != time.Millisecond {
		t.Fatalf("unrelated link delay = %v, want 1ms", got)
	}
	if got := sink.times[1].Sub(start); got != 51*time.Millisecond {
		t.Fatalf("slow link delay = %v, want 51ms", got)
	}
	plane.Apply(faults.Update{Clear: true})
	start = s.Now()
	bus.Send("a", "b", wire.Ping{ID: 3})
	s.RunUntilIdle(10)
	if got := sink.times[2].Sub(start); got != time.Millisecond {
		t.Fatalf("after clear = %v, want 1ms", got)
	}
}

func TestServiceQueueSerializesLoad(t *testing.T) {
	s := sim.New(1)
	sink := &capture{rt: s}
	q := NewServiceQueue(s, sink, func(wire.Message) time.Duration { return 10 * time.Millisecond })
	start := s.Now()
	// Three simultaneous arrivals must be served at 10, 20, 30ms.
	for i := 0; i < 3; i++ {
		q.Deliver("x", wire.StatsRequest{ID: uint64(i)})
	}
	s.RunUntilIdle(100)
	if len(sink.times) != 3 {
		t.Fatalf("served %d", len(sink.times))
	}
	for i, want := range []time.Duration{10, 20, 30} {
		if got := sink.times[i].Sub(start); got != want*time.Millisecond {
			t.Fatalf("msg %d served at %v, want %vms", i, got, want)
		}
	}
	st := q.stats()
	if st.served != 3 || st.maxDepth != 3 || st.depth != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.busyFor != 30*time.Millisecond {
		t.Fatalf("busy = %v", st.busyFor)
	}
}

func TestServiceQueueIdlePassThrough(t *testing.T) {
	s := sim.New(1)
	sink := &capture{rt: s}
	q := NewServiceQueue(s, sink, func(wire.Message) time.Duration { return 5 * time.Millisecond })
	q.Deliver("x", wire.StatsRequest{ID: 1})
	s.RunFor(100 * time.Millisecond)
	start := s.Now()
	q.Deliver("x", wire.StatsRequest{ID: 2}) // queue idle: only service time applies
	s.RunUntilIdle(10)
	if got := sink.times[1].Sub(start); got != 5*time.Millisecond {
		t.Fatalf("idle service = %v, want 5ms", got)
	}
}

func TestLoopbackSynchronous(t *testing.T) {
	l := NewLoopback()
	s := sim.New(1)
	sink := &capture{rt: s}
	l.Register("n", sink)
	l.Send("m", "n", wire.Ping{ID: 9})
	if len(sink.msgs) != 1 {
		t.Fatal("loopback did not deliver synchronously")
	}
	l.Send("m", "unknown", wire.Ping{ID: 10}) // silently dropped
	if len(sink.msgs) != 1 {
		t.Fatal("loopback delivered to unknown endpoint")
	}
}

func TestClientLatencyForExternalEndpoints(t *testing.T) {
	s := sim.New(1)
	profile := simnet.Grid5000Profile()
	profile.Jitter = nil // deterministic
	bus, _ := newBus(t, s, profile)
	sink := &capture{rt: s}
	bus.Register("a", s, sink)
	start := s.Now()
	bus.Send("external-client", "a", wire.Ping{ID: 1})
	s.RunUntilIdle(10)
	if len(sink.times) != 1 {
		t.Fatal("no delivery")
	}
	got := sink.times[0].Sub(start)
	if got < profile.ClientLatency {
		t.Fatalf("client latency = %v, want >= %v", got, profile.ClientLatency)
	}
}

type counter struct{ n int }

func (c *counter) Deliver(ring.NodeID, wire.Message) { c.n++ }

// On the simulator a message crosses the Bus and a ServiceQueue as two events
// and, once records and events are warm, no allocation: what is left per
// message is whatever the sender spent boxing it.
func TestSimulatedDeliveryDoesNotAllocate(t *testing.T) {
	s := sim.New(1)
	bus, _ := newBus(t, s, simnet.UniformProfile(time.Millisecond))
	sink := &counter{}
	q := NewServiceQueue(s, sink, func(wire.Message) time.Duration { return 50 * time.Microsecond })
	bus.Register("b", s, q)
	var m wire.Message = wire.MutationAck{ID: 7}
	send := func() {
		for i := 0; i < 8; i++ {
			bus.Send("a", "b", m)
		}
		if err := s.RunUntilIdle(100); err != nil {
			t.Fatal(err)
		}
	}
	send() // warm the record pool and the event free list
	events := s.Events()
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("%.1f allocations per 8 messages, want 0", allocs)
	}
	if got := s.Events() - events; got != 201*8*2 {
		t.Fatalf("%d events for %d messages: the two hops must stay two events", got, 201*8)
	}
	if sink.n != 202*8 || q.stats().served != 202*8 {
		t.Fatalf("delivered %d, served %d, want %d", sink.n, q.stats().served, 202*8)
	}
}

// newBus builds a bus over testTopo with a fault plane whose members are the
// topology's nodes.
func newBus(t *testing.T, s *sim.Sim, p simnet.Profile) (*Bus, *faults.Plane) {
	t.Helper()
	topo := testTopo(t)
	plane := faults.New(s, 1, topo.Nodes())
	return NewBus(simnet.New(topo, p, s.NewStream()), plane), plane
}
