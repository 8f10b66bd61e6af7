package transport

import (
	"testing"
	"time"

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
	net := simnet.New(testTopo(t), simnet.UniformProfile(3*time.Millisecond), s.NewStream())
	bus := NewBus(net)
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
	net := simnet.New(testTopo(t), simnet.UniformProfile(time.Millisecond), s.NewStream())
	bus := NewBus(net)
	bus.Send("a", "zzz", wire.Ping{ID: 1})
	s.RunUntilIdle(10)
	if d, dropped := bus.Stats(); d != 0 || dropped != 1 {
		t.Fatalf("delivered=%d dropped=%d", d, dropped)
	}
}

func TestBusDropsAcrossPartition(t *testing.T) {
	s := sim.New(1)
	net := simnet.New(testTopo(t), simnet.UniformProfile(time.Millisecond), s.NewStream())
	bus := NewBus(net)
	sink := &capture{rt: s}
	bus.Register("b", s, sink)
	net.Partition("a", "b")
	bus.Send("a", "b", wire.Ping{ID: 1})
	s.RunUntilIdle(10)
	if len(sink.msgs) != 0 {
		t.Fatal("message crossed a partition")
	}
	net.Heal("a", "b")
	bus.Send("a", "b", wire.Ping{ID: 2})
	s.RunUntilIdle(10)
	if len(sink.msgs) != 1 {
		t.Fatal("message not delivered after heal")
	}
}

func TestBusUnregisterDropsInFlight(t *testing.T) {
	s := sim.New(1)
	net := simnet.New(testTopo(t), simnet.UniformProfile(5*time.Millisecond), s.NewStream())
	bus := NewBus(net)
	sink := &capture{rt: s}
	bus.Register("b", s, sink)
	bus.Send("a", "b", wire.Ping{ID: 1})
	bus.Unregister("b") // before delivery fires
	s.RunUntilIdle(10)
	if len(sink.msgs) != 0 {
		t.Fatal("message delivered to unregistered endpoint")
	}
}

func TestBusDegradedLink(t *testing.T) {
	s := sim.New(1)
	net := simnet.New(testTopo(t), simnet.UniformProfile(time.Millisecond), s.NewStream())
	bus := NewBus(net)
	sink := &capture{rt: s}
	bus.Register("b", s, sink)
	net.Degrade("a", "b", 50*time.Millisecond)
	start := s.Now()
	bus.Send("a", "b", wire.Ping{ID: 1})
	s.RunUntilIdle(10)
	if got := sink.times[0].Sub(start); got != 51*time.Millisecond {
		t.Fatalf("degraded delay = %v, want 51ms", got)
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
	st := q.Stats()
	if st.Served != 3 || st.MaxDepth != 3 || st.Depth != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BusyFor != 30*time.Millisecond {
		t.Fatalf("busy = %v", st.BusyFor)
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
	net := simnet.New(testTopo(t), profile, s.NewStream())
	bus := NewBus(net)
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
	net := simnet.New(testTopo(t), simnet.UniformProfile(time.Millisecond), s.NewStream())
	bus := NewBus(net)
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
	if sink.n != 202*8 || q.Stats().Served != 202*8 {
		t.Fatalf("delivered %d, served %d, want %d", sink.n, q.Stats().Served, 202*8)
	}
}
