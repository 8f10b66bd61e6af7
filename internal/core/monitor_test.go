package core

import (
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/faults"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/wire"
)

// loadGen drives a constant synthetic read/write load directly at the
// cluster (bypassing the client driver to keep the test focused).
type loadGen struct {
	s   *sim.Sim
	bus interface {
		Send(from, to ring.NodeID, m wire.Message)
	}
	nodes []ring.NodeID
	id    uint64
}

func (g *loadGen) run(readsPerSec, writesPerSec float64, until time.Duration) {
	if readsPerSec > 0 {
		interval := time.Duration(float64(time.Second) / readsPerSec)
		g.s.Ticker(interval, func() {
			g.id++
			g.bus.Send("loadgen", g.nodes[int(g.id)%len(g.nodes)], wire.ReadRequest{ID: g.id, Key: []byte("k"), Level: wire.One})
		})
	}
	if writesPerSec > 0 {
		interval := time.Duration(float64(time.Second) / writesPerSec)
		g.s.Ticker(interval, func() {
			g.id++
			g.bus.Send("loadgen", g.nodes[int(g.id)%len(g.nodes)], wire.WriteRequest{ID: g.id, Key: []byte("k"), Value: []byte("v"), Level: wire.One})
		})
	}
}

func buildMonitored(t *testing.T, interval time.Duration, onObs func(Observation)) (*sim.Sim, *cluster.Cluster, *Monitor) {
	t.Helper()
	return buildMonitoredSpec(t, cluster.DefaultSpec(), interval, onObs)
}

func buildMonitoredSpec(t *testing.T, spec cluster.Spec, interval time.Duration, onObs func(Observation)) (*sim.Sim, *cluster.Cluster, *Monitor) {
	t.Helper()
	s := sim.New(77)
	c, err := cluster.BuildSim(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(MonitorConfig{
		ID:            "harmony-monitor",
		Nodes:         c.NodeIDs(),
		Interval:      interval,
		OnObservation: onObs,
	}, s, c.Bus)
	c.Bus.Register("harmony-monitor", s, mon)
	// Sink for loadgen responses.
	c.Bus.Register("loadgen", s, noopHandler{})
	return s, c, mon
}

type noopHandler struct{}

func (noopHandler) Deliver(ring.NodeID, wire.Message) {}

func TestMonitorMeasuresRates(t *testing.T) {
	var observations []Observation
	s, c, mon := buildMonitored(t, time.Second, func(o Observation) {
		observations = append(observations, o)
	})
	gen := &loadGen{s: s, bus: c.Bus, nodes: c.NodeIDs()}
	gen.run(200, 50, 0) // 200 reads/s, 50 writes/s cluster-wide
	mon.Start()
	s.RunFor(10 * time.Second)
	mon.Stop()

	if len(observations) < 5 {
		t.Fatalf("only %d observations", len(observations))
	}
	last := observations[len(observations)-1]
	// Rates are per-node averages over the 20-node cluster: 200/20 = 10
	// reads/s and a write interval of 20/50 = 0.4 s.
	if last.ReadRate < 7.5 || last.ReadRate > 12.5 {
		t.Fatalf("read rate = %v, want ~10 per node", last.ReadRate)
	}
	wantInterval := 20.0 / 50
	if last.WriteInterval < wantInterval*0.7 || last.WriteInterval > wantInterval*1.3 {
		t.Fatalf("write interval = %v, want ~%v", last.WriteInterval, wantInterval)
	}
	if last.Nodes != 20 {
		t.Fatalf("nodes reporting = %d, want 20", last.Nodes)
	}
	if last.Latency <= 0 {
		t.Fatal("no latency measured")
	}
}

func TestMonitorFirstRoundIsBaseline(t *testing.T) {
	count := 0
	s, _, mon := buildMonitored(t, time.Second, func(Observation) { count++ })
	mon.Start()
	s.RunFor(1500 * time.Millisecond) // exactly one round completes
	if count != 0 {
		t.Fatalf("baseline round produced %d observations", count)
	}
	if mon.Rounds() != 1 {
		t.Fatalf("rounds = %d, want 1", mon.Rounds())
	}
}

func TestMonitorSurvivesDeadNodes(t *testing.T) {
	var last Observation
	s, c, mon := buildMonitored(t, time.Second, func(o Observation) { last = o })
	// Kill a quarter of the cluster.
	ids := c.NodeIDs()
	for _, id := range ids[:5] {
		// A dead node: cut off from every member and from the monitor.
		cut := faults.PartitionSpec{A: []string{string(id)}, B: []string{"harmony-monitor"}}
		for _, other := range ids {
			cut.B = append(cut.B, string(other))
		}
		c.Faults.Apply(faults.Update{Partition: &cut})
	}
	mon.Start()
	s.RunFor(5 * time.Second)
	if mon.Rounds() < 3 {
		t.Fatalf("monitor stalled: %d rounds", mon.Rounds())
	}
	if last.Nodes != 15 {
		t.Fatalf("observation includes dead nodes: %d", last.Nodes)
	}
}

func TestMonitorAggregatesAliveMembersAsMax(t *testing.T) {
	var last Observation
	s, c, mon := buildMonitored(t, time.Second, func(o Observation) { last = o })
	mon.Start()
	s.RunFor(3 * time.Second)
	ids := c.NodeIDs()
	n := len(ids)
	if last.Members != n || last.AliveMembers != n {
		t.Fatalf("healthy cluster: members=%d alive=%d, want %d/%d", last.Members, last.AliveMembers, n, n)
	}
	// Converged partition view: the majority side sees n-2 members, the
	// minority sees 2. The observation takes the MAX across reports — the
	// best-connected member's view — so the minority's collapsed count
	// must not drag it below the majority component's size.
	view := faults.PartitionSpec{}
	for i, id := range ids {
		if i < n-2 {
			view.A = append(view.A, string(id))
		} else {
			view.B = append(view.B, string(id))
		}
	}
	c.Faults.Apply(faults.Update{Convict: &view})
	s.RunFor(3 * time.Second)
	if last.AliveMembers != n-2 {
		t.Fatalf("partitioned: alive=%d, want majority view %d", last.AliveMembers, n-2)
	}
	c.Faults.Apply(faults.Update{Acquit: true})
	s.RunFor(3 * time.Second)
	if last.AliveMembers != n {
		t.Fatalf("healed: alive=%d, want %d", last.AliveMembers, n)
	}
}

func TestControllerDecisionScheme(t *testing.T) {
	ctl := NewController(ControllerConfig{
		Policy: Policy{Name: "Harmony-20%", ToleratedStaleRate: 0.2},
		N:      5,
	})
	if got, _ := ctl.LevelsFor(nil); got != wire.One {
		t.Fatalf("default level = %v, want ONE", got)
	}
	// Low staleness regime: estimate below tolerance → stay at ONE.
	ctl.Observe(Observation{At: time.Unix(1, 0), ReadRate: 100, WriteInterval: 10, Latency: 100 * time.Microsecond, Window: time.Second})
	if d := ctl.Last(); d.Level != wire.One || d.Estimate >= 0.2 {
		t.Fatalf("calm regime decision = %+v", d)
	}
	// Heavy update + high latency: estimate above tolerance → raise CL.
	ctl.Observe(Observation{At: time.Unix(2, 0), ReadRate: 1000, WriteInterval: 0.002, Latency: 20 * time.Millisecond, Window: time.Second})
	d := ctl.Last()
	if d.Estimate <= 0.2 {
		t.Fatalf("hot regime estimate = %v, want > tolerance", d.Estimate)
	}
	if d.Level == wire.One {
		t.Fatalf("hot regime stayed at ONE: %+v", d)
	}
	if d.Xn < 2 || d.Xn > 5 {
		t.Fatalf("Xn = %d out of range", d.Xn)
	}
	if len(ctl.History()) != 2 {
		t.Fatalf("history length = %d", len(ctl.History()))
	}
}

func TestControllerZeroToleranceDemandsAll(t *testing.T) {
	ctl := NewController(ControllerConfig{Policy: Policy{ToleratedStaleRate: 0}, N: 5})
	ctl.Observe(Observation{At: time.Unix(1, 0), ReadRate: 500, WriteInterval: 0.01, Latency: 5 * time.Millisecond, Window: time.Second})
	if d := ctl.Last(); d.Level != wire.All || d.Xn != 5 {
		t.Fatalf("zero tolerance decision = %+v, want ALL", d)
	}
}

func TestControllerFullToleranceStaysEventual(t *testing.T) {
	ctl := NewController(ControllerConfig{Policy: Policy{ToleratedStaleRate: 1}, N: 5})
	ctl.Observe(Observation{At: time.Unix(1, 0), ReadRate: 5000, WriteInterval: 0.0001, Latency: 50 * time.Millisecond, Window: time.Second})
	if d := ctl.Last(); d.Level != wire.One {
		t.Fatalf("full tolerance decision = %+v, want ONE", d)
	}
}

func TestControllerNoSignalStaysEventual(t *testing.T) {
	ctl := NewController(ControllerConfig{Policy: Policy{ToleratedStaleRate: 0.1}, N: 5})
	ctl.Observe(Observation{At: time.Unix(1, 0)}) // empty observation
	if d := ctl.Last(); d.Level != wire.One {
		t.Fatalf("no-signal decision = %+v, want ONE", d)
	}
}

func TestMonitorControllerEndToEnd(t *testing.T) {
	// Full loop: synthetic load → monitor → controller → level adapts.
	var decisions []Decision
	ctl := NewController(ControllerConfig{
		Policy:     Policy{Name: "Harmony-20%", ToleratedStaleRate: 0.2},
		N:          5,
		OnDecision: func(d Decision) { decisions = append(decisions, d) },
	})
	s, c, mon := buildMonitored(t, time.Second, ctl.Observe)
	gen := &loadGen{s: s, bus: c.Bus, nodes: c.NodeIDs()}
	// Heavy update load: 20k reads/s + 10k writes/s cluster-wide, i.e.
	// per-node λr=1000/s, λw=2ms — comfortably above the 20% tolerance.
	gen.run(20000, 10000, 0)
	mon.Start()
	s.RunFor(10 * time.Second)
	if len(decisions) == 0 {
		t.Fatal("no decisions")
	}
	final := decisions[len(decisions)-1]
	if final.Level == wire.One {
		t.Fatalf("controller never escalated under heavy updates: %+v", final)
	}
	if got, _ := ctl.LevelsFor(nil); got != final.Level {
		t.Fatalf("served read level %v out of sync with last decision %v", got, final.Level)
	}
}

// hotColdGroupFn tags keys starting with 'h' as group 0, the rest group 1.
func hotColdGroupFn(key []byte) int {
	if len(key) > 0 && key[0] == 'h' {
		return 0
	}
	return 1
}

func TestMonitorReportsGroupRates(t *testing.T) {
	spec := cluster.DefaultSpec()
	spec.Groups = 2
	spec.GroupFn = hotColdGroupFn
	var last Observation
	s, c, mon := buildMonitoredSpec(t, spec, time.Second, func(o Observation) { last = o })
	// Group 0 ("hot"): 200 reads/s + 100 writes/s. Group 1 ("cold"):
	// 400 reads/s, no writes.
	var id uint64
	nodes := c.NodeIDs()
	s.Ticker(5*time.Millisecond, func() {
		id++
		c.Bus.Send("loadgen", nodes[int(id)%len(nodes)], wire.ReadRequest{ID: id, Key: []byte("hot"), Level: wire.One})
	})
	s.Ticker(10*time.Millisecond, func() {
		id++
		c.Bus.Send("loadgen", nodes[int(id)%len(nodes)], wire.WriteRequest{ID: id, Key: []byte("hot"), Value: []byte("v"), Level: wire.One})
	})
	s.Ticker(2500*time.Microsecond, func() {
		id++
		c.Bus.Send("loadgen", nodes[int(id)%len(nodes)], wire.ReadRequest{ID: id, Key: []byte("cold"), Level: wire.One})
	})
	mon.Start()
	s.RunFor(10 * time.Second)
	mon.Stop()

	if len(last.Groups) != 2 {
		t.Fatalf("groups reported = %d, want 2", len(last.Groups))
	}
	// Per-node averages over 20 nodes: hot reads 10/s, cold reads 20/s,
	// hot write interval 20/100 = 0.2s.
	hot, cold := last.Groups[0], last.Groups[1]
	if hot.ReadRate < 7.5 || hot.ReadRate > 12.5 {
		t.Fatalf("hot read rate = %v, want ~10 per node", hot.ReadRate)
	}
	if cold.ReadRate < 15 || cold.ReadRate > 25 {
		t.Fatalf("cold read rate = %v, want ~20 per node", cold.ReadRate)
	}
	if hot.WriteInterval < 0.14 || hot.WriteInterval > 0.26 {
		t.Fatalf("hot write interval = %v, want ~0.2s", hot.WriteInterval)
	}
	if cold.WriteInterval != 0 {
		t.Fatalf("cold write interval = %v, want 0 (no writes)", cold.WriteInterval)
	}
	// The groups partition the aggregate: summed group read rates must
	// reproduce the global rate.
	if sum := hot.ReadRate + cold.ReadRate; sum < last.ReadRate*0.99 || sum > last.ReadRate*1.01 {
		t.Fatalf("group rates sum to %v, global is %v", sum, last.ReadRate)
	}
}

func TestControllerSingleGroupMatchesGlobal(t *testing.T) {
	// Regression pin for the multi-model refactor: the per-group machinery
	// with Groups=1 must emit decisions identical to the global controller
	// on the same seeded monitor-driven run — the refactor is a strict
	// generalization.
	cfg := ControllerConfig{Policy: Policy{Name: "Harmony-20%", ToleratedStaleRate: 0.2}, N: 5}
	grouped := NewController(func() ControllerConfig { c := cfg; c.Groups = 1; return c }())
	global := NewController(cfg)
	spec := cluster.DefaultSpec()
	spec.Groups = 2 // nodes report per-group telemetry; the global stream must not care
	spec.GroupFn = hotColdGroupFn
	s, c, mon := buildMonitoredSpec(t, spec, 500*time.Millisecond, func(o Observation) {
		grouped.Observe(o)
		global.Observe(o)
	})
	gen := &loadGen{s: s, bus: c.Bus, nodes: c.NodeIDs()}
	gen.run(20000, 10000, 0)
	mon.Start()
	s.RunFor(8 * time.Second)
	mon.Stop()

	gh, bh := grouped.History(), global.History()
	if len(gh) == 0 || len(gh) != len(bh) {
		t.Fatalf("history lengths: grouped=%d global=%d", len(gh), len(bh))
	}
	for i := range gh {
		if gh[i] != bh[i] {
			t.Fatalf("decision %d diverged:\n grouped %+v\n global  %+v", i, gh[i], bh[i])
		}
	}
	if grouped.Last().Level != global.Last().Level {
		t.Fatal("global level diverged")
	}
	// LevelsFor on the grouped controller must serve its global level for
	// every key: one group, one model.
	for _, key := range [][]byte{[]byte("hot"), []byte("cold"), nil} {
		if got, _ := grouped.LevelsFor(key); got != grouped.Last().Level {
			t.Fatalf("single-group LevelsFor(%q) read %v, global level %v", key, got, grouped.Last().Level)
		}
	}
}

func TestControllerPerGroupDecisions(t *testing.T) {
	ctl := NewController(ControllerConfig{
		Policy:          Policy{ToleratedStaleRate: 0.2},
		N:               5,
		Groups:          2,
		GroupFn:         hotColdGroupFn,
		GroupTolerances: []float64{0.05, 0.6},
	})
	// Hot group: heavy contention. Cold group: read-mostly trickle.
	ctl.Observe(Observation{
		At:            time.Unix(1, 0),
		ReadRate:      600,
		WriteInterval: 0.004,
		Latency:       10 * time.Millisecond,
		Window:        time.Second,
		Groups: []GroupRates{
			{ReadRate: 500, WriteInterval: 0.002},
			{ReadRate: 100, WriteInterval: 5},
		},
	})
	hot := ctl.GroupLast(0)
	cold := ctl.GroupLast(1)
	if hot.Level == wire.One {
		t.Fatalf("hot group stayed at ONE: %+v", hot)
	}
	if cold.Level != wire.One {
		t.Fatalf("cold group escalated: %+v", cold)
	}
	if got, _ := ctl.LevelsFor([]byte("h123")); got != hot.Level {
		t.Fatalf("LevelsFor(hot) read = %v, want %v", got, hot.Level)
	}
	if got, _ := ctl.LevelsFor([]byte("c123")); got != wire.One {
		t.Fatalf("LevelsFor(cold) read = %v, want ONE", got)
	}
	// Per-group models carry the measured per-group rates, not the global.
	if hot.Model.LambdaR != 500 || cold.Model.LambdaR != 100 {
		t.Fatalf("group models use wrong rates: hot=%v cold=%v", hot.Model.LambdaR, cold.Model.LambdaR)
	}
	if g := ctl.Groups(); g != 2 {
		t.Fatalf("Groups() = %d", g)
	}
	if h := ctl.GroupHistory(1); len(h) != 1 || h[0] != cold {
		t.Fatalf("group history = %+v", h)
	}
}

func TestControllerGroupFallsBackToGlobalRates(t *testing.T) {
	// A configured group with no per-group telemetry adapts on the global
	// rates instead of flying blind.
	ctl := NewController(ControllerConfig{Policy: Policy{ToleratedStaleRate: 0.2}, N: 5, Groups: 3})
	ctl.Observe(Observation{
		At: time.Unix(1, 0), ReadRate: 1000, WriteInterval: 0.002,
		Latency: 20 * time.Millisecond, Window: time.Second,
		Groups: []GroupRates{{ReadRate: 1000, WriteInterval: 0.002}},
	})
	if d := ctl.GroupLast(2); d.Model.LambdaR != 1000 || d.Level == wire.One {
		t.Fatalf("unreported group decision = %+v, want global-rate escalation", d)
	}
}

func TestMonitorMeasuresAvgWriteSize(t *testing.T) {
	var last Observation
	s, c, mon := buildMonitored(t, time.Second, func(o Observation) { last = o })
	// Writes of a fixed 512-byte payload.
	payload := make([]byte, 512)
	var id uint64
	s.Ticker(5*time.Millisecond, func() {
		id++
		c.Bus.Send("loadgen", c.NodeIDs()[int(id)%20], wire.WriteRequest{ID: id, Key: []byte("k"), Value: payload, Level: wire.One})
	})
	mon.Start()
	s.RunFor(8 * time.Second)
	mon.Stop()
	if last.AvgWriteBytes < 500 || last.AvgWriteBytes > 524 {
		t.Fatalf("avg write bytes = %v, want ~512", last.AvgWriteBytes)
	}
}

func TestControllerUsesMeasuredAvgWriteBytes(t *testing.T) {
	// With no static AvgWriteBytes, Tp must include the measured
	// serialization term: avgw/bandwidth.
	ctl := NewController(ControllerConfig{
		Policy:               Policy{ToleratedStaleRate: 0.2},
		N:                    5,
		BandwidthBytesPerSec: 1e6, // 1 MB/s: 10 KB writes add 10ms
	})
	ctl.Observe(Observation{
		At: time.Unix(1, 0), ReadRate: 100, WriteInterval: 0.01,
		Latency: time.Millisecond, AvgWriteBytes: 10_000,
	})
	if got := ctl.Last().Model.Tp; got != 11*time.Millisecond {
		t.Fatalf("Tp = %v, want 11ms (1ms latency + 10ms serialization)", got)
	}
}
