package core

import (
	"testing"
	"time"

	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/wire"
)

var (
	contendedRates = GroupRates{ReadRate: 300, WriteInterval: 0.005}
	quietRates     = GroupRates{ReadRate: 1, WriteInterval: 10}
)

func contendedObs(at time.Time, groups []GroupRates, epoch uint64) Observation {
	return Observation{
		At:            at,
		ReadRate:      300,
		WriteInterval: 0.005,
		Latency:       time.Millisecond,
		Epoch:         epoch,
		Groups:        groups,
	}
}

func TestControllerRegroupMigratesModels(t *testing.T) {
	ctl := NewController(ControllerConfig{
		Policy:          Policy{ToleratedStaleRate: 0.02},
		N:               5,
		Groups:          2,
		GroupFn:         func(key []byte) int { return int(key[0] - '0') },
		GroupTolerances: []float64{0.02, 0.9},
	})
	ctl.Observe(contendedObs(time.Unix(1, 0), []GroupRates{contendedRates, quietRates}, 0))
	hotLevel, _ := ctl.LevelsFor([]byte("0"))
	if hotLevel == wire.One {
		t.Fatal("contended group did not escalate")
	}
	if got, _ := ctl.LevelsFor([]byte("1")); got != wire.One {
		t.Fatalf("quiet group at %v, want ONE", got)
	}

	// Regroup into three groups: new 0 inherits old 0 (stays escalated),
	// new 1 is fresh (inherits the global stream), new 2 inherits old 1.
	ctl.Regroup(1,
		func(key []byte) int { return int(key[0] - 'a') },
		[]float64{0.02, 0.4, 0.9},
		[]int{0, -1, 1})
	if got := ctl.Groups(); got != 3 {
		t.Fatalf("groups = %d, want 3", got)
	}
	if got := ctl.Epoch(); got != 1 {
		t.Fatalf("epoch = %d, want 1", got)
	}
	if got, _ := ctl.LevelsFor([]byte("a")); got != hotLevel {
		t.Fatalf("migrated hot group at %v, want inherited %v", got, hotLevel)
	}
	if got, _ := ctl.LevelsFor([]byte("c")); got != wire.One {
		t.Fatalf("migrated quiet group at %v, want ONE", got)
	}
	if got, _ := ctl.LevelsFor([]byte("b")); got != ctl.Last().Level {
		t.Fatalf("fresh group at %v, want the global stream's %v", got, ctl.Last().Level)
	}
	// The migrated group keeps its parent's decision history.
	if hist := ctl.GroupHistory(0); len(hist) != 1 {
		t.Fatalf("migrated history length = %d, want 1", len(hist))
	}
	if hist := ctl.GroupHistory(1); len(hist) != 0 {
		t.Fatalf("fresh group history length = %d, want 0", len(hist))
	}
}

func TestControllerRegroupAppliesExactlyOncePerEpoch(t *testing.T) {
	ctl := NewController(ControllerConfig{Policy: Policy{ToleratedStaleRate: 0.2}, N: 3, Groups: 1})
	fnA := func([]byte) int { return 0 }
	ctl.Regroup(1, fnA, []float64{0.1, 0.5}, []int{0, 0})
	if got := ctl.Groups(); got != 2 {
		t.Fatalf("groups = %d after first apply", got)
	}
	// Duplicate and stale epochs are ignored.
	ctl.Regroup(1, fnA, []float64{0.3}, []int{0})
	ctl.Regroup(0, fnA, []float64{0.3}, []int{0})
	if got := ctl.Groups(); got != 2 {
		t.Fatalf("groups = %d, duplicate/stale epoch re-applied", got)
	}
	if got := ctl.Epoch(); got != 1 {
		t.Fatalf("epoch = %d, want 1", got)
	}
	// Degenerate regroups are rejected outright.
	ctl.Regroup(2, fnA, nil, nil)
	if got := ctl.Groups(); got != 2 {
		t.Fatalf("empty tolerance table accepted: groups = %d", got)
	}
}

func TestControllerObserveRequiresEpochAlignment(t *testing.T) {
	ctl := NewController(ControllerConfig{
		Policy:          Policy{ToleratedStaleRate: 0.02},
		N:               5,
		Groups:          2,
		GroupTolerances: []float64{0.02, 0.9},
	})
	ctl.Regroup(1, nil, []float64{0.02, 0.9}, []int{0, 1})

	// Same group count but a stale epoch: per-group rates must be ignored
	// in favor of the cluster-wide rates.
	ctl.Observe(contendedObs(time.Unix(1, 0), []GroupRates{quietRates, quietRates}, 0))
	if got := ctl.GroupLast(0).Model.LambdaR; got != 300 {
		t.Fatalf("stale-epoch group rates applied: λr = %v, want global 300", got)
	}
	// Matching epoch: the group's own rates rule.
	ctl.Observe(contendedObs(time.Unix(2, 0), []GroupRates{quietRates, quietRates}, 1))
	if got := ctl.GroupLast(0).Model.LambdaR; got != quietRates.ReadRate {
		t.Fatalf("aligned group rates not applied: λr = %v, want %v", got, quietRates.ReadRate)
	}
}

func TestControllerPerGroupAvgWriteBytesTp(t *testing.T) {
	const bw = 1 << 20 // 1 MiB/s so payload size dominates Tp
	ctl := NewController(ControllerConfig{
		Policy:               Policy{ToleratedStaleRate: 0.2},
		N:                    5,
		Groups:               2,
		BandwidthBytesPerSec: bw,
	})
	obs := contendedObs(time.Unix(1, 0), []GroupRates{
		{ReadRate: 300, WriteInterval: 0.005, AvgWriteBytes: 1024},
		{ReadRate: 300, WriteInterval: 0.005, AvgWriteBytes: 128 * 1024},
	}, 0)
	ctl.Observe(obs)
	tp0 := ctl.GroupLast(0).Model.Tp
	tp1 := ctl.GroupLast(1).Model.Tp
	if tp1 <= tp0 {
		t.Fatalf("large-payload group Tp %v not above small-payload group Tp %v", tp1, tp0)
	}
	if want := PropagationTime(obs.Latency, 128*1024, bw); tp1 != want {
		t.Fatalf("group 1 Tp = %v, want %v", tp1, want)
	}
	// A configured AvgWriteBytes pins every group to the same avgw.
	pinned := NewController(ControllerConfig{
		Policy:               Policy{ToleratedStaleRate: 0.2},
		N:                    5,
		Groups:               2,
		AvgWriteBytes:        2048,
		BandwidthBytesPerSec: bw,
	})
	pinned.Observe(obs)
	if a, b := pinned.GroupLast(0).Model.Tp, pinned.GroupLast(1).Model.Tp; a != b {
		t.Fatalf("configured avgw not pinned: %v vs %v", a, b)
	}
}

// TestControllerStaticSingleGroupMatchesPR2 pins the regression the
// regrouping subsystem must not introduce: a controller configured with a
// single static group and regrouping disabled (no Regroup ever applied)
// behaves identically to the classic PR 2 multi-model controller.
func TestControllerStaticSingleGroupMatchesPR2(t *testing.T) {
	mk := func(withStaticGroup bool) *Controller {
		cfg := ControllerConfig{Policy: Policy{ToleratedStaleRate: 0.2}, N: 5, Groups: 1}
		if withStaticGroup {
			cfg.GroupFn = func([]byte) int { return 0 } // a one-group static assignment
			cfg.GroupTolerances = []float64{0.2}
		}
		return NewController(cfg)
	}
	pr2, static := mk(false), mk(true)
	key := []byte("user0000000042")
	obsStream := []Observation{
		contendedObs(time.Unix(1, 0), []GroupRates{contendedRates}, 0),
		contendedObs(time.Unix(2, 0), nil, 0),
		{At: time.Unix(3, 0), ReadRate: 1, WriteInterval: 10, Latency: time.Millisecond,
			Groups: []GroupRates{quietRates}},
		contendedObs(time.Unix(4, 0), []GroupRates{contendedRates}, 0),
	}
	for i, obs := range obsStream {
		pr2.Observe(obs)
		static.Observe(obs)
		if a, b := pr2.Last().Level, static.Last().Level; a != b {
			t.Fatalf("obs %d: global level diverged: %v vs %v", i, a, b)
		}
		ar, aw := pr2.LevelsFor(key)
		br, bw := static.LevelsFor(key)
		if ar != br || aw != bw {
			t.Fatalf("obs %d: per-key levels diverged: %v/%v vs %v/%v", i, ar, aw, br, bw)
		}
		if a, b := pr2.Last(), static.Last(); a != b {
			t.Fatalf("obs %d: decisions diverged:\n%+v\n%+v", i, a, b)
		}
		if a, b := pr2.GroupLast(0), static.GroupLast(0); a != b {
			t.Fatalf("obs %d: group decisions diverged:\n%+v\n%+v", i, a, b)
		}
	}
}

// fakeFleet answers the monitor's stats and ping probes synchronously with
// scripted per-node responses, so epoch-transition behavior can be driven
// without a full cluster.
type fakeFleet struct {
	mon   *Monitor
	nodes map[ring.NodeID]*wire.StatsResponse
}

func (f *fakeFleet) Send(from, to ring.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case wire.StatsRequest:
		if s, ok := f.nodes[to]; ok {
			resp := *s
			resp.ID = msg.ID
			resp.Groups = append([]wire.GroupCounters(nil), s.Groups...)
			f.mon.Deliver(to, resp)
		}
	case wire.Ping:
		if _, ok := f.nodes[to]; ok {
			f.mon.Deliver(to, wire.Pong{ID: msg.ID, Sent: msg.Sent})
		}
	}
}

func TestMonitorDiscardsCrossEpochGroupSamples(t *testing.T) {
	s := sim.New(5)
	fleet := &fakeFleet{nodes: map[ring.NodeID]*wire.StatsResponse{
		"n1": {Groups: []wire.GroupCounters{{}, {}}},
		"n2": {Groups: []wire.GroupCounters{{}, {}}},
	}}
	var got []Observation
	mon := NewMonitor(MonitorConfig{
		ID:            "mon",
		Nodes:         []ring.NodeID{"n1", "n2"},
		Interval:      time.Second,
		OnObservation: func(o Observation) { got = append(got, o) },
	}, s, fleet)
	fleet.mon = mon

	step := func(advance func()) {
		advance()
		mon.beginRound()
		s.RunFor(time.Second)
	}
	bump := func(epoch uint64, reads, writes, bytes uint64) func() {
		return func() {
			for _, n := range fleet.nodes {
				n.Epoch = epoch
				if epoch != 0 && n.Epoch != epoch {
					n.Groups = []wire.GroupCounters{{}, {}}
				}
				for g := range n.Groups {
					n.Groups[g].Reads += reads
					n.Groups[g].Writes += writes
					n.Groups[g].BytesWritten += bytes
				}
				n.Reads += 2 * reads
				n.Writes += 2 * writes
				n.BytesWrit += 2 * bytes
			}
		}
	}
	reset := func(epoch uint64) func() {
		return func() {
			for _, n := range fleet.nodes {
				n.Epoch = epoch
				n.Groups = []wire.GroupCounters{{}, {}} // node re-baselined
			}
		}
	}

	step(func() {})               // round 1: baseline only
	step(bump(0, 100, 10, 10240)) // round 2: first real deltas
	if len(got) != 1 || len(got[0].Groups) != 2 || got[0].Epoch != 0 {
		t.Fatalf("round 2 observation = %+v, want 2 groups at epoch 0", got)
	}
	if got[0].Groups[0].AvgWriteBytes != 1024 {
		t.Fatalf("group avg write bytes = %v, want 1024", got[0].Groups[0].AvgWriteBytes)
	}

	step(reset(1)) // round 3: epoch moved, counters re-baselined
	if len(got) != 2 || len(got[1].Groups) != 0 {
		t.Fatalf("epoch-transition round reported group rates: %+v", got[len(got)-1])
	}

	step(bump(1, 50, 5, 5120)) // round 4: clean within-epoch deltas again
	if len(got) != 3 || len(got[2].Groups) != 2 || got[2].Epoch != 1 {
		t.Fatalf("post-transition observation = %+v, want 2 groups at epoch 1", got[len(got)-1])
	}

	// A mid-rollout round where the nodes disagree on the epoch must also
	// be discarded, and the next agreed round only rebuilds the baseline.
	step(func() {
		fleet.nodes["n1"].Epoch = 2
		fleet.nodes["n1"].Groups = []wire.GroupCounters{{}, {}}
	})
	if len(got) != 4 || len(got[3].Groups) != 0 {
		t.Fatalf("mixed-epoch round reported group rates: %+v", got[len(got)-1])
	}
	step(func() {
		fleet.nodes["n2"].Epoch = 2
		fleet.nodes["n2"].Groups = []wire.GroupCounters{{}, {}}
	})
	if len(got) != 5 || len(got[4].Groups) != 0 {
		t.Fatalf("baseline-rebuild round reported group rates: %+v", got[len(got)-1])
	}
	step(bump(2, 30, 3, 3072))
	if len(got) != 6 || len(got[5].Groups) != 2 || got[5].Epoch != 2 {
		t.Fatalf("agreed epoch-2 round = %+v, want 2 groups at epoch 2", got[len(got)-1])
	}
}

func TestMonitorOnNodeStatsHook(t *testing.T) {
	s := sim.New(6)
	fleet := &fakeFleet{nodes: map[ring.NodeID]*wire.StatsResponse{
		"n1": {Epoch: 3, KeySamples: []wire.KeySample{{Key: []byte("hot"), Reads: 5, Writes: 2}}},
	}}
	var nodes []ring.NodeID
	var samples int
	mon := NewMonitor(MonitorConfig{
		ID:       "mon",
		Nodes:    []ring.NodeID{"n1"},
		Interval: time.Second,
		OnNodeStats: func(n ring.NodeID, resp wire.StatsResponse) {
			nodes = append(nodes, n)
			samples += len(resp.KeySamples)
			if resp.Epoch != 3 {
				t.Errorf("hook epoch = %d, want 3", resp.Epoch)
			}
		},
	}, s, fleet)
	fleet.mon = mon
	mon.beginRound()
	s.RunFor(time.Second)
	if len(nodes) != 1 || nodes[0] != "n1" || samples != 1 {
		t.Fatalf("hook saw nodes=%v samples=%d", nodes, samples)
	}
}

func TestLagMeter(t *testing.T) {
	meter := &LagMeter{Window: 4}
	at := func(sec int64) time.Time { return time.Unix(sec, 0) }
	dec := func(sec int64, lvl wire.ConsistencyLevel) Decision {
		return Decision{At: at(sec), Level: lvl}
	}
	// Pre-change steady state at ONE.
	meter.OnDecision(dec(1, wire.One))
	meter.OnDecision(dec(2, wire.One))
	if _, ok := meter.Lag(); ok {
		t.Fatal("lag reported before any regime change was marked")
	}
	meter.MarkRegimeChange(at(10))
	if meter.PreLevel() != wire.One {
		t.Fatalf("pre level = %v", meter.PreLevel())
	}
	// Post-change stream dithers at the QUORUM boundary; the operating
	// mode is QUORUM and the stream first reached it at t=12.
	meter.OnDecision(dec(11, wire.One))
	meter.OnDecision(dec(12, wire.Quorum))
	meter.OnDecision(dec(13, wire.Quorum))
	if _, ok := meter.Lag(); ok {
		t.Fatal("lag reported before a full mode window accumulated")
	}
	meter.OnDecision(dec(14, wire.One)) // boundary dither
	lag, ok := meter.Lag()
	if !ok {
		t.Fatal("no lag once the mode window filled")
	}
	if lag != 2*time.Second {
		t.Fatalf("lag = %v, want 2s (change at 10, first QUORUM at 12)", lag)
	}
	// More dithering does not move the anchor.
	meter.OnDecision(dec(15, wire.Quorum))
	meter.OnDecision(dec(16, wire.Quorum))
	if lag, _ := meter.Lag(); lag != 2*time.Second {
		t.Fatalf("lag moved to %v", lag)
	}
	if meter.StableLevel() != wire.Quorum {
		t.Fatalf("stable level = %v", meter.StableLevel())
	}
	// A regime change that does not move the operating level reports zero
	// lag: the controller was already where the new regime needs it.
	meter2 := &LagMeter{Window: 2}
	meter2.OnDecision(dec(1, wire.Quorum))
	meter2.MarkRegimeChange(at(5))
	meter2.OnDecision(dec(6, wire.Quorum))
	meter2.OnDecision(dec(7, wire.Quorum))
	if lag, ok := meter2.Lag(); !ok || lag != 0 {
		t.Fatalf("already-stable lag = %v ok=%v, want 0/true", lag, ok)
	}
}
