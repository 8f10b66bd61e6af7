package cluster

import (
	"fmt"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/faults"
	"harmony/internal/repair"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/simnet"
	"harmony/internal/storage"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

// repairSpec is the failure-testing cluster: small enough that one node
// replicates most keys, hints capped tightly, anti-entropy on a fast cadence.
func repairSpec() Spec {
	return Spec{
		DCs:            1,
		RacksPerDC:     2,
		NodesPerRack:   3,
		RF:             5,
		Profile:        simnet.Grid5000Profile(),
		HintedHandoff:  true,
		HintQueueLimit: 8,
		Repair: repair.Options{
			Enabled:        true,
			Interval:       200 * time.Millisecond,
			Concurrency:    4,
			LeavesPerRange: 32,
		},
	}
}

// syncWrite performs a write through drv and fails the test if it errors.
func syncWrite(t *testing.T, s *sim.Sim, drv *client.Driver, key, val string) {
	t.Helper()
	done := false
	drv.Write([]byte(key), []byte(val), func(r client.WriteResult) {
		if r.Err != nil {
			t.Errorf("write %q: %v", key, r.Err)
		}
		done = true
	})
	s.RunFor(time.Second)
	if !done {
		t.Fatalf("write %q did not complete", key)
	}
}

// TestHintQueueOverflowDropsThenRepairCatches is the durability-gap test:
// with the hint queue capped, an outage loses most mutations outright
// (HintsDropped), and only the anti-entropy recovery session brings the
// returned replica back to byte parity with its peers.
func TestHintQueueOverflowDropsThenRepairCatches(t *testing.T) {
	s := sim.New(42)
	c, err := BuildSim(s, repairSpec())
	if err != nil {
		t.Fatal(err)
	}
	coord := c.NodeIDs()[0]
	victim := c.NodeIDs()[2]
	drv, err := client.New(client.Options{ID: "cl", Coordinators: []ring.NodeID{coord}}, s, c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	c.Bus.Register("cl", s, drv)

	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
		syncWrite(t, s, drv, keys[i], "v1")
	}
	s.RunFor(time.Second) // background replication settles

	c.Faults.Apply(faults.Update{Down: names(victim)})
	for _, k := range keys {
		syncWrite(t, s, drv, k, "v2")
	}
	agg := c.AggregateMetrics()
	if agg.HintsDropped == 0 {
		t.Fatalf("hint cap of 8 never overflowed across %d writes", len(keys))
	}
	// The coordinator crashes before replaying anything: every surviving
	// hint is lost too. Repair is now the only healing path.
	for _, n := range c.Nodes {
		n.DropHints()
	}
	c.Faults.Apply(faults.Update{Up: names(victim)})
	s.RunFor(5 * time.Second)

	stale := 0
	for _, k := range keys {
		reps := ring.ReplicasForKey(c.Ring, c.Strategy, []byte(k))
		mine := false
		for _, r := range reps {
			if r == victim {
				mine = true
			}
		}
		if !mine {
			continue
		}
		if v, ok := c.Node(victim).Engine().Get([]byte(k)); !ok || string(v.Data) != "v2" {
			stale++
		}
	}
	if stale != 0 {
		t.Fatalf("%d keys still stale on the recovered replica after repair", stale)
	}
	after := c.AggregateMetrics()
	if after.RepairRows == 0 {
		t.Fatal("divergence gauge never moved: repair did not do the healing")
	}
	if after.GroupRepairRows != nil {
		// Single implicit group: per-group gauge must be absent, not wrong.
		t.Logf("group repair rows: %v", after.GroupRepairRows)
	}
}

// TestHintReplayRacesNodeRecovery pins the ordering hazard between hint
// replay and fresh post-recovery writes: a replayed hint carries an OLDER
// timestamp than a write accepted after recovery, so last-writer-wins must
// keep the fresh value no matter which arrives last.
func TestHintReplayRacesNodeRecovery(t *testing.T) {
	spec := repairSpec()
	spec.HintQueueLimit = 0 // keep every hint: the race needs the replay
	spec.Repair.Enabled = false
	s := sim.New(43)
	c, err := BuildSim(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("raced")
	reps := ring.ReplicasForKey(c.Ring, c.Strategy, key)
	coord, victim := reps[0], reps[len(reps)-1]
	drv, err := client.New(client.Options{ID: "cl", Coordinators: []ring.NodeID{coord}}, s, c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	c.Bus.Register("cl", s, drv)

	c.Faults.Apply(faults.Update{Down: names(victim)})
	syncWrite(t, s, drv, string(key), "hinted-v1")
	if c.Node(coord).pendingHints() == 0 {
		t.Fatal("no hint queued while the victim was down")
	}
	// The victim returns, and a fresh write lands BEFORE the replay tick.
	c.Faults.Apply(faults.Update{Up: names(victim)})
	syncWrite(t, s, drv, string(key), "fresh-v2")
	// Let the replay interval (10s default) fire with the stale hint.
	s.RunFor(30 * time.Second)
	if c.Node(coord).pendingHints() != 0 {
		t.Fatal("hint never replayed")
	}
	v, ok := c.Node(victim).Engine().Get(key)
	if !ok || string(v.Data) != "fresh-v2" {
		t.Fatalf("replayed stale hint clobbered the fresh write: got %q ok=%v", v.Data, ok)
	}
}

// TestCommitLogReplayThenRepairSession chains the two recovery mechanisms:
// a persistent replica is closed and reopened (the crash), rebuilding its
// engine by replaying its data dir's log, then an anti-entropy session
// reconciles what the log predates — exactly the restart-then-repair
// sequence a production node goes through.
func TestCommitLogReplayThenRepairSession(t *testing.T) {
	dir := t.TempDir()
	ea := storage.NewEngine(storage.Options{Persist: &storage.PersistOptions{Path: dir}})
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("cl%04d", i))
		if _, err := ea.Apply(key, wire.Value{Data: []byte("logged"), Timestamp: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ea.Apply([]byte("cl0005"), wire.Value{Tombstone: true, Timestamp: 10_000}); err != nil {
		t.Fatal(err)
	}
	if err := ea.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash: a fresh engine recovers from the data dir.
	rebuilt, err := storage.Open(storage.Options{Persist: &storage.PersistOptions{Path: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Close()
	if got := rebuilt.Recovered(); got != 200 {
		t.Fatalf("recovered %d rows, want 200", got)
	}

	// The peer moved on while this node was dead: newer versions plus keys
	// the log never saw.
	eb := storage.NewEngine(storage.Options{})
	rebuilt.ScanVersions(nil, nil, func(key []byte, v wire.Value) bool {
		_, _ = eb.Apply(key, v)
		return true
	})
	for i := 0; i < 40; i++ {
		key := []byte(fmt.Sprintf("cl%04d", i*5))
		if _, err := eb.Apply(key, wire.Value{Data: []byte("newer"), Timestamp: int64(20_000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 15; i++ {
		key := []byte(fmt.Sprintf("post-crash-%03d", i))
		if _, err := eb.Apply(key, wire.Value{Data: []byte("new"), Timestamp: int64(30_000 + i)}); err != nil {
			t.Fatal(err)
		}
	}

	// A repair session between the rebuilt replica and its peer.
	infos := []ring.NodeInfo{{ID: "a", DC: "dc1", Rack: "r1"}, {ID: "b", DC: "dc1", Rack: "r1"}}
	topo, err := ring.NewTopology(infos)
	if err != nil {
		t.Fatal(err)
	}
	rng, err := ring.Build(topo, 8)
	if err != nil {
		t.Fatal(err)
	}
	strat := ring.SimpleStrategy{RF: 2}
	s := sim.New(44)
	lb := transport.NewLoopback()
	ma := repair.NewManager(repair.Config{Self: "a", Ring: rng, Strategy: strat, Engine: rebuilt,
		Options: repair.Options{Enabled: true, Interval: 100 * time.Millisecond, Concurrency: 1}}, s, lb)
	mb := repair.NewManager(repair.Config{Self: "b", Ring: rng, Strategy: strat, Engine: eb,
		Options: repair.Options{Enabled: true}}, s, lb)
	lb.Register("a", ma)
	lb.Register("b", mb)
	ma.Start()
	defer ma.Stop()
	s.RunFor(time.Second)

	dumpOf := func(e *storage.Engine) string {
		out := ""
		e.ScanVersions(nil, nil, func(key []byte, v wire.Value) bool {
			out += fmt.Sprintf("%s|%d|%v|%x\n", key, v.Timestamp, v.Tombstone, v.Data)
			return true
		})
		return out
	}
	if got, want := dumpOf(rebuilt), dumpOf(eb); got != want {
		t.Fatalf("engines differ after log replay + repair:\nA:\n%s\nB:\n%s", got, want)
	}
	if ma.Stats().RowsHealed == 0 {
		t.Fatal("repair session healed nothing on the log-rebuilt replica")
	}
}

// TestFaultPlanDrivesLiveness scripts a down/up timeline as a fault plan,
// with the coordinator losing its hints in between, and verifies the
// injected liveness view and hint queues follow it.
func TestFaultPlanDrivesLiveness(t *testing.T) {
	spec := repairSpec()
	spec.Repair.Enabled = false
	s := sim.New(45)
	c, err := BuildSim(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	victim := c.NodeIDs()[1]
	coord := c.NodeIDs()[0]
	// A key the victim replicates, so its outage write gets hinted.
	key := ""
	for i := 0; key == "" && i < 100; i++ {
		cand := fmt.Sprintf("fault-key-%d", i)
		for _, r := range ring.ReplicasForKey(c.Ring, c.Strategy, []byte(cand)) {
			if r == victim {
				key = cand
				break
			}
		}
	}
	if key == "" {
		t.Fatal("no candidate key replicated on the victim")
	}
	drv, err := client.New(client.Options{ID: "cl", Coordinators: []ring.NodeID{coord}}, s, c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	c.Bus.Register("cl", s, drv)
	stop := c.Faults.Run(faults.Plan{
		{After: time.Second, Update: faults.Update{Down: names(victim)}},
		{After: 3*time.Second + time.Millisecond, Update: faults.Update{Up: names(victim)}},
	})
	defer stop()
	s.After(3*time.Second, func() {
		for _, n := range c.Nodes {
			n.DropHints()
		}
	})
	if !c.Faults.Alive(coord, victim) {
		t.Fatal("victim dead before the plan started")
	}
	s.RunFor(1500 * time.Millisecond)
	if c.Faults.Alive(coord, victim) {
		t.Fatal("Down did not take the victim down")
	}
	syncWrite(t, s, drv, key, "v") // hinted for the down victim
	if c.Node(coord).pendingHints() == 0 {
		t.Fatal("no hint queued during the injected outage")
	}
	s.RunFor(time.Second)
	if !c.Faults.Alive(coord, victim) {
		t.Fatal("Up did not bring the victim back")
	}
	if c.Node(coord).pendingHints() != 0 {
		t.Fatal("DropHints left hints queued")
	}
	if c.AggregateMetrics().HintsDropped == 0 {
		t.Fatal("dropped hints not accounted")
	}
}
