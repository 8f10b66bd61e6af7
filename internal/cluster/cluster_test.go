package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"harmony/internal/client"
	"harmony/internal/faults"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/simnet"
	"harmony/internal/wire"
)

// testHarness bundles a simulated cluster with a client driver.
type testHarness struct {
	s   *sim.Sim
	c   *Cluster
	drv *client.Driver
}

func newHarness(t *testing.T, spec Spec, clientOpts client.Options) *testHarness {
	t.Helper()
	s := sim.New(1234)
	c, err := BuildSim(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	if clientOpts.ID == "" {
		clientOpts.ID = "client-0"
	}
	if clientOpts.Coordinators == nil {
		clientOpts.Coordinators = c.NodeIDs()
	}
	drv, err := client.New(clientOpts, s, c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	c.Bus.Register(clientOpts.ID, s, drv)
	return &testHarness{s: s, c: c, drv: drv}
}

// write synchronously performs a write and returns its result.
func (h *testHarness) write(t *testing.T, key, value string) client.WriteResult {
	t.Helper()
	var res client.WriteResult
	done := false
	h.drv.Write([]byte(key), []byte(value), func(r client.WriteResult) {
		res = r
		done = true
	})
	h.s.RunFor(5 * time.Second)
	if !done {
		t.Fatalf("write %q did not complete", key)
	}
	return res
}

func (h *testHarness) read(t *testing.T, key string, level wire.ConsistencyLevel) client.ReadResult {
	t.Helper()
	var res client.ReadResult
	done := false
	h.drv.ReadAt([]byte(key), level, func(r client.ReadResult) {
		res = r
		done = true
	})
	h.s.RunFor(5 * time.Second)
	if !done {
		t.Fatalf("read %q did not complete", key)
	}
	return res
}

func TestWriteThenStrongRead(t *testing.T) {
	h := newHarness(t, DefaultSpec(), client.Options{Policy: client.Fixed{Write: wire.One}})
	if res := h.write(t, "user1", "hello"); res.Err != nil {
		t.Fatalf("write: %v", res.Err)
	}
	res := h.read(t, "user1", wire.All)
	if res.Err != nil || !res.Found || string(res.Value) != "hello" {
		t.Fatalf("strong read = %+v", res)
	}
}

func TestReadMissingKey(t *testing.T) {
	h := newHarness(t, DefaultSpec(), client.Options{})
	res := h.read(t, "ghost", wire.One)
	if res.Err != nil {
		t.Fatalf("read err: %v", res.Err)
	}
	if res.Found {
		t.Fatal("missing key reported found")
	}
}

func TestDeleteTombstones(t *testing.T) {
	h := newHarness(t, DefaultSpec(), client.Options{Policy: client.Fixed{Write: wire.All}})
	h.write(t, "k", "v")
	var res client.WriteResult
	h.drv.Delete([]byte("k"), func(r client.WriteResult) { res = r })
	h.s.RunFor(5 * time.Second)
	if res.Err != nil {
		t.Fatalf("delete: %v", res.Err)
	}
	got := h.read(t, "k", wire.All)
	if got.Found {
		t.Fatalf("deleted key still found: %+v", got)
	}
}

func TestQuorumIntersectionFreshness(t *testing.T) {
	// R+W > N guarantees a read observes the latest acknowledged write.
	// With W=QUORUM and R=QUORUM on RF=5 (3+3 > 5), reads must always be
	// fresh no matter the interleaving.
	h := newHarness(t, DefaultSpec(), client.Options{Policy: client.Fixed{Write: wire.Quorum}})
	for i := 0; i < 30; i++ {
		want := fmt.Sprintf("v%d", i)
		if res := h.write(t, "counter", want); res.Err != nil {
			t.Fatalf("write %d: %v", i, res.Err)
		}
		res := h.read(t, "counter", wire.Quorum)
		if res.Err != nil || string(res.Value) != want {
			t.Fatalf("iteration %d: quorum read = %q (err %v), want %q", i, res.Value, res.Err, want)
		}
	}
}

// delayPropagation arranges a deterministic staleness window for key: the
// write coordinator's links to all other replicas are degraded by extra, so
// a ONE write acks from the coordinator's local replica while the rest keep
// the old version for ~extra. It returns the write coordinator (also a
// replica of the key) and a reader coordinator that is a different replica.
func delayPropagation(t *testing.T, h *testHarness, key string, extra time.Duration) (writer, reader ring.NodeID) {
	t.Helper()
	reps := ring.ReplicasForKey(h.c.Ring, h.c.Strategy, []byte(key))
	if len(reps) < 2 {
		t.Fatalf("key %q has %d replicas", key, len(reps))
	}
	writer = reps[0]
	reader = reps[1]
	h.c.Faults.Apply(slowLinks(h.c, writer, extra))
	return writer, reader
}

func TestEventualReadMayBeStaleThenConverges(t *testing.T) {
	// With W=ONE, a read at ONE racing update propagation observes the old
	// version; after propagation quiesces it must observe the new one.
	spec := DefaultSpec()
	h := newHarness(t, spec, client.Options{Policy: client.Fixed{Write: wire.One}})
	h.write(t, "k", "old")
	h.s.RunFor(time.Second) // quiesce propagation

	writer, reader := delayPropagation(t, h, "k", 500*time.Millisecond)

	// Write "new" through the delayed coordinator: it acks from its own
	// replica while the others still hold "old".
	wdrv, err := client.New(client.Options{ID: "w", Coordinators: []ring.NodeID{writer}, Policy: client.Fixed{Write: wire.One}}, h.s, h.c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	h.c.Bus.Register("w", h.s, wdrv)
	rdrv, err := client.New(client.Options{ID: "r", Coordinators: []ring.NodeID{reader}}, h.s, h.c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	h.c.Bus.Register("r", h.s, rdrv)

	wdone := false
	wdrv.Write([]byte("k"), []byte("new"), func(r client.WriteResult) {
		if r.Err != nil {
			t.Errorf("write: %v", r.Err)
		}
		wdone = true
	})
	for !wdone {
		if !h.s.Step() {
			t.Fatal("write stalled")
		}
	}
	// Read at ONE via the other coordinator: its fastest responder is its
	// own replica, which has not yet seen "new".
	var res client.ReadResult
	rdone := false
	rdrv.ReadAt([]byte("k"), wire.One, func(r client.ReadResult) { res = r; rdone = true })
	for !rdone {
		if !h.s.Step() {
			t.Fatal("read stalled")
		}
	}
	if res.Err != nil || string(res.Value) != "old" {
		t.Fatalf("racing ONE read = %q (err %v), want the stale value old", res.Value, res.Err)
	}
	// Convergence: once the delayed mutations land, ONE reads see "new".
	h.c.Faults.Apply(faults.Update{Clear: true})
	h.s.RunFor(2 * time.Second)
	after := h.read(t, "k", wire.One)
	if string(after.Value) != "new" {
		t.Fatalf("after quiesce read = %q, want new", after.Value)
	}
}

func TestReadRepairConvergesReplicas(t *testing.T) {
	spec := DefaultSpec()
	spec.ReadRepairChance = 1.0
	h := newHarness(t, spec, client.Options{Policy: client.Fixed{Write: wire.One}})
	h.write(t, "rr", "v1")
	h.s.RunFor(time.Second)

	// Diverge one replica: partition it, overwrite the key, heal. The
	// partitioned replica still holds v1 while the rest hold v2.
	reps := ring.ReplicasForKey(h.c.Ring, h.c.Strategy, []byte("rr"))
	victim := reps[len(reps)-1]
	h.c.Faults.Apply(isolate(victim))
	h.write(t, "rr", "v2")
	h.s.RunFor(time.Second)
	h.c.Faults.Apply(faults.Update{Heal: true})
	if v, _ := h.c.Node(victim).Engine().Get([]byte("rr")); string(v.Data) != "v1" {
		t.Fatalf("victim should still hold v1, has %q", v.Data)
	}

	// A strong read triggers read repair of the stale replica.
	if res := h.read(t, "rr", wire.All); res.Err != nil || string(res.Value) != "v2" {
		t.Fatalf("ALL read = %+v", res)
	}
	h.s.RunFor(time.Second)

	for _, rid := range reps {
		v, ok := h.c.Node(rid).Engine().Get([]byte("rr"))
		if !ok || string(v.Data) != "v2" {
			t.Fatalf("replica %s = %q ok=%v, want v2", rid, v.Data, ok)
		}
	}
	if m := h.c.AggregateMetrics(); m.RepairsSent == 0 {
		t.Fatal("no repairs recorded")
	}
}

func TestAllReplicasHoldDataAfterQuiesce(t *testing.T) {
	h := newHarness(t, DefaultSpec(), client.Options{Policy: client.Fixed{Write: wire.One}})
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, k := range keys {
		h.write(t, k, "val-"+k)
	}
	h.s.RunFor(5 * time.Second)
	for _, k := range keys {
		reps := ring.ReplicasForKey(h.c.Ring, h.c.Strategy, []byte(k))
		if len(reps) != 5 {
			t.Fatalf("key %s has %d replicas", k, len(reps))
		}
		for _, rid := range reps {
			v, ok := h.c.Node(rid).Engine().Get([]byte(k))
			if !ok || string(v.Data) != "val-"+k {
				t.Fatalf("replica %s of %s = %q ok=%v", rid, k, v.Data, ok)
			}
		}
	}
}

func TestShadowStalenessCounters(t *testing.T) {
	spec := DefaultSpec()
	h := newHarness(t, spec, client.Options{Policy: client.Fixed{Write: wire.One}})
	h.write(t, "sk", "old")
	h.s.RunFor(time.Second)

	writer, reader := delayPropagation(t, h, "sk", 500*time.Millisecond)
	wdrv, err := client.New(client.Options{ID: "w2", Coordinators: []ring.NodeID{writer}, Policy: client.Fixed{Write: wire.One}}, h.s, h.c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	h.c.Bus.Register("w2", h.s, wdrv)
	rdrv, err := client.New(client.Options{ID: "r2", Coordinators: []ring.NodeID{reader}, ShadowEvery: 1}, h.s, h.c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	h.c.Bus.Register("r2", h.s, rdrv)

	wdone := false
	wdrv.Write([]byte("sk"), []byte("new"), func(client.WriteResult) { wdone = true })
	for !wdone {
		if !h.s.Step() {
			t.Fatal("write stalled")
		}
	}
	rdone := false
	rdrv.ReadAt([]byte("sk"), wire.One, func(client.ReadResult) { rdone = true })
	for !rdone {
		if !h.s.Step() {
			t.Fatal("read stalled")
		}
	}
	// Let the delayed replica responses arrive so the shadow comparison
	// completes at the coordinator.
	h.c.Faults.Apply(faults.Update{Clear: true})
	h.s.RunFor(3 * time.Second)
	m := h.c.AggregateMetrics()
	if m.ShadowSamples == 0 {
		t.Fatal("no shadow samples recorded")
	}
	if m.ShadowStale == 0 {
		t.Fatal("the racing ONE read was not counted stale by the shadow probe")
	}
	if m.ShadowStale > m.ShadowSamples {
		t.Fatalf("stale (%d) exceeds samples (%d)", m.ShadowStale, m.ShadowSamples)
	}
}

func TestStrongReadsNeverStale(t *testing.T) {
	spec := DefaultSpec()
	spec.Profile = simnet.UniformProfile(10 * time.Millisecond)
	h := newHarness(t, spec, client.Options{Policy: client.Fixed{Write: wire.One}, ShadowEvery: 1})
	for i := 0; i < 30; i++ {
		key := []byte(fmt.Sprintf("st%d", i%5))
		h.drv.Write(key, []byte(fmt.Sprintf("v%d", i)), func(client.WriteResult) {})
		h.drv.ReadAt(key, wire.All, func(client.ReadResult) {})
		h.s.RunFor(15 * time.Millisecond)
	}
	h.s.RunFor(2 * time.Second)
	m := h.c.AggregateMetrics()
	if m.ShadowStale != 0 {
		t.Fatalf("ALL reads recorded %d stale of %d", m.ShadowStale, m.ShadowSamples)
	}
}

func TestHintedHandoffDelivery(t *testing.T) {
	spec := DefaultSpec()
	spec.HintedHandoff = true
	s := sim.New(7)
	c, err := BuildSim(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Mark one replica of key "hh" down via the Alive hook.
	reps := ring.ReplicasForKey(c.Ring, c.Strategy, []byte("hh"))
	down := reps[len(reps)-1]
	downFlag := true
	for _, n := range c.Nodes {
		n.cfg.Alive = func(id ring.NodeID) bool { return !(downFlag && id == down) }
	}
	drv, err := client.New(client.Options{ID: "cl", Coordinators: []ring.NodeID{reps[0]}, Policy: client.Fixed{Write: wire.One}}, s, c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	c.Bus.Register("cl", s, drv)

	done := false
	drv.Write([]byte("hh"), []byte("v"), func(r client.WriteResult) {
		if r.Err != nil {
			t.Errorf("write: %v", r.Err)
		}
		done = true
	})
	s.RunFor(time.Second)
	if !done {
		t.Fatal("write did not complete")
	}
	coord := c.Node(reps[0])
	if coord.PendingHints() == 0 {
		t.Fatal("no hint queued for the down replica")
	}
	if v, ok := c.Node(down).Engine().Get([]byte("hh")); ok && string(v.Data) == "v" {
		t.Fatal("down replica received the write while down")
	}
	// Node comes back; hints replay on the next tick.
	downFlag = false
	s.RunFor(30 * time.Second)
	if v, ok := c.Node(down).Engine().Get([]byte("hh")); !ok || string(v.Data) != "v" {
		t.Fatalf("hint not replayed: %q ok=%v", v.Data, ok)
	}
	if coord.PendingHints() != 0 {
		t.Fatalf("%d hints still queued after replay", coord.PendingHints())
	}
}

func TestPartitionCausesTimeoutThenHeals(t *testing.T) {
	spec := DefaultSpec()
	spec.ReadTimeout = 200 * time.Millisecond
	spec.WriteTimeout = 200 * time.Millisecond
	h := newHarness(t, spec, client.Options{Policy: client.Fixed{Write: wire.One}, Timeout: 3 * time.Second})
	h.write(t, "pk", "v")
	h.s.RunFor(time.Second)

	reps := ring.ReplicasForKey(h.c.Ring, h.c.Strategy, []byte("pk"))
	// Cut every replica off from the chosen coordinator except itself.
	coord := reps[0]
	h.c.Faults.Apply(faults.Update{Partition: &faults.PartitionSpec{A: names(coord), B: names(reps[1:]...)}})
	var res client.ReadResult
	done := false
	// Use the partitioned coordinator directly.
	drv2, err := client.New(client.Options{ID: "cl2", Coordinators: []ring.NodeID{coord}, Timeout: 3 * time.Second}, h.s, h.c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	h.c.Bus.Register("cl2", h.s, drv2)
	drv2.ReadAt([]byte("pk"), wire.All, func(r client.ReadResult) { res = r; done = true })
	h.s.RunFor(5 * time.Second)
	if !done {
		t.Fatal("read never completed")
	}
	if res.Err == nil {
		t.Fatal("ALL read across a partition succeeded")
	}
	// Heal and retry: must succeed.
	h.c.Faults.Apply(faults.Update{Heal: true})
	done = false
	drv2.ReadAt([]byte("pk"), wire.All, func(r client.ReadResult) { res = r; done = true })
	h.s.RunFor(5 * time.Second)
	if !done || res.Err != nil || string(res.Value) != "v" {
		t.Fatalf("post-heal read = %+v done=%v", res, done)
	}
}

func TestConsistencyLevelUseCounters(t *testing.T) {
	h := newHarness(t, DefaultSpec(), client.Options{})
	h.write(t, "k", "v")
	// A known mix of read levels: the tallies must match exactly, slot by
	// slot, with nothing bleeding into unused slots and writes not counted.
	mix := map[wire.ConsistencyLevel]int{
		wire.One: 3, wire.Two: 1, wire.Three: 2, wire.Quorum: 2, wire.All: 1,
	}
	total := 0
	for lvl, n := range mix {
		for i := 0; i < n; i++ {
			if res := h.read(t, "k", lvl); res.Err != nil {
				t.Fatalf("read at %v: %v", lvl, res.Err)
			}
			total++
		}
	}
	m := h.c.AggregateMetrics()
	for lvl, n := range mix {
		if m.LevelUse[lvl] != uint64(n) {
			t.Fatalf("LevelUse[%v] = %d, want %d (all: %v)", lvl, m.LevelUse[lvl], n, m.LevelUse)
		}
	}
	if m.LevelUse[0] != 0 {
		t.Fatalf("unused slot 0 tallied: %v", m.LevelUse)
	}
	var sum uint64
	for _, v := range m.LevelUse {
		sum += v
	}
	if sum != m.Reads || sum != uint64(total) {
		t.Fatalf("level tallies sum to %d, reads = %d, issued = %d", sum, m.Reads, total)
	}
	if m.Writes != 1 {
		t.Fatalf("writes = %d; writes must not enter LevelUse", m.Writes)
	}
}

func TestBlockingReadRepairAtAll(t *testing.T) {
	// Paper Fig. 1, strong consistency: at CL=ALL with divergent replicas
	// the coordinator writes the newest version to the out-of-date
	// replicas and answers the client only after their acks. With
	// ReadRepairChance=0 there is no background repair at all, so replica
	// convergence by response time can only come from the blocking path.
	spec := DefaultSpec()
	spec.ReadRepairChance = 0
	h := newHarness(t, spec, client.Options{})
	key := []byte("brr-key")
	reps := ring.ReplicasForKey(h.c.Ring, h.c.Strategy, key)
	if len(reps) != 5 {
		t.Fatalf("replicas = %d", len(reps))
	}
	oldV := wire.Value{Data: []byte("old"), Timestamp: 10}
	newV := wire.Value{Data: []byte("new"), Timestamp: 20}
	for _, r := range reps {
		if _, err := h.c.Node(r).Engine().Apply(key, oldV); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.c.Node(reps[2]).Engine().Apply(key, newV); err != nil {
		t.Fatal(err)
	}

	done, converged := false, false
	var res client.ReadResult
	h.drv.ReadAt(key, wire.All, func(r client.ReadResult) {
		res = r
		done = true
		// The repairs were acknowledged before the response was sent, so
		// every replica must already hold the newest version now.
		converged = true
		for _, rep := range reps {
			if v, ok := h.c.Node(rep).Engine().Get(key); !ok || v.Timestamp != newV.Timestamp {
				converged = false
			}
		}
	})
	h.s.RunFor(5 * time.Second)
	if !done {
		t.Fatal("ALL read never completed")
	}
	if res.Err != nil || string(res.Value) != "new" {
		t.Fatalf("ALL read = %+v, want the newest version", res)
	}
	if !converged {
		t.Fatal("response was not blocked on repair: stale replicas at response time")
	}
	m := h.c.AggregateMetrics()
	if m.RepairsSent != 4 {
		t.Fatalf("repairs sent = %d, want 4 (one per stale replica)", m.RepairsSent)
	}
	// A second ALL read finds agreement: no further repairs.
	if r2 := h.read(t, string(key), wire.All); r2.Err != nil || string(r2.Value) != "new" {
		t.Fatalf("second ALL read = %+v", r2)
	}
	if m2 := h.c.AggregateMetrics(); m2.RepairsSent != 4 {
		t.Fatalf("converged read sent repairs: %d", m2.RepairsSent)
	}
}

func TestBlockingReadRepairTimesOutWithDeadReplica(t *testing.T) {
	// If a stale replica is unreachable, the blocking repair cannot
	// complete and the ALL read must fail with a timeout rather than
	// answer with unrepaired replicas.
	spec := DefaultSpec()
	spec.ReadRepairChance = 0
	spec.ReadTimeout = 500 * time.Millisecond
	h := newHarness(t, spec, client.Options{})
	key := []byte("brr-dead")
	reps := ring.ReplicasForKey(h.c.Ring, h.c.Strategy, key)
	oldV := wire.Value{Data: []byte("old"), Timestamp: 10}
	newV := wire.Value{Data: []byte("new"), Timestamp: 20}
	for _, r := range reps {
		h.c.Node(r).Engine().Apply(key, oldV)
	}
	h.c.Node(reps[0]).Engine().Apply(key, newV)
	// Cut reps[1] off from everything after it would have answered the
	// replica read... simpler: make it answer reads but never ack the
	// repair by partitioning it after seeding. Since replica reads and
	// repair mutations travel the same links, partitioning now makes the
	// ALL read itself time out — which is the same guarantee: no answer
	// with unrepaired replicas.
	h.c.Faults.Apply(isolate(reps[1]))
	done := false
	var res client.ReadResult
	h.drv.ReadAt(key, wire.All, func(r client.ReadResult) { res = r; done = true })
	h.s.RunFor(5 * time.Second)
	if !done {
		t.Fatal("read never completed")
	}
	if res.Err == nil {
		t.Fatalf("ALL read with unreachable replica succeeded: %+v", res)
	}
}

// groupByPrefix maps 'a'-prefixed keys to group 0, 'b' to 1, everything
// else deliberately out of range (exercising the clamp).
func groupByPrefix(key []byte) int {
	switch {
	case len(key) > 0 && key[0] == 'a':
		return 0
	case len(key) > 0 && key[0] == 'b':
		return 1
	}
	return 99
}

func TestPerGroupMetricsPartitionTotals(t *testing.T) {
	spec := DefaultSpec()
	spec.Groups = 2
	spec.GroupFn = groupByPrefix
	h := newHarness(t, spec, client.Options{ShadowEvery: 1})
	for i := 0; i < 4; i++ {
		h.write(t, fmt.Sprintf("a%d", i), "v")
	}
	h.write(t, "b0", "v")
	h.write(t, "zz", "v") // out-of-range group clamps to 0
	for i := 0; i < 3; i++ {
		h.read(t, fmt.Sprintf("a%d", i), wire.One)
	}
	h.read(t, "b0", wire.One)
	h.read(t, "b0", wire.Quorum)

	m := h.c.AggregateMetrics()
	if len(m.GroupReads) != 2 || len(m.GroupWrites) != 2 {
		t.Fatalf("group slices = %d/%d", len(m.GroupReads), len(m.GroupWrites))
	}
	if got := m.GroupWrites[0]; got != 5 { // 4 'a' writes + 1 clamped 'zz'
		t.Fatalf("group 0 writes = %d, want 5", got)
	}
	if got := m.GroupWrites[1]; got != 1 {
		t.Fatalf("group 1 writes = %d, want 1", got)
	}
	if m.GroupReads[0] != 3 || m.GroupReads[1] != 2 {
		t.Fatalf("group reads = %v", m.GroupReads)
	}
	if m.GroupReads[0]+m.GroupReads[1] != m.Reads || m.GroupWrites[0]+m.GroupWrites[1] != m.Writes {
		t.Fatalf("group counters do not partition totals: %+v", m)
	}
	var samples uint64
	for _, v := range m.GroupShadowSamples {
		samples += v
	}
	if samples != m.ShadowSamples || samples == 0 {
		t.Fatalf("group shadow samples %d vs total %d", samples, m.ShadowSamples)
	}
	// Snapshot isolation: mutating a snapshot must not touch the node.
	n := h.c.Nodes[0]
	snap := n.Snapshot()
	if len(snap.GroupReads) > 0 {
		snap.GroupReads[0] += 1000
		if n.Snapshot().GroupReads[0] == snap.GroupReads[0] {
			t.Fatal("Snapshot aliases live group counters")
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	s := sim.New(1)
	if _, err := BuildSim(s, Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	bad := DefaultSpec()
	bad.RF = 0
	if _, err := BuildSim(s, bad); err == nil {
		t.Fatal("RF=0 accepted")
	}
}

func TestLinearizableSingleKeyProperty(t *testing.T) {
	// Property: with R=ALL, W=ALL, sequential operations on one key always
	// read the last written value, for any operation interleaving pattern.
	if err := quick.Check(func(seed int64, opsRaw uint8) bool {
		s := sim.New(seed)
		spec := DefaultSpec()
		c, err := BuildSim(s, spec)
		if err != nil {
			return false
		}
		drv, err := client.New(client.Options{ID: "qc", Coordinators: c.NodeIDs(), Policy: client.Fixed{Write: wire.All}}, s, c.Bus)
		if err != nil {
			return false
		}
		c.Bus.Register("qc", s, drv)
		r := rand.New(rand.NewSource(seed))
		last := ""
		ok := true
		nops := int(opsRaw%12) + 2
		for i := 0; i < nops; i++ {
			if r.Intn(2) == 0 || last == "" {
				last = fmt.Sprintf("v%d", i)
				done := false
				drv.Write([]byte("key"), []byte(last), func(res client.WriteResult) {
					done = true
					if res.Err != nil {
						ok = false
					}
				})
				s.RunFor(5 * time.Second)
				if !done {
					return false
				}
			} else {
				done := false
				drv.ReadAt([]byte("key"), wire.All, func(res client.ReadResult) {
					done = true
					if res.Err != nil || string(res.Value) != last {
						ok = false
					}
				})
				s.RunFor(5 * time.Second)
				if !done {
					return false
				}
			}
		}
		return ok
	}, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestClientDriverTimeoutOnUnknownCoordinator(t *testing.T) {
	s := sim.New(3)
	spec := DefaultSpec()
	c, err := BuildSim(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	drv, err := client.New(client.Options{ID: "lost", Coordinators: []ring.NodeID{"nonexistent"}, Timeout: 100 * time.Millisecond}, s, c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	c.Bus.Register("lost", s, drv)
	var res client.ReadResult
	done := false
	drv.ReadAt([]byte("k"), wire.One, func(r client.ReadResult) { res = r; done = true })
	s.RunFor(time.Second)
	if !done || res.Err == nil {
		t.Fatalf("expected timeout, got %+v done=%v", res, done)
	}
	if drv.Pending() != 0 {
		t.Fatal("pending op leaked after timeout")
	}
}

func TestRealTimeClusterSmoke(t *testing.T) {
	// The same protocol code must work on real goroutine runtimes.
	spec := DefaultSpec()
	spec.DCs, spec.RacksPerDC, spec.NodesPerRack = 1, 2, 3 // keep it small
	spec.RF = 3
	spec.Profile = simnet.UniformProfile(200 * time.Microsecond)
	c, err := BuildReal(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	rt := sim.NewRealRuntime()
	defer rt.Stop()
	drv, err := client.New(client.Options{ID: "real-client", Coordinators: c.NodeIDs(), Policy: client.Fixed{Write: wire.Quorum}}, rt, c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	c.Bus.Register("real-client", rt, drv)

	wrote := make(chan error, 1)
	rt.Post(func() {
		drv.Write([]byte("rt-key"), []byte("rt-val"), func(r client.WriteResult) { wrote <- r.Err })
	})
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatalf("write: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write timed out in real time")
	}
	readBack := make(chan client.ReadResult, 1)
	rt.Post(func() {
		drv.ReadAt([]byte("rt-key"), wire.Quorum, func(r client.ReadResult) { readBack <- r })
	})
	select {
	case r := <-readBack:
		if r.Err != nil || string(r.Value) != "rt-val" {
			t.Fatalf("read = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read timed out in real time")
	}
}

// TestServiceProfileTimer covers the node service model: request classes
// pay their mean times a stochastic lognormal multiplier, response-class
// messages pay a fixed cost, and Scale multiplies every class mean.
func TestServiceProfileTimer(t *testing.T) {
	p := DefaultServiceProfile()
	timer := p.Timer(rand.New(rand.NewSource(2)))
	seen := map[time.Duration]bool{}
	for i := 0; i < 50; i++ {
		seen[timer(wire.ReplicaRead{})] = true
		// Response-class messages are fixed-cost and bypass jitter.
		if got := timer(wire.MutationAck{}); got != p.Response {
			t.Fatalf("response handling = %v, want %v", got, p.Response)
		}
	}
	if len(seen) < 10 {
		t.Fatalf("default jitter produced only %d distinct service times", len(seen))
	}

	sc := p.Scale(2)
	if got, want := sc.Scale(1).CoordRead, 2*p.CoordRead; got != want {
		t.Fatalf("scaled coord read = %v, want %v", got, want)
	}
	if got, want := sc.Response, 2*p.Response; got != want {
		t.Fatalf("scaled response = %v, want %v", got, want)
	}
}

// names converts node IDs to fault-plane endpoint names.
func names(ids ...ring.NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}

// isolate cuts id off from every other node, without convicting it.
func isolate(id ring.NodeID) faults.Update {
	return faults.Update{Partition: &faults.PartitionSpec{A: names(id), B: []string{faults.Wildcard}}}
}

// slowLinks adds extra one-way delay to every link between a and the other
// nodes, in both directions.
func slowLinks(c *Cluster, a ring.NodeID, extra time.Duration) faults.Update {
	var u faults.Update
	for _, o := range names(c.NodeIDs()...) {
		if o != string(a) {
			u.Set = append(u.Set,
				faults.RuleUpdate{From: string(a), To: o, Rule: faults.Rule{Delay: extra}},
				faults.RuleUpdate{From: o, To: string(a), Rule: faults.Rule{Delay: extra}})
		}
	}
	return u
}
