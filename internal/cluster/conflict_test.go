package cluster

import (
	"fmt"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/faults"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/wire"
)

// TestConcurrentWritesDifferentCoordinatorsConverge drives conflicting
// writes to one key through two different coordinators in the same virtual
// instant and verifies every replica converges to a single winner (last
// writer by coordinator timestamp, ties broken stably).
func TestConcurrentWritesDifferentCoordinatorsConverge(t *testing.T) {
	h := newHarness(t, DefaultSpec(), client.Options{Policy: client.Fixed{Write: wire.One}})
	reps := ring.ReplicasForKey(h.c.Ring, h.c.Strategy, []byte("cc"))

	var drvs []*client.Driver
	for i, coord := range []ring.NodeID{reps[0], reps[1]} {
		id := ring.NodeID(fmt.Sprintf("cw-%d", i))
		d, err := client.New(client.Options{ID: id, Coordinators: []ring.NodeID{coord}, Policy: client.Fixed{Write: wire.One}}, h.s, h.c.Bus)
		if err != nil {
			t.Fatal(err)
		}
		h.c.Bus.Register(id, h.s, d)
		drvs = append(drvs, d)
	}
	// Same-instant conflicting writes.
	done := 0
	drvs[0].Write([]byte("cc"), []byte("from-A"), func(r client.WriteResult) {
		if r.Err != nil {
			t.Errorf("A: %v", r.Err)
		}
		done++
	})
	drvs[1].Write([]byte("cc"), []byte("from-B"), func(r client.WriteResult) {
		if r.Err != nil {
			t.Errorf("B: %v", r.Err)
		}
		done++
	})
	h.s.RunFor(5 * time.Second)
	if done != 2 {
		t.Fatalf("only %d writes completed", done)
	}
	// All replicas hold the same winner with the same timestamp.
	var winner wire.Value
	for i, rid := range reps {
		v, ok := h.c.Node(rid).Engine().Get([]byte("cc"))
		if !ok {
			t.Fatalf("replica %s missing the key", rid)
		}
		if i == 0 {
			winner = v
			continue
		}
		if v.Timestamp != winner.Timestamp || string(v.Data) != string(winner.Data) {
			t.Fatalf("replica %s diverged: %q@%d vs %q@%d", rid, v.Data, v.Timestamp, winner.Data, winner.Timestamp)
		}
	}
	if s := string(winner.Data); s != "from-A" && s != "from-B" {
		t.Fatalf("winner = %q", s)
	}
	// A strong read agrees with the replicas.
	res := h.read(t, "cc", wire.All)
	if string(res.Value) != string(winner.Data) {
		t.Fatalf("ALL read %q disagrees with replica state %q", res.Value, winner.Data)
	}
}

// TestWriteTimeoutWhenQuorumUnreachable verifies the coordinator reports a
// timeout when the consistency level cannot be met, and that the write
// still converges on the reachable replicas (no rollback in Dynamo-style
// stores — the paper's model).
func TestWriteTimeoutWhenQuorumUnreachable(t *testing.T) {
	spec := DefaultSpec()
	spec.WriteTimeout = 200 * time.Millisecond
	h := newHarness(t, spec, client.Options{Policy: client.Fixed{Write: wire.All}, Timeout: 3 * time.Second})
	reps := ring.ReplicasForKey(h.c.Ring, h.c.Strategy, []byte("wt"))
	// Cut three of five replicas off from everything.
	for _, victim := range reps[2:] {
		h.c.Faults.Apply(isolate(victim))
	}
	// Write through a coordinator that is itself reachable (the harness
	// driver round-robins over all nodes, including the isolated ones).
	wdrv, err := client.New(client.Options{ID: "wt-client", Coordinators: []ring.NodeID{reps[0]}, Policy: client.Fixed{Write: wire.All}, Timeout: 3 * time.Second}, h.s, h.c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	h.c.Bus.Register("wt-client", h.s, wdrv)
	var res client.WriteResult
	done := false
	wdrv.Write([]byte("wt"), []byte("v"), func(r client.WriteResult) { res = r; done = true })
	h.s.RunFor(5 * time.Second)
	if !done {
		t.Fatal("write never completed")
	}
	if res.Err == nil {
		t.Fatal("ALL write succeeded with 3/5 replicas unreachable")
	}
	// The reachable replicas still applied the mutation.
	h.s.RunFor(time.Second)
	applied := 0
	for _, rid := range reps[:2] {
		if v, ok := h.c.Node(rid).Engine().Get([]byte("wt")); ok && string(v.Data) == "v" {
			applied++
		}
	}
	if applied == 0 {
		t.Fatal("no reachable replica applied the failed-quorum write")
	}
}

// TestTombstonePropagatesToAllReplicas verifies deletes replicate like
// writes and win by timestamp on every replica.
func TestTombstonePropagatesToAllReplicas(t *testing.T) {
	h := newHarness(t, DefaultSpec(), client.Options{Policy: client.Fixed{Write: wire.One}})
	h.write(t, "tomb", "alive")
	h.s.RunFor(time.Second)
	var res client.WriteResult
	h.drv.Delete([]byte("tomb"), func(r client.WriteResult) { res = r })
	h.s.RunFor(2 * time.Second)
	if res.Err != nil {
		t.Fatalf("delete: %v", res.Err)
	}
	for _, rid := range ring.ReplicasForKey(h.c.Ring, h.c.Strategy, []byte("tomb")) {
		v, ok := h.c.Node(rid).Engine().Get([]byte("tomb"))
		if !ok || !v.Tombstone {
			t.Fatalf("replica %s: tombstone not applied (%+v ok=%v)", rid, v, ok)
		}
	}
}

// TestReadLevelClampsAboveReplicaCount verifies a THREE-level read against
// an RF=2 keyspace blocks for at most the available replicas instead of
// hanging.
func TestReadLevelClampsAboveReplicaCount(t *testing.T) {
	spec := DefaultSpec()
	spec.RF = 2
	s := sim.New(5)
	c, err := BuildSim(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	drv, err := client.New(client.Options{ID: "clamp", Coordinators: c.NodeIDs(), Policy: client.Fixed{Write: wire.All}}, s, c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	c.Bus.Register("clamp", s, drv)
	wrote := false
	drv.Write([]byte("k"), []byte("v"), func(r client.WriteResult) {
		if r.Err != nil {
			t.Errorf("write: %v", r.Err)
		}
		wrote = true
	})
	s.RunFor(2 * time.Second)
	if !wrote {
		t.Fatal("write did not complete")
	}
	var res client.ReadResult
	done := false
	drv.ReadAt([]byte("k"), wire.Three, func(r client.ReadResult) { res = r; done = true })
	s.RunFor(2 * time.Second)
	if !done || res.Err != nil || string(res.Value) != "v" {
		t.Fatalf("THREE read on RF=2 = %+v done=%v", res, done)
	}
}

// TestBlockingRepairAtAllDelaysResponse verifies the Fig. 1 strong-read
// behaviour directly: when a replica is stale, the ALL read's response
// arrives only after the repair round trip, and the replica is fresh by the
// time the client sees the answer.
func TestBlockingRepairAtAllDelaysResponse(t *testing.T) {
	spec := DefaultSpec()
	h := newHarness(t, spec, client.Options{Policy: client.Fixed{Write: wire.One}, Timeout: 10 * time.Second})
	h.write(t, "br", "v1")
	h.s.RunFor(time.Second)

	// Diverge one replica via partition.
	reps := ring.ReplicasForKey(h.c.Ring, h.c.Strategy, []byte("br"))
	victim := reps[len(reps)-1]
	h.c.Faults.Apply(isolate(victim))
	h.write(t, "br", "v2")
	h.s.RunFor(time.Second)
	h.c.Faults.Apply(faults.Update{Heal: true})

	var res client.ReadResult
	done := false
	h.drv.ReadAt([]byte("br"), wire.All, func(r client.ReadResult) { res = r; done = true })
	h.s.RunFor(5 * time.Second)
	if !done || res.Err != nil || string(res.Value) != "v2" {
		t.Fatalf("ALL read = %+v done=%v", res, done)
	}
	// By response time the stale replica must already hold v2: the repair
	// completed before the client answer (no extra quiesce time here).
	if v, ok := h.c.Node(victim).Engine().Get([]byte("br")); !ok || string(v.Data) != "v2" {
		t.Fatalf("victim not repaired before response: %q ok=%v", v.Data, ok)
	}
}
