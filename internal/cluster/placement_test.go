package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/faults"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/wire"
)

// placementChecksum folds every placement row a node of c can be handed: the
// ring's table and each coordinator's proximity-sorted view of it, arc by arc.
func placementChecksum(c *Cluster) uint64 {
	h := fnv.New64a()
	fold := func(row []ring.NodeID) {
		for _, id := range row {
			h.Write([]byte(id))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	for _, tok := range c.Ring.Tokens() {
		fold(c.Ring.Replicas(c.Strategy, tok))
		for _, n := range c.Nodes {
			fold(n.placement.Replicas(tok))
		}
	}
	return h.Sum64()
}

// The placement table's rows are shared by every node and by every operation
// in flight. The coordinator paths that reshape a replica list — filtering
// out dead replicas, truncating to the blocked-for count, holding the live
// set back for SESSION widening, hinting for the dead — must all work on
// their own copies or on re-slices. This runs them and holds the table to
// its checksum; sort a row in place anywhere on those paths and it fails.
func TestFaultedRunLeavesSharedPlacementIntact(t *testing.T) {
	s := sim.New(21)
	spec := DefaultSpec()
	spec.HintedHandoff = true
	spec.ReadRepairChance = 0.5
	c, err := BuildSim(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	before := placementChecksum(c)

	keys := [][]byte{[]byte("acct0"), []byte("acct1"), []byte("acct2"), []byte("acct3")}
	reps := ring.ReplicasForKey(c.Ring, c.Strategy, keys[0])
	slow, reader := reps[0], reps[1]
	victim := reps[2]

	driver := func(id ring.NodeID, coords []ring.NodeID, pol client.ConsistencyPolicy) *client.Driver {
		drv, err := client.New(client.Options{ID: id, Coordinators: coords, Policy: pol, Timeout: 3 * time.Second}, s, c.Bus)
		if err != nil {
			t.Fatal(err)
		}
		c.Bus.Register(id, s, drv)
		return drv
	}
	// The session writes through slow and reads back through reader while
	// slow's links lag, so the first replica cannot cover the token and the
	// read widens; the others read at QUORUM and ALL from every coordinator.
	sess := client.NewSession(driver("sess", []ring.NodeID{slow, reader}, client.Fixed{Read: wire.Session, Write: wire.One}))
	quorum := driver("quorum", c.NodeIDs(), client.Fixed{Read: wire.Quorum, Write: wire.Quorum})
	all := driver("all", c.NodeIDs(), client.Fixed{Read: wire.All, Write: wire.One})

	wait := func(done *bool) {
		t.Helper()
		for !*done {
			if !s.Step() {
				t.Fatal("simulation went idle with an operation outstanding")
			}
		}
	}
	for i := 0; i < 48; i++ {
		switch i {
		case 6:
			c.Faults.Apply(slowLinks(c, slow, 250*time.Millisecond))
		case 16:
			c.Faults.Apply(faults.Update{Down: names(victim)})
		case 32:
			c.Faults.Apply(faults.Update{Up: names(victim)})
		case 40:
			c.Faults.Apply(faults.Update{Clear: true})
		}
		key := keys[i%len(keys)]
		val := []byte(fmt.Sprintf("v%d", i))
		var w1, w2, r1, r2, r3 bool
		sess.Write(key, val, func(client.WriteResult) { w1 = true })
		wait(&w1)
		sess.Read(key, func(client.ReadResult) { r1 = true })
		quorum.Write(key, val, func(client.WriteResult) { w2 = true })
		quorum.Read(key, func(client.ReadResult) { r2 = true })
		all.Read(key, func(client.ReadResult) { r3 = true })
		wait(&r1)
		wait(&w2)
		wait(&r2)
		wait(&r3)
	}
	s.RunFor(12 * time.Second) // hint replay

	m := c.AggregateMetrics()
	if m.HintsQueued == 0 || m.HintsReplayed == 0 || m.SessionUpgrades == 0 || m.RepairsSent == 0 {
		t.Fatalf("the run missed a path it is here to exercise: %+v", m)
	}
	if after := placementChecksum(c); after != before {
		t.Fatalf("shared placement table changed during the run: checksum %#x, was %#x", after, before)
	}
}
