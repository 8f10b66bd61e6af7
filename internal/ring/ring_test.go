package ring

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoDCTopology builds the paper-like layout: 2 DCs x 2 racks x 5 nodes.
func twoDCTopology(t *testing.T) *Topology {
	t.Helper()
	var nodes []NodeInfo
	for dc := 1; dc <= 2; dc++ {
		for rack := 1; rack <= 2; rack++ {
			for n := 1; n <= 5; n++ {
				nodes = append(nodes, NodeInfo{
					ID:   NodeID(fmt.Sprintf("dc%d-r%d-n%d", dc, rack, n)),
					DC:   fmt.Sprintf("dc%d", dc),
					Rack: fmt.Sprintf("r%d", rack),
				})
			}
		}
	}
	topo, err := NewTopology(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTopologyValidation(t *testing.T) {
	if _, err := NewTopology([]NodeInfo{{ID: ""}}); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := NewTopology([]NodeInfo{{ID: "a"}, {ID: "a"}}); err == nil {
		t.Fatal("duplicate id accepted")
	}
}

func TestTopologyAccessors(t *testing.T) {
	topo := twoDCTopology(t)
	if got := len(topo.Nodes()); got != 20 {
		t.Fatalf("nodes = %d, want 20", got)
	}
	dcs := topo.DCs()
	if len(dcs) != 2 || dcs[0] != "dc1" || dcs[1] != "dc2" {
		t.Fatalf("DCs = %v", dcs)
	}
	if _, ok := topo.Info("nope"); ok {
		t.Fatal("Info for unknown node reported ok")
	}
}

func TestDistance(t *testing.T) {
	topo := twoDCTopology(t)
	cases := []struct {
		a, b NodeID
		want int
	}{
		{"dc1-r1-n1", "dc1-r1-n1", 0},
		{"dc1-r1-n1", "dc1-r1-n2", 1},
		{"dc1-r1-n1", "dc1-r2-n1", 2},
		{"dc1-r1-n1", "dc2-r1-n1", 3},
	}
	for _, c := range cases {
		if got := topo.Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSortByProximity(t *testing.T) {
	topo := twoDCTopology(t)
	nodes := []NodeID{"dc2-r1-n1", "dc1-r2-n1", "dc1-r1-n2", "dc1-r1-n1"}
	topo.sortByProximity("dc1-r1-n1", nodes)
	want := []NodeID{"dc1-r1-n1", "dc1-r1-n2", "dc1-r2-n1", "dc2-r1-n1"}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("proximity order = %v, want %v", nodes, want)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	topo := twoDCTopology(t)
	if _, err := Build(topo, 0); err == nil {
		t.Fatal("vnodes=0 accepted")
	}
}

func TestRingDeterminism(t *testing.T) {
	topo := twoDCTopology(t)
	r1, err := Build(topo, 16)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := Build(topo, 16)
	s := SimpleStrategy{RF: 5}
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("user%d", i))
		a := ReplicasForKey(r1, s, key)
		b := ReplicasForKey(r2, s, key)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("key %q: nondeterministic replicas %v vs %v", key, a, b)
			}
		}
	}
}

func TestSimpleStrategyDistinctAndSized(t *testing.T) {
	topo := twoDCTopology(t)
	r, _ := Build(topo, 8)
	s := SimpleStrategy{RF: 5}
	for i := 0; i < 500; i++ {
		reps := ReplicasForKey(r, s, []byte(fmt.Sprintf("k%d", i)))
		if len(reps) != 5 {
			t.Fatalf("got %d replicas, want 5", len(reps))
		}
		seen := map[NodeID]bool{}
		for _, n := range reps {
			if seen[n] {
				t.Fatalf("duplicate replica %s in %v", n, reps)
			}
			seen[n] = true
		}
	}
}

func TestSimpleStrategyRFLargerThanCluster(t *testing.T) {
	topo, err := NewTopology([]NodeInfo{
		{ID: "a", DC: "dc1", Rack: "r1"},
		{ID: "b", DC: "dc1", Rack: "r1"},
		{ID: "c", DC: "dc1", Rack: "r2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := Build(topo, 4)
	reps := ReplicasForKey(r, SimpleStrategy{RF: 5}, []byte("x"))
	if len(reps) != 3 {
		t.Fatalf("got %d replicas, want all 3 nodes", len(reps))
	}
}

func TestNetworkTopologySpansDCsAndRacks(t *testing.T) {
	topo := twoDCTopology(t)
	r, _ := Build(topo, 8)
	s := NetworkTopologyStrategy{RF: 5}
	for i := 0; i < 500; i++ {
		reps := ReplicasForKey(r, s, []byte(fmt.Sprintf("key-%d", i)))
		if len(reps) != 5 {
			t.Fatalf("got %d replicas, want 5", len(reps))
		}
		dcs := map[string]bool{}
		racks := map[string]bool{}
		for _, n := range reps {
			info, ok := topo.Info(n)
			if !ok {
				t.Fatalf("unknown replica %s", n)
			}
			dcs[info.DC] = true
			racks[info.DC+"/"+info.Rack] = true
		}
		// 2 DCs and 4 racks exist; RF=5 must cover all of them
		// ("replicated over all the clusters and racks", paper §V-C).
		if len(dcs) != 2 {
			t.Fatalf("replicas %v span %d DCs, want 2", reps, len(dcs))
		}
		if len(racks) != 4 {
			t.Fatalf("replicas %v span %d racks, want 4", reps, len(racks))
		}
	}
}

func TestNetworkTopologyDistinctProperty(t *testing.T) {
	topo := twoDCTopology(t)
	r, _ := Build(topo, 8)
	if err := quick.Check(func(key []byte, rfRaw uint8) bool {
		rf := int(rfRaw%8) + 1
		reps := NetworkTopologyStrategy{RF: rf}.Replicas(r, HashKey(key))
		if len(reps) != min(rf, 20) {
			return false
		}
		seen := map[NodeID]bool{}
		for _, n := range reps {
			if seen[n] {
				return false
			}
			seen[n] = true
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPrimaryStability(t *testing.T) {
	// The primary replica for a key must not depend on the strategy.
	topo := twoDCTopology(t)
	r, _ := Build(topo, 8)
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("pk%d", i))
		a := ReplicasForKey(r, SimpleStrategy{RF: 3}, key)
		b := ReplicasForKey(r, NetworkTopologyStrategy{RF: 3}, key)
		if a[0] != b[0] {
			t.Fatalf("primary differs across strategies: %v vs %v", a[0], b[0])
		}
	}
}

func TestLoadBalance(t *testing.T) {
	// With enough vnodes, primary ownership should be roughly uniform.
	topo := twoDCTopology(t)
	r, _ := Build(topo, 64)
	counts := map[NodeID]int{}
	rng := rand.New(rand.NewSource(5))
	const n = 20000
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("bal%d-%d", i, rng.Int63()))
		counts[ReplicasForKey(r, SimpleStrategy{RF: 1}, key)[0]]++
	}
	want := n / 20
	for id, c := range counts {
		if c < want/3 || c > want*3 {
			t.Fatalf("node %s owns %d keys, want within 3x of %d", id, c, want)
		}
	}
	if len(counts) != 20 {
		t.Fatalf("only %d nodes own keys", len(counts))
	}
}

func TestHashKeyStable(t *testing.T) {
	// The partitioner hash is part of the cluster contract; pin a value.
	if HashKey([]byte("harmony")) == 0 {
		t.Fatal("suspicious zero hash")
	}
	if HashKey([]byte("a")) == HashKey([]byte("b")) {
		t.Fatal("trivial collision")
	}
	if got, again := HashKey([]byte("k")), HashKey([]byte("k")); got != again {
		t.Fatal("hash not deterministic")
	}
}

func TestEmptyRingWalk(t *testing.T) {
	topo, err := NewTopology(nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Build(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reps := ReplicasForKey(r, SimpleStrategy{RF: 3}, []byte("x")); len(reps) != 0 {
		t.Fatalf("empty ring returned replicas %v", reps)
	}
}
