package ring

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randomTopology draws 1-4 DCs with uneven rack counts and uneven rack
// sizes, nodes nodes in all (0 gives the empty ring).
func randomTopology(t *testing.T, rng *rand.Rand, nodes int) *Topology {
	t.Helper()
	dcs := 1 + rng.Intn(4)
	racks := make([]int, dcs)
	for i := range racks {
		racks[i] = 1 + rng.Intn(4)
	}
	var infos []NodeInfo
	for i := 0; i < nodes; i++ {
		dc := rng.Intn(dcs)
		infos = append(infos, NodeInfo{
			ID:   NodeID(fmt.Sprintf("n%02d", i)),
			DC:   fmt.Sprintf("dc%d", dc),
			Rack: fmt.Sprintf("r%d", rng.Intn(racks[dc])),
		})
	}
	topo, err := NewTopology(infos)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// probeTokens are the tokens a lookup can get wrong: vnode tokens and their
// two neighbours (arc boundaries, including runs of colliding vnodes), both
// ends of the token space (the wrap) and a random sample.
func probeTokens(r *Ring, rng *rand.Rand) []Token {
	toks := []Token{0, 1, math.MaxUint64, math.MaxUint64 - 1}
	step := 1 + len(r.tokens)/48
	for i := rng.Intn(step); i < len(r.tokens); i += step {
		tok := r.tokens[i].tok
		toks = append(toks, tok-1, tok, tok+1)
	}
	for i := 0; i < 32; i++ {
		toks = append(toks, Token(rng.Uint64()))
	}
	return toks
}

// checkAgainstWalk holds the table, and the sorted view of it from a stranger
// (sorted per call) and from a few members (tabled), to what the strategy's
// own walk answers.
func checkAgainstWalk(t *testing.T, r *Ring, s Strategy, rng *rand.Rand) {
	t.Helper()
	origins := []NodeID{"not-a-member"}
	for _, i := range rng.Perm(len(r.topo.order)) {
		if len(origins) == 4 {
			break
		}
		origins = append(origins, r.topo.order[i])
	}
	views := make([]*ProximityView, len(origins))
	for i, o := range origins {
		views[i] = r.ProximityView(s, o)
	}
	sortedFrom := func(o NodeID, set []NodeID) []NodeID {
		sorted := slices.Clone(set)
		r.topo.SortByProximity(o, sorted)
		return sorted
	}
	for _, tok := range probeTokens(r, rng) {
		want := s.Replicas(r, tok)
		if got := r.Replicas(s, tok); !slices.Equal(got, want) {
			t.Fatalf("%s%+v token %d: table %v, walk %v", s.Name(), s, tok, got, want)
		}
		for i, o := range origins {
			if got, want := views[i].Replicas(tok), sortedFrom(o, want); !slices.Equal(got, want) {
				t.Fatalf("%s%+v token %d from %s: view %v, sorted walk %v", s.Name(), s, tok, o, got, want)
			}
		}
	}
	// The keyed entry points are the token ones behind HashKey.
	key := []byte(fmt.Sprintf("key-%d", rng.Int63()))
	want := s.Replicas(r, HashKey(key))
	if got := ReplicasForKey(r, s, key); !slices.Equal(got, want) {
		t.Fatalf("ReplicasForKey(%q) = %v, walk %v", key, got, want)
	}
	if got, want := views[0].ReplicasForKey(key), sortedFrom(origins[0], want); !slices.Equal(got, want) {
		t.Fatalf("view from %s for %q = %v, sorted walk %v", origins[0], key, got, want)
	}
}

func TestPlacementTableMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 40; round++ {
		nodes := rng.Intn(41) // 0 is the empty ring
		topo := randomTopology(t, rng, nodes)
		r, err := Build(topo, 1+rng.Intn(64))
		if err != nil {
			t.Fatal(err)
		}
		rf := 1 + rng.Intn(7) // regularly above the node count
		checkAgainstWalk(t, r, SimpleStrategy{RF: rf}, rng)
		checkAgainstWalk(t, r, NetworkTopologyStrategy{RF: rf}, rng)
	}
}

// Vnode seeds can hash to one token. Ring.Tokens() drops the duplicates, so
// a table indexed by it would be shifted against successorIndex from the
// first collision on; the table is indexed by position in r.tokens.
func TestPlacementTableWithCollidingTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	topo := randomTopology(t, rng, 9)
	r, err := Build(topo, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Collide a few neighbouring vnodes, at the front and in the middle.
	for _, i := range []int{1, 2, 30, 31, 32} {
		r.tokens[i].tok = r.tokens[i-1].tok
	}
	if len(r.Tokens()) == len(r.tokens) {
		t.Fatal("no colliding tokens planted")
	}
	checkAgainstWalk(t, r, SimpleStrategy{RF: 3}, rng)
	checkAgainstWalk(t, r, NetworkTopologyStrategy{RF: 4}, rng)
}

func TestNonPositiveRFPlacesNothing(t *testing.T) {
	r, err := Build(twoDCTopology(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{
		SimpleStrategy{RF: 0}, SimpleStrategy{RF: -1},
		NetworkTopologyStrategy{RF: 0}, NetworkTopologyStrategy{RF: -3},
	} {
		tok := HashKey([]byte("k"))
		if got := s.Replicas(r, tok); len(got) != 0 {
			t.Errorf("%s%+v walk = %v, want none", s.Name(), s, got)
		}
		if got := r.Replicas(s, tok); len(got) != 0 {
			t.Errorf("%s%+v table = %v, want none", s.Name(), s, got)
		}
		if got := r.ProximityView(s, "dc1-r1-n1").ReplicasForKey([]byte("k")); len(got) != 0 {
			t.Errorf("%s%+v view = %v, want none", s.Name(), s, got)
		}
	}
}

// everyOther is a Strategy the ring knows nothing about; it is not even
// comparable, so it must never reach the table cache.
type everyOther struct{ skip []bool }

func (everyOther) Replicas(r *Ring, tok Token) []NodeID {
	var out []NodeID
	i := 0
	r.walk(tok, func(n NodeID) bool {
		if i%2 == 0 {
			out = append(out, n)
		}
		i++
		return len(out) < 3
	})
	return out
}
func (everyOther) ReplicationFactor() int { return 3 }
func (everyOther) Name() string           { return "everyOther" }

func TestCustomStrategyIsWalkedPerCall(t *testing.T) {
	r, err := Build(twoDCTopology(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	s := everyOther{skip: []bool{true}}
	origin := NodeID("dc2-r2-n3")
	view := r.ProximityView(s, origin)
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		want := s.Replicas(r, HashKey(key))
		got := ReplicasForKey(r, s, key)
		if !slices.Equal(got, want) {
			t.Fatalf("custom strategy: got %v, want %v", got, want)
		}
		got[0] = "scribbled" // the caller owns a custom strategy's result
		r.topo.SortByProximity(origin, want)
		if got := view.ReplicasForKey(key); !slices.Equal(got, want) {
			t.Fatalf("custom strategy view: got %v, want %v", got, want)
		}
	}
	r.tables.Range(func(any, any) bool {
		t.Fatal("custom strategy reached the table cache")
		return false
	})
}

// A live member builds the table from whichever goroutine asks first — the
// mailbox coordinating a request or an admin handler — so first use must be
// safe from many at once (run under -race).
func TestPlacementTableConcurrentFirstUse(t *testing.T) {
	r, err := Build(twoDCTopology(t), 16)
	if err != nil {
		t.Fatal(err)
	}
	strategies := []Strategy{SimpleStrategy{RF: 3}, NetworkTopologyStrategy{RF: 3}, NetworkTopologyStrategy{RF: 5}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := strategies[(g+i)%len(strategies)]
				key := []byte(fmt.Sprintf("k-%d-%d", g, i))
				got := ReplicasForKey(r, s, key)
				if want := s.Replicas(r, HashKey(key)); !slices.Equal(got, want) {
					t.Errorf("concurrent lookup: got %v, want %v", got, want)
					return
				}
				r.ProximityView(s, "dc1-r1-n1").ReplicasForKey(key)
			}
		}(g)
	}
	wg.Wait()
	tables := 0
	r.tables.Range(func(any, any) bool { tables++; return true })
	if tables != len(strategies) {
		t.Fatalf("%d tables for %d strategies", tables, len(strategies))
	}
}
