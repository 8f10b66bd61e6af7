package ring

import (
	"slices"
	"sync"
)

// Placement is a pure function of the vnode arc a token falls in, so it is
// computed once per (ring, built-in strategy) and then looked up: hash, binary
// search, index. Every slice handed out of a table is shared by all callers
// and must be treated as read-only — re-slicing is fine, sorting or appending
// in place is not.

// placement holds, for one built-in strategy value, the strategy's answer for
// every vnode arc. Tables are indexed by position in r.tokens — the index
// successorIndex returns — so vnodes whose tokens collide keep separate rows
// (the later ones unreachable) and every lookup is sets[successorIndex(tok)].
type placement struct {
	sets [][]NodeID // sets[i] = strategy.Replicas(r, r.tokens[i].tok)

	// byOrigin[o] is sets with every row stably sorted by Distance from
	// topology node o; rows already in proximity order alias sets. A view
	// is built when its node first asks (a live member only ever is one
	// origin), under mu; holders keep the finished slice and read it freely.
	mu       sync.Mutex
	byOrigin map[NodeID][][]NodeID
}

// tabled reports whether s is one of the built-in strategies, whose values
// are comparable and whose placement depends on the token's arc alone. Any
// other Strategy is walked per call, as it always was.
func tabled(s Strategy) bool {
	switch s.(type) {
	case SimpleStrategy, NetworkTopologyStrategy:
		return true
	}
	return false
}

// placementFor returns the table for the built-in strategy s, building it on
// first use. Safe for concurrent use: a live member's mailbox goroutine and
// its admin goroutines may race to the first lookup, in which case both build
// the same table and the first one stored is the one everybody uses.
func (r *Ring) placementFor(s Strategy) *placement {
	if p, ok := r.tables.Load(s); ok {
		return p.(*placement)
	}
	p := &placement{
		sets:     make([][]NodeID, len(r.tokens)),
		byOrigin: make(map[NodeID][][]NodeID),
	}
	for i, e := range r.tokens {
		// No spare capacity: an append to a shared row must copy it, not
		// write into room a second caller could claim as well.
		p.sets[i] = slices.Clip(s.Replicas(r, e.tok))
	}
	actual, _ := r.tables.LoadOrStore(s, p)
	return actual.(*placement)
}

// sortedByProximity returns nodes in SortByProximity order from origin:
// nodes itself when it already is in that order, a sorted copy otherwise.
// Either way the argument is left as it was.
func (t *Topology) sortedByProximity(origin NodeID, nodes []NodeID) []NodeID {
	inOrder := true
	for i := 1; i < len(nodes); i++ {
		if t.Distance(origin, nodes[i]) < t.Distance(origin, nodes[i-1]) {
			inOrder = false
			break
		}
	}
	if inOrder {
		return nodes
	}
	sorted := make([]NodeID, len(nodes)) // exactly sized, like the table's own rows
	copy(sorted, nodes)
	t.SortByProximity(origin, sorted)
	return sorted
}

// Replicas returns the ordered replica set for tok under s; the first entry
// is the primary. For SimpleStrategy and NetworkTopologyStrategy the result
// is a row of the ring's placement table, shared between all callers:
// read-only. Other strategies are asked directly and own their result.
func (r *Ring) Replicas(s Strategy, tok Token) []NodeID {
	if !tabled(s) {
		return s.Replicas(r, tok)
	}
	if len(r.tokens) == 0 {
		return nil
	}
	return r.placementFor(s).sets[r.successorIndex(tok)]
}

// ProximityView answers replica-set queries for one coordinator: the sets of
// Ring.Replicas, each ordered by Topology.Distance from the coordinator
// (stable, so ring order breaks ties), which is the order a coordinator
// contacts and waits on replicas in.
type ProximityView struct {
	ring     *Ring
	strategy Strategy
	origin   NodeID
	sets     [][]NodeID // nil: strategy not tabled, or origin outside the topology
}

// ProximityView resolves the view of s from origin once, so that per-key
// lookups touch no lock and no map.
func (r *Ring) ProximityView(s Strategy, origin NodeID) *ProximityView {
	v := &ProximityView{ring: r, strategy: s, origin: origin}
	if _, member := r.topo.Info(origin); member && tabled(s) && len(r.tokens) > 0 {
		v.sets = r.placementFor(s).viewFrom(r.topo, origin)
	}
	return v
}

// viewFrom returns the table's rows sorted by proximity to origin, sorting
// them the first time origin asks.
func (p *placement) viewFrom(topo *Topology, origin NodeID) [][]NodeID {
	p.mu.Lock()
	defer p.mu.Unlock()
	view, ok := p.byOrigin[origin]
	if !ok {
		view = make([][]NodeID, len(p.sets))
		for i, set := range p.sets {
			view[i] = topo.sortedByProximity(origin, set)
		}
		p.byOrigin[origin] = view
	}
	return view
}

// Replicas returns tok's replica set, closest to the view's origin first.
// The result is shared and read-only, as for Ring.Replicas.
func (v *ProximityView) Replicas(tok Token) []NodeID {
	if v.sets != nil {
		return v.sets[v.ring.successorIndex(tok)]
	}
	reps := v.ring.Replicas(v.strategy, tok)
	return v.ring.topo.sortedByProximity(v.origin, reps)
}

// ReplicasForKey is Replicas of the key's token.
func (v *ProximityView) ReplicasForKey(key []byte) []NodeID {
	return v.Replicas(HashKey(key))
}
