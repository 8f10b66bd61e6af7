package ring

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
	strategy Strategy
	sets     [][]NodeID // sets[i] = strategy.Replicas(r, r.tokens[i].tok)
	// byOrigin[o] is sets with every row stably sorted by Distance from
	// topology node o; rows already in proximity order alias sets.
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
// its admin goroutines may race to the first lookup.
func (r *Ring) placementFor(s Strategy) *placement {
	if p := findPlacement(r.tables.Load(), s); p != nil {
		return p
	}
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	old := r.tables.Load()
	if p := findPlacement(old, s); p != nil {
		return p
	}
	p := &placement{
		strategy: s,
		sets:     make([][]NodeID, len(r.tokens)),
		byOrigin: make(map[NodeID][][]NodeID, len(r.topo.order)),
	}
	for i, e := range r.tokens {
		p.sets[i] = s.Replicas(r, e.tok)
	}
	for _, origin := range r.topo.order {
		view := make([][]NodeID, len(p.sets))
		for i, set := range p.sets {
			view[i] = r.topo.sortedByProximity(origin, set)
		}
		p.byOrigin[origin] = view
	}
	var tables []*placement
	if old != nil {
		tables = append(tables, *old...)
	}
	tables = append(tables, p)
	r.tables.Store(&tables)
	return p
}

func findPlacement(tables *[]*placement, s Strategy) *placement {
	if tables == nil {
		return nil
	}
	for _, p := range *tables {
		if p.strategy == s {
			return p
		}
	}
	return nil
}

// sortedByProximity returns nodes in SortByProximity order from origin:
// nodes itself when it already is in that order, a sorted copy otherwise.
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
	sorted := append([]NodeID(nil), nodes...)
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
	if tabled(s) && len(r.tokens) > 0 {
		v.sets = r.placementFor(s).byOrigin[origin]
	}
	return v
}

// ReplicasForKey returns key's replica set, closest to the view's origin
// first. The result is shared and read-only, as for Ring.Replicas.
func (v *ProximityView) ReplicasForKey(key []byte) []NodeID {
	tok := HashKey(key)
	if v.sets != nil {
		return v.sets[v.ring.successorIndex(tok)]
	}
	reps := v.ring.Replicas(v.strategy, tok)
	return v.ring.topo.sortedByProximity(v.origin, reps)
}
