package repair

import (
	"sort"

	"harmony/internal/ring"
	"harmony/internal/wire"
)

// Plan is a node's static view of the repair topology: the token arcs it
// replicates and, per peer, the arcs the two of them both replicate — the
// scope of a pairwise repair session. Every node derives the same ring
// decomposition independently, so sessions agree on range boundaries
// without negotiation.
type Plan struct {
	// Ranges are the arcs this node replicates, one per ring vnode arc.
	Ranges []wire.TokenRange
	// shared maps each peer to the arcs both nodes replicate.
	shared map[ring.NodeID][]wire.TokenRange
	// Peers lists the keys of shared in deterministic order (the scheduler's
	// round-robin order).
	Peers []ring.NodeID
}

// buildPlan decomposes the ring into its vnode arcs and intersects replica
// sets: arc i is (token[i-1], token[i]] (the first arc wraps), replicated on
// r.Replicas(strategy, token[i]) — every key hashing into the arc has exactly
// that replica set, which is what makes the arc the unit of repair. The sets
// are read from the ring's shared placement table.
func buildPlan(r *ring.Ring, strat ring.Strategy, self ring.NodeID) Plan {
	tokens := r.Tokens()
	p := Plan{shared: make(map[ring.NodeID][]wire.TokenRange)}
	for i, tok := range tokens {
		prev := tokens[(i+len(tokens)-1)%len(tokens)]
		arc := wire.TokenRange{Start: uint64(prev), End: uint64(tok)}
		reps := r.Replicas(strat, tok)
		mine := false
		for _, rep := range reps {
			if rep == self {
				mine = true
				break
			}
		}
		if !mine {
			continue
		}
		p.Ranges = append(p.Ranges, arc)
		for _, rep := range reps {
			if rep != self {
				p.shared[rep] = append(p.shared[rep], arc)
			}
		}
	}
	p.Peers = make([]ring.NodeID, 0, len(p.shared))
	for id := range p.shared {
		p.Peers = append(p.Peers, id)
	}
	sort.Slice(p.Peers, func(i, j int) bool { return p.Peers[i] < p.Peers[j] })
	return p
}
