// Package ring implements the partitioning substrate of the store: a
// consistent-hash token ring with virtual nodes, a cluster topology model
// (datacenters and racks), and replica-placement strategies equivalent to
// Cassandra's SimpleStrategy and the (Old)NetworkTopologyStrategy the paper
// configures ("data is replicated over all the clusters and racks", §V-C).
package ring

import (
	"fmt"
	"sort"
	"sync"
)

// NodeID identifies a storage node. IDs are stable strings such as
// "dc1-rack2-n3".
type NodeID string

// Token is a position on the hash ring.
type Token uint64

// hash64 is FNV-1a over the key bytes followed by a 64-bit finalizer for
// full avalanche. The partitioner needs well-mixed high bits (tokens are
// compared numerically); plain FNV mixes short inputs poorly, so the
// finalizer matters for vnode balance.
func hash64(key []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	// fmix64 finalizer (splittable-hash style constants).
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// HashKey maps a key to its ring token.
func HashKey(key []byte) Token { return Token(hash64(key)) }

// NodeInfo describes one node's placement in the cluster topology.
type NodeInfo struct {
	ID   NodeID
	DC   string
	Rack string
}

// Topology is the static cluster layout. It doubles as the snitch: given a
// node it answers which DC and rack the node belongs to, and it can compute
// a proximity ordering between nodes.
type Topology struct {
	nodes map[NodeID]NodeInfo
	order []NodeID // deterministic iteration order
}

// NewTopology builds a topology from node descriptions. Duplicate IDs are an
// error.
func NewTopology(nodes []NodeInfo) (*Topology, error) {
	t := &Topology{nodes: make(map[NodeID]NodeInfo, len(nodes))}
	for _, n := range nodes {
		if n.ID == "" {
			return nil, fmt.Errorf("ring: empty node id")
		}
		if _, dup := t.nodes[n.ID]; dup {
			return nil, fmt.Errorf("ring: duplicate node id %q", n.ID)
		}
		t.nodes[n.ID] = n
		t.order = append(t.order, n.ID)
	}
	sort.Slice(t.order, func(i, j int) bool { return t.order[i] < t.order[j] })
	return t, nil
}

// Nodes returns all node IDs in deterministic order.
func (t *Topology) Nodes() []NodeID {
	out := make([]NodeID, len(t.order))
	copy(out, t.order)
	return out
}

// Info returns placement info for id.
func (t *Topology) Info(id NodeID) (NodeInfo, bool) {
	n, ok := t.nodes[id]
	return n, ok
}

// DCs returns the distinct datacenter names in sorted order.
func (t *Topology) DCs() []string {
	seen := map[string]bool{}
	var out []string
	for _, id := range t.order {
		dc := t.nodes[id].DC
		if !seen[dc] {
			seen[dc] = true
			out = append(out, dc)
		}
	}
	sort.Strings(out)
	return out
}

// Distance ranks how "close" b is to a for snitch purposes: same node 0,
// same rack 1, same DC 2, remote 3. Coordinators contact the closest
// replicas first, as Cassandra's dynamic snitch does in the common case.
func (t *Topology) Distance(a, b NodeID) int {
	if a == b {
		return 0
	}
	na, nb := t.nodes[a], t.nodes[b]
	switch {
	case na.DC == nb.DC && na.Rack == nb.Rack:
		return 1
	case na.DC == nb.DC:
		return 2
	default:
		return 3
	}
}

// SortByProximity orders nodes by Distance from origin (stable for ties).
func (t *Topology) SortByProximity(origin NodeID, nodes []NodeID) {
	sort.SliceStable(nodes, func(i, j int) bool {
		return t.Distance(origin, nodes[i]) < t.Distance(origin, nodes[j])
	})
}

// Ring is the token ring: sorted vnode tokens, each owned by a node.
type Ring struct {
	topo   *Topology
	tokens []tokenEntry

	// tables holds the placement tables built so far (see placement.go):
	// built-in Strategy value -> *placement.
	tables sync.Map
}

type tokenEntry struct {
	tok  Token
	node NodeID
}

// Build constructs a ring with vnodes virtual nodes per physical node.
// Tokens are derived deterministically from the node ID and vnode index, so
// every process in the cluster computes an identical ring.
func Build(topo *Topology, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		return nil, fmt.Errorf("ring: vnodes must be positive, got %d", vnodes)
	}
	r := &Ring{topo: topo}
	for _, id := range topo.Nodes() {
		for v := 0; v < vnodes; v++ {
			seed := fmt.Sprintf("%s#%d", id, v)
			r.tokens = append(r.tokens, tokenEntry{tok: Token(hash64([]byte(seed))), node: id})
		}
	}
	sort.Slice(r.tokens, func(i, j int) bool {
		if r.tokens[i].tok != r.tokens[j].tok {
			return r.tokens[i].tok < r.tokens[j].tok
		}
		return r.tokens[i].node < r.tokens[j].node
	})
	return r, nil
}

// Topology returns the ring's topology.
func (r *Ring) Topology() *Topology { return r.topo }

// Tokens returns the ring's distinct vnode tokens in ascending order. The
// arcs between consecutive tokens are the natural repair partitions: every
// key hashing into one arc has the same successor vnode, hence the same
// replica set.
func (r *Ring) Tokens() []Token {
	out := make([]Token, 0, len(r.tokens))
	for _, e := range r.tokens {
		if len(out) > 0 && out[len(out)-1] == e.tok {
			continue // duplicate token (hash collision between vnode seeds)
		}
		out = append(out, e.tok)
	}
	return out
}

// successorIndex returns the index of the first vnode at or after tok,
// wrapping at the end of the ring.
func (r *Ring) successorIndex(tok Token) int {
	i := sort.Search(len(r.tokens), func(i int) bool { return r.tokens[i].tok >= tok })
	if i == len(r.tokens) {
		return 0
	}
	return i
}

// walk yields distinct physical nodes starting at the vnode owning tok,
// in ring order, invoking fn until it returns false.
func (r *Ring) walk(tok Token, fn func(NodeID) bool) {
	if len(r.tokens) == 0 {
		return
	}
	seen := make(map[NodeID]bool)
	start := r.successorIndex(tok)
	// Every topology node owns vnodes, so once each has been yielded the
	// rest of the ring holds only repeats.
	for i := 0; i < len(r.tokens) && len(seen) < len(r.topo.order); i++ {
		e := r.tokens[(start+i)%len(r.tokens)]
		if seen[e.node] {
			continue
		}
		seen[e.node] = true
		if !fn(e.node) {
			return
		}
	}
}

// Strategy computes the replica set for a token.
type Strategy interface {
	// Replicas returns the ordered replica list for tok; the first entry is
	// the primary. The result length is min(rf, cluster size).
	Replicas(r *Ring, tok Token) []NodeID
	// ReplicationFactor returns the total number of replicas the strategy
	// aims to place.
	ReplicationFactor() int
	// Name identifies the strategy for diagnostics.
	Name() string
}

// SimpleStrategy places replicas on the next RF distinct nodes in ring
// order, ignoring topology — Cassandra's SimpleStrategy.
type SimpleStrategy struct{ RF int }

// Replicas implements Strategy.
func (s SimpleStrategy) Replicas(r *Ring, tok Token) []NodeID {
	if s.RF <= 0 {
		return nil
	}
	out := make([]NodeID, 0, s.RF)
	r.walk(tok, func(n NodeID) bool {
		out = append(out, n)
		return len(out) < s.RF
	})
	return out
}

// ReplicationFactor implements Strategy.
func (s SimpleStrategy) ReplicationFactor() int { return s.RF }

// Name implements Strategy.
func (s SimpleStrategy) Name() string { return "SimpleStrategy" }

// NetworkTopologyStrategy spreads replicas across datacenters and racks: it
// walks the ring and prefers nodes in (dc, rack) combinations not yet used,
// falling back to used racks once every rack holds a replica. This
// reproduces the placement behaviour of the paper's
// "OldNetworkTopologyStrategy": data replicated over all clusters and racks.
type NetworkTopologyStrategy struct{ RF int }

// Replicas implements Strategy.
func (s NetworkTopologyStrategy) Replicas(r *Ring, tok Token) []NodeID {
	if s.RF <= 0 {
		return nil
	}
	var candidates []NodeID
	r.walk(tok, func(n NodeID) bool {
		candidates = append(candidates, n)
		return true // collect full ring order of distinct nodes
	})
	out := make([]NodeID, 0, s.RF)
	used := make(map[NodeID]bool)
	usedDC := make(map[string]bool)
	usedRack := make(map[string]bool)

	// Pass 1: first replica per unused DC. Pass 2: unused rack. Pass 3: any.
	passes := []func(NodeInfo) bool{
		func(i NodeInfo) bool { return !usedDC[i.DC] },
		func(i NodeInfo) bool { return !usedRack[i.DC+"/"+i.Rack] },
		func(NodeInfo) bool { return true },
	}
	for _, accept := range passes {
		for _, c := range candidates {
			if len(out) >= s.RF {
				return out
			}
			if used[c] {
				continue
			}
			info, _ := r.topo.Info(c)
			if !accept(info) {
				continue
			}
			used[c] = true
			usedDC[info.DC] = true
			usedRack[info.DC+"/"+info.Rack] = true
			out = append(out, c)
		}
	}
	return out
}

// ReplicationFactor implements Strategy.
func (s NetworkTopologyStrategy) ReplicationFactor() int { return s.RF }

// Name implements Strategy.
func (s NetworkTopologyStrategy) Name() string { return "NetworkTopologyStrategy" }

// ReplicasForKey returns the replica set of key under s, primary first. Like
// Ring.Replicas, the result is shared and read-only for the built-in
// strategies.
func ReplicasForKey(r *Ring, s Strategy, key []byte) []NodeID {
	return r.Replicas(s, HashKey(key))
}
