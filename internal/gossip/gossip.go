// Package gossip implements the cluster-membership substrate: periodic
// anti-entropy heartbeat exchange (a simplified Cassandra-style gossiper)
// and a phi-accrual failure detector. Nodes learn about peer liveness
// transitively, and the detector's Alive answer feeds the store's hinted
// handoff decisions.
package gossip

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

// state is what a gossiper knows about one peer.
type state struct {
	generation uint64
	version    uint64
	lastSeen   time.Time
	arrivals   *arrivalWindow
	convicted  bool // phi crossed the threshold; cleared on recovery
}

// arrivalWindow tracks heartbeat inter-arrival statistics for phi-accrual.
type arrivalWindow struct {
	intervals []float64 // seconds, ring buffer
	next      int
	full      bool
	last      time.Time
	haveLast  bool
}

const arrivalWindowSize = 32

const (
	// fanout is the number of peers contacted per round.
	fanout = 3
	// phiThreshold is the suspicion level above which a peer is convicted
	// (the Cassandra default).
	phiThreshold = 8.0
)

func (w *arrivalWindow) observe(t time.Time) {
	if !w.haveLast {
		w.last = t
		w.haveLast = true
		return
	}
	dt := t.Sub(w.last).Seconds()
	w.last = t
	if dt <= 0 {
		return
	}
	if w.intervals == nil {
		w.intervals = make([]float64, arrivalWindowSize)
	}
	w.intervals[w.next] = dt
	w.next = (w.next + 1) % arrivalWindowSize
	if w.next == 0 {
		w.full = true
	}
}

func (w *arrivalWindow) mean() float64 {
	n := w.next
	if w.full {
		n = arrivalWindowSize
	}
	if n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += w.intervals[i]
	}
	return sum / float64(n)
}

// minMeanIntervals floors the fitted inter-arrival mean, in gossip
// intervals. Start-up delivers a peer's first versions in a burst (arrivals
// microseconds apart, direct and transitive), and a mean fitted to that
// burst convicts a healthy peer one round later. Measured on a 3-member
// live cluster, the steady-state mean is 0.98-1.00 intervals (1.00-1.25 on
// the 8-member simulated one), so a floor of half an interval never binds
// once the window holds real rounds: a dead peer is convicted no later
// than before.
const minMeanIntervals = 0.5

// phi computes the phi-accrual suspicion level at time now: the negative
// log-probability (base 10) that a heartbeat gap this long occurs under an
// exponential inter-arrival model fitted to the observed mean, floored at
// minMeanIntervals gossip intervals.
func (w *arrivalWindow) phi(now time.Time, interval time.Duration) float64 {
	if !w.haveLast {
		return 0
	}
	mean := w.mean()
	if mean <= 0 {
		return 0
	}
	mean = max(mean, minMeanIntervals*interval.Seconds())
	elapsed := now.Sub(w.last).Seconds()
	if elapsed <= 0 {
		return 0
	}
	// P(gap > elapsed) = exp(-elapsed/mean); phi = -log10(P).
	return elapsed / mean * math.Log10(math.E)
}

// Config parameterizes a Gossiper.
type Config struct {
	// ID is this node's identity.
	ID ring.NodeID
	// Peers is the full member list (static clusters; joins arrive via
	// gossip from any seed inside Peers).
	Peers []ring.NodeID
	// Interval between gossip rounds; zero means 1s.
	Interval time.Duration
	// Seed for peer selection.
	Seed int64
	// OnRecover, when set, fires once per down→up transition: a peer this
	// gossiper had convicted starts heartbeating again. It is the trigger
	// anti-entropy repair uses to schedule a priority session with the
	// recovered node (wire it to the node's repair.Manager.PeerRecovered).
	// The callback runs on the gossiper's runtime, outside its lock.
	OnRecover func(ring.NodeID)
}

// Gossiper exchanges heartbeat digests and answers liveness queries. Alive
// is safe to call from any goroutine; everything else runs on the node's
// runtime.
type Gossiper struct {
	cfg  Config
	rt   sim.Runtime
	send transport.Sender
	rng  *rand.Rand

	mu     sync.Mutex
	states map[ring.NodeID]*state
	self   *state
	stop   func()
	rounds uint64
}

// New creates a gossiper; Start begins rounds. Register it on the fabric
// (typically multiplexed with the storage node under the same ID; see Mux).
func New(cfg Config, rt sim.Runtime, send transport.Sender) *Gossiper {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	g := &Gossiper{
		cfg:    cfg,
		rt:     rt,
		send:   send,
		rng:    rand.New(rand.NewSource(cfg.Seed ^ int64(len(cfg.ID)))),
		states: make(map[ring.NodeID]*state),
	}
	g.self = &state{generation: 1, version: 0, lastSeen: rt.Now()}
	g.states[cfg.ID] = g.self
	return g
}

// Start begins periodic gossip rounds.
func (g *Gossiper) Start() {
	if g.stop != nil {
		return
	}
	// sim.Every's stop is safe to call from any goroutine (real-runtime
	// deployments stop the gossiper from outside the mailbox goroutine).
	g.stop = sim.Every(g.rt, func() time.Duration { return g.cfg.Interval }, g.round)
}

// Stop halts gossip rounds.
func (g *Gossiper) Stop() {
	if g.stop != nil {
		g.stop()
		g.stop = nil
	}
}

// Rounds reports completed gossip rounds (for tests).
func (g *Gossiper) Rounds() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rounds
}

func (g *Gossiper) round() {
	g.mu.Lock()
	g.self.version++
	g.self.lastSeen = g.rt.Now()
	g.self.arrivalsObserve(g.rt.Now())
	recovered := g.sweepConvictionsLocked()
	digests := g.digestsLocked()
	g.rounds++
	// Pick fanout random peers.
	peers := make([]ring.NodeID, 0, len(g.cfg.Peers))
	for _, p := range g.cfg.Peers {
		if p != g.cfg.ID {
			peers = append(peers, p)
		}
	}
	g.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	if len(peers) > fanout {
		peers = peers[:fanout]
	}
	g.mu.Unlock()
	if g.cfg.OnRecover != nil {
		for _, id := range recovered {
			g.cfg.OnRecover(id)
		}
	}
	for _, p := range peers {
		g.send.Send(g.cfg.ID, p, wire.GossipSyn{From: string(g.cfg.ID), Digests: digests})
	}
}

// sweepConvictionsLocked re-evaluates every peer's phi, recording
// conviction transitions and returning the peers that just recovered
// (down→up) this round.
func (g *Gossiper) sweepConvictionsLocked() []ring.NodeID {
	now := g.rt.Now()
	var recovered []ring.NodeID
	for id, st := range g.states {
		if id == g.cfg.ID || st.arrivals == nil {
			continue
		}
		alive := st.arrivals.phi(now, g.cfg.Interval) < phiThreshold
		switch {
		case !alive && !st.convicted:
			st.convicted = true
		case alive && st.convicted:
			st.convicted = false
			recovered = append(recovered, id)
		}
	}
	return recovered
}

func (s *state) observe(t time.Time) {
	s.lastSeen = t
	if s.arrivals == nil {
		s.arrivals = &arrivalWindow{}
	}
	s.arrivals.observe(t)
}

// arrivalsObserve keeps the self state's window warm so phi for self stays
// ~0 and Members/Phi treat self uniformly.
func (s *state) arrivalsObserve(t time.Time) { s.observe(t) }

func (g *Gossiper) digestsLocked() []wire.GossipEntry {
	out := make([]wire.GossipEntry, 0, len(g.states))
	for id, st := range g.states {
		out = append(out, wire.GossipEntry{Node: string(id), Generation: st.generation, Version: st.version})
	}
	return out
}

// Deliver implements transport.Handler for gossip messages.
func (g *Gossiper) Deliver(from ring.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case wire.GossipSyn:
		g.mergeEntries(msg.Digests)
		g.mu.Lock()
		reply := g.digestsLocked()
		g.mu.Unlock()
		g.send.Send(g.cfg.ID, from, wire.GossipAck{From: string(g.cfg.ID), Entries: reply})
	case wire.GossipAck:
		g.mergeEntries(msg.Entries)
	}
}

func (g *Gossiper) mergeEntries(entries []wire.GossipEntry) {
	now := g.rt.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, e := range entries {
		id := ring.NodeID(e.Node)
		if id == g.cfg.ID {
			continue
		}
		st, ok := g.states[id]
		if !ok {
			st = &state{}
			g.states[id] = st
		}
		newer := e.Generation > st.generation ||
			(e.Generation == st.generation && e.Version > st.version)
		if newer {
			st.generation = e.Generation
			st.version = e.Version
			st.observe(now)
		}
	}
}

// Phi returns the current suspicion level for a peer (0 when unknown).
func (g *Gossiper) Phi(id ring.NodeID) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	st, ok := g.states[id]
	if !ok || st.arrivals == nil {
		return 0
	}
	return st.arrivals.phi(g.rt.Now(), g.cfg.Interval)
}

// Alive reports whether a peer is believed up: it is alive until its phi
// exceeds the conviction threshold. Unknown peers (never heard from) are
// optimistically alive, matching Cassandra's behaviour at bootstrap.
func (g *Gossiper) Alive(id ring.NodeID) bool {
	if id == g.cfg.ID {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	st, ok := g.states[id]
	if !ok || st.arrivals == nil {
		return true
	}
	return st.arrivals.phi(g.rt.Now(), g.cfg.Interval) < phiThreshold
}

// Members returns every node this gossiper has state for.
func (g *Gossiper) Members() []ring.NodeID {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]ring.NodeID, 0, len(g.states))
	for id := range g.states {
		out = append(out, id)
	}
	return out
}

// Mux fans incoming messages to a gossiper and a fallback handler, letting
// one fabric endpoint serve both the storage node and its gossiper.
type Mux struct {
	Gossip *Gossiper
	Rest   transport.Handler
}

// Deliver implements transport.Handler.
func (m Mux) Deliver(from ring.NodeID, msg wire.Message) {
	switch msg.(type) {
	case wire.GossipSyn, wire.GossipAck:
		m.Gossip.Deliver(from, msg)
	default:
		if m.Rest != nil {
			m.Rest.Deliver(from, msg)
		}
	}
}

var (
	_ transport.Handler = (*Gossiper)(nil)
	_ transport.Handler = Mux{}
)
