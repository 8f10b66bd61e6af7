package grouping

import (
	"fmt"
	"sync"
	"time"

	"harmony/internal/core"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

// Config parameterizes a Regrouper.
type Config struct {
	// Self is the fabric identity broadcasts originate from — usually the
	// monitor's, since the regrouper rides the monitor's collection loop
	// and never expects replies.
	Self ring.NodeID
	// Nodes are the storage nodes GroupUpdates broadcast to.
	Nodes []ring.NodeID
	// K is the number of consistency categories to learn (>= 2).
	K int
	// MinTolerance / MaxTolerance bound the per-category tolerable
	// stale-read rates: the most write-contended category gets
	// MinTolerance, the least contended MaxTolerance (see
	// core.Categorizer.Recluster).
	MinTolerance, MaxTolerance float64
	// Interval is the regroup cadence; zero means 1s. Each tick merges the
	// latest node samples, re-clusters, and — only when the grouping
	// actually changed — bumps the epoch and broadcasts.
	Interval time.Duration
	// MinKeys gates clustering: below this many merged sampled keys the
	// regrouper stays on the current assignment (zero means 8*K). It keeps
	// cold-start and drained clusters from thrashing on noise.
	MinKeys int
	// MaxCarry bounds how many consecutive reclusterings a non-default key
	// survives without fresh evidence (zero means 8, negative disables
	// carry-over). Carried keys keep their group so sampled-tail flicker
	// does not churn epochs, but a key that stays unsampled that long —
	// e.g. a migrated-away hotspot no longer hot enough to make any
	// node's export — falls back to the default group at the next applied
	// epoch instead of staying pinned tight forever (and instead of
	// growing every broadcast's key map without bound).
	MaxCarry int
	// Seed makes clustering deterministic.
	Seed int64
	// Controller, when set, is regrouped in lockstep with the broadcast:
	// per-group models migrate to their heir groups instead of resetting.
	Controller *core.Controller
	// Initial is the epoch-0 assignment the cluster was built with; nil
	// derives a uniform one (no keys assigned, K groups, tolerances spread
	// evenly, default loosest). It must match the cluster's initial
	// Spec.Groups/GroupFn for the loop to be consistent before the first
	// regroup.
	Initial *Assignment
	// OnRegroup observes every applied assignment (after broadcast).
	OnRegroup func(*Assignment)
}

// minShift is epoch hysteresis: a new assignment only becomes an epoch when
// the keys that changed groups carry at least this fraction of the total
// sampled weight. Keys on a cluster boundary flicker between groups on every
// recluster; they carry negligible traffic, and bumping the epoch for them
// would re-baseline every node's counters — and blind the monitor for a
// round — without changing behavior. A migrating hotspot moves a large
// weight share and clears the bar immediately.
const minShift = 0.10

// Regrouper runs the monitor-side half of the online grouping loop. Wire
// IngestStats into core.MonitorConfig.OnNodeStats and call Start; every
// Interval it merges the freshest per-node key samples, re-clusters them
// with core.Categorizer, and — when the learned grouping differs from the
// incumbent — installs it cluster-wide as a new epoch: GroupUpdate to every
// node, Regroup on the controller.
//
// It is safe for concurrent use; in the common deployment everything runs
// on the monitor node's runtime.
type Regrouper struct {
	cfg  Config
	rt   sim.Runtime
	send transport.Sender
	cat  *core.Categorizer
	stop func()

	mu      sync.Mutex
	cur     *Assignment
	samples map[ring.NodeID][]wire.KeySample
	carried map[string]int // recluster rounds a key was carried unsampled
	bumps   uint64
}

// New validates the config and creates a Regrouper.
func New(cfg Config, rt sim.Runtime, send transport.Sender) (*Regrouper, error) {
	if cfg.K < 2 {
		return nil, fmt.Errorf("grouping: need K >= 2 categories, got %d", cfg.K)
	}
	if cfg.MinTolerance > cfg.MaxTolerance {
		return nil, fmt.Errorf("grouping: MinTolerance %v > MaxTolerance %v", cfg.MinTolerance, cfg.MaxTolerance)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.MinKeys <= 0 {
		cfg.MinKeys = 8 * cfg.K
	}
	if cfg.MaxCarry == 0 {
		cfg.MaxCarry = 8
	}
	cat, err := core.NewCategorizer(cfg.K, cfg.Seed)
	if err != nil {
		return nil, err
	}
	initial := cfg.Initial
	if initial == nil {
		tols := make([]float64, cfg.K)
		for i := range tols {
			frac := 0.0
			if cfg.K > 1 {
				frac = float64(i) / float64(cfg.K-1)
			}
			tols[i] = cfg.MinTolerance + frac*(cfg.MaxTolerance-cfg.MinTolerance)
		}
		if initial, err = Uniform(tols, cfg.K-1); err != nil {
			return nil, err
		}
	}
	return &Regrouper{
		cfg:     cfg,
		rt:      rt,
		send:    send,
		cat:     cat,
		cur:     initial,
		samples: make(map[ring.NodeID][]wire.KeySample),
		carried: make(map[string]int),
	}, nil
}

// IngestStats records a node's latest key samples; it matches the
// core.MonitorConfig.OnNodeStats hook. Samples are decayed cumulative
// weights, so each node's newest report replaces its previous one — an
// empty report clears the node's contribution (its sampler drained or
// sampling is off), rather than leaving retired keys merged into every
// future recluster.
func (r *Regrouper) IngestStats(node ring.NodeID, s wire.StatsResponse) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(s.KeySamples) > 0 {
		r.samples[node] = s.KeySamples
	} else {
		delete(r.samples, node)
	}
}

// Start begins periodic regrouping.
func (r *Regrouper) Start() {
	if r.stop != nil {
		return
	}
	r.stop = sim.Every(r.rt, func() time.Duration { return r.cfg.Interval }, func() { r.RegroupNow() })
}

// Stop halts periodic regrouping.
func (r *Regrouper) Stop() {
	if r.stop != nil {
		r.stop()
		r.stop = nil
	}
}

// Current returns the live assignment (never nil).
func (r *Regrouper) Current() *Assignment {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// Epochs reports how many epoch bumps have been applied.
func (r *Regrouper) Epochs() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bumps
}

// RegroupNow merges the latest samples and re-clusters immediately,
// applying a new epoch when the learned grouping differs from the current
// one. It reports whether an epoch was applied. Exposed for tests and for
// deployments that want to trigger regrouping on external signals instead
// of (or in addition to) the timer.
func (r *Regrouper) RegroupNow() bool {
	r.mu.Lock()
	merged := core.NewKeyStats()
	weight := make(map[string]float64)
	for _, samples := range r.samples {
		for _, s := range samples {
			merged.Add(s.Key, s.Reads, s.Writes)
			weight[string(s.Key)] += s.Reads + s.Writes
		}
	}
	cur := r.cur
	r.mu.Unlock()

	if merged.Len() < r.cfg.MinKeys {
		return false
	}
	if err := r.cat.Recluster(merged, r.cfg.MinTolerance, r.cfg.MaxTolerance); err != nil {
		return false
	}
	cats := r.cat.Categories()
	tols := make([]float64, len(cats))
	for i, c := range cats {
		tols[i] = c.Tolerance
	}
	assign := r.cat.Assignment()
	// Carry over non-default assignments for keys the sample no longer
	// holds: a key that decayed out of every node's sampler left no new
	// evidence, and letting it silently fall back to the default group
	// would bump the epoch every time the sampled tail flickers. Demotion
	// happens on evidence — the key reappears with cold features and the
	// clusterer reassigns it — or, for keys that never reappear (a
	// migrated-away hotspot buried below every node's export cutoff),
	// after MaxCarry consecutive evidence-free rounds, so the tight group
	// cannot accrete every hot range the workload ever had.
	r.mu.Lock()
	for key := range r.carried {
		if _, ok := cur.assign[key]; !ok {
			delete(r.carried, key) // no longer carried anywhere
		}
	}
	for key, g := range cur.assign {
		if g == cur.def || g >= len(tols) {
			continue
		}
		if _, ok := assign[key]; ok {
			delete(r.carried, key) // fresh evidence
			continue
		}
		if r.cfg.MaxCarry < 0 {
			continue
		}
		r.carried[key]++
		if r.carried[key] <= r.cfg.MaxCarry {
			assign[key] = g
		}
	}
	r.mu.Unlock()
	candidate, err := NewAssignment(cur.Epoch()+1, tols, len(tols)-1, assign)
	if err != nil {
		return false
	}
	if cur.EquivalentTo(candidate) {
		// The workload still clusters the way it did: keep the epoch (and
		// every node's counters) instead of churning the whole pipeline.
		return false
	}
	if cur.Groups() == candidate.Groups() {
		total, changed := 0.0, 0.0
		for key, w := range weight {
			total += w
			if cur.GroupOf([]byte(key)) != candidate.GroupOf([]byte(key)) {
				changed += w
			}
		}
		if total > 0 && changed/total < minShift {
			// Only boundary flicker moved: not worth an epoch.
			return false
		}
	}

	// Model migration: each new group inherits the old group that owned
	// the plurality of its traffic (by sampled weight), so a category that
	// merely changed membership keeps its adapted consistency level.
	parents := make([]int, candidate.Groups())
	votes := make([]map[int]float64, candidate.Groups())
	for i := range votes {
		parents[i] = -1
		votes[i] = make(map[int]float64)
	}
	for key, g := range assign {
		votes[g][cur.groupOfString(key)] += weight[key]
	}
	for g, v := range votes {
		best, bestW := -1, 0.0
		for old := 0; old < cur.Groups(); old++ {
			if w, ok := v[old]; ok && w > bestW {
				best, bestW = old, w
			}
		}
		parents[g] = best
	}

	// Claim the epoch before announcing it: a concurrent RegroupNow that
	// won the race already moved r.cur, and broadcasting a second,
	// different epoch-(e+1) assignment would leave this regrouper's view
	// divergent from what the nodes and controller installed (they ignore
	// duplicate epochs). The loser simply yields; the next tick re-runs
	// against the winner's assignment.
	r.mu.Lock()
	if r.cur != cur {
		r.mu.Unlock()
		return false
	}
	r.cur = candidate
	r.bumps++
	cb := r.cfg.OnRegroup
	r.mu.Unlock()

	update := candidate.ToWire()
	for _, n := range r.cfg.Nodes {
		r.send.Send(r.cfg.Self, n, update)
	}
	if r.cfg.Controller != nil {
		r.cfg.Controller.Regroup(candidate.Epoch(), candidate.GroupOf, candidate.Tolerances(), parents)
	}
	if cb != nil {
		cb(candidate)
	}
	return true
}
