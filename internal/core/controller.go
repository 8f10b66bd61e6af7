package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	// Aliased: Observe's parameter is conventionally named obs.
	obspkg "harmony/internal/obs"
	"harmony/internal/wire"
)

// Policy is an application's consistency requirement expressed the way the
// paper defines it: the fraction of stale reads the application tolerates
// (app_stale_rate). 0 demands strong consistency on every read; 1 accepts
// static eventual consistency.
type Policy struct {
	// Name labels the policy in reports ("Harmony-20%").
	Name string
	// ToleratedStaleRate is app_stale_rate in [0, 1].
	ToleratedStaleRate float64
}

// Validate clamps the tolerance into [0, 1].
func (p Policy) Validate() Policy {
	if p.ToleratedStaleRate < 0 {
		p.ToleratedStaleRate = 0
	}
	if p.ToleratedStaleRate > 1 {
		p.ToleratedStaleRate = 1
	}
	return p
}

// Decision is the controller's output after one observation.
type Decision struct {
	At       time.Time
	Estimate float64 // θ_stale: estimated stale-read rate at CL=ONE
	Xn       int     // replicas a read must block for
	Level    wire.ConsistencyLevel
	Model    Model
	// divergenceHold reports that the quorum floor was forced because
	// unrepaired divergence (Observation.Divergence) alone breached the
	// tolerance — the stream stays held until anti-entropy converges.
	divergenceHold bool
	// availabilityClamp reports that the commanded level was lowered
	// because the cluster's failure detectors see too few live members to
	// serve the demanded level: a level blocking for more replicas than
	// remain reachable cannot succeed, it can only turn every operation
	// into a deadline-length failure. During a partition the clamp keeps
	// the majority side available at the strongest level it can actually
	// serve; the staleness estimate is still reported so consumers can see
	// the tolerance is (unavoidably) breached while the cut lasts.
	availabilityClamp bool
}

// ControllerConfig configures the adaptive-consistency module.
type ControllerConfig struct {
	Policy Policy
	// N is the replication factor.
	N int
	// AvgWriteBytes and BandwidthBytesPerSec parameterize Tp(Ln, avgw).
	// A zero AvgWriteBytes uses the monitor's measured mean write size
	// (the paper's avgw is an observed quantity); a zero bandwidth reduces
	// Tp to the network latency alone.
	AvgWriteBytes        float64
	BandwidthBytesPerSec float64
	// OnDecision, when set, observes every decision (for tracing/benches).
	OnDecision func(Decision)
	// Trace, when set, receives structured control-loop events: per-group
	// level changes, divergence hold/release transitions, SESSION-tier
	// overrides, and regroups — each stamped with the observation that
	// triggered it. Nil disables tracing; emission happens outside the
	// controller's lock.
	Trace *obspkg.Trace

	// Groups turns the controller into a multi-model controller: one
	// estimator model and decision stream per key group, fed by the
	// monitor's per-group rates. Zero or one keeps the classic global
	// controller (per-group state still exists for group 0 but mirrors
	// the global decisions exactly).
	Groups int
	// GroupFn maps a key to its group for LevelsFor; it must match the
	// cluster's Config.GroupFn. Nil assigns every key to group 0. It is
	// consulted with the controller's lock held so a key is always judged
	// by the epoch its group id belongs to; it must be cheap and must not
	// call back into the controller. Regroup supersedes it at runtime.
	GroupFn func(key []byte) int
	// GroupTolerances overrides Policy.ToleratedStaleRate per group
	// (index by group id); groups beyond the slice fall back to the
	// global policy. This is how hot contended data gets a tight target
	// while cold read-mostly data keeps a loose one. Regroup supersedes
	// it at runtime.
	GroupTolerances []float64
	// OnGroupDecision, when set, observes every per-group decision.
	OnGroupDecision func(group int, d Decision)

	// SessionGroups marks groups (index by group id) whose clients read
	// through client.Session: their correctness need is session-scoped
	// (read-your-writes, monotonic reads), which wire.Session enforces via
	// session tokens at single-replica cost in the common case. For a marked
	// group, any decision that would raise reads above ONE is served at
	// SESSION instead — a distinct cost/staleness point on the menu: it
	// blocks for one replica like ONE (escalating only when a token is not
	// yet satisfied locally) while eliminating the regressions the session's
	// own clients could observe, rather than bounding the cluster-wide
	// stale-read probability the way QUORUM does. Groups beyond the slice
	// (or with a false entry) keep the paper's ONE/.../ALL menu. Regroup
	// clears the flags (group ids change meaning); re-arm with
	// setSessionGroups after installing the new epoch.
	SessionGroups []bool
}

// Controller is Harmony's adaptive-consistency module: it consumes monitor
// observations, estimates the stale-read rate were reads served at CL=ONE,
// and applies the paper's decision scheme —
//
//	if app_stale_rate ≥ θ_stale: Level = ONE
//	else:                        Level from Xn (equation 8)
//
// Writes always ship at ONE, as in the paper. Controller implements
// client.ConsistencyPolicy (LevelsFor), so drivers pick up the current
// levels on every operation, and it is safe for concurrent use (clients and
// the monitor may live on different runtimes).
//
// With ControllerConfig.Groups > 1 it is a multi-model controller: every
// key group gets its own estimator model and decision stream derived from
// the monitor's per-group arrival rates, so each read is served at the
// level its key's group demands. The global decision stream (Last, History)
// is always computed from the cluster-wide rates, so a single-group
// configuration behaves exactly like the classic controller.
type Controller struct {
	cfg ControllerConfig

	mu      sync.Mutex
	last    Decision
	history []Decision
	groups  []groupState
	keep    int
	// Mutable group structure, swapped atomically by Regroup: the grouping
	// epoch, the key→group function, and the per-group tolerances always
	// change together under mu, so LevelsFor never judges a key with a
	// group id from one epoch against the group table of another.
	epoch   uint64
	groupFn func(key []byte) int
	tols    []float64
	sess    []bool
}

// groupState is one key group's live decision stream.
type groupState struct {
	level   wire.ConsistencyLevel
	last    Decision
	history []Decision
}

// NewController creates a controller defaulting to eventual consistency
// until the first observation arrives (the paper's default level).
func NewController(cfg ControllerConfig) *Controller {
	cfg.Policy = cfg.Policy.Validate()
	if cfg.N < 1 {
		cfg.N = 1
	}
	if cfg.Groups < 1 {
		cfg.Groups = 1
	}
	groups := make([]groupState, cfg.Groups)
	for g := range groups {
		groups[g].level = wire.One
	}
	return &Controller{
		cfg:     cfg,
		groups:  groups,
		keep:    4096,
		groupFn: cfg.GroupFn,
		tols:    append([]float64(nil), cfg.GroupTolerances...),
		sess:    append([]bool(nil), cfg.SessionGroups...),
	}
}

// Groups reports how many key groups the controller currently adapts.
func (c *Controller) Groups() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.groups)
}

// Epoch reports the grouping epoch the controller's group table belongs to
// (zero until the first Regroup).
func (c *Controller) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// groupToleranceLocked resolves the tolerable stale-read rate for a group.
// Callers must hold c.mu.
func (c *Controller) groupToleranceLocked(g int) float64 {
	if g < len(c.tols) {
		t := c.tols[g]
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		return t
	}
	return c.cfg.Policy.ToleratedStaleRate
}

// Regroup atomically installs a new grouping epoch: the key→group function,
// the per-group tolerances, and the per-group decision streams swap
// together. len(tolerances) is the new group count. parents[g] names the
// old group whose decision stream seeds new group g — the model migration
// that keeps a renamed-but-unchanged group at its adapted level instead of
// resetting everything to eventual consistency on every regroup; a negative
// (or out-of-range) parent seeds the group from the global stream. Groups
// without heirs are retired. Epochs must strictly increase: a stale or
// duplicate epoch is ignored, so redelivered updates apply exactly once.
func (c *Controller) Regroup(epoch uint64, groupFn func(key []byte) int, tolerances []float64, parents []int) {
	n := len(tolerances)
	if n < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch <= c.epoch {
		return
	}
	next := make([]groupState, n)
	for g := range next {
		parent := -1
		if g < len(parents) {
			parent = parents[g]
		}
		if parent >= 0 && parent < len(c.groups) {
			old := &c.groups[parent]
			next[g] = groupState{
				level:   old.level,
				last:    old.last,
				history: append([]Decision(nil), old.history...),
			}
		} else {
			// Fresh group: inherit the cluster-wide stream until its own
			// first per-group observation arrives (ONE before any decision).
			level := c.last.Level
			if level == 0 {
				level = wire.One
			}
			next[g] = groupState{level: level, last: c.last}
		}
	}
	c.epoch = epoch
	c.groups = next
	c.groupFn = groupFn
	c.tols = append([]float64(nil), tolerances...)
	// Session flags name groups of the retired epoch; the new epoch's groups
	// start unflagged until setSessionGroups re-arms them.
	c.sess = nil
	c.cfg.Trace.Add(obspkg.Event{
		Kind:   obspkg.EventRegroup,
		Group:  -1,
		Epoch:  epoch,
		Detail: fmt.Sprintf("controller installed epoch %d: %d groups (%d inherited streams)", epoch, n, len(parents)),
	})
}

// setSessionGroups installs per-group session flags for the current grouping
// (see ControllerConfig.SessionGroups). Call it after Regroup to re-arm
// session-tier selection for the new epoch's groups.
func (c *Controller) setSessionGroups(flags []bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sess = append([]bool(nil), flags...)
}

// sessionOKLocked reports whether group g is flagged session-tolerant.
// Callers must hold c.mu.
func (c *Controller) sessionOKLocked(g int) bool {
	return g >= 0 && g < len(c.sess) && c.sess[g]
}

// LevelsFor implements client.ConsistencyPolicy: the key's group supplies
// the read level, resolved under one lock acquisition so a key is never
// judged with one epoch's group id against another epoch's group table.
// Out-of-range GroupFn results clamp to group 0, matching the cluster nodes'
// telemetry clamp, so a miscategorized key is served by the group whose
// counters it feeds. Writes are always served at ONE.
func (c *Controller) LevelsFor(key []byte) (read, write wire.ConsistencyLevel) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := 0
	if c.groupFn != nil {
		g = c.groupFn(key)
	}
	if g < 0 || g >= len(c.groups) {
		g = 0
	}
	return c.groups[g].level, wire.One
}

// GroupLast returns the most recent decision for a group.
func (c *Controller) GroupLast(g int) Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g < 0 || g >= len(c.groups) {
		return Decision{}
	}
	return c.groups[g].last
}

// groupHistory returns a copy of a group's retained decision trace.
func (c *Controller) groupHistory(g int) []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g < 0 || g >= len(c.groups) {
		return nil
	}
	out := make([]Decision, len(c.groups[g].history))
	copy(out, c.groups[g].history)
	return out
}

// Last returns the most recent decision.
func (c *Controller) Last() Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// History returns a copy of the retained decision trace.
func (c *Controller) History() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Decision, len(c.history))
	copy(out, c.history)
	return out
}

// divergenceStaleness couples the controller to the anti-entropy divergence
// gauge ν (Observation.Divergence): unrepaired replica divergence — a
// recovering node serving data that predates its outage — is staleness the
// propagation-time model cannot see, so ν is folded into the estimate as an
// extra stale probability 1−exp(−ν) (saturating: any sustained repair
// activity reads as near-certain divergence exposure), and groups whose
// divergence alone breaches their tolerance are forced to at least quorum
// reads until repair converges (quorum suffices: with one recovering
// replica, any multi-replica read includes a healthy one and
// last-writer-wins picks its fresher version).
func divergenceStaleness(divergence float64) float64 {
	if divergence <= 0 {
		return 0
	}
	return 1 - math.Exp(-divergence)
}

// decide runs the paper's decision scheme for one model against one
// tolerance, treating unrepaired divergence (extra stale probability pd, 0
// when repair is converged or disabled) as staleness on top of the model's
// propagation estimate.
func (c *Controller) decide(at time.Time, model Model, tolerated, pd float64, reachable int) Decision {
	d := Decision{At: at, Model: model}
	d.Estimate = pd + (1-pd)*model.staleReadProbability()
	if (!model.valid() && pd <= 0) || tolerated >= d.Estimate {
		// No signal, or the application tolerates the estimated staleness:
		// eventual consistency.
		d.Xn = 1
		d.Level = wire.One
	} else {
		d.Xn = 1
		if model.valid() {
			d.Xn = model.replicasNeeded(tolerated)
		}
		if pd > tolerated {
			// Divergence alone breaches the tolerance: hold at least quorum
			// until anti-entropy converges (see divergenceStaleness).
			d.divergenceHold = true
			if q := c.cfg.N/2 + 1; d.Xn < q {
				d.Xn = q
			}
		}
		d.Level = wire.LevelForCount(d.Xn, c.cfg.N)
	}
	// Availability clamp, applied last so it wins over the divergence hold:
	// commanding a level that blocks for more replicas than the failure
	// detectors believe reachable cannot add consistency — every such
	// operation just fails after its deadline (see Decision.availabilityClamp).
	if reachable > 0 && reachable < c.cfg.N && d.Level.BlockFor(c.cfg.N) > reachable {
		d.availabilityClamp = true
		d.Level = strongestServable(c.cfg.N, reachable)
		if d.Xn > reachable {
			d.Xn = reachable
		}
	}
	return d
}

// strongestServable returns the strongest consistency level whose replica
// fan-in fits within reachable live replicas under replication factor rf.
func strongestServable(rf, reachable int) wire.ConsistencyLevel {
	for _, l := range []wire.ConsistencyLevel{wire.All, wire.Quorum, wire.Three, wire.Two} {
		if l.BlockFor(rf) <= reachable {
			return l
		}
	}
	return wire.One
}

// propagation resolves the Tp input from the cluster-wide mean write size.
func (c *Controller) propagation(obs Observation) time.Duration {
	return c.propagationWith(obs, c.cfg.AvgWriteBytes)
}

// propagationWith resolves Tp for one model using avgw as the mean write
// payload; non-positive avgw falls back to the observed cluster-wide mean.
func (c *Controller) propagationWith(obs Observation, avgw float64) time.Duration {
	if avgw <= 0 {
		avgw = obs.AvgWriteBytes
	}
	return propagationTime(obs.Latency, avgw, c.cfg.BandwidthBytesPerSec)
}

// Observe consumes one monitoring observation and updates the consistency
// level of every group (plus the global level); it is the OnObservation
// hook for a Monitor.
func (c *Controller) Observe(obs Observation) {
	tp := c.propagation(obs)
	// Reachable replicas under the monitor's best liveness view: each down
	// member is conservatively assumed to replicate the keys in question
	// (exact when RF spans the membership, worst-case otherwise). Zero —
	// no detector wired, or all members alive — disables the clamp.
	reachable := 0
	if obs.AliveMembers > 0 && obs.AliveMembers < obs.Members {
		reachable = c.cfg.N - (obs.Members - obs.AliveMembers)
		if reachable < 1 {
			reachable = 1
		}
	}
	global := c.decide(obs.At, Model{
		N:       c.cfg.N,
		lambdaR: obs.ReadRate,
		lambdaW: obs.WriteInterval,
		Tp:      tp,
	}, c.cfg.Policy.ToleratedStaleRate, divergenceStaleness(obs.Divergence), reachable)

	c.mu.Lock()
	// Per-group decisions: measured group rates when the monitor reports
	// exactly the groups of this controller's current epoch; any shape or
	// epoch mismatch means the cluster's grouping and ours disagree (a
	// regroup is still propagating, or the GroupFns differ), so every
	// group falls back to the cluster-wide rates. With one group the
	// streams therefore coincide with the global one — the refactor is a
	// strict generalization of the global controller.
	aligned := len(obs.Groups) == len(c.groups) && obs.Epoch == c.epoch
	groupDs := make([]Decision, len(c.groups))
	var events []obspkg.Event
	for g := range c.groups {
		model := Model{N: c.cfg.N, lambdaR: obs.ReadRate, lambdaW: obs.WriteInterval, Tp: tp}
		div := obs.Divergence
		if aligned {
			model.lambdaR = obs.Groups[g].ReadRate
			model.lambdaW = obs.Groups[g].WriteInterval
			div = obs.Groups[g].Divergence
			// Groups with distinct measured payload sizes get distinct Tp
			// estimates (unless a configured AvgWriteBytes pins avgw).
			if gw := obs.Groups[g].AvgWriteBytes; gw > 0 && c.cfg.AvgWriteBytes <= 0 {
				model.Tp = c.propagationWith(obs, gw)
			}
		}
		tol := c.groupToleranceLocked(g)
		groupDs[g] = c.decide(obs.At, model, tol, divergenceStaleness(div), reachable)
		demanded := groupDs[g].Level
		if c.sessionOKLocked(g) && groupDs[g].Level != wire.One {
			// Session-flagged group: any tighter-than-ONE demand is served by
			// the SESSION tier instead — token-checked reads block for one
			// replica in the common case, which is exactly the guarantee this
			// group's clients need (see ControllerConfig.SessionGroups).
			groupDs[g].Xn = 1
			groupDs[g].Level = wire.Session
		}
		// Trace transitions against the still-uncommitted previous state;
		// events are appended outside the lock below.
		if c.cfg.Trace != nil {
			old := &c.groups[g]
			nd := groupDs[g]
			base := obspkg.Event{
				Group: g, Epoch: c.epoch,
				Estimate: nd.Estimate, Tolerance: tol, Xn: nd.Xn, Divergence: div,
			}
			if nd.Level != old.level {
				e := base
				e.Kind = obspkg.EventLevel
				e.From = old.level.String()
				e.To = nd.Level.String()
				events = append(events, e)
			}
			if nd.Level == wire.Session && demanded != wire.Session && old.level != wire.Session {
				e := base
				e.Kind = obspkg.EventSession
				e.From = demanded.String()
				e.To = wire.Session.String()
				e.Detail = "session-flagged group served at SESSION instead of demanded level"
				events = append(events, e)
			}
			if nd.availabilityClamp != old.last.availabilityClamp {
				e := base
				e.Kind = obspkg.EventAvailabilityClamp
				e.From = old.level.String()
				e.To = nd.Level.String()
				if nd.availabilityClamp {
					e.Detail = fmt.Sprintf("only %d of %d replicas reachable", reachable, c.cfg.N)
				} else {
					e.Detail = "membership recovered, clamp released"
				}
				events = append(events, e)
			}
			if nd.divergenceHold != old.last.divergenceHold {
				e := base
				if nd.divergenceHold {
					e.Kind = obspkg.EventDivergenceHold
					e.To = nd.Level.String()
				} else {
					e.Kind = obspkg.EventDivergenceRelease
					e.To = nd.Level.String()
				}
				events = append(events, e)
			}
		}
	}

	c.last = global
	c.history = appendCapped(c.history, global, c.keep)
	for g := range c.groups {
		c.groups[g].level = groupDs[g].Level
		c.groups[g].last = groupDs[g]
		c.groups[g].history = appendCapped(c.groups[g].history, groupDs[g], c.keep)
	}
	cb, gcb := c.cfg.OnDecision, c.cfg.OnGroupDecision
	c.mu.Unlock()
	for _, e := range events {
		// Stamp with the observation's clock: virtual time on the
		// simulator, so a seeded run writes the same trace every time.
		if !obs.At.IsZero() {
			e.AtMs = obs.At.UnixMilli()
		}
		c.cfg.Trace.Add(e)
	}
	if cb != nil {
		cb(global)
	}
	if gcb != nil {
		for g, d := range groupDs {
			gcb(g, d)
		}
	}
}

// appendCapped appends keeping at most keep trailing entries.
func appendCapped(hist []Decision, d Decision, keep int) []Decision {
	hist = append(hist, d)
	if len(hist) > keep {
		hist = hist[len(hist)-keep:]
	}
	return hist
}

// Policy returns the controller's policy.
func (c *Controller) Policy() Policy { return c.cfg.Policy }
