// Package cluster implements the replicated key-value store Harmony tunes: a
// Dynamo/Cassandra-style system where every node can coordinate client
// operations over the token ring, writes propagate asynchronously to all
// replicas while the coordinator blocks for only as many acknowledgements as
// the operation's consistency level demands, and reads reconcile replica
// responses by timestamp with background read repair (the exact quorum
// machinery of the paper's §II-B and Fig. 1).
//
// Node logic is event-driven and single-threaded per node: all message and
// timer callbacks execute on the node's sim.Runtime. The same code therefore
// runs under the discrete-event simulator, on real-time in-process mailboxes,
// and behind the TCP server.
package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"harmony/internal/obs"
	"harmony/internal/repair"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/storage"
	"harmony/internal/transport"
	"harmony/internal/versioning"
	"harmony/internal/wire"
)

const (
	// sessionRetry is how long a SESSION read coordinator waits before
	// re-polling replicas when no response yet covers the client's session
	// token (the acked write is still propagating, or a down replica holds
	// it). The read still fails with the normal ReadTimeout when the token
	// can never be satisfied.
	sessionRetry = 25 * time.Millisecond
	// hintReplayInterval is how often queued hints are retried.
	hintReplayInterval = 10 * time.Second
)

// Config parameterizes a storage node.
type Config struct {
	ID       ring.NodeID
	Ring     *ring.Ring
	Strategy ring.Strategy

	// ReadTimeout bounds how long a coordinator waits for enough replica
	// read responses; zero means 1s.
	ReadTimeout time.Duration
	// WriteTimeout bounds how long a coordinator waits for enough mutation
	// acks; zero means 1s.
	WriteTimeout time.Duration
	// ReadRepairChance is the probability that a read fans out to every
	// replica (still blocking only for the consistency level) and issues
	// background repairs to stale ones — Cassandra's read_repair_chance.
	// Reads that lose the coin flip contact exactly the replicas the level
	// requires, which is what gives weaker levels their capacity and
	// latency advantage.
	ReadRepairChance float64
	// HintedHandoff queues mutations for replicas the failure detector
	// considers down and replays them when the replica returns.
	HintedHandoff bool
	// HintQueueLimit caps the total hints queued across all down peers;
	// once full, further mutations for down replicas are DROPPED (counted
	// in Metrics.HintsDropped) — the durability gap Cassandra's bounded
	// hint windows have, and exactly the divergence anti-entropy repair
	// exists to catch. Zero means unlimited.
	HintQueueLimit int
	// Repair enables the anti-entropy subsystem: background Merkle-tree
	// sessions with replica peers that bound how long a recovered node can
	// serve stale data (see internal/repair).
	Repair repair.Options
	// Engine configures the local storage engine. With Repair enabled the
	// node installs its own OnReplace hook (the Merkle-tree feed),
	// replacing any set here.
	Engine storage.Options
	// Groups is the number of key groups the node tallies separately for
	// the monitoring pipeline; zero or negative means one. Group counters
	// ride on StatsResponse so the monitor can derive per-group arrival
	// rates and the controller can adapt each group independently.
	Groups int
	// GroupFn maps a key to its group in [0, Groups); nil assigns every
	// key to group 0. Out-of-range results are clamped into range. The
	// function runs on every coordinated operation, so it must be cheap
	// and must not retain the key slice. Groups and GroupFn are only the
	// initial assignment: a wire.GroupUpdate from the regrouping subsystem
	// atomically replaces both at runtime (see applyGroupUpdate).
	GroupFn func(key []byte) int
	// KeySampleLimit enables per-key access sampling for the online
	// regrouping loop: each coordinated read/write is tallied into a
	// decayed per-key sampler and the top KeySampleLimit keys ride on
	// every StatsResponse. Zero disables sampling (no per-op overhead,
	// lean stats frames).
	KeySampleLimit int
	// KeyStatsDecay is the multiplicative decay applied to the sampler's
	// weights on every stats poll; outside (0, 1] means 0.5. Lower values
	// forget migrated-away hotspots faster.
	KeyStatsDecay float64
	// MaxInFlight bounds the coordinator ops (reads + writes) this node
	// holds open at once. At the bound further client requests are shed
	// immediately with wire.ErrOverloaded instead of queueing work that
	// would only time out — the fail-fast half of overload protection;
	// clients treat the error as retryable against another coordinator.
	// Zero means unlimited.
	MaxInFlight int
	// Alive reports whether a peer is believed up; nil means always true.
	// Wire a gossip.Detector's Alive method here for failure awareness.
	Alive func(ring.NodeID) bool
	// AliveCount reports how many cluster members (including this node)
	// the failure detector currently believes are up. Nil leaves
	// StatsResponse.AliveMembers zero, which tells the monitor no liveness
	// signal is available and disables the controller's availability
	// clamp.
	AliveCount func() int
	// Rand drives the read-repair coin flips; nil seeds a default source.
	// Only ever used from the node's runtime.
	Rand *rand.Rand
	// OpHist, when set, records coordinated read/write latency (request
	// arrival to client response) keyed by operation kind × achieved
	// consistency level. Nil keeps the hot paths identical to a node built
	// without observability.
	OpHist *obs.OpLevelHist
	// Trace, when set, receives node-side control events (grouping-epoch
	// installs). Nil disables tracing.
	Trace *obs.Trace
}

// Metrics are a node's cumulative counters. Access through Snapshot.
type Metrics struct {
	Reads         uint64 // client reads coordinated
	Writes        uint64 // client writes coordinated
	ReplicaOps    uint64 // replica-level reads+mutations served
	BytesRead     uint64
	BytesWritten  uint64
	RepairsSent   uint64
	HintsQueued   uint64
	HintsReplayed uint64
	// HintsDropped counts mutations lost to hint-queue overflow or an
	// explicit DropHints (simulated coordinator crash) — divergence only
	// anti-entropy repair can heal.
	HintsDropped  uint64
	ReadTimeouts  uint64
	WriteTimeouts uint64
	Unavailable   uint64 // operations failed fast for lack of live replicas
	Overloaded    uint64 // operations shed at the MaxInFlight bound
	// RepairRows / RepairAgeMs are the anti-entropy divergence gauge: rows
	// a repair session changed on THIS node (it held stale or missing data)
	// and their summed age at heal time. See wire.StatsResponse.
	RepairRows  uint64
	RepairAgeMs uint64
	// ShadowSamples counts reads that carried the dual-read staleness probe
	// (§V-F); ShadowStale counts how many of those returned a value older
	// than the freshest replica held at read time.
	ShadowSamples uint64
	ShadowStale   uint64
	// LevelUse tallies coordinated reads per consistency level (index by
	// wire.ConsistencyLevel). Slot 0 is unused.
	LevelUse [8]uint64
	// SessionUpgrades counts SESSION reads whose first replica's answer did
	// not cover the client's token, forcing a fan-out to the remaining live
	// replicas; SessionRepolls counts the rarer re-poll rounds after even
	// the full fan-in came back short. Their complement — SESSION reads
	// absent from both — ran at single-replica cost.
	SessionUpgrades uint64
	SessionRepolls  uint64
	// GroupReads / GroupWrites tally coordinated operations per key group
	// (index by group id, length = the node's current group count). They
	// partition the traffic coordinated since the current grouping epoch
	// began: group counters re-baseline to zero when a GroupUpdate applies,
	// because the old groups no longer exist (the aggregate Reads/Writes
	// above stay cumulative since process start).
	GroupReads  []uint64
	GroupWrites []uint64
	// GroupBytesWritten tallies coordinated write payload bytes per key
	// group, so the monitor can derive per-group mean write sizes.
	GroupBytesWritten []uint64
	// GroupShadowSamples / GroupShadowStale split the dual-read staleness
	// probe counters by key group.
	GroupShadowSamples []uint64
	GroupShadowStale   []uint64
	// GroupRepairRows / GroupRepairAgeMs split the divergence gauge by key
	// group, so the controller can tighten exactly the groups a recovering
	// replica serves stale.
	GroupRepairRows  []uint64
	GroupRepairAgeMs []uint64
	// GroupLevelUse splits LevelUse by key group (one [8]uint64 per group,
	// indexed by wire.ConsistencyLevel): which level each group's traffic
	// actually ran at since the current grouping epoch began. Reads and
	// writes both tally into it.
	GroupLevelUse [][8]uint64
	// GroupEpoch is the grouping epoch the group counters belong to (zero
	// until the first GroupUpdate applies).
	GroupEpoch uint64
}

type readOp struct {
	id        uint64
	key       []byte
	client    ring.NodeID
	clientID  uint64
	need      int
	total     int
	got       []wire.ReplicaReadResp
	from      []ring.NodeID
	responded bool
	finished  bool
	respTS    int64 // timestamp of the value returned to the client
	respAt    int64 // virtual UnixNano when the client response was sent
	shadow    bool
	group     int
	epoch     uint64 // grouping epoch op.group belongs to
	level     wire.ConsistencyLevel
	cancel    func()
	// Blocking read repair (CL=ALL, paper Fig. 1): the response to the
	// client waits until stale replicas acknowledge their repair.
	blockedOnRepair bool
	repairAcksLeft  int
	repairIDs       []uint64
	// SESSION state: the client's normalized token, the full live replica
	// set held back for escalation, how many replicas were dead at issue
	// time, and how many re-poll rounds have run.
	token     versioning.Clock
	sessLive  []ring.NodeID
	sessDead  int
	escalated bool
	repolls   int
	// start is the coordination start time, set only when the node records
	// op latency (cfg.OpHist != nil).
	start time.Time
}

type writeOp struct {
	id        uint64
	client    ring.NodeID
	clientID  uint64
	need      int
	total     int // mutations actually sent (excludes hinted replicas)
	acks      int
	responded bool
	ts        int64
	clock     []wire.ClockEntry // stamped on the value; echoed to the client
	cancel    func()
	level     wire.ConsistencyLevel
	// start is the coordination start time, set only when the node records
	// op latency (cfg.OpHist != nil).
	start time.Time
}

// pendingAck is a MutationAck owed to a coordinator once the engine reports
// ticket durable.
type pendingAck struct {
	ticket uint64
	to     ring.NodeID
	id     uint64
}

// Node is one storage server.
type Node struct {
	cfg    Config
	rt     sim.Runtime
	send   transport.Sender
	engine *storage.Engine
	// placement is the ring's replica sets as seen from this coordinator
	// (closest first), resolved once at construction.
	placement *ring.ProximityView

	nextOp            uint64
	pendingReads      map[uint64]*readOp
	pendingWrites     map[uint64]*writeOp
	pendingRepairAcks map[uint64]*readOp // blocking read-repair mutation id -> read
	hints             map[ring.NodeID][]wire.Mutation
	hintCount         int
	hintStop          func()
	lastTS            int64
	antiEntropy       *repair.Manager // nil unless cfg.Repair.Enabled
	// acks holds, in arrival order, the mutation acks waiting for the fsync
	// round that covers their ticket; always empty unless the engine is
	// durable with group commit.
	acks    []pendingAck
	stopped atomic.Bool // Stop has begun: drainAcks sends nothing more

	// Live grouping state, initialized from Config and atomically replaced
	// by applyGroupUpdate. Only touched on the node's runtime.
	epoch   uint64
	groups  int
	groupFn func(key []byte) int
	sampler *keySampler

	counters nodeCounters
}

// New creates a node bound to a runtime and a message fabric. Call Start to
// begin background maintenance (hint replay).
func New(cfg Config, rt sim.Runtime, send transport.Sender) *Node {
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = time.Second
	}
	if cfg.Alive == nil {
		cfg.Alive = func(ring.NodeID) bool { return true }
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(int64(len(cfg.ID)) + 1))
	}
	if cfg.Groups < 1 {
		cfg.Groups = 1
	}
	n := &Node{
		cfg:               cfg,
		rt:                rt,
		send:              send,
		pendingReads:      make(map[uint64]*readOp),
		pendingWrites:     make(map[uint64]*writeOp),
		pendingRepairAcks: make(map[uint64]*readOp),
		hints:             make(map[ring.NodeID][]wire.Mutation),
		groups:            cfg.Groups,
		groupFn:           cfg.GroupFn,
		placement:         cfg.Ring.ProximityView(cfg.Strategy, cfg.ID),
	}
	n.counters.groups.Store(newGroupTallies(0, cfg.Groups))
	engOpts := cfg.Engine
	if cfg.Repair.Enabled {
		// Every accepted mutation — foreground writes, read repair, hint
		// replays, repair streams — folds its digest delta into the Merkle
		// leaf it lands in (the displaced version's digest out, the new
		// version's in), so anti-entropy trees stay current without
		// whole-arc rebuild scans. The hook runs on the node's runtime,
		// which serializes it against repair session handling.
		engOpts.OnReplace = func(key []byte, old wire.Value, hadOld bool, v wire.Value) {
			if n.antiEntropy != nil {
				n.antiEntropy.Applied(key, old, hadOld, v)
			}
		}
	}
	n.engine = storage.NewEngine(engOpts)
	// One post per fsync round, from the syncer goroutine; an engine that
	// issues no tickets never calls it.
	n.engine.NotifySynced(func(watermark uint64) {
		rt.Post(func() { n.drainAcks(watermark) })
	})
	if cfg.Repair.Enabled {
		n.antiEntropy = repair.NewManager(repair.Config{
			Self:     cfg.ID,
			Ring:     cfg.Ring,
			Strategy: cfg.Strategy,
			Engine:   n.engine,
			Options:  cfg.Repair,
			OnHealed: n.onRepairHealed,
		}, rt, send)
	}
	if cfg.KeySampleLimit > 0 {
		n.sampler = newKeySampler(cfg.KeyStatsDecay, 16*cfg.KeySampleLimit)
	}
	return n
}

// onRepairHealed tallies the divergence gauge: a repair session changed a
// row on this node, meaning reads here could have served it stale. Runs on
// the node's runtime (repair delivery path).
func (n *Node) onRepairHealed(key []byte, _ wire.Value, age time.Duration) {
	g := n.groupOf(key)
	ms := uint64(age.Milliseconds())
	n.counters.repairRows.Add(1)
	n.counters.repairAgeMs.Add(ms)
	if t := n.counters.groups.Load(); g < len(t.repairRows) {
		t.repairRows[g].Add(1)
		t.repairAgeMs[g].Add(ms)
	}
}

// groupOf assigns a key to its telemetry group, clamping group-function
// results into the current epoch's range.
func (n *Node) groupOf(key []byte) int {
	if n.groupFn == nil {
		return 0
	}
	g := n.groupFn(key)
	if g < 0 || g >= n.groups {
		return 0
	}
	return g
}

// Epoch reports the node's current grouping epoch (tests).
func (n *Node) Epoch() uint64 {
	return n.counters.groups.Load().epoch
}

// ID returns the node's identity.
func (n *Node) ID() ring.NodeID { return n.cfg.ID }

// Engine exposes the local storage engine (read-only inspection in tests).
func (n *Node) Engine() *storage.Engine { return n.engine }

// Start launches background maintenance. It must be called from the node's
// runtime context (or before the fabric starts delivering messages).
func (n *Node) Start() {
	if n.cfg.HintedHandoff && n.hintStop == nil {
		n.hintStop = tick(n.rt, hintReplayInterval, n.replayHints)
	}
	if n.antiEntropy != nil {
		n.antiEntropy.Start()
	}
}

// Stop cancels background maintenance and closes the storage engine —
// a final fsync round plus data-dir lock release for persistent engines,
// a no-op for the in-memory default. Acks still queued for a fsync round
// are dropped, not sent: their coordinators time out, as for a crash.
func (n *Node) Stop() {
	n.stopped.Store(true)
	if n.hintStop != nil {
		n.hintStop()
		n.hintStop = nil
	}
	if n.antiEntropy != nil {
		n.antiEntropy.Stop()
	}
	_ = n.engine.Close()
}

// RepairManager exposes the node's anti-entropy manager (nil when repair is
// disabled) for recovery triggers and tests.
func (n *Node) RepairManager() *repair.Manager { return n.antiEntropy }

// tick implements a runtime-generic ticker (sim.Sim has a native one, but a
// node only holds the Runtime interface). sim.Every's stop function is safe
// to call from outside the node's runtime goroutine.
func tick(rt sim.Runtime, every time.Duration, fn func()) (stop func()) {
	return sim.Every(rt, func() time.Duration { return every }, fn)
}

// Snapshot returns a copy of the node's metrics. Counters load atomically
// and independently (see nodeCounters); the per-group slices are owned by
// the returned value.
func (n *Node) Snapshot() Metrics {
	return n.counters.snapshot()
}

// nextTimestamp returns a strictly increasing write timestamp even when
// multiple writes are coordinated within one virtual instant.
func (n *Node) nextTimestamp() int64 {
	ts := n.rt.Now().UnixNano()
	if ts <= n.lastTS {
		ts = n.lastTS + 1
	}
	n.lastTS = ts
	return ts
}

func (n *Node) opID() uint64 {
	n.nextOp++
	return n.nextOp
}

// Deliver dispatches an incoming message. It always runs on the node's
// runtime.
func (n *Node) Deliver(from ring.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case wire.ReadRequest:
		n.coordinateRead(from, msg)
	case wire.WriteRequest:
		n.coordinateWrite(from, msg)
	case wire.ReplicaRead:
		n.serveReplicaRead(from, msg)
	case wire.ReplicaReadResp:
		n.onReplicaReadResp(from, msg)
	case wire.Mutation:
		n.applyMutation(from, msg)
	case wire.MutationAck:
		n.onMutationAck(from, msg)
	case wire.Repair:
		n.applyRepair(msg)
	case wire.StatsRequest:
		n.serveStats(from, msg)
	case wire.GroupUpdate:
		n.applyGroupUpdate(msg)
	case wire.TreeRequest, wire.TreeResponse, wire.RangeSync:
		if n.antiEntropy != nil {
			n.antiEntropy.Deliver(from, msg)
		}
	case wire.Ping:
		n.send.Send(n.cfg.ID, from, wire.Pong{ID: msg.ID, Sent: msg.Sent})
	}
}

// replicasFor returns the replica set for key ordered by proximity to this
// coordinator, so the closest replicas are contacted (and waited on) first.
// The slice is a row of the ring's shared placement table: read-only.
func (n *Node) replicasFor(key []byte) []ring.NodeID {
	return n.placement.ReplicasForKey(key)
}

// shedOverload fails a client op fast when the coordinator's in-flight
// bound is hit; true means the op was shed and must not start.
func (n *Node) shedOverload(client ring.NodeID, reqID uint64) bool {
	if n.cfg.MaxInFlight <= 0 || len(n.pendingReads)+len(n.pendingWrites) < n.cfg.MaxInFlight {
		return false
	}
	n.counters.overloaded.Add(1)
	n.send.Send(n.cfg.ID, client, wire.Error{ID: reqID, Code: wire.ErrOverloaded, Msg: "coordinator at capacity"})
	return true
}

// opTimeout clamps a configured coordinator timeout to the client's
// remaining deadline budget, so work the client has already given up on is
// shed at its deadline instead of held to the server's larger timeout.
func opTimeout(configured time.Duration, deadlineMs uint64) time.Duration {
	// An absurd budget (beyond an hour) is treated as absent rather than
	// risking Duration overflow in the multiply.
	if deadlineMs == 0 || deadlineMs > uint64(time.Hour/time.Millisecond) {
		return configured
	}
	if d := time.Duration(deadlineMs) * time.Millisecond; d < configured {
		return d
	}
	return configured
}

// --- Read path -----------------------------------------------------------

func (n *Node) coordinateRead(client ring.NodeID, req wire.ReadRequest) {
	if n.shedOverload(client, req.ID) {
		return
	}
	reps := n.replicasFor(req.Key)
	if len(reps) == 0 {
		n.send.Send(n.cfg.ID, client, wire.Error{ID: req.ID, Code: wire.ErrUnavailable, Msg: "no replicas"})
		return
	}
	level := req.Level
	// The blocked-for count resolves against the FULL replica set (quorum
	// means quorum of RF, not of the survivors), but only replicas the
	// failure detector believes up are contacted — Cassandra coordinators
	// likewise never wait on convicted endpoints. Too few live replicas
	// fails fast as unavailable instead of burning the read timeout.
	need := level.BlockFor(len(reps))
	live := reps
	dead := 0
	for _, r := range reps {
		if !n.cfg.Alive(r) {
			dead++
		}
	}
	if dead > 0 {
		live = make([]ring.NodeID, 0, len(reps)-dead)
		for _, r := range reps {
			if n.cfg.Alive(r) {
				live = append(live, r)
			}
		}
	}
	if len(live) < need {
		n.counters.unavailable.Add(1)
		n.send.Send(n.cfg.ID, client, wire.Error{ID: req.ID, Code: wire.ErrUnavailable, Msg: "not enough live replicas"})
		return
	}
	// Shadow probes need every replica's version for the staleness
	// comparison; otherwise a read fans out to all replicas only when it
	// wins the read-repair coin flip (Cassandra's read_repair_chance).
	fanAll := req.Shadow ||
		(n.cfg.ReadRepairChance > 0 && n.cfg.Rand.Float64() < n.cfg.ReadRepairChance)
	targets := live
	if !fanAll && need < len(live) {
		targets = live[:need]
	}
	op := &readOp{
		id:       n.opID(),
		key:      req.Key,
		client:   client,
		clientID: req.ID,
		need:     need,
		total:    len(targets),
		got:      make([]wire.ReplicaReadResp, 0, len(targets)),
		from:     make([]ring.NodeID, 0, len(targets)),
		shadow:   req.Shadow,
		group:    n.groupOf(req.Key),
		epoch:    n.epoch,
		level:    level,
	}
	if level == wire.Session {
		op.token = versioning.Normalize(versioning.Clock(req.Token))
		op.sessLive = live
		op.sessDead = dead
	}
	if n.cfg.OpHist != nil {
		op.start = n.rt.Now()
	}
	n.pendingReads[op.id] = op
	if n.sampler != nil {
		n.sampler.observe(req.Key, 1, 0)
	}
	n.counters.reads.Add(1)
	tallies := n.counters.groups.Load()
	tallies.reads[op.group].Add(1)
	if level >= 1 && int(level) < len(n.counters.levelUse) {
		n.counters.levelUse[level].Add(1)
		tallies.bumpLevelUse(op.group, level)
	}
	if req.Shadow {
		n.counters.shadowSamples.Add(1)
		tallies.shadowSamples[op.group].Add(1)
	}
	op.cancel = n.rt.After(opTimeout(n.cfg.ReadTimeout, req.DeadlineMs), func() { n.readTimeout(op.id) })
	n.sendReplicaReads(op, targets)
}

// sendReplicaReads asks each target for its version of op's key. The request
// is boxed into its interface once and the one value sent to every target.
func (n *Node) sendReplicaReads(op *readOp, targets []ring.NodeID) {
	var m wire.Message = wire.ReplicaRead{ID: op.id, Key: op.key}
	for _, r := range targets {
		n.send.Send(n.cfg.ID, r, m)
	}
}

func (n *Node) serveReplicaRead(from ring.NodeID, req wire.ReplicaRead) {
	v, ok := n.engine.Get(req.Key)
	n.counters.replicaOps.Add(1)
	if ok {
		n.counters.bytesRead.Add(uint64(len(v.Data)))
	}
	n.send.Send(n.cfg.ID, from, wire.ReplicaReadResp{ID: req.ID, Found: ok, Value: v})
}

func (n *Node) onReplicaReadResp(from ring.NodeID, resp wire.ReplicaReadResp) {
	op, ok := n.pendingReads[resp.ID]
	if !ok {
		return
	}
	op.got = append(op.got, resp)
	op.from = append(op.from, from)
	if !op.responded && !op.blockedOnRepair && len(op.got) >= op.need {
		if op.level == wire.Session {
			n.sessionProgress(op)
		} else {
			n.respondRead(op)
		}
	}
	if !op.finished && len(op.got) >= op.total {
		n.finishRead(op)
	}
}

// sessionProgress drives a SESSION read toward a token-covering answer: the
// moment any response covers the client's token the read completes (usually
// the very first, at single-replica cost); otherwise the coordinator widens
// to every live replica, and when even the full fan-in comes back short it
// re-polls. With no dead replicas one grace re-poll suffices — an acked
// write is always applied on some live replica before its ack, so a still-
// uncovered token after full fan-in can only be a watermark raised by a
// DIFFERENT key in the session's token bucket — and the read then answers
// with the newest version found. With dead replicas the coordinator keeps
// re-polling (the cover may be replicating from a hint or repair) and lets
// the ordinary read timeout report honest unavailability rather than ever
// serving the session a regression.
func (n *Node) sessionProgress(op *readOp) {
	best, _ := newest(op.got)
	if versioning.Covers(versioning.Clock(best.Clock), best.Timestamp, op.token) {
		n.respondRead(op)
		return
	}
	if len(op.got) < op.total {
		return // stragglers may still cover
	}
	if !op.escalated {
		op.escalated = true
		if op.total < len(op.sessLive) {
			n.counters.sessionUpgrades.Add(1)
			n.sendReplicaReads(op, op.sessLive[op.total:])
			op.total = len(op.sessLive)
			return
		}
	}
	if op.sessDead == 0 && op.repolls >= 1 {
		n.respondRead(op) // watermark false positive; answer the newest version
		return
	}
	op.repolls++
	n.counters.sessionRepolls.Add(1)
	opID := op.id
	n.rt.After(sessionRetry, func() { n.sessionRepoll(opID) })
}

// sessionRepoll re-contacts every live replica of a still-unsatisfied
// SESSION read. Duplicate responses are harmless: newest() is idempotent and
// the op completes on the first covering answer.
func (n *Node) sessionRepoll(id uint64) {
	op, ok := n.pendingReads[id]
	if !ok || op.responded {
		return
	}
	n.sendReplicaReads(op, op.sessLive)
	op.total += len(op.sessLive)
}

// newest returns the freshest value among the responses (ok=false when no
// replica had the key).
func newest(got []wire.ReplicaReadResp) (wire.Value, bool) {
	var best wire.Value
	found := false
	for _, r := range got {
		if !r.Found {
			continue
		}
		if !found || r.Value.Fresh(best) {
			best = r.Value
			found = true
		}
	}
	return best, found
}

func (n *Node) respondRead(op *readOp) {
	best, found := newest(op.got)
	// Paper Fig. 1, strong consistency: when replicas disagree at CL=ALL,
	// the coordinator first writes the newest version to the out-of-date
	// replicas, waits for their acks, and only then answers the client.
	if op.level == wire.All && found {
		for i, r := range op.got {
			if !r.Found || best.Fresh(r.Value) {
				id := n.opID()
				op.repairAcksLeft++
				op.repairIDs = append(op.repairIDs, id)
				n.pendingRepairAcks[id] = op
				n.send.Send(n.cfg.ID, op.from[i], wire.Mutation{ID: id, Key: op.key, Value: best})
				n.counters.repairsSent.Add(1)
			}
		}
		if op.repairAcksLeft > 0 {
			op.blockedOnRepair = true
			return
		}
	}
	n.sendReadResponse(op, best, found)
}

func (n *Node) sendReadResponse(op *readOp, v wire.Value, found bool) {
	op.responded = true
	op.respTS = v.Timestamp
	op.respAt = n.rt.Now().UnixNano()
	if n.cfg.OpHist != nil && !op.start.IsZero() {
		n.cfg.OpHist.Record(obs.OpRead, op.level, n.rt.Now().Sub(op.start))
	}
	resp := wire.ReadResponse{ID: op.clientID, Found: found && !v.Tombstone, Value: v, Achieved: op.level}
	n.send.Send(n.cfg.ID, op.client, resp)
	if op.finished {
		n.cleanupRead(op)
	}
}

// finishRead runs once every contacted replica answered: background read
// repair and the shadow staleness comparison.
func (n *Node) finishRead(op *readOp) {
	op.finished = true
	best, found := newest(op.got)
	if op.shadow && op.responded && found {
		// The read was stale if some replica held a version that (a) is
		// newer than what we returned and (b) was written before we
		// responded — i.e. the client could have observed it.
		if best.Timestamp > op.respTS && best.Timestamp <= op.respAt {
			n.counters.shadowStale.Add(1)
			// A GroupUpdate may have re-baselined the group counters while
			// this read was in flight; its group id belongs to the
			// issue-time epoch, so drop the per-group sample rather than
			// attribute it to the new epoch's groups (the matching
			// GroupShadowSamples increment lives in the retired tallies).
			if t := n.counters.groups.Load(); op.epoch == t.epoch && op.group < len(t.shadowStale) {
				t.shadowStale[op.group].Add(1)
			}
		}
	}
	// Background repair; CL=ALL repairs synchronously in respondRead.
	if n.cfg.ReadRepairChance > 0 && found && op.level != wire.All {
		for i, r := range op.got {
			if !r.Found || best.Fresh(r.Value) {
				target := op.from[i]
				n.send.Send(n.cfg.ID, target, wire.Repair{Key: op.key, Value: best})
				n.counters.repairsSent.Add(1)
			}
		}
	}
	if op.responded {
		n.cleanupRead(op)
	}
}

func (n *Node) cleanupRead(op *readOp) {
	if op.cancel != nil {
		op.cancel()
	}
	delete(n.pendingReads, op.id)
	for _, id := range op.repairIDs {
		delete(n.pendingRepairAcks, id)
	}
}

// onRepairAck resumes a read blocked on synchronous repair; reports whether
// the ack belonged to one.
func (n *Node) onRepairAck(id uint64) bool {
	op, ok := n.pendingRepairAcks[id]
	if !ok {
		return false
	}
	delete(n.pendingRepairAcks, id)
	op.repairAcksLeft--
	if op.repairAcksLeft <= 0 && !op.responded {
		op.blockedOnRepair = false
		best, found := newest(op.got)
		n.sendReadResponse(op, best, found)
	}
	return true
}

func (n *Node) readTimeout(id uint64) {
	op, ok := n.pendingReads[id]
	if !ok {
		return
	}
	if !op.responded {
		n.counters.readTimeouts.Add(1)
		n.send.Send(n.cfg.ID, op.client, wire.Error{ID: op.clientID, Code: wire.ErrTimeout, Msg: "read timeout"})
		op.responded = true
	}
	// Repair with whatever arrived.
	if n.cfg.ReadRepairChance > 0 {
		if best, found := newest(op.got); found {
			for i, r := range op.got {
				if !r.Found || best.Fresh(r.Value) {
					n.send.Send(n.cfg.ID, op.from[i], wire.Repair{Key: op.key, Value: best})
					n.counters.repairsSent.Add(1)
				}
			}
		}
	}
	n.cleanupRead(op)
}

// --- Write path ----------------------------------------------------------

func (n *Node) coordinateWrite(client ring.NodeID, req wire.WriteRequest) {
	if n.shedOverload(client, req.ID) {
		return
	}
	reps := n.replicasFor(req.Key)
	if len(reps) == 0 {
		n.send.Send(n.cfg.ID, client, wire.Error{ID: req.ID, Code: wire.ErrUnavailable, Msg: "no replicas"})
		return
	}
	ts := req.TsHint
	if ts == 0 {
		ts = n.nextTimestamp()
	} else if ts > n.lastTS {
		// A client-stamped timestamp (retry idempotence: every attempt of
		// one logical write carries the identical hint, so a replayed
		// mutation LWW-collapses into the original instead of appearing as
		// a newer second write). Fold it into the monotonic counter so this
		// coordinator's own subsequent stamps stay strictly increasing.
		n.lastTS = ts
	}
	// Stamp the value's vector clock: the local copy's history (when this
	// coordinator is a replica of the key) merged with this write. The clock
	// is fixed here and replicated verbatim, so replicas never disagree on a
	// version's identity.
	var prev versioning.Clock
	if cur, ok := n.engine.Get(req.Key); ok {
		prev = versioning.Clock(cur.Clock)
	}
	clock := versioning.Stamp(prev, string(n.cfg.ID), uint64(ts))
	v := wire.Value{Data: req.Value, Timestamp: ts, Tombstone: req.Delete, Clock: clock}
	op := &writeOp{
		id:       n.opID(),
		client:   client,
		clientID: req.ID,
		need:     req.Level.BlockFor(len(reps)),
		ts:       ts,
		clock:    clock,
		level:    req.Level,
	}
	if n.cfg.OpHist != nil {
		op.start = n.rt.Now()
	}
	n.pendingWrites[op.id] = op
	group := n.groupOf(req.Key)
	if n.sampler != nil {
		n.sampler.observe(req.Key, 0, 1)
	}
	n.counters.writes.Add(1)
	n.counters.bytesWritten.Add(uint64(len(req.Value)))
	tallies := n.counters.groups.Load()
	tallies.writes[group].Add(1)
	tallies.bytesWritten[group].Add(uint64(len(req.Value)))
	if req.Level >= 1 && int(req.Level) < len(n.counters.levelUse) {
		tallies.bumpLevelUse(group, req.Level)
	}
	op.cancel = n.rt.After(opTimeout(n.cfg.WriteTimeout, req.DeadlineMs), func() { n.writeTimeout(op.id) })
	mut := wire.Mutation{ID: op.id, Key: req.Key, Value: v}
	var boxed wire.Message = mut // one interface value for every live replica
	for _, r := range reps {
		if !n.cfg.Alive(r) {
			// Convicted replicas are never contacted (they cannot ack, so
			// sending only burns the write timeout): the mutation is hinted
			// when handoff is on, or simply missed — divergence only read
			// repair or anti-entropy heals — when it is off.
			if n.cfg.HintedHandoff {
				n.queueHint(r, mut)
			}
			continue
		}
		op.total++
		n.send.Send(n.cfg.ID, r, boxed)
	}
	if op.total < op.need {
		// Enough replicas are down (their mutations hinted) that the
		// requested level cannot be met: fail fast as unavailable rather
		// than burn the write timeout. The hints stay queued — the
		// surviving replicas and later replays still converge the data
		// even though this write reported failure.
		delete(n.pendingWrites, op.id)
		op.cancel()
		n.counters.unavailable.Add(1)
		n.send.Send(n.cfg.ID, client, wire.Error{ID: req.ID, Code: wire.ErrUnavailable, Msg: "not enough live replicas"})
	}
}

// applyMutation applies a replicated write and acknowledges it once it is
// durable. The engine says how long that takes: ticket 0 (an in-memory
// engine, periodic fsync, a duplicate of a version already on disk) is
// acknowledged here and now; any other ticket queues the ack until the
// fsync round covering it reports in (drainAcks), so the mailbox serves the
// next message — a read of another key, the next append of the same round —
// instead of sleeping through the fsync. The version is visible to reads
// from this point on, before it is durable; only the writer waits.
func (n *Node) applyMutation(from ring.NodeID, mut wire.Mutation) {
	_, ticket, err := n.engine.ApplyTicket(mut.Key, mut.Value)
	n.counters.replicaOps.Add(1)
	if err != nil {
		return // malformed mutation or failed disk: no ack, coordinator times out
	}
	if ticket == 0 && len(n.acks) == 0 {
		n.send.Send(n.cfg.ID, from, wire.MutationAck{ID: mut.ID})
		return
	}
	// Acks leave in arrival order, so one that need not wait still queues
	// behind those that do; the round they wait for releases it with them.
	n.acks = append(n.acks, pendingAck{ticket: ticket, to: from, id: mut.ID})
}

// drainAcks sends the queued acknowledgements whose tickets the engine has
// fsynced. The syncer posts it once per round, however many mutations the
// round covered.
func (n *Node) drainAcks(watermark uint64) {
	if n.stopped.Load() {
		return
	}
	i := 0
	for ; i < len(n.acks) && n.acks[i].ticket <= watermark; i++ {
		n.send.Send(n.cfg.ID, n.acks[i].to, wire.MutationAck{ID: n.acks[i].id})
	}
	n.acks = append(n.acks[:0], n.acks[i:]...)
}

func (n *Node) onMutationAck(from ring.NodeID, ack wire.MutationAck) {
	if n.onRepairAck(ack.ID) {
		return
	}
	if n.clearHintAck(from, ack.ID) {
		return
	}
	op, ok := n.pendingWrites[ack.ID]
	if !ok {
		return
	}
	op.acks++
	if !op.responded && op.acks >= op.need {
		op.responded = true
		if n.cfg.OpHist != nil && !op.start.IsZero() {
			n.cfg.OpHist.Record(obs.OpWrite, op.level, n.rt.Now().Sub(op.start))
		}
		n.send.Send(n.cfg.ID, op.client, wire.WriteResponse{ID: op.clientID, OK: true, Timestamp: op.ts, Clock: op.clock})
	}
	if op.acks >= op.total {
		if op.cancel != nil {
			op.cancel()
		}
		delete(n.pendingWrites, ack.ID)
	}
}

func (n *Node) writeTimeout(id uint64) {
	op, ok := n.pendingWrites[id]
	if !ok {
		return
	}
	delete(n.pendingWrites, id)
	if !op.responded {
		n.counters.writeTimeouts.Add(1)
		n.send.Send(n.cfg.ID, op.client, wire.Error{ID: op.clientID, Code: wire.ErrTimeout, Msg: "write timeout"})
	}
}

// applyRepair applies a read-repair row. Nobody waits for an
// acknowledgement, so nothing waits for the fsync either: the row is
// visible at once and durable by the next round.
func (n *Node) applyRepair(r wire.Repair) {
	_, _, _ = n.engine.ApplyTicket(r.Key, r.Value)
	n.counters.replicaOps.Add(1)
}

// --- Hinted handoff ------------------------------------------------------

func (n *Node) queueHint(target ring.NodeID, mut wire.Mutation) {
	if n.cfg.HintQueueLimit > 0 && n.hintCount >= n.cfg.HintQueueLimit {
		// Queue full: the mutation for the down replica is lost, exactly
		// like Cassandra's bounded hint windows. Only anti-entropy repair
		// (or a lucky read repair) heals this divergence later.
		n.counters.hintsDropped.Add(1)
		return
	}
	mut.Hint = true
	mut.ID = n.opID() // hints get their own ack namespace
	n.hints[target] = append(n.hints[target], mut)
	n.hintCount++
	n.counters.hintDepth.Store(int64(n.hintCount))
	n.counters.hintsQueued.Add(1)
}

// replayHints resends every queued hint whose target is alive again,
// target by target in sorted order so a seeded run replays identically.
func (n *Node) replayHints() {
	targets := make([]ring.NodeID, 0, len(n.hints))
	for target := range n.hints {
		targets = append(targets, target)
	}
	slices.Sort(targets)
	for _, target := range targets {
		if !n.cfg.Alive(target) {
			continue
		}
		for _, mut := range n.hints[target] {
			n.send.Send(n.cfg.ID, target, mut)
			n.counters.hintsReplayed.Add(1)
		}
	}
}

// clearHintAck removes an acked hint; reports whether the ack was for a hint.
func (n *Node) clearHintAck(from ring.NodeID, id uint64) bool {
	muts, ok := n.hints[from]
	if !ok {
		return false
	}
	for i, mut := range muts {
		if mut.ID == id {
			n.hints[from] = append(muts[:i], muts[i+1:]...)
			if len(n.hints[from]) == 0 {
				delete(n.hints, from)
			}
			n.hintCount--
			n.counters.hintDepth.Store(int64(n.hintCount))
			return true
		}
	}
	return false
}

// pendingHints reports how many hints are queued (for tests).
func (n *Node) pendingHints() int {
	total := 0
	for _, muts := range n.hints {
		total += len(muts)
	}
	return total
}

// HintDepth reports the hint-queue depth. Unlike pendingHints it is safe
// from any goroutine — the admin scrape path's gauge.
func (n *Node) HintDepth() int { return int(n.counters.hintDepth.Load()) }

// DropHints discards every queued hint — the failure-injection stand-in for
// a coordinator crash losing its (memory- or disk-bounded) hint queues.
// Returns how many mutations were lost. Must run on the node's runtime.
func (n *Node) DropHints() int {
	dropped := n.hintCount
	n.hints = make(map[ring.NodeID][]wire.Mutation)
	n.hintCount = 0
	n.counters.hintDepth.Store(0)
	if dropped > 0 {
		n.counters.hintsDropped.Add(uint64(dropped))
	}
	return dropped
}

// --- Monitoring ----------------------------------------------------------

func (n *Node) serveStats(from ring.NodeID, req wire.StatsRequest) {
	s := n.Snapshot()
	resp := wire.StatsResponse{
		ID:          req.ID,
		Reads:       s.Reads,
		Writes:      s.Writes,
		ReplicaOps:  s.ReplicaOps,
		BytesRead:   s.BytesRead,
		BytesWrit:   s.BytesWritten,
		RepairsSent: s.RepairsSent,
		HintsQueued: s.HintsQueued,
		RepairRows:  s.RepairRows,
		RepairAgeMs: s.RepairAgeMs,
		Epoch:       s.GroupEpoch,
		// Constant after startup: rows the storage engine rebuilt from its
		// data dir (zero for memory-backed nodes). The monitor contrasts it
		// with RepairRows to split "recovered locally" from "healed by
		// anti-entropy" after a restart.
		RecoveredRows: uint64(n.engine.Recovered()),
	}
	if n.cfg.AliveCount != nil {
		if alive := n.cfg.AliveCount(); alive > 0 {
			resp.AliveMembers = uint64(alive)
		}
	}
	// A single implicit group carries no extra signal; keep the frame lean.
	if n.groups > 1 {
		resp.Groups = make([]wire.GroupCounters, n.groups)
		for g := 0; g < n.groups && g < len(s.GroupReads); g++ {
			resp.Groups[g] = wire.GroupCounters{
				Reads:        s.GroupReads[g],
				Writes:       s.GroupWrites[g],
				BytesWritten: s.GroupBytesWritten[g],
			}
			if g < len(s.GroupRepairRows) {
				resp.Groups[g].RepairRows = s.GroupRepairRows[g]
				resp.Groups[g].RepairAgeMs = s.GroupRepairAgeMs[g]
			}
		}
	}
	if n.sampler != nil {
		resp.KeySamples = n.sampler.export(n.cfg.KeySampleLimit)
	}
	n.send.Send(n.cfg.ID, from, resp)
}

// applyGroupUpdate installs a new grouping epoch broadcast by the
// regrouping subsystem: the node's group function and group count swap
// atomically with a counter re-baseline, so telemetry from the old epoch's
// groups is never attributed to the new epoch's. Updates apply exactly once
// per epoch — duplicates and stale epochs (including redeliveries of the
// current one) are ignored, which keeps the re-baseline from zeroing
// counters twice.
func (n *Node) applyGroupUpdate(u wire.GroupUpdate) {
	groups := len(u.Tolerances)
	if groups < 1 || u.Epoch <= n.epoch {
		return
	}
	def := int(u.Default)
	if def < 0 || def >= groups {
		def = groups - 1
	}
	assign := make(map[string]int, len(u.Entries))
	for _, e := range u.Entries {
		if g := int(e.Group); g >= 0 && g < groups {
			assign[string(e.Key)] = g
		}
	}
	n.epoch = u.Epoch
	n.groups = groups
	n.groupFn = func(key []byte) int {
		if g, ok := assign[string(key)]; ok {
			return g
		}
		return def
	}
	// One pointer swap re-baselines every per-group counter: readers that
	// loaded the old tallies keep incrementing the retired epoch's slices,
	// which snapshots no longer observe.
	n.counters.groups.Store(newGroupTallies(u.Epoch, groups))
	n.cfg.Trace.Add(obs.Event{
		Kind:   obs.EventGroupUpdate,
		Node:   string(n.cfg.ID),
		Group:  -1,
		Epoch:  u.Epoch,
		Detail: fmt.Sprintf("installed %d groups (%d pinned keys)", groups, len(u.Entries)),
	})
}

var _ transport.Handler = (*Node)(nil)
