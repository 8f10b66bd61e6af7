package core

import (
	"sort"
	"time"

	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

// Observation is one completed monitoring round: the cluster-wide read and
// write arrival rates over the window and the current network latency
// estimate.
type Observation struct {
	At time.Time
	// ReadRate is the read arrival rate λr (reads/second), averaged per
	// polled node: the estimation model's λr and λw describe the arrival
	// process contending on one replica set, and the per-node average is
	// the faithful proxy for that at cluster scale (cluster-wide totals
	// saturate the estimate at trivial load).
	ReadRate float64
	// WriteInterval is the mean time between writes λw (seconds) — the
	// paper's exponential parameter for the write process — at the same
	// scope as ReadRate.
	WriteInterval float64
	// Latency is the current one-way network latency estimate Ln: the
	// expected one-way latency to the slowest member of a random
	// replica-set-sized subset of peers (an update has propagated only
	// once the slowest replica of the key holds it). When the monitor has
	// no replica-set size configured this degrades to half the maximum
	// observed round-trip.
	Latency time.Duration
	// AvgWriteBytes is the measured mean write payload over the window —
	// the avgw input of the paper's Tp(Ln, avgw). Zero when no writes
	// were observed.
	AvgWriteBytes float64
	// Divergence is the anti-entropy divergence gauge over the window:
	// age-seconds of stale data repair sessions healed, per second, at the
	// same per-node scope as ReadRate. Zero on a converged cluster;
	// positive while repair is still discovering rows a recovering replica
	// missed — i.e. while reads can hit data the propagation-time
	// staleness model knows nothing about.
	Divergence float64
	// Window is the effective measurement window after subtracting the
	// collection time, mirroring the paper's monitoring module which
	// "measures the monitoring time and takes it into account".
	Window time.Duration
	// Nodes is how many nodes reported stats this round.
	Nodes int
	// Members is the cluster membership size the monitor polls.
	Members int
	// AliveMembers is the best liveness view any reporting node holds: the
	// MAX of per-node failure-detector alive counts this round. The max —
	// not the min or mean — because under a partition each side reports
	// only what it can reach, and the best-connected member approximates
	// the main component the controller's commands must be servable in;
	// letting a cut-off minority's view of 1 drag the estimate down would
	// needlessly degrade consistency for the majority. Zero when no node
	// reports a liveness count (no detector wired), which disables the
	// controller's availability clamp.
	AliveMembers int
	// Groups carries per-key-group arrival rates, indexed by group id,
	// when the polled nodes report per-group counters. Rates use the same
	// per-node scope as ReadRate/WriteInterval, and the groups partition
	// the aggregate traffic. Empty when the
	// cluster runs the classic single-group pipeline, and empty for the
	// transition rounds around a grouping-epoch change: per-group counters
	// re-baseline on regroup, so deltas spanning two epochs are discarded
	// rather than reported.
	Groups []GroupRates
	// Epoch is the grouping epoch the per-group rates belong to (zero for
	// clusters that never regroup). Consumers adapting per-group state must
	// ignore Groups whose epoch does not match their own group table.
	Epoch uint64
}

// GroupRates is one key group's measured arrival process over a window.
type GroupRates struct {
	// ReadRate is the group's read arrival rate λr (reads/second).
	ReadRate float64
	// WriteInterval is the group's mean time between writes λw (seconds);
	// zero when the group saw no writes in the window.
	WriteInterval float64
	// AvgWriteBytes is the group's measured mean write payload over the
	// window — groups with different payload sizes get distinct Tp
	// estimates. Zero when the group saw no writes.
	AvgWriteBytes float64
	// Divergence is the group's share of the anti-entropy divergence gauge
	// (see Observation.Divergence), so the controller tightens exactly the
	// groups whose data a recovering replica serves stale.
	Divergence float64
}

// MonitorConfig configures the monitoring module.
type MonitorConfig struct {
	// ID is the monitor's endpoint identity on the fabric.
	ID ring.NodeID
	// Nodes are the storage nodes to poll.
	Nodes []ring.NodeID
	// Interval between monitoring rounds; zero means 1s. A collection
	// round is closed after Interval/2.
	Interval time.Duration
	// ReplicaSetSize, when positive, makes the latency estimate the
	// expected slowest one-way latency over a random subset of this many
	// peers — the replication factor, since an update has propagated only
	// when the slowest replica of its key holds it. Zero uses the maximum
	// across all peers.
	ReplicaSetSize int
	// OnObservation receives each completed round.
	OnObservation func(Observation)
	// OnNodeStats receives every node's raw stats response as a round
	// closes, before rates are derived — the tap the regrouping subsystem
	// uses to collect per-node key samples without a second poll loop.
	OnNodeStats func(node ring.NodeID, s wire.StatsResponse)
}

// Monitor polls every storage node for its operation counters (the paper
// used Cassandra's nodetool) and round-trip latency (the paper used ping),
// aggregates the responses, and derives the arrival-rate inputs of the
// estimation model. Requests to all nodes go out concurrently — the fabric
// is asynchronous — matching the multithreaded collection the paper
// describes; the round closes when every node answered or the timeout
// fires.
type Monitor struct {
	cfg  MonitorConfig
	rt   sim.Runtime
	send transport.Sender

	stop     func()
	seq      uint64
	round    *roundState
	lastAt   time.Time
	havePrev bool
	rounds   uint64
	// prev holds each node's last reported counters and prevAt the round it
	// reported them. Deltas are computed PER NODE and then summed, and a
	// node only contributes when its baseline is from the immediately
	// preceding round: a node missing a round (outage, lost frame) neither
	// drags the summed baseline negative nor, on return, counts its whole
	// absence backlog as one window's traffic — its first report back only
	// re-establishes its baseline. Per-group deltas additionally require
	// the node's baseline epoch to match its current one: group counters
	// re-baseline on a GroupUpdate, and cross-epoch samples must never mix.
	prev   map[ring.NodeID]wire.StatsResponse
	prevAt map[ring.NodeID]uint64
}

type roundState struct {
	id        uint64
	started   time.Time
	stats     map[ring.NodeID]wire.StatsResponse
	rtts      map[ring.NodeID]time.Duration
	pingSent  map[uint64]ring.NodeID
	statsSent map[uint64]ring.NodeID
	expires   func()
	done      bool
}

// NewMonitor creates a monitor; Start begins polling. Register the monitor
// on the fabric under cfg.ID before starting.
func NewMonitor(cfg MonitorConfig, rt sim.Runtime, send transport.Sender) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	return &Monitor{
		cfg:    cfg,
		rt:     rt,
		send:   send,
		prev:   make(map[ring.NodeID]wire.StatsResponse),
		prevAt: make(map[ring.NodeID]uint64),
	}
}

// Start begins periodic collection.
func (m *Monitor) Start() {
	if m.stop != nil {
		return
	}
	// sim.Every's stop is safe to call from any goroutine — real-runtime
	// deployments stop the monitor from outside its mailbox goroutine.
	m.stop = sim.Every(m.rt, func() time.Duration { return m.cfg.Interval }, m.beginRound)
}

// Stop halts collection.
func (m *Monitor) Stop() {
	if m.stop != nil {
		m.stop()
		m.stop = nil
	}
}

// Rounds reports completed collection rounds.
func (m *Monitor) Rounds() uint64 { return m.rounds }

func (m *Monitor) beginRound() {
	if m.round != nil && !m.round.done {
		m.closeRound() // straggling previous round: close with what we have
	}
	r := &roundState{
		started:   m.rt.Now(),
		stats:     make(map[ring.NodeID]wire.StatsResponse),
		rtts:      make(map[ring.NodeID]time.Duration),
		pingSent:  make(map[uint64]ring.NodeID),
		statsSent: make(map[uint64]ring.NodeID),
	}
	m.round = r
	for _, n := range m.cfg.Nodes {
		m.seq++
		r.statsSent[m.seq] = n
		m.send.Send(m.cfg.ID, n, wire.StatsRequest{ID: m.seq})
		m.seq++
		r.pingSent[m.seq] = n
		m.send.Send(m.cfg.ID, n, wire.Ping{ID: m.seq, Sent: m.rt.Now().UnixNano()})
	}
	r.expires = m.rt.After(m.cfg.Interval/2, func() {
		if m.round == r && !r.done {
			m.closeRound()
		}
	})
}

// Deliver implements transport.Handler for stats and pong responses.
func (m *Monitor) Deliver(from ring.NodeID, msg wire.Message) {
	r := m.round
	if r == nil || r.done {
		return
	}
	switch v := msg.(type) {
	case wire.StatsResponse:
		if want, ok := r.statsSent[v.ID]; ok && want == from {
			r.stats[from] = v
		}
	case wire.Pong:
		if want, ok := r.pingSent[v.ID]; ok && want == from {
			r.rtts[from] = time.Duration(m.rt.Now().UnixNano() - v.Sent)
		}
	}
	if len(r.stats) == len(m.cfg.Nodes) && len(r.rtts) == len(m.cfg.Nodes) {
		m.closeRound()
	}
}

func (m *Monitor) closeRound() {
	r := m.round
	if r == nil || r.done {
		return
	}
	r.done = true
	if r.expires != nil {
		r.expires()
	}
	now := m.rt.Now()
	collectionTime := now.Sub(r.started)

	if m.cfg.OnNodeStats != nil {
		for _, n := range m.cfg.Nodes {
			if s, ok := r.stats[n]; ok {
				m.cfg.OnNodeStats(n, s)
			}
		}
	}

	// Per-node deltas (see Monitor.prev): a node only contributes once it
	// has a baseline, and its per-group counters only while its baseline
	// and current report belong to the same grouping epoch.
	var dReads, dWrites, dBytesW, dRepAge uint64
	current := func(node ring.NodeID) bool { return m.prevAt[node] == m.rounds }
	for node, s := range r.stats {
		p, ok := m.prev[node]
		if !ok || !current(node) {
			continue // first report, or a gap: re-establishes the baseline
		}
		dReads += counterDelta(s.Reads, p.Reads)
		dWrites += counterDelta(s.Writes, p.Writes)
		dBytesW += counterDelta(s.BytesWrit, p.BytesWrit)
		dRepAge += counterDelta(s.RepairAgeMs, p.RepairAgeMs)
	}
	// Per-group deltas only aggregate when every reporting node tallies
	// under the same grouping epoch; during a GroupUpdate rollout some
	// nodes still count the old groups, and mixing the two would attribute
	// one epoch's traffic to another epoch's groups.
	groupEpoch := uint64(0)
	epochAgreed := len(r.stats) > 0
	firstStat := true
	for _, s := range r.stats {
		if firstStat {
			groupEpoch, firstStat = s.Epoch, false
		} else if s.Epoch != groupEpoch {
			epochAgreed = false
		}
	}
	// Group rates stay all-or-nothing across an epoch change (the
	// Observation.Groups contract): every reporting node must hold a
	// same-epoch baseline, or the whole round's group rates are discarded
	// — partial sums during a rollout would systematically underreport a
	// group's traffic. A node merely absent this round (outage) does not
	// veto the others.
	var groupDeltas []wire.GroupCounters
	allBaselined, anyGroups := epochAgreed, false
	if epochAgreed {
		for node, s := range r.stats {
			p, ok := m.prev[node]
			if !ok || !current(node) || p.Epoch != s.Epoch {
				allBaselined = false // baseline missing, gapped, or cross-epoch
				continue
			}
			anyGroups = anyGroups || len(s.Groups) > 0
			for len(groupDeltas) < len(s.Groups) {
				groupDeltas = append(groupDeltas, wire.GroupCounters{})
			}
			for g, gc := range s.Groups {
				var pg wire.GroupCounters
				if g < len(p.Groups) {
					pg = p.Groups[g]
				}
				groupDeltas[g].Reads += counterDelta(gc.Reads, pg.Reads)
				groupDeltas[g].Writes += counterDelta(gc.Writes, pg.Writes)
				groupDeltas[g].BytesWritten += counterDelta(gc.BytesWritten, pg.BytesWritten)
				groupDeltas[g].RepairRows += counterDelta(gc.RepairRows, pg.RepairRows)
				groupDeltas[g].RepairAgeMs += counterDelta(gc.RepairAgeMs, pg.RepairAgeMs)
			}
		}
	}
	groupsComparable := epochAgreed && allBaselined && anyGroups
	var maxRTT time.Duration
	all := make([]time.Duration, 0, len(r.rtts))
	for _, rtt := range r.rtts {
		if rtt > maxRTT {
			maxRTT = rtt
		}
		all = append(all, rtt)
	}
	ln := maxRTT / 2
	if rf := m.cfg.ReplicaSetSize; rf > 0 && len(all) > 0 {
		ln = expectedSubsetMax(all, rf) / 2
	}

	defer func() {
		m.rounds++
		for node, s := range r.stats {
			m.prev[node] = s
			m.prevAt[node] = m.rounds
		}
		m.lastAt = now
		m.havePrev = true
	}()

	if !m.havePrev {
		return // first round only establishes the baseline counters
	}
	// Effective window: time since the previous round's close, minus this
	// round's collection time (ops counted during collection bias the rate).
	window := now.Sub(m.lastAt) - collectionTime
	if window <= 0 {
		window = now.Sub(m.lastAt)
	}
	if window <= 0 || m.cfg.OnObservation == nil {
		return
	}
	scale := 1.0 // rates are per-node averages (see Observation.ReadRate)
	if len(m.cfg.Nodes) > 0 {
		scale = float64(len(m.cfg.Nodes))
	}
	obs := Observation{
		At:         now,
		ReadRate:   float64(dReads) / window.Seconds() / scale,
		Latency:    ln,
		Divergence: float64(dRepAge) / 1000 / window.Seconds() / scale,
		Window:     window,
		Nodes:      len(r.stats),
		Members:    len(m.cfg.Nodes),
	}
	for _, s := range r.stats {
		if int(s.AliveMembers) > obs.AliveMembers {
			obs.AliveMembers = int(s.AliveMembers)
		}
	}
	if dWrites > 0 {
		obs.WriteInterval = window.Seconds() * scale / float64(dWrites)
		obs.AvgWriteBytes = float64(dBytesW) / float64(dWrites)
	}
	if groupsComparable && len(groupDeltas) > 0 {
		obs.Epoch = groupEpoch
		obs.Groups = make([]GroupRates, len(groupDeltas))
		for g, gd := range groupDeltas {
			gr := GroupRates{
				ReadRate:   float64(gd.Reads) / window.Seconds() / scale,
				Divergence: float64(gd.RepairAgeMs) / 1000 / window.Seconds() / scale,
			}
			if gd.Writes > 0 {
				gr.WriteInterval = window.Seconds() * scale / float64(gd.Writes)
				gr.AvgWriteBytes = float64(gd.BytesWritten) / float64(gd.Writes)
			}
			obs.Groups[g] = gr
		}
	}
	m.cfg.OnObservation(obs)
}

func counterDelta(cur, prev uint64) uint64 {
	if cur < prev {
		return 0 // counter reset (node restart)
	}
	return cur - prev
}

// expectedSubsetMax computes E[max of a uniformly random m-subset] of vals
// exactly via order statistics: with vals sorted ascending, the i-th value
// (0-based) is the subset maximum with probability C(i, m-1)/C(n, m).
func expectedSubsetMax(vals []time.Duration, m int) time.Duration {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sorted := make([]time.Duration, n)
	copy(sorted, vals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if m >= n {
		return sorted[n-1]
	}
	if m <= 1 {
		// Mean: every element equally likely to be the "subset".
		var sum time.Duration
		for _, v := range sorted {
			sum += v
		}
		return sum / time.Duration(n)
	}
	// weight(i) = C(i, m-1)/C(n, m); build C(i, m-1) with a running product.
	total := 0.0
	expect := 0.0
	choose := func(a, b int) float64 {
		if b < 0 || b > a {
			return 0
		}
		out := 1.0
		for j := 0; j < b; j++ {
			out *= float64(a-j) / float64(b-j)
		}
		return out
	}
	cnm := choose(n, m)
	for i := m - 1; i < n; i++ {
		w := choose(i, m-1) / cnm
		total += w
		expect += w * float64(sorted[i])
	}
	if total <= 0 {
		return sorted[n-1]
	}
	return time.Duration(expect / total)
}

var _ transport.Handler = (*Monitor)(nil)
