package repair

import (
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/storage"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

// Options are the user-facing knobs of the anti-entropy subsystem (the part
// that rides on cluster.Spec).
type Options struct {
	// Enabled turns the subsystem on.
	Enabled bool
	// Interval is how often the scheduler considers starting a new session;
	// zero means 1s. One session covers every range shared with one peer,
	// so a full cycle over all peers takes len(peers)*Interval/Concurrency.
	Interval time.Duration
	// Concurrency caps concurrently outstanding initiator sessions; zero
	// means 2. Responder work is not capped (it is stateless per message).
	Concurrency int
	// LeavesPerRange is the Merkle resolution: divergence is detected and
	// streamed at leaf granularity, so finer leaves stream fewer intact
	// rows per divergent key at the cost of bigger tree exchanges. Zero
	// means 8.
	LeavesPerRange int
}

const (
	// sessionTimeout abandons a session whose peer stopped answering.
	sessionTimeout = 5 * time.Second
	// ageCap bounds one healed row's contribution to the divergence gauge
	// (bulk-loaded history would otherwise dominate it).
	ageCap = 30 * time.Second
)

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 2
	}
	if o.LeavesPerRange <= 0 {
		o.LeavesPerRange = 8
	}
	return o
}

// Config wires a Manager into its node.
type Config struct {
	// Self is the owning node's identity on the fabric.
	Self ring.NodeID
	// Ring and Strategy determine the repair plan (ranges and peers).
	Ring     *ring.Ring
	Strategy ring.Strategy
	// Engine is the local storage the trees summarize and repairs apply to.
	Engine *storage.Engine
	// Options tune the subsystem.
	Options Options
	// OnHealed observes every row a repair session changed locally (the row
	// was missing or older here): the hook the node uses to tally the
	// per-group divergence gauge. age is now − row timestamp, capped at
	// 30 s (ageCap). Runs on the node's runtime.
	OnHealed func(key []byte, v wire.Value, age time.Duration)
}

// Manager runs one node's half of anti-entropy repair. All message handling
// executes on the node's runtime (the node routes repair messages here);
// Invalidate and PeerRecovered are safe to call from other goroutines.
type Manager struct {
	cfg   Config
	opts  Options
	rt    sim.Runtime
	send  transport.Sender
	plan  Plan
	cache *TreeCache

	stop     func()
	nextID   uint64
	nextPeer int
	// triggered peers (node recovery) jump the round-robin queue.
	triggered []ring.NodeID
	active    map[uint64]*session // initiator sessions by id
	byPeer    map[ring.NodeID]uint64
	activeN   atomic.Int64 // len(active), readable off the actor goroutine

	mu    sync.Mutex
	stats Stats
}

// ActiveSessions reports how many initiator sessions are currently in
// flight. Safe from any goroutine (the session map itself is actor-owned).
func (m *Manager) ActiveSessions() int { return int(m.activeN.Load()) }

// session is the initiator-side state of one pairwise exchange.
type session struct {
	id     uint64
	peer   ring.NodeID
	mine   map[wire.TokenRange]wire.RangeTree
	cancel func()
}

// Stats are cumulative counters of the subsystem's work.
type Stats struct {
	SessionsStarted   uint64
	SessionsCompleted uint64
	SessionsTimedOut  uint64
	SessionsAbandoned uint64 // doomed sessions cut short by a recovery trigger
	RangesChecked     uint64 // ranges diffed across sessions
	RangesDivergent   uint64
	LeavesSynced      uint64 // divergent leaves streamed (initiator side)
	RowsStreamed      uint64 // rows sent in RangeSync, both roles
	BytesStreamed     uint64 // key+payload bytes of those rows
	RowsHealed        uint64 // rows applied locally that changed the engine
	AgeHealedMs       uint64 // summed capped age of healed rows
}

// NewManager builds the repair plan and tree cache for a node. Wire
// Applied (or the conservative Invalidate) into the engine's OnReplace hook
// and route the repair wire messages to Deliver; call Start for periodic
// sessions.
func NewManager(cfg Config, rt sim.Runtime, send transport.Sender) *Manager {
	opts := cfg.Options.withDefaults()
	plan := BuildPlan(cfg.Ring, cfg.Strategy, cfg.Self)
	return &Manager{
		cfg:    cfg,
		opts:   opts,
		rt:     rt,
		send:   send,
		plan:   plan,
		cache:  NewTreeCache(cfg.Engine, plan.Ranges, opts.LeavesPerRange),
		active: make(map[uint64]*session),
		byPeer: make(map[ring.NodeID]uint64),
	}
}

// Plan exposes the node's repair topology (tests).
func (m *Manager) Plan() Plan { return m.plan }

// Stats returns a snapshot of the cumulative counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func (m *Manager) bump(fn func(*Stats)) {
	m.mu.Lock()
	fn(&m.stats)
	m.mu.Unlock()
}

// Invalidate marks the Merkle range containing key stale, forcing a full
// rebuild at the next session. Safe from any goroutine; Applied is the
// cheap path the node normally uses.
func (m *Manager) Invalidate(key []byte) { m.cache.Invalidate(key) }

// Applied folds one accepted mutation into the cached Merkle tree in place
// (storage.Options.OnReplace ships the displaced version). The node calls
// it for every accepted mutation — client writes, read repair, hint
// replays, and repair streams themselves — so trees stay current without
// per-session O(arc) engine scans. Must run on the node's runtime, which
// serializes it against the session message handlers (see TreeCache.Update
// for why).
func (m *Manager) Applied(key []byte, old wire.Value, hadOld bool, v wire.Value) {
	m.cache.Update(key, old, hadOld, v)
}

// TreeCache exposes the manager's Merkle cache (tests).
func (m *Manager) TreeCache() *TreeCache { return m.cache }

// Start begins periodic session scheduling.
func (m *Manager) Start() {
	if m.stop != nil {
		return
	}
	m.stop = sim.Every(m.rt, func() time.Duration { return m.opts.Interval }, m.tick)
}

// Stop halts scheduling; in-flight sessions expire via their timeouts.
func (m *Manager) Stop() {
	if m.stop != nil {
		m.stop()
		m.stop = nil
	}
}

// PeerRecovered queues an immediate session with a peer that just returned
// from an outage (the gossip recovery trigger). Safe to call from any
// goroutine: the work hops onto the node's runtime.
func (m *Manager) PeerRecovered(peer ring.NodeID) {
	m.rt.After(0, func() {
		if _, shares := m.plan.Shared[peer]; !shares {
			return
		}
		// A session opened while the peer was down is doomed — its
		// TreeRequest fell into the dead network and it would pin the peer
		// "busy" until the session timeout, swallowing this trigger exactly
		// when repair matters most. Abandon it and start fresh.
		if id, busy := m.byPeer[peer]; busy {
			if s, ok := m.active[id]; ok {
				m.bump(func(st *Stats) { st.SessionsAbandoned++ })
				m.finish(s)
			}
		}
		for _, q := range m.triggered {
			if q == peer {
				return
			}
		}
		m.triggered = append(m.triggered, peer)
		m.tick()
	})
}

// tick starts sessions until the concurrency cap is reached, serving
// recovery-triggered peers before the round-robin cycle. At most
// Concurrency sessions start per tick even when sessions complete
// instantly (a synchronous fabric would otherwise spin here forever).
func (m *Manager) tick() {
	for started := 0; len(m.active) < m.opts.Concurrency && started < m.opts.Concurrency; started++ {
		peer, ok := m.pickPeer()
		if !ok {
			return
		}
		m.startSession(peer)
	}
}

func (m *Manager) pickPeer() (ring.NodeID, bool) {
	for len(m.triggered) > 0 {
		p := m.triggered[0]
		m.triggered = m.triggered[1:]
		if _, busy := m.byPeer[p]; !busy {
			return p, true
		}
	}
	for scanned := 0; scanned < len(m.plan.Peers); scanned++ {
		p := m.plan.Peers[m.nextPeer%len(m.plan.Peers)]
		m.nextPeer++
		if _, busy := m.byPeer[p]; !busy {
			return p, true
		}
	}
	return "", false
}

func (m *Manager) startSession(peer ring.NodeID) {
	ranges := m.plan.Shared[peer]
	if len(ranges) == 0 {
		return
	}
	m.nextID++
	s := &session{id: m.nextID, peer: peer, mine: make(map[wire.TokenRange]wire.RangeTree, len(ranges))}
	for _, t := range m.cache.Trees(ranges) {
		s.mine[t.Range] = t
	}
	m.active[s.id] = s
	m.activeN.Store(int64(len(m.active)))
	m.byPeer[peer] = s.id
	m.bump(func(st *Stats) { st.SessionsStarted++ })
	s.cancel = m.rt.After(sessionTimeout, func() {
		if _, live := m.active[s.id]; live {
			m.bump(func(st *Stats) { st.SessionsTimedOut++ })
			m.finish(s)
		}
	})
	m.send.Send(m.cfg.Self, peer, wire.TreeRequest{ID: s.id, Ranges: ranges})
}

func (m *Manager) finish(s *session) {
	if s.cancel != nil {
		s.cancel()
	}
	delete(m.active, s.id)
	m.activeN.Store(int64(len(m.active)))
	if m.byPeer[s.peer] == s.id {
		delete(m.byPeer, s.peer)
	}
}

// Deliver handles the three repair message kinds. It must run on the node's
// runtime, like every other node message handler.
func (m *Manager) Deliver(from ring.NodeID, msg wire.Message) {
	switch v := msg.(type) {
	case wire.TreeRequest:
		m.onTreeRequest(from, v)
	case wire.TreeResponse:
		m.onTreeResponse(from, v)
	case wire.RangeSync:
		m.onRangeSync(from, v)
	}
}

// onTreeRequest serves the responder half of validation: build (or reuse)
// trees for the requested ranges and ship them back whole — one round trip,
// with the diff computed initiator-side.
func (m *Manager) onTreeRequest(from ring.NodeID, req wire.TreeRequest) {
	trees := m.cache.Trees(req.Ranges)
	m.send.Send(m.cfg.Self, from, wire.TreeResponse{ID: req.ID, Trees: trees})
}

// onTreeResponse diffs the peer's trees against ours and streams our rows
// for every divergent leaf. Identical ranges cost one root comparison and
// zero streaming.
func (m *Manager) onTreeResponse(from ring.NodeID, resp wire.TreeResponse) {
	s, ok := m.active[resp.ID]
	if !ok || s.peer != from {
		return
	}
	var leaves []wire.LeafRef
	divergent := 0
	for _, theirs := range resp.Trees {
		mine, have := s.mine[theirs.Range]
		if !have {
			continue
		}
		d := diffLeaves(mine, theirs)
		if len(d) > 0 {
			divergent++
			for _, li := range d {
				leaves = append(leaves, wire.LeafRef{Range: theirs.Range, Leaf: uint32(li)})
			}
		}
	}
	m.bump(func(st *Stats) {
		st.RangesChecked += uint64(len(resp.Trees))
		st.RangesDivergent += uint64(divergent)
		st.LeavesSynced += uint64(len(leaves))
	})
	if len(leaves) == 0 {
		m.bump(func(st *Stats) { st.SessionsCompleted++ })
		m.finish(s)
		return
	}
	entries := m.entriesForLeaves(leaves, m.opts.LeavesPerRange)
	// Divergent leaves batch into as few RangeSync messages as the byte cap
	// allows — the responder answers each chunk with its own rows for that
	// chunk's leaves (one engine pass per chunk, not per leaf), so both
	// replicas converge to the union of newest versions without further
	// coordination. A leaf whose rows alone exceed the cap is split across
	// chunks, its LeafRef riding only the first (the responder's reply
	// covers a leaf once). Application is last-writer-wins and idempotent,
	// so chunk reordering is harmless.
	var msg wire.RangeSync
	bytes := 0
	flush := func(done bool) {
		msg.ID, msg.LeafCount, msg.Reply, msg.Done = s.id, uint32(m.opts.LeavesPerRange), true, done
		m.accountStream(msg.Entries)
		m.send.Send(m.cfg.Self, s.peer, msg)
		msg, bytes = wire.RangeSync{}, 0
	}
	for i, leaf := range leaves {
		msg.Leaves = append(msg.Leaves, leaf)
		for _, e := range entries[i] {
			sz := len(e.Key) + len(e.Value.Data)
			if bytes > 0 && bytes+sz > maxSyncBytes {
				flush(false)
			}
			msg.Entries = append(msg.Entries, e)
			bytes += sz
		}
	}
	flush(true)
}

// maxSyncBytes caps one RangeSync chunk's row payload (both directions),
// keeping frames well under the wire codec's MaxFrame. It is deliberately
// generous: the responder takes one engine pass per request chunk, so
// fewer, larger chunks amortize that scan over more leaves.
const maxSyncBytes = 4 << 20

// entriesForLeaves collects this engine's rows for each requested leaf, in
// one ScanVersions pass; leafCount is the resolution the leaf indices were
// computed against (the session initiator's, which need not match ours).
// The result is indexed like leaves.
func (m *Manager) entriesForLeaves(leaves []wire.LeafRef, leafCount int) [][]wire.SyncEntry {
	if leafCount <= 0 {
		leafCount = m.opts.LeavesPerRange
	}
	out := make([][]wire.SyncEntry, len(leaves))
	idx := make(map[wire.LeafRef]int, len(leaves))
	// Distinct ranges: arcs are disjoint, so per-row containment tests
	// iterate these instead of every leaf ref.
	var ranges []wire.TokenRange
	seen := make(map[wire.TokenRange]bool, len(leaves))
	for i, l := range leaves {
		idx[l] = i
		if !seen[l.Range] {
			seen[l.Range] = true
			ranges = append(ranges, l.Range)
		}
	}
	m.cfg.Engine.ScanVersions(nil, nil, func(key []byte, v wire.Value) bool {
		tok := uint64(ring.HashKey(key))
		for _, r := range ranges {
			if r.Contains(tok) {
				ref := wire.LeafRef{Range: r, Leaf: uint32(leafIndex(r, leafCount, tok))}
				if i, want := idx[ref]; want {
					k := make([]byte, len(key))
					copy(k, key)
					out[i] = append(out[i], wire.SyncEntry{Key: k, Value: v})
				}
				break
			}
		}
		return true
	})
	return out
}

// onRangeSync is both halves of row streaming. Reply=true (we are the
// responder): apply the initiator's rows and answer with ours for the same
// leaves. Reply=false (we initiated): apply the responder's rows and close
// the session on Done. Application always goes through the normal storage
// path, so version arbitration, the durable append (on a persistent engine)
// and tree maintenance all happen exactly as for a foreground write.
func (m *Manager) onRangeSync(from ring.NodeID, msg wire.RangeSync) {
	applied := m.applyEntries(msg.Entries)
	if msg.Reply {
		entries := m.entriesForLeaves(msg.Leaves, int(msg.LeafCount))
		var flat []wire.SyncEntry
		for _, es := range entries {
			for _, e := range es {
				if applied[string(e.Key)] {
					// The initiator's version just won here: echoing it back
					// would only re-stream a row the initiator already has.
					continue
				}
				flat = append(flat, e)
			}
		}
		// The reply chunks under the same byte cap as the request direction
		// (a near-empty initiator can name every leaf in one message, but
		// our rows for them must still fit the wire's frame limit). Done
		// rides only on the final chunk.
		for first := true; first || len(flat) > 0; first = false {
			n, bytes := 0, 0
			for n < len(flat) {
				sz := len(flat[n].Key) + len(flat[n].Value.Data)
				if n > 0 && bytes+sz > maxSyncBytes {
					break
				}
				bytes += sz
				n++
			}
			reply := wire.RangeSync{ID: msg.ID, Entries: flat[:n], Done: msg.Done && n == len(flat)}
			if first {
				reply.Leaves = msg.Leaves
			}
			flat = flat[n:]
			m.accountStream(reply.Entries)
			m.send.Send(m.cfg.Self, from, reply)
		}
		return
	}
	if msg.Done {
		if s, ok := m.active[msg.ID]; ok && s.peer == from {
			m.bump(func(st *Stats) { st.SessionsCompleted++ })
			m.finish(s)
		}
	}
}

// applyEntries applies streamed rows through the normal storage path and
// returns the keys whose local copy actually changed (the incoming version
// won last-writer-wins). A stream is not acknowledged row by row, so a
// durable engine is not waited on either (ApplyTicket, not Apply): the rows
// are visible at once and on disk by the next fsync round, and a later
// session re-heals whatever a crash in between loses.
func (m *Manager) applyEntries(entries []wire.SyncEntry) map[string]bool {
	if len(entries) == 0 {
		return nil
	}
	won := make(map[string]bool, len(entries))
	now := m.rt.Now()
	for _, e := range entries {
		applied, _, err := m.cfg.Engine.ApplyTicket(e.Key, e.Value)
		if err != nil || !applied {
			continue // older than local, or identical: nothing healed
		}
		won[string(e.Key)] = true
		age := now.Sub(e.Value.Time())
		if age < 0 {
			age = 0
		}
		if age > ageCap {
			age = ageCap
		}
		m.bump(func(st *Stats) {
			st.RowsHealed++
			st.AgeHealedMs += uint64(age.Milliseconds())
		})
		if m.cfg.OnHealed != nil {
			m.cfg.OnHealed(e.Key, e.Value, age)
		}
	}
	return won
}

func (m *Manager) accountStream(entries []wire.SyncEntry) {
	var rows, bytes uint64
	for _, e := range entries {
		rows++
		bytes += uint64(len(e.Key) + len(e.Value.Data))
	}
	m.bump(func(st *Stats) {
		st.RowsStreamed += rows
		st.BytesStreamed += bytes
	})
}

var _ transport.Handler = (*Manager)(nil)
