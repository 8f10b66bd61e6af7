package repair

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/storage"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

func testRing(t *testing.T, nodes int) (*ring.Ring, ring.Strategy) {
	t.Helper()
	infos := make([]ring.NodeInfo, 0, nodes)
	for i := 0; i < nodes; i++ {
		infos = append(infos, ring.NodeInfo{ID: ring.NodeID(fmt.Sprintf("n%d", i)), DC: "dc1", Rack: "r1"})
	}
	topo, err := ring.NewTopology(infos)
	if err != nil {
		t.Fatal(err)
	}
	rng, err := ring.Build(topo, 8)
	if err != nil {
		t.Fatal(err)
	}
	return rng, ring.SimpleStrategy{RF: nodes}
}

// pair wires two managers over a synchronous loopback fabric so a whole
// session runs to completion within one startSession call.
type pair struct {
	s        *sim.Sim
	ea, eb   *storage.Engine
	ma, mb   *Manager
	lb       *transport.Loopback
	aID, bID ring.NodeID
}

func newPair(t *testing.T, opts Options) *pair {
	return newPairOpts(t, opts, opts)
}

// newPairOpts allows asymmetric configurations (mismatched leaf counts).
func newPairOpts(t *testing.T, optsA, optsB Options) *pair {
	t.Helper()
	rng, strat := testRing(t, 2)
	s := sim.New(1)
	lb := transport.NewLoopback()
	p := &pair{s: s, lb: lb, aID: "n0", bID: "n1"}
	var ma, mb *Manager
	p.ea = storage.NewEngine(storage.Options{OnReplace: func(k []byte, _ wire.Value, _ bool, _ wire.Value) {
		if ma != nil {
			ma.Invalidate(k)
		}
	}})
	p.eb = storage.NewEngine(storage.Options{OnReplace: func(k []byte, _ wire.Value, _ bool, _ wire.Value) {
		if mb != nil {
			mb.Invalidate(k)
		}
	}})
	ma = NewManager(Config{Self: p.aID, Ring: rng, Strategy: strat, Engine: p.ea, Options: optsA}, s, lb)
	mb = NewManager(Config{Self: p.bID, Ring: rng, Strategy: strat, Engine: p.eb, Options: optsB}, s, lb)
	p.ma, p.mb = ma, mb
	lb.Register(p.aID, ma)
	lb.Register(p.bID, mb)
	return p
}

// dump renders an engine's full contents (tombstones included) for equality
// checks.
func dump(e *storage.Engine) string {
	out := ""
	e.ScanVersions(nil, nil, func(key []byte, v wire.Value) bool {
		out += fmt.Sprintf("%s|%d|%v|%x\n", key, v.Timestamp, v.Tombstone, v.Data)
		return true
	})
	return out
}

func TestLeafIndexStaysInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		r := wire.TokenRange{Start: rng.Uint64(), End: rng.Uint64()}
		leaves := 1 + rng.Intn(32)
		s := span(r)
		if s == 0 {
			continue
		}
		off := rng.Uint64() % s
		tok := r.Start + 1 + off // modular: inside the arc by construction
		if !r.Contains(tok) {
			t.Fatalf("constructed token %d outside range %+v", tok, r)
		}
		idx := leafIndex(r, leaves, tok)
		if idx < 0 || idx >= leaves {
			t.Fatalf("leafIndex(%+v, %d, %d) = %d out of bounds", r, leaves, tok, idx)
		}
	}
}

func TestPlanSharedRangesAreSymmetric(t *testing.T) {
	rng, _ := testRing(t, 5)
	strat := ring.SimpleStrategy{RF: 3}
	plans := map[ring.NodeID]Plan{}
	for i := 0; i < 5; i++ {
		id := ring.NodeID(fmt.Sprintf("n%d", i))
		plans[id] = BuildPlan(rng, strat, id)
	}
	asSet := func(rs []wire.TokenRange) map[wire.TokenRange]bool {
		out := make(map[wire.TokenRange]bool, len(rs))
		for _, r := range rs {
			out[r] = true
		}
		return out
	}
	for a, pa := range plans {
		for b, shared := range pa.Shared {
			back := asSet(plans[b].Shared[a])
			if len(back) != len(shared) {
				t.Fatalf("asymmetric shared ranges: %s->%s %d vs %s->%s %d",
					a, b, len(shared), b, a, len(back))
			}
			for _, r := range shared {
				if !back[r] {
					t.Fatalf("range %+v in %s->%s but not %s->%s", r, a, b, b, a)
				}
			}
		}
	}
	// Every arc of the ring must be covered by RF plans.
	tokens := rng.Tokens()
	covered := map[wire.TokenRange]int{}
	for _, p := range plans {
		for _, r := range p.Ranges {
			covered[r]++
		}
	}
	if len(covered) != len(tokens) {
		t.Fatalf("expected %d arcs, plans cover %d", len(tokens), len(covered))
	}
	for r, n := range covered {
		if n != 3 {
			t.Fatalf("arc %+v replicated by %d plans, want RF=3", r, n)
		}
	}
}

func TestTreeCacheRebuildsOnlyInvalidatedRanges(t *testing.T) {
	rng, strat := testRing(t, 2)
	e := storage.NewEngine(storage.Options{})
	plan := BuildPlan(rng, strat, "n0")
	c := NewTreeCache(e, plan.Ranges, 8)
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("key%04d", i))
		if _, err := e.Apply(key, wire.Value{Data: []byte("v"), Timestamp: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Trees(plan.Ranges)
	builds1, scans1 := c.Builds()
	if builds1 != uint64(len(plan.Ranges)) {
		t.Fatalf("first Trees built %d ranges, want all %d", builds1, len(plan.Ranges))
	}
	if scans1 != 1 {
		t.Fatalf("first Trees took %d engine passes, want 1 (batched)", scans1)
	}
	// A quiescent second fetch rebuilds nothing.
	c.Trees(plan.Ranges)
	if builds2, _ := c.Builds(); builds2 != builds1 {
		t.Fatalf("quiescent Trees rebuilt %d ranges", builds2-builds1)
	}
	// One write invalidates exactly one range.
	key := []byte("key0007")
	if _, err := e.Apply(key, wire.Value{Data: []byte("w"), Timestamp: 10_000}); err != nil {
		t.Fatal(err)
	}
	c.Invalidate(key)
	before := c.Trees(plan.Ranges)
	builds3, _ := c.Builds()
	if builds3 != builds1+1 {
		t.Fatalf("after one invalidation Trees rebuilt %d ranges, want 1", builds3-builds1)
	}
	// And the rebuilt tree actually reflects the write.
	c2 := NewTreeCache(e, plan.Ranges, 8)
	fresh := c2.Trees(plan.Ranges)
	for i := range before {
		if before[i].Root != fresh[i].Root {
			t.Fatalf("cached tree %d diverged from fresh build", i)
		}
	}
}

// TestSessionMakesEnginesIdentical injects missing rows, stale rows, and a
// tombstone-vs-live conflict, then runs one session and expects both engines
// byte-identical (the acceptance criterion's convergence property).
func TestSessionMakesEnginesIdentical(t *testing.T) {
	p := newPair(t, Options{Enabled: true})
	base := p.s.Now().UnixNano()
	for i := 0; i < 400; i++ {
		key := []byte(fmt.Sprintf("user%07d", i))
		v := wire.Value{Data: []byte(fmt.Sprintf("common-%d", i)), Timestamp: base + int64(i)}
		p.ea.Apply(key, v)
		p.eb.Apply(key, v)
	}
	// A holds rows B misses, B holds newer versions of a few, and A deleted
	// one key B still serves.
	for i := 0; i < 12; i++ {
		key := []byte(fmt.Sprintf("only-a-%03d", i))
		p.ea.Apply(key, wire.Value{Data: []byte("a"), Timestamp: base + 1000 + int64(i)})
	}
	for i := 0; i < 7; i++ {
		key := []byte(fmt.Sprintf("user%07d", i*13))
		p.eb.Apply(key, wire.Value{Data: []byte("newer"), Timestamp: base + 2000 + int64(i)})
	}
	p.ea.Apply([]byte("user0000099"), wire.Value{Tombstone: true, Timestamp: base + 3000})

	if dump(p.ea) == dump(p.eb) {
		t.Fatal("fixture failed to diverge the engines")
	}
	p.ma.startSession(p.bID)
	if got, want := dump(p.ea), dump(p.eb); got != want {
		t.Fatalf("engines differ after session:\nA:\n%s\nB:\n%s", got, want)
	}
	st := p.ma.Stats()
	if st.SessionsCompleted != 1 {
		t.Fatalf("SessionsCompleted = %d, want 1", st.SessionsCompleted)
	}
	if st.RowsHealed == 0 || p.mb.Stats().RowsHealed == 0 {
		t.Fatalf("expected healing on both sides, got initiator=%d responder=%d",
			st.RowsHealed, p.mb.Stats().RowsHealed)
	}
	// A second session over converged engines finds nothing and streams
	// nothing.
	s1 := p.ma.Stats()
	p.ma.startSession(p.bID)
	s2 := p.ma.Stats()
	if s2.RowsStreamed != s1.RowsStreamed || s2.RangesDivergent != s1.RangesDivergent {
		t.Fatalf("converged session still streamed rows: %+v -> %+v", s1, s2)
	}
}

// TestBytesStreamedTracksDivergence is the acceptance property: streamed
// bytes grow with the injected divergence and stay far below the dataset
// size, because Merkle diffing localizes the transfer to divergent leaves.
func TestBytesStreamedTracksDivergence(t *testing.T) {
	const totalKeys = 3000
	const valueBytes = 64
	measure := func(divergent int) uint64 {
		// Fine leaves localize scattered divergence (an outage diverges rows
		// all over the token space, not in one contiguous arc).
		p := newPair(t, Options{Enabled: true, LeavesPerRange: 64})
		base := p.s.Now().UnixNano()
		payload := make([]byte, valueBytes)
		for i := 0; i < totalKeys; i++ {
			key := []byte(fmt.Sprintf("user%07d", i))
			v := wire.Value{Data: payload, Timestamp: base + int64(i)}
			p.ea.Apply(key, v)
			p.eb.Apply(key, v)
		}
		for i := 0; i < divergent; i++ {
			key := []byte(fmt.Sprintf("user%07d", i*(totalKeys/divergent)))
			p.eb.Apply(key, wire.Value{Data: payload, Timestamp: base + 100_000 + int64(i)})
		}
		p.ma.startSession(p.bID)
		st := p.ma.Stats()
		if st.SessionsCompleted != 1 {
			t.Fatalf("session did not complete: %+v", st)
		}
		if got, want := dump(p.ea), dump(p.eb); got != want {
			t.Fatal("engines differ after session")
		}
		return st.BytesStreamed + p.mb.Stats().BytesStreamed
	}

	small := measure(10)
	large := measure(100)
	if small == 0 || large == 0 {
		t.Fatalf("no bytes streamed (small=%d large=%d)", small, large)
	}
	if large < 3*small {
		t.Fatalf("10x divergence only grew bytes %.1fx (small=%d large=%d): not divergence-proportional",
			float64(large)/float64(small), small, large)
	}
	dataset := uint64(totalKeys * valueBytes)
	if large > dataset/2 {
		t.Fatalf("streamed %d bytes for 100 divergent rows of a %d-byte dataset: not localized", large, dataset)
	}
}

// TestZeroDivergenceStreamsNothing pins the no-op fast path.
func TestZeroDivergenceStreamsNothing(t *testing.T) {
	p := newPair(t, Options{Enabled: true})
	base := p.s.Now().UnixNano()
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("user%07d", i))
		v := wire.Value{Data: []byte("same"), Timestamp: base + int64(i)}
		p.ea.Apply(key, v)
		p.eb.Apply(key, v)
	}
	p.ma.startSession(p.bID)
	st := p.ma.Stats()
	if st.SessionsCompleted != 1 || st.RowsStreamed != 0 || st.BytesStreamed != 0 {
		t.Fatalf("identical engines still streamed: %+v", st)
	}
	if rb := p.mb.Stats().RowsStreamed; rb != 0 {
		t.Fatalf("responder streamed %d rows for identical engines", rb)
	}
}

// TestPeerRecoveredJumpsQueue verifies the recovery trigger starts a session
// with the recovered peer ahead of the round-robin order.
func TestPeerRecoveredJumpsQueue(t *testing.T) {
	rng, strat := testRing(t, 4)
	s := sim.New(3)
	lb := transport.NewLoopback()
	engines := map[ring.NodeID]*storage.Engine{}
	managers := map[ring.NodeID]*Manager{}
	for i := 0; i < 4; i++ {
		id := ring.NodeID(fmt.Sprintf("n%d", i))
		e := storage.NewEngine(storage.Options{})
		m := NewManager(Config{Self: id, Ring: rng, Strategy: strat, Engine: e,
			Options: Options{Enabled: true, Interval: time.Second, Concurrency: 1}}, s, lb)
		engines[id], managers[id] = e, m
		lb.Register(id, m)
	}
	m0 := managers["n0"]
	m0.PeerRecovered("n3")
	s.RunFor(10 * time.Millisecond)
	st := m0.Stats()
	if st.SessionsStarted != 1 || st.SessionsCompleted != 1 {
		t.Fatalf("recovery trigger did not run a session: %+v", st)
	}
	if _, busy := m0.byPeer["n3"]; busy {
		t.Fatal("session with n3 still marked active")
	}
}

// TestPeriodicSchedulerCyclesPeers runs the ticker and expects sessions with
// every peer over a full cycle, never exceeding the concurrency cap.
func TestPeriodicSchedulerCyclesPeers(t *testing.T) {
	rng, strat := testRing(t, 4)
	s := sim.New(4)
	lb := transport.NewLoopback()
	var mgr *Manager
	for i := 0; i < 4; i++ {
		id := ring.NodeID(fmt.Sprintf("n%d", i))
		e := storage.NewEngine(storage.Options{})
		m := NewManager(Config{Self: id, Ring: rng, Strategy: strat, Engine: e,
			Options: Options{Enabled: true, Interval: 100 * time.Millisecond, Concurrency: 2}}, s, lb)
		if i == 0 {
			mgr = m
		}
		lb.Register(id, m)
	}
	mgr.Start()
	defer mgr.Stop()
	s.RunFor(time.Second)
	st := mgr.Stats()
	if st.SessionsCompleted < 3 {
		t.Fatalf("expected at least one full cycle over 3 peers, completed %d", st.SessionsCompleted)
	}
}

// TestMismatchedLeafCountsStillConverge pins the heterogeneous-config path:
// the diff conservatively marks every leaf divergent when peers disagree on
// LeavesPerRange, and the responder selects reply rows at the initiator's
// resolution (RangeSync.LeafCount), so the session still converges both
// engines byte-identically.
func TestMismatchedLeafCountsStillConverge(t *testing.T) {
	p := newPairOpts(t,
		Options{Enabled: true, LeavesPerRange: 8},
		Options{Enabled: true, LeavesPerRange: 64})
	base := p.s.Now().UnixNano()
	for i := 0; i < 300; i++ {
		key := []byte(fmt.Sprintf("user%07d", i))
		v := wire.Value{Data: []byte("common"), Timestamp: base + int64(i)}
		p.ea.Apply(key, v)
		p.eb.Apply(key, v)
	}
	// Divergence in both directions.
	for i := 0; i < 9; i++ {
		p.ea.Apply([]byte(fmt.Sprintf("only-a-%02d", i)), wire.Value{Data: []byte("a"), Timestamp: base + 1000 + int64(i)})
		p.eb.Apply([]byte(fmt.Sprintf("user%07d", i*17)), wire.Value{Data: []byte("newer"), Timestamp: base + 2000 + int64(i)})
	}
	p.ma.startSession(p.bID)
	if got, want := dump(p.ea), dump(p.eb); got != want {
		t.Fatalf("engines differ after mismatched-leaf session:\nA:\n%s\nB:\n%s", got, want)
	}
	if p.ma.Stats().SessionsCompleted != 1 {
		t.Fatalf("session did not complete: %+v", p.ma.Stats())
	}
	// And in the other direction (the 64-leaf node initiating).
	p.eb.Apply([]byte("late-b"), wire.Value{Data: []byte("b"), Timestamp: base + 3000})
	p.mb.startSession(p.aID)
	if got, want := dump(p.ea), dump(p.eb); got != want {
		t.Fatal("engines differ after reverse mismatched-leaf session")
	}
}
