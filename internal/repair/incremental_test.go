package repair

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"harmony/internal/sim"
	"harmony/internal/storage"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

// incrementalPair returns an engine whose accepted mutations fold into the
// cache in place — the exact wiring cluster.New uses when repair is enabled.
func incrementalPair(ranges []wire.TokenRange, leaves int) (*storage.Engine, *TreeCache) {
	var c *TreeCache
	e := storage.NewEngine(storage.Options{
		OnReplace: func(key []byte, old wire.Value, hadOld bool, v wire.Value) {
			c.Update(key, old, hadOld, v)
		},
	})
	c = NewTreeCache(e, ranges, leaves)
	return e, c
}

// rebuildReference builds a fresh cache over the same engine and returns
// its trees — the ground truth an incrementally maintained tree must match.
func rebuildReference(e *storage.Engine, ranges []wire.TokenRange, leaves int) []wire.RangeTree {
	return NewTreeCache(e, ranges, leaves).Trees(ranges)
}

// TestIncrementalUpdateAvoidsRebuild is the write-path acceptance test: a
// mutation burst against a built tree must not trigger any further engine
// scans, and the in-place tree must be digest-identical to a full rebuild.
func TestIncrementalUpdateAvoidsRebuild(t *testing.T) {
	full := []wire.TokenRange{{Start: 0, End: 0}} // whole ring, one arc
	e, c := incrementalPair(full, 8)
	for i := 0; i < 512; i++ {
		e.Apply([]byte(fmt.Sprintf("user%08d", i)), wire.Value{Data: []byte("v0"), Timestamp: int64(i + 1)})
	}
	c.Trees(full)
	if _, scans := c.Builds(); scans != 1 {
		t.Fatalf("initial build took %d scans, want 1", scans)
	}
	// Write burst: overwrites, fresh keys, tombstones, and rejected stale
	// writes, all through the incremental path.
	for i := 0; i < 1024; i++ {
		switch i % 4 {
		case 0:
			e.Apply([]byte(fmt.Sprintf("user%08d", i%512)), wire.Value{Data: []byte("v1"), Timestamp: int64(10000 + i)})
		case 1:
			e.Apply([]byte(fmt.Sprintf("new%08d", i)), wire.Value{Data: []byte("n"), Timestamp: int64(10000 + i)})
		case 2:
			e.Apply([]byte(fmt.Sprintf("user%08d", i%512)), wire.Value{Timestamp: int64(10000 + i), Tombstone: true})
		default:
			e.Apply([]byte(fmt.Sprintf("user%08d", i%512)), wire.Value{Data: []byte("stale"), Timestamp: 1}) // rejected
		}
	}
	got := c.Trees(full)
	builds, scans := c.Builds()
	if scans != 1 {
		t.Fatalf("write burst triggered engine scans: %d total, want the initial 1 (builds=%d)", scans, builds)
	}
	if c.Updates() == 0 {
		t.Fatal("no in-place updates recorded")
	}
	want := rebuildReference(e, full, 8)
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("tree counts: got %d want %d", len(got), len(want))
	}
	if got[0].Root != want[0].Root {
		t.Fatalf("incremental root %x != rebuilt root %x", got[0].Root, want[0].Root)
	}
	for i := range got[0].Leaves {
		if got[0].Leaves[i] != want[0].Leaves[i] {
			t.Fatalf("leaf %d: incremental %x != rebuilt %x", i, got[0].Leaves[i], want[0].Leaves[i])
		}
	}
}

// TestIncrementalFallsBackOnInvalidate: an explicit Invalidate (the
// conservative path) must force a real rebuild even when updates flowed.
func TestIncrementalFallsBackOnInvalidate(t *testing.T) {
	full := []wire.TokenRange{{Start: 0, End: 0}}
	e, c := incrementalPair(full, 8)
	e.Apply([]byte("k1"), wire.Value{Data: []byte("a"), Timestamp: 1})
	c.Trees(full)
	e.Apply([]byte("k2"), wire.Value{Data: []byte("b"), Timestamp: 2})
	c.Invalidate([]byte("k3")) // e.g. a raced scan's conservative marking
	c.Trees(full)
	if _, scans := c.Builds(); scans != 2 {
		t.Fatalf("scans = %d, want 2 (initial + post-invalidate rebuild)", scans)
	}
	// After the rebuild the incremental path resumes cleanly.
	e.Apply([]byte("k4"), wire.Value{Data: []byte("c"), Timestamp: 3})
	got := c.Trees(full)
	if _, scans := c.Builds(); scans != 2 {
		t.Fatalf("post-rebuild update scanned again: %d", scans)
	}
	want := rebuildReference(e, full, 8)
	if got[0].Root != want[0].Root {
		t.Fatal("tree diverged after invalidate + incremental resume")
	}
}

// TestIncrementalMultiRangeRouting: updates land in the right arc's tree
// and untracked keys are ignored, across a partitioned ring.
func TestIncrementalMultiRangeRouting(t *testing.T) {
	// Three tracked quarters of the ring; the fourth is untracked.
	q := ^uint64(0) / 4
	ranges := []wire.TokenRange{
		{Start: 0, End: q},
		{Start: q, End: 2 * q},
		{Start: 2 * q, End: 3 * q},
	}
	e, c := incrementalPair(ranges, 4)
	for i := 0; i < 256; i++ {
		e.Apply([]byte(fmt.Sprintf("seed%06d", i)), wire.Value{Data: []byte("s"), Timestamp: int64(i + 1)})
	}
	c.Trees(ranges)
	for i := 0; i < 512; i++ {
		e.Apply([]byte(fmt.Sprintf("mut%06d", i)), wire.Value{Data: []byte("m"), Timestamp: int64(1000 + i)})
	}
	got := c.Trees(ranges)
	if _, scans := c.Builds(); scans != 1 {
		t.Fatalf("scans = %d, want 1", scans)
	}
	want := rebuildReference(e, ranges, 4)
	if len(got) != len(want) {
		t.Fatalf("tree counts: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Root != want[i].Root {
			t.Fatalf("range %v: incremental root differs from rebuild", got[i].Range)
		}
	}
}

// TestIncrementalMatchesRebuildProperty drives random histories through the
// incremental path and requires digest identity with a fresh rebuild —
// the commutative-sum argument (fold out the displaced version, fold in the
// new one) checked over arbitrary interleavings of overwrites, deletes,
// and resurrections.
func TestIncrementalMatchesRebuildProperty(t *testing.T) {
	full := []wire.TokenRange{{Start: 0, End: 0}}
	if err := quick.Check(func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e, c := incrementalPair(full, 8)
		ops := int(opsRaw)%200 + 20
		ts := int64(0)
		for i := 0; i < ops/2; i++ {
			ts++
			e.Apply([]byte(fmt.Sprintf("k%02d", rng.Intn(40))), wire.Value{Data: []byte("seed"), Timestamp: ts})
		}
		c.Trees(full) // build once, then maintain incrementally
		for i := 0; i < ops; i++ {
			// Random timestamps: some mutations lose LWW and must not
			// perturb the tree.
			v := wire.Value{Data: []byte(fmt.Sprintf("v%d", i)), Timestamp: int64(rng.Intn(ops)) + 1, Tombstone: rng.Intn(6) == 0}
			e.Apply([]byte(fmt.Sprintf("k%02d", rng.Intn(40))), v)
		}
		got := c.Trees(full)
		if _, scans := c.Builds(); scans != 1 {
			t.Errorf("seed %d: %d scans", seed, scans)
			return false
		}
		want := rebuildReference(e, full, 8)
		if got[0].Root != want[0].Root {
			t.Errorf("seed %d: incremental tree diverged", seed)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// newIncrementalPair is newPair with the production wiring: accepted
// mutations fold into the Merkle caches in place via OnReplace -> Applied
// (what cluster.New installs), instead of the conservative OnReplace ->
// Invalidate the classic pair helper uses.
func newIncrementalPair(t *testing.T, opts Options) *pair {
	t.Helper()
	rng, strat := testRing(t, 2)
	s := sim.New(1)
	lb := transport.NewLoopback()
	p := &pair{s: s, lb: lb, aID: "n0", bID: "n1"}
	var ma, mb *Manager
	p.ea = storage.NewEngine(storage.Options{OnReplace: func(k []byte, old wire.Value, hadOld bool, v wire.Value) {
		if ma != nil {
			ma.Applied(k, old, hadOld, v)
		}
	}})
	p.eb = storage.NewEngine(storage.Options{OnReplace: func(k []byte, old wire.Value, hadOld bool, v wire.Value) {
		if mb != nil {
			mb.Applied(k, old, hadOld, v)
		}
	}})
	ma = NewManager(Config{Self: p.aID, Ring: rng, Strategy: strat, Engine: p.ea, Options: opts}, s, lb)
	mb = NewManager(Config{Self: p.bID, Ring: rng, Strategy: strat, Engine: p.eb, Options: opts}, s, lb)
	p.ma, p.mb = ma, mb
	lb.Register(p.aID, ma)
	lb.Register(p.bID, mb)
	return p
}

// TestIncrementalSessionsConverge runs the full session protocol with
// incrementally maintained caches on both sides (the production wiring) and
// checks byte-identical engines afterward — repair's own streamed rows flow
// through the same Update path — plus that steady-state sessions trigger no
// tree-rebuild engine scans.
func TestIncrementalSessionsConverge(t *testing.T) {
	p := newIncrementalPair(t, Options{Enabled: true, LeavesPerRange: 8})
	for i := 0; i < 64; i++ {
		p.ea.Apply([]byte(fmt.Sprintf("k%03d", i)), wire.Value{Data: []byte("a"), Timestamp: int64(i + 1)})
	}
	for i := 32; i < 96; i++ {
		p.eb.Apply([]byte(fmt.Sprintf("k%03d", i)), wire.Value{Data: []byte("b"), Timestamp: int64(1000 + i)})
	}
	p.ma.startSession(p.bID)
	if da, db := dump(p.ea), dump(p.eb); da != db {
		t.Fatalf("engines diverged after session:\n a=%s\n b=%s", da, db)
	}
	if st := p.ma.Stats(); st.SessionsCompleted != 1 {
		t.Fatalf("SessionsCompleted = %d, want 1", st.SessionsCompleted)
	}
	// Steady state: further mutations + sessions must not rebuild trees.
	_, scansA0 := p.ma.TreeCache().Builds()
	_, scansB0 := p.mb.TreeCache().Builds()
	for i := 0; i < 32; i++ {
		p.ea.Apply([]byte(fmt.Sprintf("k%03d", i)), wire.Value{Data: []byte("a2"), Timestamp: int64(5000 + i)})
	}
	p.ma.startSession(p.bID)
	if da, db := dump(p.ea), dump(p.eb); da != db {
		t.Fatal("engines diverged after steady-state session")
	}
	_, scansA1 := p.ma.TreeCache().Builds()
	_, scansB1 := p.mb.TreeCache().Builds()
	if scansA1 != scansA0 || scansB1 != scansB0 {
		t.Fatalf("steady-state session rebuilt trees: A %d->%d, B %d->%d",
			scansA0, scansA1, scansB0, scansB1)
	}
}
