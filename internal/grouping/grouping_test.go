package grouping

import (
	"fmt"
	"math"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/ring"
	"harmony/internal/wire"
)

func TestAssignmentRoundTrip(t *testing.T) {
	a, err := newAssignment(7, []float64{0.02, 0.3, 0.9}, 2, map[string]int{
		"hot0": 0, "warm0": 1, "cold0": 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := a.toWire()
	if u.Epoch != 7 || len(u.Tolerances) != 3 || u.Default != 2 || len(u.Entries) != 3 {
		t.Fatalf("wire form = %+v", u)
	}
	// Through the codec and back.
	b, err := wire.Encode(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := wire.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	back, err := fromWire(decoded.(wire.GroupUpdate))
	if err != nil {
		t.Fatal(err)
	}
	if !a.equivalentTo(back) || back.Epoch() != 7 || back.Groups() != 3 || back.Default() != 2 {
		t.Fatalf("round trip lost information: %+v", back)
	}
	if back.GroupOf([]byte("hot0")) != 0 || back.GroupOf([]byte("never-seen")) != 2 {
		t.Fatal("group lookup broken after round trip")
	}
}

func TestAssignmentValidation(t *testing.T) {
	if _, err := newAssignment(1, nil, 0, nil); err == nil {
		t.Fatal("empty tolerance table accepted")
	}
	if _, err := newAssignment(1, []float64{math.NaN()}, 0, nil); err == nil {
		t.Fatal("NaN tolerance accepted")
	}
	a, err := newAssignment(1, []float64{-0.5, 1.5}, 99, map[string]int{"k": 7, "ok": 1})
	if err != nil {
		t.Fatal(err)
	}
	tols := a.Tolerances()
	if tols[0] != 0 || tols[1] != 1 {
		t.Fatalf("tolerances not clamped: %v", tols)
	}
	if a.Default() != 1 {
		t.Fatalf("out-of-range default = %d, want clamped to last group", a.Default())
	}
	if a.Len() != 1 || a.GroupOf([]byte("k")) != 1 {
		t.Fatal("out-of-range entry not dropped to default")
	}
}

func TestAssignmentEquivalence(t *testing.T) {
	base, _ := newAssignment(1, []float64{0.1, 0.5}, 1, map[string]int{"h": 0})
	// A new key explicitly assigned to the default group changes nothing.
	absorbed, _ := newAssignment(2, []float64{0.1, 0.5}, 1, map[string]int{"h": 0, "c": 1})
	if !base.equivalentTo(absorbed) || !absorbed.equivalentTo(base) {
		t.Fatal("default-group addition should be equivalent")
	}
	// Moving a key is a real change, in either direction.
	moved, _ := newAssignment(2, []float64{0.1, 0.5}, 1, map[string]int{"h": 1})
	if base.equivalentTo(moved) {
		t.Fatal("moved key reported equivalent")
	}
	// So are tolerance changes.
	retuned, _ := newAssignment(2, []float64{0.1, 0.6}, 1, map[string]int{"h": 0})
	if base.equivalentTo(retuned) {
		t.Fatal("retuned tolerances reported equivalent")
	}
}

// updateSink records GroupUpdate broadcasts per node.
type updateSink struct {
	sent map[ring.NodeID][]wire.GroupUpdate
}

func newUpdateSink() *updateSink {
	return &updateSink{sent: make(map[ring.NodeID][]wire.GroupUpdate)}
}

func (u *updateSink) Send(from, to ring.NodeID, m wire.Message) {
	if up, ok := m.(wire.GroupUpdate); ok {
		u.sent[to] = append(u.sent[to], up)
	}
}

// hotColdSamples fabricates a node's sample report: nHot write-contended
// keys (prefix) and nCold read-mostly keys.
func hotColdSamples(prefix string, nHot, nCold int) []wire.KeySample {
	var out []wire.KeySample
	for i := 0; i < nHot; i++ {
		out = append(out, wire.KeySample{
			Key: []byte(fmt.Sprintf("%s-hot%d", prefix, i)), Reads: 50, Writes: 50,
		})
	}
	for i := 0; i < nCold; i++ {
		out = append(out, wire.KeySample{
			Key: []byte(fmt.Sprintf("%s-cold%d", prefix, i)), Reads: 20, Writes: 0.2,
		})
	}
	return out
}

func newTestRegrouper(t *testing.T, ctl *core.Controller, sink *updateSink) *Regrouper {
	t.Helper()
	r, err := New(Config{
		Self:         "mon",
		Nodes:        []ring.NodeID{"n1", "n2"},
		K:            2,
		MinTolerance: 0.02,
		MaxTolerance: 0.6,
		minKeys:      10,
		Seed:         42,
		Controller:   ctl,
	}, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegrouperLearnsAndBroadcasts(t *testing.T) {
	ctl := core.NewController(core.ControllerConfig{
		Policy: core.Policy{ToleratedStaleRate: 0.02}, N: 5, Groups: 2,
		GroupTolerances: []float64{0.02, 0.6},
	})
	sink := newUpdateSink()
	r := newTestRegrouper(t, ctl, sink)

	// Below the minKeys gate: nothing happens.
	r.IngestStats("n1", wire.StatsResponse{KeySamples: hotColdSamples("a", 2, 2)})
	if r.regroupNow() {
		t.Fatal("regrouped below the minKeys gate")
	}

	r.IngestStats("n1", wire.StatsResponse{KeySamples: hotColdSamples("a", 8, 8)})
	r.IngestStats("n2", wire.StatsResponse{KeySamples: hotColdSamples("b", 8, 8)})
	if !r.regroupNow() {
		t.Fatal("no epoch applied despite a clear hot/cold split")
	}
	cur := r.Current()
	if cur.Epoch() != 1 || cur.Groups() != 2 {
		t.Fatalf("assignment = epoch %d groups %d", cur.Epoch(), cur.Groups())
	}
	// Canonical order: hot keys in the tight group 0, cold in the loose
	// default; unknown keys default loose.
	if g := cur.GroupOf([]byte("a-hot3")); g != 0 {
		t.Fatalf("hot key in group %d", g)
	}
	if g := cur.GroupOf([]byte("b-cold2")); g != 1 {
		t.Fatalf("cold key in group %d", g)
	}
	if g := cur.GroupOf([]byte("unseen")); g != 1 {
		t.Fatalf("unseen key in group %d, want loose default", g)
	}
	tols := cur.Tolerances()
	if tols[0] != 0.02 || tols[1] != 0.6 {
		t.Fatalf("tolerances = %v", tols)
	}
	// Broadcast reached every node; the controller moved in lockstep.
	for _, n := range []ring.NodeID{"n1", "n2"} {
		if len(sink.sent[n]) != 1 || sink.sent[n][0].Epoch != 1 {
			t.Fatalf("node %s broadcasts = %+v", n, sink.sent[n])
		}
	}
	if ctl.Epoch() != 1 || ctl.Groups() != 2 {
		t.Fatalf("controller epoch %d groups %d", ctl.Epoch(), ctl.Groups())
	}

	// Re-clustering an unchanged workload is a no-op: no epoch bump, no
	// broadcast storm.
	if r.regroupNow() {
		t.Fatal("stable workload bumped the epoch")
	}
	if got := r.Epochs(); got != 1 {
		t.Fatalf("epoch bumps = %d, want 1", got)
	}
	if len(sink.sent["n1"]) != 1 {
		t.Fatal("no-op regroup still broadcast")
	}
}

func TestRegrouperCarryOverExpiresWithoutEvidence(t *testing.T) {
	sink := newUpdateSink()
	r, err := New(Config{
		Self: "mon", Nodes: []ring.NodeID{"n1"},
		K: 2, MinTolerance: 0.02, MaxTolerance: 0.6,
		minKeys: 10, Seed: 42, maxCarry: 2,
	}, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	r.IngestStats("n1", wire.StatsResponse{KeySamples: hotColdSamples("a", 8, 8)})
	if !r.regroupNow() {
		t.Fatal("initial regroup failed")
	}
	oldHot := []byte("a-hot0")
	if g := r.Current().GroupOf(oldHot); g != 0 {
		t.Fatalf("hot key in group %d", g)
	}

	// The hotspot migrates: the old hot set vanishes from every sample.
	// The first epoch after the migration still carries the old keys (no
	// churn, no premature demotion)...
	r.IngestStats("n1", wire.StatsResponse{KeySamples: hotColdSamples("b", 8, 8)})
	if !r.regroupNow() {
		t.Fatal("migration did not bump the epoch")
	}
	if g := r.Current().GroupOf(oldHot); g != 0 {
		t.Fatalf("old hot key demoted immediately, want carried (group %d)", g)
	}
	// ...but once maxCarry evidence-free rounds pass, the next applied
	// epoch drops them back to the default group instead of pinning every
	// past hot range tight forever.
	r.regroupNow() // carried round 2 (no change -> no epoch)
	r.regroupNow() // carried round 3: past maxCarry, but shift too small alone
	r.IngestStats("n1", wire.StatsResponse{KeySamples: hotColdSamples("c", 8, 8)})
	if !r.regroupNow() {
		t.Fatal("second migration did not bump the epoch")
	}
	if g := r.Current().GroupOf(oldHot); g != r.Current().Default() {
		t.Fatalf("expired carry-over still in group %d, want default", g)
	}
	// The current hot set is tight, and the newer carried set ('b'), still
	// within its carry budget, survives.
	if g := r.Current().GroupOf([]byte("c-hot0")); g != 0 {
		t.Fatalf("current hot key in group %d", g)
	}
	if g := r.Current().GroupOf([]byte("b-hot0")); g != 0 {
		t.Fatalf("recently-carried hot key in group %d, want still tight", g)
	}
}

func TestIngestStatsEmptyReportClearsNode(t *testing.T) {
	sink := newUpdateSink()
	r := newTestRegrouper(t, nil, sink)
	r.IngestStats("n1", wire.StatsResponse{KeySamples: hotColdSamples("a", 8, 8)})
	// The node's sampler drains (all keys decayed out): its cached samples
	// must clear, leaving too few keys to recluster.
	r.IngestStats("n1", wire.StatsResponse{})
	if r.regroupNow() {
		t.Fatal("reclustered from a stale sample cache")
	}
	if r.Current().Epoch() != 0 {
		t.Fatalf("epoch = %d, want 0", r.Current().Epoch())
	}
}

func TestRegrouperMigratesControllerModels(t *testing.T) {
	ctl := core.NewController(core.ControllerConfig{
		Policy: core.Policy{ToleratedStaleRate: 0.02}, N: 5, Groups: 2,
		GroupTolerances: []float64{0.02, 0.6},
	})
	sink := newUpdateSink()
	r := newTestRegrouper(t, ctl, sink)
	r.IngestStats("n1", wire.StatsResponse{KeySamples: hotColdSamples("a", 10, 10)})
	if !r.regroupNow() {
		t.Fatal("initial regroup failed")
	}

	// Escalate the (learned) hot group with a contended observation at the
	// controller's current epoch.
	ctl.Observe(core.Observation{
		At: time.Unix(1, 0), ReadRate: 300, WriteInterval: 0.005,
		Latency: time.Millisecond, Epoch: ctl.Epoch(),
		Groups: []core.GroupRates{
			{ReadRate: 300, WriteInterval: 0.005},
			{ReadRate: 1, WriteInterval: 10},
		},
	})
	hotLevel, _ := ctl.LevelsFor([]byte("a-hot0"))
	if hotLevel == wire.One {
		t.Fatal("hot group did not escalate")
	}

	// The hot set keeps its incumbents and gains members: the hot group's
	// identity persists, so its escalated model must migrate, not reset.
	samples := hotColdSamples("a", 10, 10)
	for i := 0; i < 3; i++ {
		samples = append(samples, wire.KeySample{
			Key: []byte(fmt.Sprintf("a-newhot%d", i)), Reads: 60, Writes: 60,
		})
	}
	r.IngestStats("n1", wire.StatsResponse{KeySamples: samples})
	if !r.regroupNow() {
		t.Fatal("membership change did not bump the epoch")
	}
	if r.Current().Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", r.Current().Epoch())
	}
	if g := r.Current().GroupOf([]byte("a-newhot1")); g != 0 {
		t.Fatalf("new hot key in group %d", g)
	}
	if got, _ := ctl.LevelsFor([]byte("a-newhot1")); got != hotLevel {
		t.Fatalf("migrated hot group at %v, want inherited %v", got, hotLevel)
	}
	if got, _ := ctl.LevelsFor([]byte("a-cold0")); got != wire.One {
		t.Fatalf("cold group at %v after migration", got)
	}
}
