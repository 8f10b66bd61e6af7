package simnet

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"harmony/internal/dist"
	"harmony/internal/faults"
	"harmony/internal/ring"
	"harmony/internal/sim"
)

func testTopo(t *testing.T) *ring.Topology {
	t.Helper()
	topo, err := ring.NewTopology([]ring.NodeInfo{
		{ID: "a", DC: "dc1", Rack: "r1"},
		{ID: "b", DC: "dc1", Rack: "r1"},
		{ID: "c", DC: "dc1", Rack: "r2"},
		{ID: "d", DC: "dc2", Rack: "r1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func newNet(t *testing.T, p Profile) *Net {
	t.Helper()
	return New(testTopo(t), p, rand.New(rand.NewSource(42)))
}

func TestDelayByProximity(t *testing.T) {
	p := Profile{
		Base:          [4]time.Duration{1 * time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond, 1000 * time.Microsecond},
		Jitter:        dist.Constant{V: 1},
		ClientLatency: 5 * time.Millisecond,
	}
	n := newNet(t, p)
	cases := []struct {
		a, b ring.NodeID
		want time.Duration
	}{
		{"a", "a", 1 * time.Microsecond},
		{"a", "b", 10 * time.Microsecond},   // same rack
		{"a", "c", 100 * time.Microsecond},  // same DC
		{"a", "d", 1000 * time.Microsecond}, // cross DC
		{"client-x", "a", 5 * time.Millisecond},
		{"a", "client-x", 5 * time.Millisecond},
	}
	for _, c := range cases {
		if got := n.Delay(n.Class(c.a, c.b), 0); got != c.want {
			t.Errorf("Delay(Class(%s,%s)) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestBandwidthTerm(t *testing.T) {
	p := UniformProfile(time.Millisecond)
	p.BandwidthBytesPerSec = 1e6 // 1 MB/s
	n := newNet(t, p)
	got := n.Delay(n.Class("a", "b"), 1000) // 1 KB at 1 MB/s = 1ms extra
	if got != 2*time.Millisecond {
		t.Fatalf("delay = %v, want 2ms", got)
	}
}

// linkDelay prices one frame from a to b the way the simulated bus does: the
// fault plane judges the link, the network draws its latency on the class
// the plane holds for it. up is false when the plane blocks the frame.
func linkDelay(n *Net, p *faults.Plane, a, b ring.NodeID) (d time.Duration, up bool) {
	r := p.Route(p.Add(a, n.Host(a), n.Class), p.Add(b, n.Host(b), n.Class))
	if r.Blocked {
		return 0, false
	}
	return n.Delay(r.Class, 0) + r.Delay, true
}

func newPlane() *faults.Plane {
	return faults.New(sim.New(1), 1, []ring.NodeID{"a", "b", "c", "d"})
}

func TestPartitionHealIsolateRejoin(t *testing.T) {
	n := newNet(t, UniformProfile(time.Millisecond))
	p := newPlane()
	p.Apply(faults.Update{Partition: &faults.PartitionSpec{A: []string{"a"}, B: []string{"b"}}})
	if _, up := linkDelay(n, p, "a", "b"); up {
		t.Fatal("partitioned link up")
	}
	if _, up := linkDelay(n, p, "b", "a"); up {
		t.Fatal("partition must be bidirectional")
	}
	if _, up := linkDelay(n, p, "a", "c"); !up {
		t.Fatal("unrelated link cut")
	}
	p.Apply(faults.Update{Heal: true})
	if d, up := linkDelay(n, p, "a", "b"); !up || d != time.Millisecond {
		t.Fatalf("healed link = %v up=%v, want 1ms up", d, up)
	}

	p.Apply(faults.Update{Partition: &faults.PartitionSpec{A: []string{"c"}, B: []string{faults.Wildcard}}})
	for _, peer := range []ring.NodeID{"a", "b", "d"} {
		if _, up := linkDelay(n, p, "c", peer); up {
			t.Fatalf("isolated node reaches %s", peer)
		}
	}
	p.Apply(faults.Update{Heal: true})
	for _, peer := range []ring.NodeID{"a", "b", "d"} {
		if _, up := linkDelay(n, p, "c", peer); !up {
			t.Fatalf("rejoined node cannot reach %s", peer)
		}
	}
}

func TestDegradeAndClear(t *testing.T) {
	n := newNet(t, UniformProfile(time.Millisecond))
	p := newPlane()
	slow := faults.Rule{Delay: 7 * time.Millisecond}
	p.Apply(faults.Update{Set: []faults.RuleUpdate{{From: "a", To: "b", Rule: slow}, {From: "b", To: "a", Rule: slow}}})
	if got, _ := linkDelay(n, p, "a", "b"); got != 8*time.Millisecond {
		t.Fatalf("degraded = %v, want 8ms", got)
	}
	if got, _ := linkDelay(n, p, "b", "a"); got != 8*time.Millisecond {
		t.Fatalf("degradation must be bidirectional, got %v", got)
	}
	if got, _ := linkDelay(n, p, "a", "c"); got != time.Millisecond {
		t.Fatalf("unrelated link = %v, want 1ms", got)
	}
	p.Apply(faults.Update{Clear: true})
	if got, _ := linkDelay(n, p, "a", "b"); got != time.Millisecond {
		t.Fatalf("after clear = %v, want 1ms", got)
	}
}

func TestColocate(t *testing.T) {
	p := Profile{
		Base:          [4]time.Duration{1 * time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond, 1000 * time.Microsecond},
		Jitter:        dist.Constant{V: 1},
		ClientLatency: 9 * time.Millisecond,
	}
	n := newNet(t, p)
	// Before colocation the monitor pays client latency.
	if got := n.Delay(n.Class(n.Host("monitor"), "b"), 0); got != 9*time.Millisecond {
		t.Fatalf("external delay = %v", got)
	}
	n.Colocate("monitor", "a")
	if h := n.Host("monitor"); h != "a" {
		t.Fatalf("monitor's host = %s, want a", h)
	}
	if got := n.Delay(n.Class(n.Host("monitor"), "b"), 0); got != 10*time.Microsecond {
		t.Fatalf("colocated same-rack delay = %v, want 10µs", got)
	}
	if got := n.Delay(n.Class(n.Host("monitor"), "d"), 0); got != 1000*time.Microsecond {
		t.Fatalf("colocated cross-DC delay = %v, want 1ms", got)
	}
}

func TestJitterVariesDelay(t *testing.T) {
	p := Grid5000Profile()
	n := newNet(t, p)
	seen := map[time.Duration]bool{}
	for i := 0; i < 50; i++ {
		seen[n.Delay(n.Class("a", "c"), 0)] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct delays", len(seen))
	}
}

func TestProfilesSane(t *testing.T) {
	g, e := Grid5000Profile(), EC2Profile()
	// EC2 must be uniformly slower than Grid'5000 (the paper's ~5x).
	for i := 1; i < 4; i++ {
		if e.Base[i] < 4*g.Base[i] {
			t.Fatalf("EC2 base[%d]=%v not ~5x Grid'5000 %v", i, e.Base[i], g.Base[i])
		}
	}
	if e.ClientLatency <= g.ClientLatency {
		t.Fatal("EC2 client latency should exceed Grid'5000")
	}
	u := UniformProfile(3 * time.Millisecond)
	for i := 0; i < 4; i++ {
		if u.Base[i] != 3*time.Millisecond {
			t.Fatal("uniform profile not uniform")
		}
	}
}

// TestNamedProfilesRegistry pins each named profile's Name (the string
// scenarios and plots select it by) and its per-profile sanity.
func TestNamedProfilesRegistry(t *testing.T) {
	drifting, _ := DriftingProfile()
	ps := map[string]Profile{
		"grid5000":          Grid5000Profile(),
		"ec2":               EC2Profile(),
		"wan-heavytail":     WANHeavyTailProfile(),
		"degraded":          DegradedProfile(),
		"congested-bimodal": CongestedBimodalProfile(),
		"drifting":          drifting,
	}
	for name, p := range ps {
		if p.Name != name {
			t.Fatalf("profile %q has Name %q", name, p.Name)
		}
		if p.Jitter == nil {
			t.Fatalf("profile %q has nil jitter", name)
		}
		// Base latencies must be monotone in proximity class.
		for i := 1; i < 4; i++ {
			if p.Base[i] < p.Base[i-1] {
				t.Fatalf("profile %q base latencies not monotone: %v", name, p.Base)
			}
		}
	}
}

// jitterDraws returns n seeded draws of s, sorted, and their mean.
func jitterDraws(s dist.Sampler, n int) (sorted []float64, mean float64) {
	rng := dist.NewRand(9)
	sorted = make([]float64, n)
	for i := range sorted {
		sorted[i] = s.Sample(rng)
		mean += sorted[i]
	}
	slices.Sort(sorted)
	return sorted, mean / float64(n)
}

// quantile reads the p-quantile off a sorted sample.
func quantile(sorted []float64, p float64) float64 {
	return sorted[int(p*float64(len(sorted)))]
}

// TestDriftingProfileRegimes pins the drifting profile's two endpoints:
// healthy lognormal jitter at progress 0, degraded floor-plus-stalls at
// progress 1, with the mean multiplier roughly doubling across the drift.
func TestDriftingProfileRegimes(t *testing.T) {
	p, knob := DriftingProfile()
	if p.Name != "drifting" || p.Jitter != dist.Sampler(knob) {
		t.Fatalf("profile jitter is not the returned knob")
	}
	_, healthy := jitterDraws(knob, 100_000)
	knob.SetProgress(1)
	degradedDraws, degraded := jitterDraws(knob, 100_000)
	if degraded < 1.7*healthy {
		t.Fatalf("drift barely degrades: %v -> %v", healthy, degraded)
	}
	if degradedDraws[0] < 0.8 {
		t.Fatalf("degraded regime floor missing: min multiplier %v", degradedDraws[0])
	}
	// Independent knobs per call.
	p2, knob2 := DriftingProfile()
	if knob2.Progress() != 0 || p2.Jitter == p.Jitter {
		t.Fatal("DriftingProfile shares drift state across calls")
	}
}

// TestStressProfileJitterShapes pins the statistical character each stress
// profile was added for, measured on seeded draws of its jitter.
func TestStressProfileJitterShapes(t *testing.T) {
	const n = 200_000
	shapes := map[string][]float64{}
	for _, p := range []Profile{WANHeavyTailProfile(), DegradedProfile(), CongestedBimodalProfile()} {
		sorted, m := jitterDraws(p.Jitter, n)
		shapes[p.Name] = sorted
		// All jitters are multiplicative factors with mean in a sane band.
		if m < 0.9 || m > 2.5 {
			t.Errorf("%s jitter mean = %v, want ~[1, 2.5]", p.Name, m)
		}
		if p99 := quantile(sorted, 0.99); p99 <= m {
			t.Errorf("%s jitter p99 %v not above mean %v", p.Name, p99, m)
		}
	}
	// Heavy tail: WAN p99.99 must dwarf its p99.
	wan := shapes["wan-heavytail"]
	if r := quantile(wan, 0.9999) / quantile(wan, 0.99); r < 3 {
		t.Errorf("wan tail ratio p99.99/p99 = %v, want heavy", r)
	}
	// Degraded has a hard floor: no multiplier falls below it.
	if q := shapes["degraded"][0]; q < 0.8 {
		t.Errorf("degraded floor broken: min multiplier = %v", q)
	}
	// Bimodal: the congested mode must show as a jump between median and
	// tail that a unimodal lognormal of the same median would not have.
	con := shapes["congested-bimodal"]
	if r := quantile(con, 0.95) / quantile(con, 0.5); r < 3 {
		t.Errorf("congested p95/p50 = %v, want bimodal separation", r)
	}
}

// TestStressProfilesProduceDelays drives each new profile through Net to
// make sure jitter sampling and clamping hold on the hot path.
func TestStressProfilesProduceDelays(t *testing.T) {
	for _, p := range []Profile{WANHeavyTailProfile(), DegradedProfile(), CongestedBimodalProfile()} {
		n := newNet(t, p)
		seen := map[time.Duration]bool{}
		for i := 0; i < 200; i++ {
			d := n.Delay(n.Class("a", "d"), 256) // cross-DC with a payload
			if d <= 0 {
				t.Fatalf("%s: non-positive delay %v", p.Name, d)
			}
			seen[d] = true
		}
		if len(seen) < 50 {
			t.Fatalf("%s: only %d distinct delays in 200 draws", p.Name, len(seen))
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	p := UniformProfile(time.Millisecond)
	p.Jitter = dist.Constant{V: -5} // hostile sampler
	n := newNet(t, p)
	if got := n.Delay(n.Class("a", "b"), 0); got < 0 {
		t.Fatalf("negative delay leaked: %v", got)
	}
}
