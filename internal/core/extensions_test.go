package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCategorizerValidation(t *testing.T) {
	if _, err := NewCategorizer(1, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestReclusterNeedsEnoughKeys(t *testing.T) {
	ks := NewKeyStats()
	ks.Add([]byte("only"), 1, 0)
	cat, err := NewCategorizer(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Recluster(ks, 0.05, 0.8); err == nil {
		t.Fatal("clustered with fewer keys than categories")
	}
}

func TestReclusterEmptyStatsErrorsCleanly(t *testing.T) {
	cat, err := NewCategorizer(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Recluster(NewKeyStats(), 0.05, 0.8); err == nil {
		t.Fatal("reclustered an empty KeyStats")
	}
	if len(cat.Categories()) != 0 || len(cat.Assignment()) != 0 {
		t.Fatalf("failed recluster installed state: %v %v", cat.Categories(), cat.Assignment())
	}
}

func TestReclusterIdenticalFeaturesNoNaN(t *testing.T) {
	// Every key has the exact same access pattern: k-means collapses onto
	// one point, empty clusters keep duplicate centroids, and tolerances
	// must still come out finite and in-bounds.
	ks := NewKeyStats()
	for i := 0; i < 20; i++ {
		ks.Add([]byte(fmt.Sprintf("same%d", i)), 10, 10)
	}
	cat, _ := NewCategorizer(3, 9)
	if err := cat.Recluster(ks, 0.05, 0.8); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, c := range cat.Categories() {
		if math.IsNaN(c.Tolerance) || c.Tolerance < 0.05-1e-9 || c.Tolerance > 0.8+1e-9 {
			t.Fatalf("category %d tolerance = %v", i, c.Tolerance)
		}
		if math.IsNaN(c.Centroid[0]) || math.IsNaN(c.Centroid[1]) {
			t.Fatalf("category %d centroid = %v", i, c.Centroid)
		}
		total += c.Keys
	}
	if total != 20 {
		t.Fatalf("assigned %d of 20 keys", total)
	}
	for i := 0; i < 20; i++ {
		if tol := toleranceOf(t, cat, fmt.Sprintf("same%d", i)); math.IsNaN(tol) {
			t.Fatalf("same%d tolerance is NaN", i)
		}
	}
}

func TestReclusterSanitizesToleranceBounds(t *testing.T) {
	ks := NewKeyStats()
	populateBimodal(ks, 10, 10)
	cat, _ := NewCategorizer(2, 5)
	// NaN bounds are rejected without touching state.
	if err := cat.Recluster(ks, math.NaN(), 0.8); err == nil {
		t.Fatal("NaN tolerance bound accepted")
	}
	// Reversed and out-of-range bounds are swapped/clamped, never emitted.
	if err := cat.Recluster(ks, 1.7, -0.3); err != nil {
		t.Fatal(err)
	}
	for i, c := range cat.Categories() {
		if c.Tolerance < 0 || c.Tolerance > 1 || math.IsNaN(c.Tolerance) {
			t.Fatalf("category %d tolerance = %v, want within [0, 1]", i, c.Tolerance)
		}
	}
}

func TestReclusterCanonicalContentionOrder(t *testing.T) {
	ks := NewKeyStats()
	populateBimodal(ks, 25, 25)
	cat, _ := NewCategorizer(2, 11)
	if err := cat.Recluster(ks, 0.05, 0.8); err != nil {
		t.Fatal(err)
	}
	cats := cat.Categories()
	for i := 1; i < len(cats); i++ {
		if cats[i].Tolerance < cats[i-1].Tolerance {
			t.Fatalf("tolerances not nondecreasing: %v", cats)
		}
	}
	// Category 0 is the write-contended one, so the hot keys live there.
	if got := cat.Assignment()["hot0"]; got != 0 {
		t.Fatalf("hot key in category %d, want the canonical tightest (0)", got)
	}
	if got := cat.Assignment()["cold0"]; got != 1 {
		t.Fatalf("cold key in category %d, want the canonical loosest (1)", got)
	}
}

func TestKeyStatsAddIgnoresDegenerateWeights(t *testing.T) {
	ks := NewKeyStats()
	ks.Add([]byte("big"), 10, 5)
	ks.Add([]byte("small"), 1, 0)
	ks.Add([]byte("junk"), math.NaN(), math.Inf(1)) // ignored
	ks.Add([]byte("junk"), -3, 0)                   // ignored
	if ks.Len() != 2 {
		t.Fatalf("len = %d, want 2 (junk weights ignored)", ks.Len())
	}
	// The merged weights feed clustering: both keys are clusterable.
	cat, _ := NewCategorizer(2, 1)
	if err := cat.Recluster(ks, 0.1, 0.9); err != nil {
		t.Fatal(err)
	}
	if got := len(cat.Assignment()); got != 2 {
		t.Fatalf("assigned %d keys, want 2", got)
	}
}

// populateBimodal creates two obvious access-pattern populations: hot
// write-contended keys and cold read-only keys.
func populateBimodal(ks *KeyStats, hot, cold int) {
	for i := 0; i < hot; i++ {
		ks.Add([]byte(fmt.Sprintf("hot%d", i)), 50, 50)
	}
	for i := 0; i < cold; i++ {
		ks.Add([]byte(fmt.Sprintf("cold%d", i)), 20, 0)
	}
}

// toleranceOf returns the tolerance of the category key is assigned to,
// failing the test when the last Recluster did not assign it.
func toleranceOf(t *testing.T, cat *Categorizer, key string) float64 {
	t.Helper()
	idx, ok := cat.Assignment()[key]
	if !ok {
		t.Fatalf("key %q not assigned", key)
	}
	return cat.Categories()[idx].Tolerance
}

func TestCategorizerSeparatesHotAndCold(t *testing.T) {
	ks := NewKeyStats()
	populateBimodal(ks, 30, 30)
	cat, err := NewCategorizer(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Recluster(ks, 0.05, 0.8); err != nil {
		t.Fatal(err)
	}
	cats := cat.Categories()
	if len(cats) != 2 {
		t.Fatalf("categories = %d", len(cats))
	}
	// Every hot key must get a tighter tolerance than every cold key.
	hotTol := toleranceOf(t, cat, "hot0")
	coldTol := toleranceOf(t, cat, "cold0")
	if hotTol >= coldTol {
		t.Fatalf("hot tolerance %v not tighter than cold %v", hotTol, coldTol)
	}
	if hotTol != 0.05 || coldTol != 0.8 {
		t.Fatalf("tolerances = %v / %v, want endpoints 0.05 / 0.8", hotTol, coldTol)
	}
	for i := 0; i < 30; i++ {
		if got := toleranceOf(t, cat, fmt.Sprintf("hot%d", i)); got != hotTol {
			t.Fatalf("hot%d tolerance %v", i, got)
		}
		if got := toleranceOf(t, cat, fmt.Sprintf("cold%d", i)); got != coldTol {
			t.Fatalf("cold%d tolerance %v", i, got)
		}
	}
	// Keys never observed get no category.
	if _, ok := cat.Assignment()["never-seen"]; ok {
		t.Fatal("unobserved key was assigned a category")
	}
}

func TestCategorizerDeterministic(t *testing.T) {
	run := func() []Category {
		ks := NewKeyStats()
		populateBimodal(ks, 20, 20)
		cat, _ := NewCategorizer(2, 42)
		if err := cat.Recluster(ks, 0.1, 0.9); err != nil {
			t.Fatal(err)
		}
		return cat.Categories()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic clustering: %+v vs %+v", a, b)
		}
	}
}

func TestCategorizerToleranceBoundsProperty(t *testing.T) {
	if err := quick.Check(func(seed int64, nKeys uint8) bool {
		n := int(nKeys%40) + 4
		ks := NewKeyStats()
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			key := []byte(fmt.Sprintf("k%d", i))
			for j := 0; j < r.Intn(20)+1; j++ {
				if r.Intn(2) == 0 {
					ks.Add(key, 1, 0)
				} else {
					ks.Add(key, 0, 1)
				}
			}
		}
		cat, _ := NewCategorizer(3, seed)
		if err := cat.Recluster(ks, 0.1, 0.7); err != nil {
			return true // not enough distinct keys; fine
		}
		cats := cat.Categories()
		for _, idx := range cat.Assignment() {
			if tol := cats[idx].Tolerance; tol < 0.1-1e-9 || tol > 0.7+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedKMeansSeparatesHotPopulationsUnderHeavyTail is the
// sampler-weighted clustering property: with a heavy tail of cold keys
// whose scattered features would otherwise soak up centroids, the two
// small-but-heavy hot populations must still land in distinct categories
// (they carry the traffic the categories exist to protect), and the
// write-contended one must get the tightest tolerance.
func TestWeightedKMeansSeparatesHotPopulationsUnderHeavyTail(t *testing.T) {
	ks := NewKeyStats()
	// 400 tail keys, ~unit weight, read-mostly features scattered across
	// the low end (write share <= ~0.2, far from the hot populations').
	for i := 0; i < 400; i++ {
		reads := 0.5 + float64(i%7)*0.25
		writes := float64(i%5) * 0.04
		ks.Add([]byte(fmt.Sprintf("tail%04d", i)), reads, writes)
	}
	// Population A: few keys, write-contended, heavy.
	for i := 0; i < 8; i++ {
		ks.Add([]byte(fmt.Sprintf("hotA%02d", i)), 2000, 2000)
	}
	// Population B: few keys, read-mostly but still heavy.
	for i := 0; i < 8; i++ {
		ks.Add([]byte(fmt.Sprintf("hotB%02d", i)), 4500, 500)
	}
	cat, err := NewCategorizer(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Recluster(ks, 0.01, 0.5); err != nil {
		t.Fatal(err)
	}
	assign := cat.Assignment()
	groupOf := func(prefix string, n int) map[int]int {
		out := map[int]int{}
		for i := 0; i < n; i++ {
			out[assign[fmt.Sprintf("%s%02d", prefix, i)]]++
		}
		return out
	}
	aGroups, bGroups := groupOf("hotA", 8), groupOf("hotB", 8)
	if len(aGroups) != 1 || len(bGroups) != 1 {
		t.Fatalf("hot populations fragmented: A=%v B=%v", aGroups, bGroups)
	}
	var aG, bG int
	for g := range aGroups {
		aG = g
	}
	for g := range bGroups {
		bG = g
	}
	if aG == bG {
		t.Fatalf("heavy populations A and B merged into category %d: tail outvoted the traffic", aG)
	}
	// A is the most write-contended population, so canonical contention
	// order must give it category 0, the tightest tolerance.
	if aG != 0 {
		t.Fatalf("write-contended heavy population got category %d, want 0 (tightest)", aG)
	}
	cats := cat.Categories()
	if cats[aG].Tolerance >= cats[bG].Tolerance {
		t.Fatalf("contended category tolerance %.3f not tighter than read-mostly %.3f",
			cats[aG].Tolerance, cats[bG].Tolerance)
	}
	// No tail key may ride in the contended category: that would force
	// quorum reads onto cold data.
	for key, g := range assign {
		if g == aG && len(key) > 4 && key[:4] == "tail" {
			t.Fatalf("tail key %s assigned to the contended category", key)
		}
	}
}
