package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// This file implements the first future-work item of the paper's §VII:
// "provide a mechanism allowing the system to automatically divide data into
// different consistency categories without any human interaction by applying
// clustering techniques. Every category should be given the most appropriate
// consistency level in regard to the data it encloses."
//
// KeyStats accumulates per-key access-pattern features; Categorizer runs
// k-means over the feature space (write intensity and read/write contention)
// and maps each cluster to a tolerable stale-read rate: hot, update-heavy
// keys get tight tolerances (their staleness is visible), read-mostly cold
// keys get loose ones. The regrouping subsystem (internal/grouping) turns
// the categories into the staleness groups the per-group controller serves.

// KeyStats accumulates per-key access counts. It is safe for concurrent
// use.
type KeyStats struct {
	mu   sync.Mutex
	keys map[string]*keyCounters
}

type keyCounters struct {
	reads  float64
	writes float64
}

// NewKeyStats creates an empty tracker.
func NewKeyStats() *KeyStats {
	return &KeyStats{keys: make(map[string]*keyCounters)}
}

// Add merges pre-aggregated weights for key — the hook the regrouping
// subsystem uses to fold per-node samples into one cluster-wide view.
// Non-positive or non-finite weights are ignored.
func (ks *KeyStats) Add(key []byte, reads, writes float64) {
	if !(reads > 0) {
		reads = 0
	}
	if !(writes > 0) {
		writes = 0
	}
	if math.IsInf(reads, 1) || math.IsInf(writes, 1) || reads+writes == 0 {
		return
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	kc, ok := ks.keys[string(key)]
	if !ok {
		kc = &keyCounters{}
		ks.keys[string(key)] = kc
	}
	kc.reads += reads
	kc.writes += writes
}

// Len reports how many keys are currently tracked.
func (ks *KeyStats) Len() int {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return len(ks.keys)
}

// feature is the clustering space: log-scaled write intensity and the write
// share of traffic. Both correlate with how harmful eventual consistency is
// for the key.
type feature struct {
	writeIntensity float64 // log1p(writes)
	writeShare     float64 // writes / (reads+writes)
}

func (ks *KeyStats) features() (keys []string, feats []feature, weights []float64) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	keys = make([]string, 0, len(ks.keys))
	for k, kc := range ks.keys {
		if kc.reads+kc.writes > 0 {
			keys = append(keys, k)
		}
	}
	// Map iteration order is random; sorting keeps clustering (k-means++
	// seeding in particular) deterministic for a given seed.
	sort.Strings(keys)
	feats = make([]feature, 0, len(keys))
	weights = make([]float64, 0, len(keys))
	for _, k := range keys {
		kc := ks.keys[k]
		total := kc.reads + kc.writes
		feats = append(feats, feature{
			writeIntensity: math.Log1p(kc.writes),
			writeShare:     kc.writes / total,
		})
		// Cluster by sampled traffic weight, not key count: a handful of
		// hot keys carries most of the load, and under plain per-key
		// k-means a heavy tail of cold keys outvotes them at larger K —
		// centroids chase the numerous tail and the hot population gets
		// folded into whichever cluster is nearest. Weighting the seeding,
		// the centroid updates, and the cost by traffic makes the clusters
		// partition the LOAD, which is what consistency categories protect.
		weights = append(weights, total)
	}
	return keys, feats, weights
}

// Category is one consistency class produced by clustering.
type Category struct {
	// Tolerance is the category's tolerable stale-read rate.
	Tolerance float64
	// centroid documents the cluster center (write intensity normalized to
	// [0, 1] against the recluster's hottest writer, write share).
	centroid [2]float64
	// keys is the number of member keys at clustering time.
	keys int
}

// Categorizer clusters keys into consistency categories. It is safe for
// concurrent use; Recluster swaps the assignment atomically.
type Categorizer struct {
	k    int
	seed int64

	mu         sync.Mutex
	categories []Category
	assign     map[string]int
}

// NewCategorizer creates a k-category clusterer. seed makes clustering
// deterministic.
func NewCategorizer(k int, seed int64) (*Categorizer, error) {
	if k < 2 {
		return nil, fmt.Errorf("core: need at least 2 categories, got %d", k)
	}
	return &Categorizer{
		k:      k,
		seed:   seed,
		assign: make(map[string]int),
	}, nil
}

// Recluster runs k-means over the current stats and derives category
// tolerances: categories are ranked by how write-contended their centroid
// is, and tolerances are spread evenly from tight (most contended) to loose
// (least contended) within [minTol, maxTol].
//
// The resulting categories are in canonical contention order: category 0 is
// always the most write-contended (tightest tolerance), the last category
// the least contended (loosest). The order is stable across reclusterings
// of a steady workload, which keeps category identities — and therefore the
// regrouping subsystem's epochs — from churning when nothing changed.
//
// Degenerate inputs are guarded rather than fatal: an empty or too-small
// KeyStats returns an error without touching the current assignment, and
// all-identical features collapse into one populated category with finite
// tolerances (never NaN).
func (c *Categorizer) Recluster(ks *KeyStats, minTol, maxTol float64) error {
	if math.IsNaN(minTol) || math.IsNaN(maxTol) {
		return fmt.Errorf("core: tolerance bounds must be numbers, got [%v, %v]", minTol, maxTol)
	}
	minTol, maxTol = clamp01(minTol), clamp01(maxTol)
	if minTol > maxTol {
		minTol, maxTol = maxTol, minTol
	}
	keys, feats, weights := ks.features()
	if len(keys) == 0 {
		return fmt.Errorf("core: no keys observed")
	}
	if len(keys) < c.k {
		return fmt.Errorf("core: %d keys tracked, need >= %d", len(keys), c.k)
	}
	// Normalize write intensity into [0, 1] so the two feature axes carry
	// comparable leverage in the distance metric. Raw log1p(writes) spans
	// ~[0, 10] against writeShare's [0, 1]; unnormalized, extra centroids
	// at K>2 chase the intensity spread WITHIN a hot population instead of
	// separating populations with different read/write character (the warm
	// tier a three-population workload needs).
	maxIntensity := 0.0
	for _, f := range feats {
		if f.writeIntensity > maxIntensity {
			maxIntensity = f.writeIntensity
		}
	}
	if maxIntensity > 0 {
		for i := range feats {
			feats[i].writeIntensity /= maxIntensity
		}
	}
	centroids := c.kmeans(feats, weights)

	// Rank centroids by contention score (write share dominates, intensity
	// breaks ties); most contended gets the tightest tolerance. rankOf
	// remaps raw k-means cluster indices into canonical contention order.
	type ranked struct {
		idx   int
		score float64
	}
	order := make([]ranked, len(centroids))
	for i, ct := range centroids {
		order[i] = ranked{idx: i, score: ct.writeShare*10 + ct.writeIntensity}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].score > order[j].score })
	rankOf := make([]int, len(centroids))
	for rank, r := range order {
		rankOf[r.idx] = rank
	}

	cats := make([]Category, len(centroids))
	for rank, r := range order {
		frac := 0.0
		if len(order) > 1 {
			frac = float64(rank) / float64(len(order)-1)
		}
		ct := centroids[r.idx]
		cats[rank].Tolerance = minTol + frac*(maxTol-minTol)
		cats[rank].centroid = [2]float64{ct.writeIntensity, ct.writeShare}
	}
	assign := make(map[string]int, len(keys))
	for i, f := range feats {
		best := rankOf[nearest(centroids, f)]
		assign[keys[i]] = best
		cats[best].keys++
	}

	c.mu.Lock()
	c.categories = cats
	c.assign = assign
	c.mu.Unlock()
	return nil
}

// kmeans runs several restarts of Lloyd's algorithm and keeps the solution
// with the lowest within-cluster sum of squares. Every Recluster call
// re-seeds the restarts from the same fixed seed, so repeated clusterings
// of a steady workload converge to the same optimum instead of hopping
// between local minima — exactly the stability the epoch-versioned
// regrouping loop needs (a different local optimum would reshuffle group
// membership and force a spurious epoch).
func (c *Categorizer) kmeans(feats []feature, weights []float64) []feature {
	const restarts = 4
	var best []feature
	bestCost := math.Inf(1)
	for r := 0; r < restarts; r++ {
		rng := rand.New(rand.NewSource(c.seed + int64(r)*1_000_003))
		centroids := c.kmeansOnce(feats, weights, rng)
		cost := 0.0
		for i, f := range feats {
			cost += weights[i] * dist2(f, centroids[nearest(centroids, f)])
		}
		if cost < bestCost {
			best, bestCost = centroids, cost
		}
	}
	return best
}

// kmeansOnce is a Lloyd iteration with k-means++-style seeding, with every
// point weighted by its sampled traffic (see KeyStats.features).
func (c *Categorizer) kmeansOnce(feats []feature, weights []float64, rng *rand.Rand) []feature {
	centroids := make([]feature, 0, c.k)
	// Seed the first centroid proportional to weight, like the rest.
	totalW := 0.0
	for _, w := range weights {
		totalW += w
	}
	target := rng.Float64() * totalW
	first := 0
	for i, w := range weights {
		target -= w
		if target <= 0 {
			first = i
			break
		}
	}
	centroids = append(centroids, feats[first])
	for len(centroids) < c.k {
		// Pick the next seed proportional to weight x squared distance.
		dists := make([]float64, len(feats))
		total := 0.0
		for i, f := range feats {
			d := weights[i] * dist2(f, centroids[nearest(centroids, f)])
			dists[i] = d
			total += d
		}
		pick := 0
		if total > 0 {
			target := rng.Float64() * total
			for i, d := range dists {
				target -= d
				if target <= 0 {
					pick = i
					break
				}
			}
		} else {
			pick = rng.Intn(len(feats)) // all points coincide with a centroid
		}
		centroids = append(centroids, feats[pick])
	}
	assign := make([]int, len(feats))
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i, f := range feats {
			best := nearest(centroids, f)
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		var sums [][2]float64 = make([][2]float64, c.k)
		wsum := make([]float64, c.k)
		for i, f := range feats {
			w := weights[i]
			sums[assign[i]][0] += w * f.writeIntensity
			sums[assign[i]][1] += w * f.writeShare
			wsum[assign[i]] += w
		}
		for j := range centroids {
			if wsum[j] == 0 {
				continue // keep the old centroid for empty clusters
			}
			centroids[j] = feature{
				writeIntensity: sums[j][0] / wsum[j],
				writeShare:     sums[j][1] / wsum[j],
			}
		}
		if !changed {
			break
		}
	}
	return centroids
}

func nearest(centroids []feature, f feature) int {
	best, bestD := 0, math.Inf(1)
	for i, ct := range centroids {
		if d := dist2(f, ct); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// shareLeverage weighs the write-share axis in the clustering metric the
// same 10x it carries in the contention ranking: populations are told apart
// by their read/write MIX, while (normalized) write intensity only breaks
// ties within a mix. Without the leverage, a zipfian population's internal
// intensity spread out-distances the share gap between populations, and
// extra centroids at K>2 split the hot set instead of isolating a warm tier.
const shareLeverage = 10

func dist2(a, b feature) float64 {
	dx := a.writeIntensity - b.writeIntensity
	dy := shareLeverage * (a.writeShare - b.writeShare)
	return dx*dx + dy*dy
}

// Categories returns the current category table.
func (c *Categorizer) Categories() []Category {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Category, len(c.categories))
	copy(out, c.categories)
	return out
}

// Assignment returns a copy of the current key→category map (categories in
// canonical contention order, see Recluster). Empty before the first
// successful Recluster.
func (c *Categorizer) Assignment() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.assign))
	for k, g := range c.assign {
		out[k] = g
	}
	return out
}
