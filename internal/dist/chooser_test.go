package dist

import (
	"sync"
	"testing"
)

func choosersUnderTest(n int64) map[string]KeyChooser {
	return map[string]KeyChooser{
		"uniform": NewUniformChooser(n),
		"zipfian": NewZipfianChooser(n),
	}
}

// TestChoosersStayInRange: every chooser must emit indices in [0, n),
// and a one-key keyspace (or a non-positive size, clamped to one) only 0.
func TestChoosersStayInRange(t *testing.T) {
	for _, n := range []int64{1000, 1, 0} {
		limit := max(n, 1)
		for name, ch := range choosersUnderTest(n) {
			rng := NewRand(7)
			for i := 0; i < 30000; i++ {
				if k := ch.Next(rng); k < 0 || k >= limit {
					t.Fatalf("%s over %d: key %d outside [0,%d)", name, n, k, limit)
				}
			}
		}
	}
}

// TestChoosersDeterministic: same seed, same stream.
func TestChoosersDeterministic(t *testing.T) {
	const n = 500
	for name := range choosersUnderTest(n) {
		a, b := choosersUnderTest(n)[name], choosersUnderTest(n)[name]
		ra, rb := NewRand(11), NewRand(11)
		for i := 0; i < 2000; i++ {
			if ka, kb := a.Next(ra), b.Next(rb); ka != kb {
				t.Fatalf("%s: draw %d differs under same seed: %d vs %d", name, i, ka, kb)
			}
		}
	}
}

// TestZipfianSkew: the YCSB zipfian must concentrate mass on low indices —
// with theta=0.99 the first 10% of a 10k keyspace absorbs well over half
// the draws — while uniform must not.
func TestZipfianSkew(t *testing.T) {
	const n = 10_000
	count := func(ch KeyChooser, seed int64) (inHead int) {
		rng := NewRand(seed)
		for i := 0; i < 50_000; i++ {
			if ch.Next(rng) < n/10 {
				inHead++
			}
		}
		return
	}
	if got := count(NewZipfianChooser(n), 3); got < 30_000 {
		t.Errorf("zipfian head mass = %d/50000, want > 30000", got)
	}
	if got := count(NewUniformChooser(n), 3); got < 4000 || got > 6000 {
		t.Errorf("uniform head mass = %d/50000, want ~5000", got)
	}
}

// TestChoosersConcurrent draws from one chooser on parallel goroutines:
// meaningful under -race (the real-time runtime drives choosers from
// multiple mailbox goroutines, and a chooser takes no lock), and each
// goroutine's stream must match a serial replay of its seed.
func TestChoosersConcurrent(t *testing.T) {
	for name, ch := range choosersUnderTest(1000) {
		name, ch := name, ch
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng, replay := NewRand(seed), NewRand(seed)
					fresh := choosersUnderTest(1000)[name]
					for i := 0; i < 3000; i++ {
						if got, want := ch.Next(rng), fresh.Next(replay); got != want {
							t.Errorf("draw %d under seed %d: %d, serial replay %d", i, seed, got, want)
							return
						}
					}
				}(int64(g))
			}
			wg.Wait()
		})
	}
}
