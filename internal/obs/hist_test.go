package obs

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"harmony/internal/stats"
	"harmony/internal/wire"
)

// Concurrent recording through the stripes must yield exactly the histogram
// a serial recorder would have built: bucketing is deterministic and Merge
// adds bucket counts, so counts, sum, min/max, and every quantile agree.
func TestConcurrentHistMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const goroutines, perG = 8, 2000
	samples := make([][]time.Duration, goroutines)
	for g := range samples {
		samples[g] = make([]time.Duration, perG)
		for i := range samples[g] {
			samples[g][i] = time.Duration(rng.Int63n(int64(2 * time.Second)))
		}
	}

	var ch concurrentHist
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(ds []time.Duration) {
			defer wg.Done()
			for _, d := range ds {
				ch.record(d)
			}
		}(samples[g])
	}
	wg.Wait()

	var serial stats.Histogram
	for _, ds := range samples {
		for _, d := range ds {
			serial.Record(d)
		}
	}

	got := ch.snapshot()
	if got.Count() != serial.Count() {
		t.Fatalf("count = %d, want %d", got.Count(), serial.Count())
	}
	if got.Sum() != serial.Sum() {
		t.Fatalf("sum = %v, want %v", got.Sum(), serial.Sum())
	}
	if got.Min() != serial.Min() || got.Max() != serial.Max() {
		t.Fatalf("min/max = %v/%v, want %v/%v", got.Min(), got.Max(), serial.Min(), serial.Max())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1.0} {
		if g, w := got.Quantile(q), serial.Quantile(q); g != w {
			t.Fatalf("q%.2f = %v, want %v", q, g, w)
		}
	}
}

func TestConcurrentHistReset(t *testing.T) {
	var ch concurrentHist
	ch.record(time.Millisecond)
	ch.reset()
	if h := ch.snapshot(); h.Count() != 0 {
		t.Fatalf("count after reset = %d", h.Count())
	}
}

// The hot-path contract: recording allocates nothing, including through the
// op × level dispatch.
func TestRecordZeroAlloc(t *testing.T) {
	var ch concurrentHist
	if a := testing.AllocsPerRun(1000, func() { ch.record(time.Millisecond) }); a != 0 {
		t.Fatalf("concurrentHist.record allocates %v/op", a)
	}
	olh := NewOpLevelHist()
	if a := testing.AllocsPerRun(1000, func() {
		olh.Record(OpRead, wire.Quorum, time.Millisecond)
	}); a != 0 {
		t.Fatalf("OpLevelHist.Record allocates %v/op", a)
	}
}

func TestOpLevelHistNilSafe(t *testing.T) {
	var olh *OpLevelHist
	olh.Record(OpWrite, wire.One, time.Millisecond) // must not panic
	if s := olh.Snapshot(); s != nil {
		t.Fatalf("nil snapshot = %v", s)
	}
}

func TestOpLevelHistSnapshotOrder(t *testing.T) {
	olh := NewOpLevelHist()
	olh.Record(OpWrite, wire.Quorum, 3*time.Millisecond)
	olh.Record(OpRead, wire.Quorum, 2*time.Millisecond)
	olh.Record(OpRead, wire.One, time.Millisecond)
	olh.Record(OpRead, wire.ConsistencyLevel(99), time.Millisecond) // clamps to slot 0

	cells := olh.Snapshot()
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	wantOrder := []struct {
		op    OpKind
		level wire.ConsistencyLevel
	}{
		{OpRead, 0}, {OpRead, wire.One}, {OpRead, wire.Quorum}, {OpWrite, wire.Quorum},
	}
	for i, w := range wantOrder {
		if cells[i].Op != w.op || cells[i].Level != w.level {
			t.Fatalf("cell %d = (%v, %v), want (%v, %v)",
				i, cells[i].Op, cells[i].Level, w.op, w.level)
		}
	}
	if cells[2].Hist.Count() != 1 || cells[2].Hist.Sum() != 2*time.Millisecond {
		t.Fatalf("read/QUORUM cell = %v", cells[2].Hist.String())
	}
}

func BenchmarkConcurrentHistRecord(b *testing.B) {
	var ch concurrentHist
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ch.record(time.Millisecond)
		}
	})
}
