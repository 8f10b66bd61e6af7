package micro

import (
	"fmt"
	"testing"
	"time"

	"harmony/internal/obs"
	"harmony/internal/storage"
	"harmony/internal/wire"
)

// Standard harness entry points so `go test -bench` (and bench-smoke) runs
// the same bodies cmd/bench-micro snapshots into out/micro.json.

func BenchmarkEngineApply(b *testing.B)          { EngineApply(b) }
func BenchmarkEngineApplyObserved(b *testing.B)  { EngineApplyObserved(b) }
func BenchmarkEngineGet(b *testing.B)            { EngineGet(b) }
func BenchmarkEngineGetObserved(b *testing.B)    { EngineGetObserved(b) }
func BenchmarkEngineScan(b *testing.B)           { EngineScan(b) }
func BenchmarkPersistApply(b *testing.B)         { PersistApply(b) }
func BenchmarkPersistApplyObserved(b *testing.B) { PersistApplyObserved(b) }
func BenchmarkPersistApplyPipelined(b *testing.B) {
	for _, logs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("%d-log", logs), PersistApplyPipelined(logs))
	}
}
func BenchmarkPersistGet(b *testing.B)              { PersistGet(b) }
func BenchmarkPersistRecover(b *testing.B)          { PersistRecover(b) }
func BenchmarkWireEncode(b *testing.B)              { WireEncode(b) }
func BenchmarkWireDecode(b *testing.B)              { WireDecode(b) }
func BenchmarkWireDecodeShared(b *testing.B)        { WireDecodeShared(b) }
func BenchmarkWireSize(b *testing.B)                { WireSize(b) }
func BenchmarkTransportSerialRPC(b *testing.B)      { TransportSerialRPC(b) }
func BenchmarkTransportPipelinedRPC(b *testing.B)   { TransportPipelinedRPC(b) }
func BenchmarkTransportBatched(b *testing.B)        { TransportBatchedThroughput(b) }
func BenchmarkMerkleWritePath(b *testing.B)         { MerkleWritePath(b) }
func BenchmarkMerkleInvalidateRebuild(b *testing.B) { MerkleInvalidateRebuild(b) }
func BenchmarkRingReplicasForKey(b *testing.B)      { RingReplicasForKey(b) }
func BenchmarkFabricSend(b *testing.B)              { FabricSend(b) }
func BenchmarkSimTimerChurn(b *testing.B)           { SimTimerChurn(b) }
func BenchmarkClusterOps(b *testing.B)              { ClusterOps(b) }

// TestObservedHotPathAllocs pins the acceptance bar for the observability
// layer's overhead on the storage hot paths: with per-level histograms
// recording every operation, the in-memory Apply and Get stay allocation
// free and the durable (group-commit) Apply stays at or under 2 allocs/op.
func TestObservedHotPathAllocs(t *testing.T) {
	hist := obs.NewOpLevelHist()
	payload := []byte("0123456789abcdef0123456789abcdef")
	key := []byte("alloc-key")

	mem := storage.NewEngine(storage.Options{})
	ts := int64(0)
	for i := 0; i < 8; i++ { // steady state: key resident, scratch warm
		ts++
		mem.Apply(key, wire.Value{Data: payload, Timestamp: ts})
	}
	if a := testing.AllocsPerRun(500, func() {
		ts++
		start := time.Now()
		mem.Apply(key, wire.Value{Data: payload, Timestamp: ts})
		hist.Record(obs.OpWrite, wire.One, time.Since(start))
	}); a != 0 {
		t.Errorf("observed in-memory Apply allocates %.1f/op, want 0", a)
	}
	if a := testing.AllocsPerRun(500, func() {
		start := time.Now()
		mem.Get(key)
		hist.Record(obs.OpRead, wire.One, time.Since(start))
	}); a != 0 {
		t.Errorf("observed in-memory Get allocates %.1f/op, want 0", a)
	}

	dur, err := storage.Open(storage.Options{
		Persist: &storage.PersistOptions{Path: t.TempDir(), SegmentBytes: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	dts := int64(0)
	for i := 0; i < 8; i++ {
		dts++
		if _, err := dur.Apply(key, wire.Value{Data: payload, Timestamp: dts}); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(200, func() {
		dts++
		start := time.Now()
		if _, err := dur.Apply(key, wire.Value{Data: payload, Timestamp: dts}); err != nil {
			t.Fatal(err)
		}
		hist.Record(obs.OpWrite, wire.Quorum, time.Since(start))
	}); a > 2 {
		t.Errorf("observed durable Apply allocates %.1f/op, want <= 2", a)
	}
}
