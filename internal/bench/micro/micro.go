// Package micro is the tracked micro-benchmark suite over the hot paths:
// storage engine Apply/Get/Scan (both the in-memory default and the
// persistent bitcask engine, including crash recovery), wire codec
// Encode/Decode/Size, Merkle write-path maintenance, the simulator substrate
// (placement lookup, the network fabric, scheduler under timer churn), and end-to-end
// simulated-cluster throughput.
//
// The same benchmark bodies run two ways: as ordinary `go test -bench`
// benchmarks (micro_test.go) and through cmd/bench-micro, which executes
// them with testing.Benchmark and emits out/micro.json — the per-PR
// baseline CI uploads and diffs, so a hot-path regression shows up as a
// delta in the next run's log instead of silently compounding.
package micro

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/bench"
	"harmony/internal/faults"
	"harmony/internal/obs"
	"harmony/internal/repair"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/simnet"
	"harmony/internal/storage"
	"harmony/internal/transport"
	"harmony/internal/wire"
	"harmony/internal/ycsb"
)

// goroutines is the concurrency the engine benchmarks drive: the tracked
// baseline pins engine throughput at 8 concurrent workers across PRs.
const goroutines = 8

func keys(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("user%08d", i))
	}
	return out
}

// fan runs fn(worker, i) b.N times split across the worker pool.
func fan(b *testing.B, fn func(w, i int)) {
	var wg sync.WaitGroup
	per := b.N/goroutines + 1
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				fn(w, w*per+i)
			}
		}(w)
	}
	wg.Wait()
}

// EngineApply measures sharded-engine writes: 8 goroutines overwriting a
// 4096-key working set (steady state, allocation-free path). Each worker
// owns the keys congruent to its index (4096 % 8 == 0), so per-key
// timestamps are monotonic and every Apply is an ACCEPTED write — a
// shared key cycle would let the highest-timestamp worker win every key
// once and turn the other workers' operations into cheap LWW rejects.
func EngineApply(b *testing.B) {
	e := storage.NewEngine(storage.Options{})
	ks := keys(4096)
	payload := []byte("0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	fan(b, func(w, i int) {
		e.Apply(ks[(i*goroutines+w)%len(ks)], wire.Value{Data: payload, Timestamp: int64(i + 1)})
	})
}

// EngineGet measures sharded-engine reads: 8 goroutines over a resident
// 4096-key working set.
func EngineGet(b *testing.B) {
	e := storage.NewEngine(storage.Options{})
	ks := keys(4096)
	for i, k := range ks {
		e.Apply(k, wire.Value{Data: []byte("payload-0123456789abcdef"), Timestamp: int64(i + 1)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	fan(b, func(w, i int) {
		e.Get(ks[i%len(ks)])
	})
}

// EngineApplyObserved is EngineApply with the observability tax included:
// every write also records into a per-level latency histogram, exactly as a
// server node with metrics enabled does. The delta against engine/apply-8g
// is the price of observation; the tracked allocs/op pins it at zero.
func EngineApplyObserved(b *testing.B) {
	e := storage.NewEngine(storage.Options{})
	hist := obs.NewOpLevelHist()
	ks := keys(4096)
	payload := []byte("0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	fan(b, func(w, i int) {
		start := time.Now()
		e.Apply(ks[(i*goroutines+w)%len(ks)], wire.Value{Data: payload, Timestamp: int64(i + 1)})
		hist.Record(obs.OpWrite, wire.One, time.Since(start))
	})
}

// EngineGetObserved is EngineGet with per-level histogram recording on every
// read (see EngineApplyObserved).
func EngineGetObserved(b *testing.B) {
	e := storage.NewEngine(storage.Options{})
	hist := obs.NewOpLevelHist()
	ks := keys(4096)
	for i, k := range ks {
		e.Apply(k, wire.Value{Data: []byte("payload-0123456789abcdef"), Timestamp: int64(i + 1)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	fan(b, func(w, i int) {
		start := time.Now()
		e.Get(ks[i%len(ks)])
		hist.Record(obs.OpRead, wire.One, time.Since(start))
	})
}

// EngineScan measures a full ordered scan over 4096 keys spread across the
// engine's shards (gather every shard's rows, sort once).
func EngineScan(b *testing.B) {
	e := storage.NewEngine(storage.Options{})
	ks := keys(4096)
	for i, k := range ks {
		e.Apply(k, wire.Value{Data: []byte("payload-0123456789abcdef"), Timestamp: int64(i + 1)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		e.Scan(nil, nil, func([]byte, wire.Value) bool {
			rows++
			return true
		})
		if rows != len(ks) {
			b.Fatalf("scan saw %d rows, want %d", rows, len(ks))
		}
	}
}

// persistFixture opens a persistent (bitcask) engine over a fresh benchmark
// temp dir. FsyncInterval 0 keeps group commit: every Apply is durable when
// it returns, with the fsync amortized across the concurrent writers.
func persistFixture(b *testing.B) *storage.Engine {
	b.Helper()
	e, err := storage.Open(storage.Options{
		Persist: &storage.PersistOptions{Path: b.TempDir()},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	return e
}

// PersistApply measures durable writes: 8 goroutines overwriting a 4096-key
// working set on the persistent engine, group-commit fsync per round. The
// same key-ownership discipline as EngineApply keeps every Apply accepted.
// The delta against engine/apply-8g is the price of durability; the tracked
// allocs/op pins the steady-state write path at <=2 allocations.
func PersistApply(b *testing.B) {
	e := persistFixture(b)
	ks := keys(4096)
	payload := []byte("0123456789abcdef0123456789abcdef")
	for i, k := range ks {
		e.Apply(k, wire.Value{Data: payload, Timestamp: int64(i + 1)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	fan(b, func(w, i int) {
		e.Apply(ks[(i*goroutines+w)%len(ks)], wire.Value{Data: payload, Timestamp: int64(len(ks) + i + 1)})
	})
}

// pipelineDepth is how many ticketed appends PersistApplyPipelined keeps in
// flight: the mailbox of a busy member, which appends the next mutation
// while the previous ones wait for their fsync round.
const pipelineDepth = 16

// PersistApplyPipelined measures the asynchronous durable write path the way
// a member's mailbox drives it: ONE goroutine that appends with ApplyTicket
// and keeps pipelineDepth appends in flight, waiting for the oldest ticket
// before issuing the next. Every append is durable before the benchmark
// moves past it, so ns/op is the amortized cost of a durable 1 KiB write and
// appends/round is how many of them share one fsync round. logs is the
// number of append logs in the data dir: a round fsyncs each dirty log in
// turn, so with uniform keys the same round costs up to logs fsyncs.
func PersistApplyPipelined(logs int) func(*testing.B) {
	return func(b *testing.B) {
		e, err := storage.Open(storage.Options{
			Shards:  logs,
			Persist: &storage.PersistOptions{Path: b.TempDir()},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		ks := keys(4096)
		payload := make([]byte, 1024)
		for i, k := range ks {
			if _, _, err := e.ApplyTicket(k, wire.Value{Data: payload, Timestamp: int64(i + 1)}); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Sync(); err != nil {
			b.Fatal(err)
		}
		var rounds atomic.Uint64
		e.NotifySynced(func(uint64) { rounds.Add(1) })
		var inflight [pipelineDepth]uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slot := &inflight[i%pipelineDepth]
			if err := e.WaitDurable(*slot); err != nil {
				b.Fatal(err)
			}
			_, *slot, err = e.ApplyTicket(ks[i%len(ks)], wire.Value{Data: payload, Timestamp: int64(len(ks) + i + 1)})
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, t := range inflight {
			if err := e.WaitDurable(t); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if r := rounds.Load(); r > 0 {
			b.ReportMetric(float64(b.N)/float64(r), "appends/round")
		}
	}
}

// PersistApplyObserved is PersistApply with per-level histogram recording on
// every durable write (see EngineApplyObserved). The tracked allocs/op pins
// the observed durable write path at <= 2 allocations.
func PersistApplyObserved(b *testing.B) {
	e := persistFixture(b)
	hist := obs.NewOpLevelHist()
	ks := keys(4096)
	payload := []byte("0123456789abcdef0123456789abcdef")
	for i, k := range ks {
		e.Apply(k, wire.Value{Data: payload, Timestamp: int64(i + 1)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	fan(b, func(w, i int) {
		start := time.Now()
		e.Apply(ks[(i*goroutines+w)%len(ks)], wire.Value{Data: payload, Timestamp: int64(len(ks) + i + 1)})
		hist.Record(obs.OpWrite, wire.Quorum, time.Since(start))
	})
}

// PersistGet measures reads against the persistent engine: a keydir lookup
// plus one pread per hit, 8 goroutines over a resident 4096-key set.
func PersistGet(b *testing.B) {
	e := persistFixture(b)
	ks := keys(4096)
	for i, k := range ks {
		e.Apply(k, wire.Value{Data: []byte("payload-0123456789abcdef"), Timestamp: int64(i + 1)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	fan(b, func(w, i int) {
		e.Get(ks[i%len(ks)])
	})
}

// PersistRecover measures crash-recovery speed: reopening a 4096-row data
// dir and rebuilding the in-memory index (hint files plus tail replay). The
// per-row rebuild cost rides in wall_ns/op; the raw ns/op column is one full
// reopen.
func PersistRecover(b *testing.B) {
	const rows = 4096
	dir := b.TempDir()
	e, err := storage.Open(storage.Options{Persist: &storage.PersistOptions{Path: dir}})
	if err != nil {
		b.Fatal(err)
	}
	ks := keys(rows)
	for i, k := range ks {
		e.Apply(k, wire.Value{Data: []byte("payload-0123456789abcdef"), Timestamp: int64(i + 1)})
	}
	if err := e.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		re, err := storage.Open(storage.Options{Persist: &storage.PersistOptions{Path: dir}})
		if err != nil {
			b.Fatal(err)
		}
		if got := re.Recovered(); got != rows {
			b.Fatalf("recovered %d rows, want %d", got, rows)
		}
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*rows), "wall_ns/op")
}

func benchMutation() wire.Message {
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte('a' + i%26)
	}
	return wire.Mutation{ID: 42, Key: []byte("user00001234/column/value-x"), Value: wire.Value{Data: data, Timestamp: 1234567}}
}

// WireEncode measures zero-copy frame encoding of a 1 KiB mutation into a
// reused buffer.
func WireEncode(b *testing.B) {
	m := benchMutation()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = wire.Encode(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// WireDecode measures the copying decode of the same frame.
func WireDecode(b *testing.B) {
	buf, err := wire.Encode(nil, benchMutation())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wire.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// WireDecodeShared measures the borrow-mode decode (fields alias the input).
func WireDecodeShared(b *testing.B) {
	buf, err := wire.Encode(nil, benchMutation())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wire.DecodeShared(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// WireSize measures the pure-computation frame sizing the simulated fabric
// calls on every send.
func WireSize(b *testing.B) {
	m := benchMutation()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if wire.Size(m) == 0 {
			b.Fatal("zero size")
		}
	}
}

// merkleFixture is an engine + cache pair with the production wiring
// (accepted mutations fold into the tree in place) over one full-ring arc,
// pre-seeded and with the tree built.
func merkleFixture(b *testing.B, seedRows int) (*storage.Engine, *repair.TreeCache, []wire.TokenRange) {
	b.Helper()
	full := []wire.TokenRange{{Start: 0, End: 0}}
	var c *repair.TreeCache
	e := storage.NewEngine(storage.Options{
		OnReplace: func(key []byte, old wire.Value, hadOld bool, v wire.Value) {
			c.Update(key, old, hadOld, v)
		},
	})
	c = repair.NewTreeCache(e, full, 8)
	for i := 0; i < seedRows; i++ {
		e.Apply([]byte(fmt.Sprintf("user%08d", i)), wire.Value{Data: []byte("0123456789abcdef"), Timestamp: int64(i + 1)})
	}
	c.Trees(full)
	return e, c, full
}

// MerkleWritePath measures the per-mutation cost of keeping Merkle trees
// current on the write path — apply + in-place leaf update + a session-start
// Trees call, against a 4096-row arc. Before incremental maintenance each
// iteration paid a full-arc rebuild scan here.
func MerkleWritePath(b *testing.B) {
	e, c, full := merkleFixture(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("user%08d", i%4096))
		e.Apply(k, wire.Value{Data: []byte("0123456789abcdef"), Timestamp: int64(4096 + i + 1)})
		c.Trees(full) // session start: must not rebuild
	}
	b.StopTimer()
	if _, scans := c.Builds(); scans != 1 {
		b.Fatalf("write path rebuilt trees: %d scans", scans)
	}
}

// MerkleInvalidateRebuild measures the conservative fallback for contrast:
// every mutation invalidates its arc and the next Trees call pays the
// full-arc engine scan.
func MerkleInvalidateRebuild(b *testing.B) {
	e, c, full := merkleFixture(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("user%08d", i%4096))
		e.Apply(k, wire.Value{Data: []byte("0123456789abcdef"), Timestamp: int64(4096 + i + 1)})
		c.Invalidate(k)
		c.Trees(full) // pays the O(arc) rebuild
	}
}

// RingReplicasForKey measures the placement lookup every coordinated
// operation and every loaded key pays, on 20 nodes x 32 vnodes under
// NetworkTopologyStrategy RF 5: a hash, a binary search and an index into the
// ring's placement table (built once, outside the timer), no allocation.
func RingReplicasForKey(b *testing.B) {
	var nodes []ring.NodeInfo
	for i := 0; i < 20; i++ {
		nodes = append(nodes, ring.NodeInfo{ID: ring.NodeID(fmt.Sprintf("n%d", i)), DC: "dc1", Rack: fmt.Sprintf("r%d", i%4)})
	}
	topo, err := ring.NewTopology(nodes)
	if err != nil {
		b.Fatal(err)
	}
	r, err := ring.Build(topo, 32)
	if err != nil {
		b.Fatal(err)
	}
	s := ring.NetworkTopologyStrategy{RF: 5}
	ks := keys(1024)
	ring.ReplicasForKey(r, s, ks[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ring.ReplicasForKey(r, s, ks[i&1023])) != 5 {
			b.Fatal("short replica set")
		}
	}
}

// FabricSend measures the simulated network's per-message cost on the
// 20-node Grid'5000 topology: one Bus.Send over a fixed mix of node, client
// and colocated-monitor pairs (the fault plane's link lookup, the latency
// class and the jitter draw) plus the delivery event it schedules.
func FabricSend(b *testing.B) {
	var infos []ring.NodeInfo
	for r := 1; r <= 4; r++ {
		for i := 1; i <= 5; i++ {
			infos = append(infos, ring.NodeInfo{ID: ring.NodeID(fmt.Sprintf("dc1-r%d-n%d", r, i)), DC: "dc1", Rack: fmt.Sprintf("r%d", r)})
		}
	}
	topo, err := ring.NewTopology(infos)
	if err != nil {
		b.Fatal(err)
	}
	s := sim.New(1)
	net := simnet.New(topo, simnet.Grid5000Profile(), s.NewStream())
	bus := transport.NewBus(net, faults.New(s, 1, topo.Nodes()))
	sink := new(delivered)
	nodes := topo.Nodes()
	ends := append([]ring.NodeID{"monitor"}, nodes...)
	net.Colocate("monitor", nodes[0])
	for c := 0; c < 40; c++ {
		ends = append(ends, ring.NodeID(fmt.Sprintf("client-%d", c)))
	}
	for _, id := range ends {
		bus.Register(id, s, sink)
	}
	rng := s.NewStream()
	var pairs [1024][2]ring.NodeID
	for i := range pairs {
		pairs[i] = [2]ring.NodeID{ends[rng.Intn(len(ends))], nodes[rng.Intn(len(nodes))]}
		if i%2 == 1 {
			pairs[i][0], pairs[i][1] = pairs[i][1], pairs[i][0]
		}
	}
	var m wire.Message = wire.MutationAck{ID: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		bus.Send(p[0], p[1], m)
		if i&63 == 63 {
			if err := s.RunUntilIdle(1 << 10); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// delivered counts the messages a fabric hands it.
type delivered int

func (d *delivered) Deliver(ring.NodeID, wire.Message) { *d++ }

// SimTimerChurn is the scheduler's real diet: a few hundred messages in
// flight, and every one that lands arms a 5 s timeout, sends the next message
// and cancels the timeout armed one hop earlier. Almost no timeout ever
// fires, so the queue must stay the size of the live set; a scheduler that
// parks cancelled timers until their instant would carry five virtual seconds
// of corpses here, and the benchmark fails if the queue outgrows the chains.
func SimTimerChurn(b *testing.B) {
	const chains = 300
	s := sim.New(1)
	rng := s.NewStream()
	n, maxPending := 0, 0
	for c := 0; c < chains; c++ {
		cancel := func() {}
		var hop func()
		hop = func() {
			cancel()
			cancel = s.After(5*time.Second, func() { b.Error("a cancelled timeout fired") })
			if p := s.Pending(); p > maxPending {
				maxPending = p
			}
			if n++; n < b.N {
				s.Schedule(time.Duration(100+rng.Intn(900))*time.Microsecond, hop)
			}
		}
		s.Schedule(time.Duration(rng.Intn(1000))*time.Microsecond, hop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n < b.N && s.Step() {
	}
	b.StopTimer()
	if maxPending > 2*chains {
		b.Fatalf("queue reached %d events for %d chains of one message and one timeout each", maxPending, chains)
	}
}

// ClusterOps measures end-to-end simulated-cluster throughput: YCSB
// Workload A at eventual consistency over the 20-node Grid'5000 scenario —
// wall-clock ns per simulated operation, the substrate cost every
// experiment pays. The per-op cost rides in the wall_ns/op metric (the raw
// ns/op column measures one whole run including the fixed warmup, because
// the operation count — not the iteration count — is what scales with b.N).
func ClusterOps(b *testing.B) {
	// Large fixed floor: one run amortizes cluster construction and keyspace
	// preload to a few percent of the measured window.
	ops := int64(b.N) + 20000
	start := time.Now()
	res, err := bench.RunPolicy(bench.RunSpec{
		Scenario: bench.Grid5000(),
		Policy:   bench.PolicySpec{Kind: bench.PolicyEventual},
		Workload: ycsb.WorkloadA(),
		Threads:  40,
		Ops:      ops,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(ops), "wall_ns/op")
	b.ReportMetric(res.Report.ThroughputOps, "virtual_ops/s")
}
