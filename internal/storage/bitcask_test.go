package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"harmony/internal/wire"
)

// persistOpts opens a single-shard persistent engine with small segments so
// rotation, hint files, and compaction all fire inside a short test.
func persistOpts(dir string, shards int, segBytes int64) Options {
	return Options{
		Shards: shards,
		Persist: &PersistOptions{
			Path:              dir,
			FsyncInterval:     time.Hour, // timer never fires; tests sync explicitly
			SegmentBytes:      segBytes,
			maxSealedSegments: 3,
		},
	}
}

func mustOpen(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return e
}

// dump serializes an engine's full version state (tombstones included) to a
// canonical byte string via the wire codec, for byte-identical comparison.
func dump(e *Engine) []byte {
	var out []byte
	e.ScanVersions(nil, nil, func(key []byte, v wire.Value) bool {
		var err error
		out, err = wire.Encode(out, wire.Mutation{Key: key, Value: v})
		if err != nil {
			panic(err)
		}
		return true
	})
	return out
}

// randValue builds a random value; small timestamp ranges force ties and
// rejects, and occasional clocks exercise the sibling tie-break path that
// preads the old record.
func randValue(rng *rand.Rand) wire.Value {
	v := wire.Value{
		Data:      make([]byte, rng.Intn(40)),
		Timestamp: int64(1000 + rng.Intn(200)),
		Tombstone: rng.Intn(10) == 0,
	}
	rng.Read(v.Data)
	if rng.Intn(3) == 0 {
		for i := 0; i <= rng.Intn(2); i++ {
			v.Clock = append(v.Clock, wire.ClockEntry{
				Node:    fmt.Sprintf("n%d", rng.Intn(3)),
				Counter: uint64(1 + rng.Intn(5)),
			})
		}
	}
	return v
}

func TestPersistBasicReopen(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, persistOpts(dir, 4, 64<<20))
	want := map[string]wire.Value{}
	for i := range 200 {
		k := fmt.Sprintf("key-%03d", i)
		v := wire.Value{Data: []byte(fmt.Sprintf("val-%03d", i)), Timestamp: int64(i + 1)}
		if i%17 == 0 {
			v.Tombstone = true
			v.Data = nil
		}
		if ok, err := e.Apply([]byte(k), v); err != nil || !ok {
			t.Fatalf("Apply(%s): ok=%v err=%v", k, ok, err)
		}
		want[k] = v
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	e2 := mustOpen(t, persistOpts(dir, 4, 64<<20))
	defer e2.Close()
	if got := e2.Recovered(); got != len(want) {
		t.Fatalf("Recovered = %d, want %d", got, len(want))
	}
	for k, w := range want {
		g, ok := e2.Get([]byte(k))
		if !ok {
			t.Fatalf("Get(%s): missing after reopen", k)
		}
		if !bytes.Equal(g.Data, w.Data) || g.Timestamp != w.Timestamp || g.Tombstone != w.Tombstone {
			t.Fatalf("Get(%s) = %+v, want %+v", k, g, w)
		}
	}
	// Scan order and tombstone filtering survive recovery.
	var keys []string
	e2.Scan(nil, nil, func(key []byte, v wire.Value) bool {
		keys = append(keys, string(key))
		return true
	})
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan out of order: %q >= %q", keys[i-1], keys[i])
		}
	}
	live := 0
	for _, w := range want {
		if !w.Tombstone {
			live++
		}
	}
	if len(keys) != live {
		t.Fatalf("scan returned %d live keys, want %d", len(keys), live)
	}
}

func TestPersistShardCountPinnedByManifest(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, persistOpts(dir, 4, 64<<20))
	if _, err := e.Apply([]byte("k"), wire.Value{Data: []byte("v"), Timestamp: 1}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Shards; got != 4 {
		t.Fatalf("Shards = %d, want 4", got)
	}
	e.Close()

	// Reopening with a different advisory shard count must adopt the
	// stamped stripe count — key routing depends on it.
	e2 := mustOpen(t, persistOpts(dir, 32, 64<<20))
	defer e2.Close()
	if got := e2.Stats().Shards; got != 4 {
		t.Fatalf("reopened Shards = %d, want pinned 4", got)
	}
	if _, ok := e2.Get([]byte("k")); !ok {
		t.Fatal("key lost after reopen with different Shards option")
	}
}

// TestPersistCrashRecoveryProperty is the mid-write-kill property test:
// random mutation histories against a single-shard persistent engine, a
// simulated crash that truncates the active log at a random byte offset
// (the half-written tail record a kill -9 leaves), recovery, and a
// byte-identical comparison against an in-memory reference engine replaying
// exactly the surviving prefix of the history.
func TestPersistCrashRecoveryProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			// Tiny segments force rotations (hint files) and compactions
			// mid-history, so the surviving state spans sealed segments,
			// merged segments, and the truncated tail.
			e := mustOpen(t, persistOpts(dir, 1, 2048))

			type op struct {
				key     string
				v       wire.Value
				applied bool
				segID   uint64
				endOff  int64
			}
			ops := make([]op, 0, 400)
			for i := 0; i < 400; i++ {
				o := op{key: fmt.Sprintf("k%02d", rng.Intn(12)), v: randValue(rng)}
				ok, err := e.Apply([]byte(o.key), o.v)
				if err != nil {
					t.Fatalf("Apply: %v", err)
				}
				o.applied = ok
				s := &e.shards[0]
				s.mu.Lock()
				act := s.disk.segs[len(s.disk.segs)-1]
				o.segID, o.endOff = act.id, act.size
				s.mu.Unlock()
				ops = append(ops, o)
			}
			if err := e.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			// Simulated kill -9 mid-write: truncate the active segment at a
			// random byte offset.
			shardDir := filepath.Join(dir, "shard-000")
			var lastID uint64
			var lastPath string
			ents, err := os.ReadDir(shardDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, de := range ents {
				var id uint64
				if _, err := fmt.Sscanf(de.Name(), "%d.data", &id); err == nil && id > lastID {
					lastID, lastPath = id, filepath.Join(shardDir, de.Name())
				}
			}
			st, err := os.Stat(lastPath)
			if err != nil {
				t.Fatal(err)
			}
			cut := rng.Int63n(st.Size() + 1)
			if err := os.Truncate(lastPath, cut); err != nil {
				t.Fatal(err)
			}

			// The surviving prefix: every accepted op whose record lies in a
			// sealed segment, or at or below the cut in the active one.
			last := -1
			for i, o := range ops {
				if o.applied && (o.segID < lastID || o.endOff <= cut) {
					last = i
				}
			}
			ref := NewEngine(Options{Shards: 1})
			for i := 0; i <= last; i++ {
				if _, err := ref.Apply([]byte(ops[i].key), ops[i].v); err != nil {
					t.Fatalf("ref Apply: %v", err)
				}
			}

			e2 := mustOpen(t, persistOpts(dir, 1, 2048))
			if got, want := dump(e2), dump(ref); !bytes.Equal(got, want) {
				t.Fatalf("recovered state diverges from reference after cut@%d/%d (%d ops survive):\n got %d bytes\nwant %d bytes", cut, st.Size(), last+1, len(got), len(want))
			}

			// The recovered engine keeps working: apply the rest of the
			// history to both and compare again.
			for i := last + 1; i < len(ops); i++ {
				if _, err := e2.Apply([]byte(ops[i].key), ops[i].v); err != nil {
					t.Fatalf("post-recovery Apply: %v", err)
				}
				if _, err := ref.Apply([]byte(ops[i].key), ops[i].v); err != nil {
					t.Fatalf("ref Apply: %v", err)
				}
			}
			if got, want := dump(e2), dump(ref); !bytes.Equal(got, want) {
				t.Fatal("post-recovery writes diverge from reference")
			}
			e2.Close()
		})
	}
}

// TestPersistCorruptRecordTruncates flips one byte mid-log: recovery must
// keep exactly the records before the corrupted one and truncate the rest
// (records carry no resync marker).
func TestPersistCorruptRecordTruncates(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dir := t.TempDir()
	e := mustOpen(t, persistOpts(dir, 1, 64<<20)) // one segment: corruption lands mid-chain

	type op struct {
		key    string
		v      wire.Value
		endOff int64
	}
	var ops []op
	for i := 0; i < 100; i++ {
		o := op{key: fmt.Sprintf("k%02d", i), v: randValue(rng)}
		o.v.Timestamp = int64(i + 1) // strictly increasing: every op accepted
		o.v.Tombstone = false
		if _, err := e.Apply([]byte(o.key), o.v); err != nil {
			t.Fatal(err)
		}
		s := &e.shards[0]
		s.mu.Lock()
		o.endOff = s.disk.segs[0].size
		s.mu.Unlock()
		ops = append(ops, o)
	}
	e.Close()

	path := filepath.Join(dir, "shard-000", "00000001.data")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flip := int64(len(data) / 2)
	data[flip] ^= 0x5a
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	last := -1
	for i, o := range ops {
		if o.endOff <= flip {
			last = i
		}
	}
	ref := NewEngine(Options{Shards: 1})
	for i := 0; i <= last; i++ {
		ref.Apply([]byte(ops[i].key), ops[i].v)
	}
	e2 := mustOpen(t, persistOpts(dir, 1, 64<<20))
	defer e2.Close()
	if got, want := dump(e2), dump(ref); !bytes.Equal(got, want) {
		t.Fatalf("state after corrupt byte @%d diverges from %d-op reference", flip, last+1)
	}
}

func TestPersistHintColdStart(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, persistOpts(dir, 1, 4096))
	want := map[string]string{}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v := fmt.Sprintf("value-%04d-%s", i, "padpadpadpadpadpad")
		if _, err := e.Apply([]byte(k), wire.Value{Data: []byte(v), Timestamp: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if st := e.Stats(); st.DiskSegments < 3 {
		t.Fatalf("want >=3 segments to exercise hints, got %d", st.DiskSegments)
	}
	e.Close()

	e2 := mustOpen(t, persistOpts(dir, 1, 4096))
	defer e2.Close()
	hintLoads := 0
	for i := range e2.shards {
		hintLoads += e2.shards[i].disk.hintLoads
	}
	if hintLoads == 0 {
		t.Fatal("cold start scanned every sealed segment; expected hint files to be used")
	}
	for k, w := range want {
		g, ok := e2.Get([]byte(k))
		if !ok || string(g.Data) != w {
			t.Fatalf("Get(%s) after hint cold start = %q ok=%v, want %q", k, g.Data, ok, w)
		}
	}
}

// TestPersistHintFallback corrupts a hint file; recovery must fall back to
// scanning the data file and still produce correct state.
func TestPersistHintFallback(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, persistOpts(dir, 1, 4096))
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%04d", i)
		e.Apply([]byte(k), wire.Value{Data: bytes.Repeat([]byte("x"), 30), Timestamp: int64(i + 1)})
	}
	e.Close()

	hints, _ := filepath.Glob(filepath.Join(dir, "shard-000", "*.hint"))
	if len(hints) == 0 {
		t.Fatal("no hint files written")
	}
	if err := os.WriteFile(hints[0], []byte("HNT1garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2 := mustOpen(t, persistOpts(dir, 1, 4096))
	defer e2.Close()
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if _, ok := e2.Get([]byte(k)); !ok {
			t.Fatalf("Get(%s) missing after hint fallback", k)
		}
	}
}

func TestPersistCompactionReclaims(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, persistOpts(dir, 1, 2048))
	// Overwrite a small key set heavily: most records die, segments pile
	// up, and the rotation-triggered compaction merges them away.
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("k%02d", i%8)
		if _, err := e.Apply([]byte(k), wire.Value{Data: bytes.Repeat([]byte("v"), 40), Timestamp: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compactions ran")
	}
	// 8 live keys × ~60-byte records: after compaction the log must be far
	// smaller than the ~2000 records written.
	if st.DiskSegments > 5 {
		t.Fatalf("compaction left %d segments", st.DiskSegments)
	}
	e.Close()

	e2 := mustOpen(t, persistOpts(dir, 1, 2048))
	defer e2.Close()
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%02d", i)
		v, ok := e2.Get([]byte(k))
		if !ok {
			t.Fatalf("Get(%s) missing after compaction+reopen", k)
		}
		// The newest overwrite for this key wins.
		wantTS := int64(2000 - 7 + i)
		if v.Timestamp != wantTS {
			t.Fatalf("Get(%s).Timestamp = %d, want %d", k, v.Timestamp, wantTS)
		}
	}
	if got := e2.Recovered(); got != 8 {
		t.Fatalf("Recovered = %d, want 8", got)
	}
}

func TestDataDirLocked(t *testing.T) {
	dir := t.TempDir()
	d1, err := AcquireDataDir(dir)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer d1.Release()
	if _, err := AcquireDataDir(dir); err == nil {
		t.Fatal("second acquire of a locked data dir succeeded")
	}
	// Open must refuse too.
	if _, err := Open(Options{Persist: &PersistOptions{Path: dir}}); err == nil {
		t.Fatal("Open on a locked data dir succeeded")
	}
}

func TestDataDirVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("format=99\nshards=4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := AcquireDataDir(dir); err == nil {
		t.Fatal("acquire of a version-mismatched data dir succeeded")
	}
	if _, err := Open(Options{Persist: &PersistOptions{Path: dir}}); err == nil {
		t.Fatal("Open of a version-mismatched data dir succeeded")
	}
}

// TestPersistGroupCommit runs concurrent writers through group-commit mode
// (every Apply acked on an fsync boundary) and verifies all acked writes
// survive reopen. Run under -race this also exercises the syncer's
// dirty-flag and ticket handoffs.
func TestPersistGroupCommit(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{
		Shards:  4,
		Persist: &PersistOptions{Path: dir}, // FsyncInterval 0 → group commit
	})
	const goroutines, each = 8, 150
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k := fmt.Sprintf("g%d-k%03d", g, i)
				ok, err := e.Apply([]byte(k), wire.Value{Data: []byte(k), Timestamp: int64(i + 1)})
				if err != nil || !ok {
					errs <- fmt.Errorf("Apply(%s): ok=%v err=%v", k, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	e2 := mustOpen(t, Options{Shards: 4, Persist: &PersistOptions{Path: dir}})
	defer e2.Close()
	if got, want := e2.Recovered(), goroutines*each; got != want {
		t.Fatalf("Recovered = %d, want %d", got, want)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < each; i++ {
			k := fmt.Sprintf("g%d-k%03d", g, i)
			if v, ok := e2.Get([]byte(k)); !ok || string(v.Data) != k {
				t.Fatalf("Get(%s) = %q ok=%v after group-commit reopen", k, v.Data, ok)
			}
		}
	}
}

// TestPersistApplyAllocs pins the persistent write hot path: a steady-state
// overwrite must stay at or under 2 allocs/op (the acceptance bar; measured
// 0 — record encode reuses the shard scratch and the keydir entry updates
// in place).
func TestPersistApplyAllocs(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, persistOpts(dir, 1, 1<<30)) // no rotation mid-measurement
	defer e.Close()
	key := []byte("alloc-key")
	v := wire.Value{Data: bytes.Repeat([]byte("p"), 64), Timestamp: 1}
	for i := 0; i < 8; i++ { // warm the scratch and keydir entry
		v.Timestamp++
		if _, err := e.Apply(key, v); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		v.Timestamp++
		if _, err := e.Apply(key, v); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("persistent Apply allocates %.1f/op steady state, want <= 2", avg)
	}
}

// TestPersistSyncAndStats covers the explicit Sync path and the disk gauges.
func TestPersistSyncAndStats(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, persistOpts(dir, 2, 64<<20))
	defer e.Close()
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%03d", i)
		e.Apply([]byte(k), wire.Value{Data: []byte(k), Timestamp: int64(i + 1)})
	}
	// Overwrite half: dead bytes appear.
	for i := 0; i < 25; i++ {
		k := fmt.Sprintf("k%03d", i)
		e.Apply([]byte(k), wire.Value{Data: []byte(k), Timestamp: int64(100 + i)})
	}
	if err := e.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st := e.Stats()
	if st.LiveKeys != 50 {
		t.Fatalf("LiveKeys = %d, want 50", st.LiveKeys)
	}
	if st.DiskBytes == 0 || st.DiskDeadBytes == 0 {
		t.Fatalf("disk gauges empty: %+v", st)
	}
	if st.DiskSegments < 2 {
		t.Fatalf("DiskSegments = %d, want >= shard count", st.DiskSegments)
	}
}

// TestScanReentrancy guards the pooled scan scratch: a scan callback that
// issues nested engine reads (including another scan) must not corrupt the
// outer merge.
func TestScanReentrancy(t *testing.T) {
	e := NewEngine(Options{Shards: 4})
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("k%03d", i)
		e.Apply([]byte(k), wire.Value{Data: []byte(k), Timestamp: int64(i + 1)})
	}
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("k%03d", i)
		e.Apply([]byte(k), wire.Value{Data: []byte(k), Timestamp: int64(100 + i)})
	}
	var outer []string
	e.Scan(nil, nil, func(key []byte, v wire.Value) bool {
		inner := 0
		e.Scan(nil, nil, func([]byte, wire.Value) bool { inner++; return inner < 5 })
		if _, ok := e.Get(key); !ok {
			t.Fatalf("nested Get(%s) missing", key)
		}
		outer = append(outer, string(key))
		return true
	})
	if len(outer) != 64 {
		t.Fatalf("outer scan saw %d keys, want 64", len(outer))
	}
	for i := 1; i < len(outer); i++ {
		if outer[i-1] >= outer[i] {
			t.Fatalf("outer scan out of order at %d: %q >= %q", i, outer[i-1], outer[i])
		}
	}
}

// The keydir byte estimate must grow with inserts, stay flat on plain
// overwrites, track clock growth, and survive reopen; the fsync-batch
// counters must cover every group-committed append.
func TestPersistKeydirBytesAndFsyncStats(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Shards: 2, Persist: &PersistOptions{Path: dir}}) // group commit

	if got := e.Stats().KeydirBytes; got != 0 {
		t.Fatalf("empty keydir bytes = %d", got)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if _, err := e.Apply([]byte(k), wire.Value{Data: []byte("v"), Timestamp: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	afterInsert := st.KeydirBytes
	// 100 entries × (fixed overhead + 8-byte key): at minimum 100 × key
	// bytes, at most a few hundred bytes per entry.
	if afterInsert < 100*8 || afterInsert > 100*512 {
		t.Fatalf("keydir bytes after 100 inserts = %d, implausible", afterInsert)
	}
	if st.Fsyncs == 0 {
		t.Fatalf("no fsync rounds recorded: %+v", st)
	}
	if st.FsyncBatchedOps < 100 {
		t.Fatalf("fsync-batched ops = %d, want >= 100", st.FsyncBatchedOps)
	}

	// Clock-free overwrites relocate records but add no keydir residency.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if _, err := e.Apply([]byte(k), wire.Value{Data: []byte("v2"), Timestamp: int64(1000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().KeydirBytes; got != afterInsert {
		t.Fatalf("keydir bytes after overwrite = %d, want %d", got, afterInsert)
	}

	// A vector clock appearing on a key grows the estimate.
	v := wire.Value{Data: []byte("v3"), Timestamp: 5000,
		Clock: []wire.ClockEntry{{Node: "n1", Counter: 1}, {Node: "n2", Counter: 2}}}
	if _, err := e.Apply([]byte("key-0000"), v); err != nil {
		t.Fatal(err)
	}
	withClock := e.Stats().KeydirBytes
	if withClock <= afterInsert {
		t.Fatalf("keydir bytes with clock = %d, want > %d", withClock, afterInsert)
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := mustOpen(t, Options{Shards: 2, Persist: &PersistOptions{Path: dir}})
	defer e2.Close()
	if got := e2.Stats().KeydirBytes; got != withClock {
		t.Fatalf("keydir bytes after reopen = %d, want %d", got, withClock)
	}
}
