package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"harmony/internal/wire"
)

func val(data string, ts int64) wire.Value {
	return wire.Value{Data: []byte(data), Timestamp: ts}
}

func TestApplyGetRoundTrip(t *testing.T) {
	e := NewEngine(Options{})
	applied, err := e.Apply([]byte("k"), val("v1", 10))
	if err != nil || !applied {
		t.Fatalf("apply: %v %v", applied, err)
	}
	got, ok := e.Get([]byte("k"))
	if !ok || string(got.Data) != "v1" || got.Timestamp != 10 {
		t.Fatalf("get = %+v ok=%v", got, ok)
	}
	if _, ok := e.Get([]byte("missing")); ok {
		t.Fatal("missing key found")
	}
}

func TestApplyEmptyKey(t *testing.T) {
	e := NewEngine(Options{})
	if _, err := e.Apply(nil, val("v", 1)); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestLastWriterWins(t *testing.T) {
	e := NewEngine(Options{})
	e.Apply([]byte("k"), val("new", 20))
	applied, _ := e.Apply([]byte("k"), val("old", 10))
	if applied {
		t.Fatal("older write applied over newer")
	}
	got, _ := e.Get([]byte("k"))
	if string(got.Data) != "new" {
		t.Fatalf("got %q, want new", got.Data)
	}
	// Equal timestamps: the version order breaks the tie on the data bytes,
	// and an exact replay changes nothing.
	if applied, _ = e.Apply([]byte("k"), val("abc", 20)); applied {
		t.Fatal("lower-byte tie applied")
	}
	if applied, _ = e.Apply([]byte("k"), val("new", 20)); applied {
		t.Fatal("replay applied")
	}
	if applied, _ = e.Apply([]byte("k"), val("tie", 20)); !applied {
		t.Fatal("higher-byte tie rejected")
	}
}

// TestSiblingConvergence applies the same pair of same-timestamp versions to
// two engines in opposite orders: both must keep the same winner
// byte-for-byte (the anti-entropy convergence requirement) and count one
// sibling each.
func TestSiblingConvergence(t *testing.T) {
	s1, s2 := val("from-a", 7), val("from-b", 7)
	key := []byte("k")
	e1 := NewEngine(Options{Shards: 1})
	e2 := NewEngine(Options{Shards: 1})
	for _, step := range []struct {
		e *Engine
		v wire.Value
	}{{e1, s1}, {e1, s2}, {e2, s2}, {e2, s1}} {
		if _, err := step.e.Apply(key, step.v); err != nil {
			t.Fatal(err)
		}
	}
	v1, ok1 := e1.Get(key)
	v2, ok2 := e2.Get(key)
	if !ok1 || !ok2 {
		t.Fatal("value missing after sibling resolution")
	}
	if string(v1.Data) != "from-b" || string(v2.Data) != "from-b" {
		t.Fatalf("replicas hold %q and %q, want from-b on both", v1.Data, v2.Data)
	}
	if e1.Stats().Siblings != 1 || e2.Stats().Siblings != 1 {
		t.Errorf("sibling counters: e1=%d e2=%d, want 1 and 1",
			e1.Stats().Siblings, e2.Stats().Siblings)
	}
}

// TestApplySiblingsDeterministic pins the apply decision between two
// same-timestamp versions: exactly one of the two arrival orders applies the
// second, and the winner is the same either way — a tombstone over data, then
// the higher data bytes.
func TestApplySiblingsDeterministic(t *testing.T) {
	tomb := wire.Value{Timestamp: 7, Tombstone: true}
	for _, tc := range []struct{ lo, hi wire.Value }{
		{val("x", 7), val("y", 7)},
		{val("y", 7), tomb},
		{wire.Value{Timestamp: 7, Tombstone: true, Data: []byte("a")}, wire.Value{Timestamp: 7, Tombstone: true, Data: []byte("b")}},
	} {
		for _, order := range [][2]wire.Value{{tc.lo, tc.hi}, {tc.hi, tc.lo}} {
			e := NewEngine(Options{})
			if _, err := e.Apply([]byte("k"), order[0]); err != nil {
				t.Fatal(err)
			}
			applied, err := e.Apply([]byte("k"), order[1])
			if err != nil {
				t.Fatal(err)
			}
			if want := order[1].Compare(tc.hi) == 0; applied != want {
				t.Errorf("%+v over %+v: applied=%v, want %v", order[1], order[0], applied, want)
			}
			if got, _ := e.Get([]byte("k")); got.Compare(tc.hi) != 0 {
				t.Errorf("%+v then %+v: engine holds %+v, want %+v", order[0], order[1], got, tc.hi)
			}
		}
	}
}

// TestApplyNewerTimestampWins pins the timestamp half of the apply decision
// against a held version: a strictly newer timestamp applies whatever its
// data, an older one is rejected, and an exact replay changes nothing.
func TestApplyNewerTimestampWins(t *testing.T) {
	for _, tc := range []struct {
		v    wire.Value
		want bool
	}{
		{val("b", 11), true},
		{val("", 11), true},
		{wire.Value{Timestamp: 11, Tombstone: true}, true},
		{val("a", 10), false},
		{val("z", 9), false},
		{wire.Value{Timestamp: 9, Tombstone: true}, false},
	} {
		e := NewEngine(Options{})
		cur := val("a", 10)
		if _, err := e.Apply([]byte("k"), cur); err != nil {
			t.Fatal(err)
		}
		applied, err := e.Apply([]byte("k"), tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if applied != tc.want {
			t.Errorf("%+v over %+v: applied=%v, want %v", tc.v, cur, applied, tc.want)
		}
		want := cur
		if tc.want {
			want = tc.v
		}
		if got, _ := e.Get([]byte("k")); got.Compare(want) != 0 {
			t.Errorf("%+v over %+v: engine holds %+v, want %+v", tc.v, cur, got, want)
		}
	}
}

func TestTombstone(t *testing.T) {
	e := NewEngine(Options{})
	e.Apply([]byte("k"), val("v", 10))
	e.Apply([]byte("k"), wire.Value{Timestamp: 20, Tombstone: true})
	got, ok := e.Get([]byte("k"))
	if !ok || !got.Tombstone {
		t.Fatalf("tombstone not visible: %+v ok=%v", got, ok)
	}
	// A write newer than the tombstone resurrects the key.
	e.Apply([]byte("k"), val("v2", 30))
	got, _ = e.Get([]byte("k"))
	if got.Tombstone || string(got.Data) != "v2" {
		t.Fatalf("resurrect failed: %+v", got)
	}
}

// TestOldVersionInFlushedTableLoses: an older remote version arriving after
// a restart (a replayed hint, a repair stream) must lose against the newer
// version the persistent engine recovered from its log.
func TestOldVersionInFlushedTableLoses(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, persistOpts(dir, 1, 64<<20))
	if _, err := e.Apply([]byte("k"), val("new", 100)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = mustOpen(t, persistOpts(dir, 1, 64<<20))
	defer e.Close()
	applied, err := e.Apply([]byte("k"), val("old", 50))
	if err != nil || applied {
		t.Fatalf("older version over recovered newer one: applied=%v err=%v", applied, err)
	}
	got, _ := e.Get([]byte("k"))
	if string(got.Data) != "new" {
		t.Fatalf("got %q", got.Data)
	}
}

func TestScan(t *testing.T) {
	e := NewEngine(Options{})
	for i := 0; i < 10; i++ {
		e.Apply([]byte(fmt.Sprintf("k%d", i)), val(fmt.Sprintf("v%d", i), int64(i+1)))
	}
	e.Apply([]byte("k3"), wire.Value{Timestamp: 100, Tombstone: true})
	e.Apply([]byte("k5"), val("v5-new", 200))

	var keys []string
	e.Scan([]byte("k2"), []byte("k7"), func(k []byte, v wire.Value) bool {
		keys = append(keys, string(k))
		if string(k) == "k5" && string(v.Data) != "v5-new" {
			t.Fatalf("scan returned stale k5: %q", v.Data)
		}
		return true
	})
	want := []string{"k2", "k4", "k5", "k6"} // k3 tombstoned, k7 excluded
	if len(keys) != len(want) {
		t.Fatalf("scan keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("scan keys = %v, want %v", keys, want)
		}
	}
}

// TestScanMergeMatchesModel pits the sharded scan against a naive model
// over random write/tombstone histories and arbitrary bounds.
func TestScanMergeMatchesModel(t *testing.T) {
	if err := quick.Check(func(seed int64, opsRaw uint8, loRaw, hiRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(Options{})
		model := map[string]wire.Value{}
		ops := int(opsRaw)%120 + 10
		for ts := int64(1); ts <= int64(ops); ts++ {
			k := fmt.Sprintf("k%02d", rng.Intn(25))
			v := wire.Value{Data: []byte(fmt.Sprintf("v%d", ts)), Timestamp: ts, Tombstone: rng.Intn(8) == 0}
			e.Apply([]byte(k), v)
			model[k] = v
		}
		var start, end []byte
		if loRaw%4 != 0 {
			start = []byte(fmt.Sprintf("k%02d", int(loRaw)%25))
		}
		if hiRaw%4 != 0 {
			end = []byte(fmt.Sprintf("k%02d", int(hiRaw)%25))
		}
		// Model answer: live, in-bounds keys in order.
		var want []string
		for k, v := range model {
			if v.Tombstone {
				continue
			}
			if start != nil && k < string(start) {
				continue
			}
			if end != nil && k >= string(end) {
				continue
			}
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		e.Scan(start, end, func(k []byte, v wire.Value) bool {
			got = append(got, string(k))
			if string(v.Data) != string(model[string(k)].Data) {
				t.Errorf("seed %d: key %s has value %q, want %q", seed, k, v.Data, model[string(k)].Data)
				return false
			}
			return true
		})
		if len(got) != len(want) {
			t.Errorf("seed %d: scan keys %v, want %v", seed, got, want)
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("seed %d: scan keys %v, want %v", seed, got, want)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScanEarlyStop(t *testing.T) {
	e := NewEngine(Options{})
	for i := 0; i < 10; i++ {
		e.Apply([]byte(fmt.Sprintf("k%d", i)), val("v", int64(i+1)))
	}
	n := 0
	e.Scan(nil, nil, func([]byte, wire.Value) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("scan visited %d, want 3", n)
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	e := NewEngine(Options{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				k := []byte(fmt.Sprintf("k%d", r.Intn(100)))
				if r.Intn(2) == 0 {
					e.Apply(k, val("v", int64(i)))
				} else {
					e.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestLWWProperty(t *testing.T) {
	// Applying any permutation of timestamped versions yields the max-ts one.
	if err := quick.Check(func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n%20) + 1
		e := NewEngine(Options{})
		maxTS := int64(-1)
		for i := 0; i < count; i++ {
			ts := int64(r.Intn(1000)) + 1
			e.Apply([]byte("k"), val(fmt.Sprintf("v%d", ts), ts))
			if ts > maxTS {
				maxTS = ts
			}
		}
		got, ok := e.Get([]byte("k"))
		return ok && got.Timestamp == maxTS
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsLiveKeys(t *testing.T) {
	e := NewEngine(Options{})
	e.Apply([]byte("a"), val("1", 1))
	e.Apply([]byte("b"), val("2", 2))
	e.Apply([]byte("a"), val("3", 3)) // same key again
	st := e.Stats()
	if st.LiveKeys != 2 {
		t.Fatalf("live keys = %d, want 2", st.LiveKeys)
	}
	if st.Writes != 3 {
		t.Fatalf("writes = %d, want 3", st.Writes)
	}
}

// modelValue draws from a small version space so histories hit every
// arbitration case: a newer or older timestamp, and at equal timestamps a
// tombstone against data, different data, and an exact replay.
func modelValue(rng *rand.Rand) wire.Value {
	v := wire.Value{Data: []byte{byte('a' + rng.Intn(4))}, Timestamp: int64(1 + rng.Intn(8))}
	if rng.Intn(6) == 0 {
		v.Data, v.Tombstone = nil, true
	}
	return v
}

// refNewer is the version order spelled out apart from wire.Value.Compare:
// a newer timestamp wins; at equal timestamps a tombstone beats data, then
// the higher byte string wins; an identical version is not newer.
func refNewer(v, old wire.Value) bool {
	if v.Timestamp != old.Timestamp {
		return v.Timestamp > old.Timestamp
	}
	if v.Tombstone != old.Tombstone {
		return v.Tombstone
	}
	return string(v.Data) > string(old.Data)
}

// TestMemoryEngineMatchesReference pits the in-memory engine against a plain
// map that applies the version order itself, over random histories: Get of
// every key, ScanVersions over random bounds, LiveKeys and Siblings
// (same-timestamp versions with different contents), and the sequence of
// OnReplace calls (accepted mutations only, each with the version it
// displaced).
func TestMemoryEngineMatchesReference(t *testing.T) {
	type replace struct {
		key    string
		old    wire.Value
		hadOld bool
		v      wire.Value
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got, want []replace
		e := NewEngine(Options{Shards: 1 << rng.Intn(4), OnReplace: func(key []byte, old wire.Value, hadOld bool, v wire.Value) {
			got = append(got, replace{string(key), old, hadOld, v})
		}})
		ref := map[string]wire.Value{}
		var siblings uint64
		for range 150 {
			k := fmt.Sprintf("k%02d", rng.Intn(16))
			v := modelValue(rng)
			old, hadOld := ref[k]
			take := !hadOld || refNewer(v, old)
			if hadOld && v.Timestamp == old.Timestamp && (take || refNewer(old, v)) {
				siblings++
			}
			if take {
				ref[k] = v
				want = append(want, replace{k, old, hadOld, v})
			}
			if applied, err := e.Apply([]byte(k), v); err != nil || applied != take {
				t.Fatalf("seed %d: Apply(%s, %+v) = %v, %v; reference took=%v", seed, k, v, applied, err, take)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: OnReplace calls\n got %+v\nwant %+v", seed, got, want)
		}
		for i := range 16 {
			k := fmt.Sprintf("k%02d", i)
			g, gok := e.Get([]byte(k))
			w, wok := ref[k]
			if gok != wok || !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d: Get(%s) = %+v,%v; reference %+v,%v", seed, k, g, gok, w, wok)
			}
		}
		for range 4 {
			var start, end []byte
			if rng.Intn(3) != 0 {
				start = []byte(fmt.Sprintf("k%02d", rng.Intn(17)))
			}
			if rng.Intn(3) != 0 {
				end = []byte(fmt.Sprintf("k%02d", rng.Intn(17)))
			}
			var wantKeys, gotKeys []string
			for k := range ref {
				if (start == nil || k >= string(start)) && (end == nil || k < string(end)) {
					wantKeys = append(wantKeys, k)
				}
			}
			sort.Strings(wantKeys)
			e.ScanVersions(start, end, func(key []byte, v wire.Value) bool {
				gotKeys = append(gotKeys, string(key))
				if !reflect.DeepEqual(v, ref[string(key)]) {
					t.Fatalf("seed %d: ScanVersions row %s = %+v, reference %+v", seed, key, v, ref[string(key)])
				}
				return true
			})
			if !slices.Equal(gotKeys, wantKeys) {
				t.Fatalf("seed %d: ScanVersions[%q,%q) keys %v, reference %v", seed, start, end, gotKeys, wantKeys)
			}
		}
		if st := e.Stats(); st.LiveKeys != len(ref) || st.Siblings != siblings {
			t.Fatalf("seed %d: LiveKeys %d Siblings %d, reference %d and %d", seed, st.LiveKeys, st.Siblings, len(ref), siblings)
		}
	}
}

// TestMemoryEngineZeroAllocs pins the in-memory steady state: an accepted
// overwrite updates the stored box in place, and Stats — called on every
// /metrics scrape — builds nothing.
func TestMemoryEngineZeroAllocs(t *testing.T) {
	e := NewEngine(Options{})
	for i := range 256 {
		e.Apply([]byte(fmt.Sprintf("k%03d", i)), val("payload", 1))
	}
	key, v := []byte("k007"), val("payload", 1)
	if a := testing.AllocsPerRun(200, func() {
		v.Timestamp++
		if applied, _ := e.Apply(key, v); !applied {
			t.Fatal("overwrite rejected")
		}
	}); a != 0 {
		t.Errorf("accepted overwrite allocates %.1f/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { e.Stats() }); a != 0 {
		t.Errorf("Stats allocates %.1f/op, want 0", a)
	}
}

// The engine benchmarks (Apply/Get at 8 goroutines, Scan) live in
// internal/bench/micro — one set of bodies serves `go test -bench`, the
// tracked out/micro.json baseline, and cmd/bench-micro.
