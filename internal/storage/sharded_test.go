package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"harmony/internal/wire"
)

// dumpVersions renders every version (tombstones included) the engine
// holds, in scan order — the byte-identity fingerprint the repair tests use.
func dumpVersions(e *Engine) string {
	var sb strings.Builder
	e.ScanVersions(nil, nil, func(key []byte, v wire.Value) bool {
		fmt.Fprintf(&sb, "%s=%s@%d,%v;", key, v.Data, v.Timestamp, v.Tombstone)
		return true
	})
	return sb.String()
}

// TestShardedScanVersionsMatchesSingleLock drives identical random
// histories (writes, tombstones) into an 8-shard
// engine and a single-shard (single-lock) engine and requires
// byte-identical ScanVersions output, arbitrary bounds included. This is
// the ordering contract anti-entropy Merkle trees are built on.
func TestShardedScanVersionsMatchesSingleLock(t *testing.T) {
	if err := quick.Check(func(seed int64, opsRaw uint8, loRaw, hiRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sharded := NewEngine(Options{Shards: 8})
		single := NewEngine(Options{Shards: 1})
		ops := int(opsRaw)%150 + 10
		for ts := int64(1); ts <= int64(ops); ts++ {
			k := []byte(fmt.Sprintf("k%02d", rng.Intn(30)))
			v := wire.Value{Data: []byte(fmt.Sprintf("v%d", ts)), Timestamp: ts, Tombstone: rng.Intn(8) == 0}
			sharded.Apply(k, v)
			single.Apply(k, v)
		}
		var start, end []byte
		if loRaw%4 != 0 {
			start = []byte(fmt.Sprintf("k%02d", int(loRaw)%30))
		}
		if hiRaw%4 != 0 {
			end = []byte(fmt.Sprintf("k%02d", int(hiRaw)%30))
		}
		collect := func(e *Engine) string {
			var sb strings.Builder
			e.ScanVersions(start, end, func(key []byte, v wire.Value) bool {
				fmt.Fprintf(&sb, "%s=%s@%d,%v;", key, v.Data, v.Timestamp, v.Tombstone)
				return true
			})
			return sb.String()
		}
		got, want := collect(sharded), collect(single)
		if got != want {
			t.Errorf("seed %d: sharded scan\n got %q\nwant %q", seed, got, want)
			return false
		}
		if dumpVersions(sharded) != dumpVersions(single) {
			t.Errorf("seed %d: full dumps differ", seed)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedLookupAcrossShards pins routing: every key written is readable
// back with the newest version regardless of which shard it hashed to.
func TestShardedLookupAcrossShards(t *testing.T) {
	e := NewEngine(Options{Shards: 16})
	const n = 500
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		e.Apply(k, wire.Value{Data: []byte(fmt.Sprintf("v1-%d", i)), Timestamp: int64(i + 1)})
	}
	// Overwrite half with newer versions, attempt stale writes on the rest.
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		if i%2 == 0 {
			e.Apply(k, wire.Value{Data: []byte(fmt.Sprintf("v2-%d", i)), Timestamp: int64(n + i + 1)})
		} else if applied, _ := e.Apply(k, wire.Value{Data: []byte("stale"), Timestamp: 0}); applied {
			t.Fatalf("stale write accepted for %s", k)
		}
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		v, ok := e.Get(k)
		want := fmt.Sprintf("v1-%d", i)
		if i%2 == 0 {
			want = fmt.Sprintf("v2-%d", i)
		}
		if !ok || string(v.Data) != want {
			t.Fatalf("Get(%s) = %q ok=%v, want %q", k, v.Data, ok, want)
		}
	}
	if st := e.Stats(); st.Shards != 16 || st.LiveKeys != n {
		t.Fatalf("stats = %+v", st)
	}
}

// TestShardedConcurrentOps hammers an 8-shard engine from 8 goroutines
// mixing Apply/Get/Scan/Stats; run under -race this is the
// striped-locking safety net.
func TestShardedConcurrentOps(t *testing.T) {
	e := NewEngine(Options{Shards: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 3000; i++ {
				k := []byte(fmt.Sprintf("k%03d", r.Intn(300)))
				switch r.Intn(10) {
				case 2:
					e.Stats()
				case 3:
					count := 0
					e.Scan(nil, []byte("k150"), func(key []byte, v wire.Value) bool {
						count++
						return count < 50
					})
				case 4, 5, 6:
					e.Get(k)
				default:
					e.Apply(k, wire.Value{Data: []byte("payload"), Timestamp: int64(w*10000 + i)})
				}
			}
		}(w)
	}
	wg.Wait()
	// Every surviving row must still be the newest version written for its
	// key (timestamps encode writer/iteration, LWW keeps the max).
	e.Scan(nil, nil, func(key []byte, v wire.Value) bool {
		if v.Tombstone {
			t.Fatalf("unexpected tombstone for %s", key)
		}
		return true
	})
}

// TestShardedOnReplaceHook verifies the displaced-version hook: old carries
// the newest prior version, hadOld is false only for
// first writes, and rejected mutations never fire it.
func TestShardedOnReplaceHook(t *testing.T) {
	type ev struct {
		key    string
		old    int64
		hadOld bool
		new_   int64
	}
	var got []ev
	e := NewEngine(Options{Shards: 4, OnReplace: func(key []byte, old wire.Value, hadOld bool, v wire.Value) {
		got = append(got, ev{string(key), old.Timestamp, hadOld, v.Timestamp})
	}})
	e.Apply([]byte("a"), wire.Value{Data: []byte("1"), Timestamp: 10})
	e.Apply([]byte("a"), wire.Value{Data: []byte("2"), Timestamp: 20})
	e.Apply([]byte("a"), wire.Value{Data: []byte("3"), Timestamp: 30}) // in-place replace
	e.Apply([]byte("a"), wire.Value{Data: []byte("x"), Timestamp: 5})  // rejected: no hook
	want := []ev{{"a", 0, false, 10}, {"a", 10, true, 20}, {"a", 20, true, 30}}
	if len(got) != len(want) {
		t.Fatalf("hook events = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hook event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
