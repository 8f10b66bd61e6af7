package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"harmony/internal/storage"
	"harmony/internal/wire"
)

// versionSet draws the versions one key receives: few timestamps, so equal
// timestamps are common, with tombstones (some carrying data) and exact
// replays of earlier versions.
func versionSet(rng *rand.Rand) []wire.Value {
	var vs []wire.Value
	for range 1 + rng.Intn(6) {
		v := wire.Value{Timestamp: int64(1 + rng.Intn(3))}
		if rng.Intn(4) == 0 {
			v.Tombstone = true
		}
		if !v.Tombstone || rng.Intn(3) == 0 {
			v.Data = []byte{byte('a' + rng.Intn(3))}
		}
		vs = append(vs, v)
		if rng.Intn(3) == 0 {
			vs = append(vs, vs[rng.Intn(len(vs))])
		}
	}
	return vs
}

// orderDump is an engine's ScanVersions output as canonical bytes.
func orderDump(t *testing.T, e *storage.Engine) []byte {
	t.Helper()
	var out []byte
	e.ScanVersions(nil, nil, func(key []byte, v wire.Value) bool {
		var err error
		if out, err = wire.Encode(out, wire.Mutation{Key: key, Value: v}); err != nil {
			t.Fatal(err)
		}
		return true
	})
	return out
}

// TestVersionOrderAcrossPaths pins the one version order across every path
// that ranks versions: random version sets, fed in independent random orders
// to two in-memory engines and two durable engines, leave the same winner
// and byte-identical ScanVersions dumps on all four, also after the durable
// engines reopen from their hint files and log tail; and newest() over the
// same versions as replica responses picks that winner too.
func TestVersionOrderAcrossPaths(t *testing.T) {
	const keys = 6
	hinted := false
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type write struct {
			key []byte
			v   wire.Value
		}
		var writes []write
		sets := make([][]wire.Value, keys)
		for k := range sets {
			sets[k] = versionSet(rng)
			for _, v := range sets[k] {
				writes = append(writes, write{[]byte(fmt.Sprintf("k%d", k)), v})
			}
		}
		open := func(dir string) *storage.Engine {
			// Tiny segments seal (and write hints) every few records; a
			// periodic fsync keeps Apply from waiting on a round.
			e, err := storage.Open(storage.Options{Persist: &storage.PersistOptions{
				Path: dir, SegmentBytes: 96, FsyncInterval: time.Hour}})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		dirs := []string{t.TempDir(), t.TempDir()}
		engines := []*storage.Engine{
			storage.NewEngine(storage.Options{Shards: 1}),
			storage.NewEngine(storage.Options{Shards: 4}),
			open(dirs[0]), open(dirs[1]),
		}
		for _, e := range engines {
			rng.Shuffle(len(writes), func(i, j int) { writes[i], writes[j] = writes[j], writes[i] })
			for _, w := range writes {
				if _, err := e.Apply(w.key, w.v); err != nil {
					t.Fatal(err)
				}
			}
		}
		check := func(stage string) {
			want := orderDump(t, engines[0])
			for i, e := range engines[1:] {
				if got := orderDump(t, e); !bytes.Equal(got, want) {
					t.Fatalf("seed %d %s: engine %d dump differs from engine 0\n got %x\nwant %x", seed, stage, i+1, got, want)
				}
			}
			for k, vs := range sets {
				resps := []wire.ReplicaReadResp{{Found: false}}
				for _, v := range vs {
					resps = append(resps, wire.ReplicaReadResp{Found: true, Value: v})
				}
				rng.Shuffle(len(resps), func(i, j int) { resps[i], resps[j] = resps[j], resps[i] })
				best, found := newest(resps)
				got, ok := engines[0].Get([]byte(fmt.Sprintf("k%d", k)))
				if !found || !ok || best.Compare(got) != 0 {
					t.Fatalf("seed %d %s: key k%d: newest() = %+v, engine holds %+v", seed, stage, k, best, got)
				}
				for _, v := range vs {
					if v.Compare(best) > 0 {
						t.Fatalf("seed %d %s: key k%d: %+v outranks the winner %+v", seed, stage, k, v, best)
					}
				}
			}
		}
		check("applied")
		for i, dir := range dirs {
			if err := engines[2+i].Close(); err != nil {
				t.Fatal(err)
			}
			if h, _ := filepath.Glob(filepath.Join(dir, "shard-*", "*.hint")); len(h) > 0 {
				hinted = true
			}
			engines[2+i] = open(dir)
		}
		check("reopened")
		for _, e := range engines[2:] {
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !hinted {
		t.Fatal("no durable engine sealed a segment: the hint path went untested")
	}
}

// TestVersionOrderSessionCover pins the SESSION cover check on the version
// order: a token is a timestamp watermark, covered by any version stamped at
// or after it (data or tombstone) and by nothing older, and the empty token
// is covered even by a missing key.
func TestVersionOrderSessionCover(t *testing.T) {
	for _, tc := range []struct {
		v     wire.Value
		token int64
		want  bool
	}{
		{wire.Value{}, 0, true},
		{wire.Value{Timestamp: 7, Data: []byte("x")}, 0, true},
		{wire.Value{}, 100, false},
		{wire.Value{Timestamp: 100}, 100, true},
		{wire.Value{Timestamp: 100, Tombstone: true}, 100, true},
		{wire.Value{Timestamp: 120, Data: []byte("x")}, 100, true},
		{wire.Value{Timestamp: 99, Tombstone: true, Data: []byte("x")}, 100, false},
	} {
		if got := covers(tc.v, tc.token); got != tc.want {
			t.Errorf("covers(%+v, %d) = %v, want %v", tc.v, tc.token, got, tc.want)
		}
	}
}
