package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
)

// TestWireGolden pins the wire format byte for byte. Each digest is a
// SHA-256 over the concatenated Encode output of its messages, recorded
// once from the codec that wrote the first data dirs and served the first
// peers. Never regenerate a digest to make this pass: a mismatch means the
// codec now writes bytes that existing peers, and bitcask records already
// on disk (which are encoded Mutations), would read differently. The
// "samples" row covers allSampleMessages as it stood when the digests were
// recorded; messages added there later need a row of their own here.
func TestWireGolden(t *testing.T) {
	negZero := math.Copysign(0, -1)
	big := bytes.Repeat([]byte{0xa5, 0x5a, 0x00, 0xff}, 1<<18) // 1 MiB
	cases := []struct {
		name string
		msgs []Message
		want string
	}{
		{"samples", allSampleMessages(), "33061a0bb1dd27357f2e9d79b3640f54113430d8610a3fe153196367f932c92f"},
		{"nil-and-empty", []Message{
			ReadRequest{}, ReadRequest{Key: []byte{}, Token: []ClockEntry{}},
			WriteRequest{Key: []byte{}, Value: []byte{}},
			WriteResponse{Clock: []ClockEntry{}},
			ReplicaReadResp{Value: Value{Data: []byte{}, Clock: []ClockEntry{}}},
			Mutation{}, Repair{Key: []byte{}},
			StatsResponse{}, StatsResponse{Groups: []GroupCounters{}, KeySamples: []KeySample{{}}},
			GossipSyn{}, GossipSyn{Digests: []GossipEntry{}}, GossipAck{Entries: []GossipEntry{{}}},
			Error{}, Error{Msg: ""},
			GroupUpdate{}, GroupUpdate{Tolerances: []float64{}, Entries: []GroupAssign{{}}},
			TreeRequest{Ranges: []TokenRange{}}, TreeResponse{Trees: []RangeTree{{Leaves: []uint64{}}}},
			RangeSync{}, RangeSync{Leaves: []LeafRef{{}}, Entries: []SyncEntry{{}}},
		}, "092fdf60403ffcfab0bf05ca27934a21f113902be36a34c1c522874e7149778d"},
		{"max-uvarint", []Message{
			ReadRequest{ID: math.MaxUint64, DeadlineMs: math.MaxUint64,
				Token: []ClockEntry{{Node: "n", Counter: math.MaxUint64}}},
			MutationAck{ID: math.MaxUint64},
			StatsResponse{ID: math.MaxUint64, Reads: math.MaxUint64, AliveMembers: math.MaxUint64, Epoch: math.MaxUint64,
				Groups: []GroupCounters{{Reads: math.MaxUint64, RepairAgeMs: math.MaxUint64}}},
			GossipAck{From: "x", Entries: []GossipEntry{{Node: "y", Generation: math.MaxUint64, Version: math.MaxUint64}}},
			GroupUpdate{Epoch: math.MaxUint64, Default: math.MaxUint32,
				Entries: []GroupAssign{{Key: []byte("k"), Group: math.MaxUint32}}},
			TreeResponse{ID: math.MaxUint64, Trees: []RangeTree{{
				Range: TokenRange{Start: math.MaxUint64, End: math.MaxUint64}, Root: math.MaxUint64,
				Leaves: []uint64{math.MaxUint64}}}},
			RangeSync{ID: math.MaxUint64, LeafCount: math.MaxUint32,
				Leaves: []LeafRef{{Range: TokenRange{End: math.MaxUint64}, Leaf: math.MaxUint32}}},
		}, "6e3b35baae411947365f012b51ebfc41f92d57423c2728c2b412a3d4577bd851"},
		{"signed-varints", []Message{
			Ping{Sent: -1}, Ping{Sent: math.MinInt64}, Pong{Sent: math.MaxInt64},
			WriteRequest{TsHint: math.MinInt64}, WriteResponse{Timestamp: -1 << 40},
			Mutation{Value: Value{Timestamp: math.MinInt64}},
			Repair{Value: Value{Timestamp: -300}},
		}, "554ec4f25d34593c23f06c6a64605a27e75c5a078a9fe60972f62090a2fab5c6"},
		{"float-weights", []Message{
			StatsResponse{KeySamples: []KeySample{
				{Key: []byte("nan"), Reads: math.NaN(), Writes: negZero},
				{Key: []byte("inf"), Reads: math.Inf(1), Writes: math.Inf(-1)},
			}},
			GroupUpdate{Tolerances: []float64{math.NaN(), negZero, math.SmallestNonzeroFloat64, math.MaxFloat64}},
		}, "56337efa5b264a136ce0fdc574c7ab842520590cd8d6f76be2f7c83229831674"},
		{"1MiB-value", []Message{
			Mutation{ID: 1, Key: []byte("big"), Value: Value{Data: big, Timestamp: 1}},
			WriteRequest{ID: 2, Key: []byte("big"), Value: big},
		}, "1755bbf2a32ec9d4f9fe6c8f87587f5732c2c644c54ee5ec779ab4fc4cae75b9"},
	}
	for _, tc := range cases {
		h := sha256.New()
		for _, m := range tc.msgs {
			b, err := Encode(nil, m)
			if err != nil {
				t.Fatalf("%s: %T: %v", tc.name, m, err)
			}
			h.Write(b)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: wire bytes changed: sha256 %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
