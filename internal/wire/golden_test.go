package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
)

// TestWireGolden pins the wire format byte for byte. Each digest is a
// SHA-256 over the concatenated Encode output of its messages. Never
// regenerate a digest to make this pass: a mismatch means the codec now
// writes bytes that existing peers, and bitcask records already on disk
// (which are encoded Mutations), would read differently. The digests were
// recorded once for the first format and re-recorded once, with data format
// 2, when vector clocks left Value and WriteResponse and the session token
// became one timestamp: each new row equals the old codec's bytes with
// exactly the clock lists removed and the token written as its watermark
// (the largest counter, as a zig-zag varint). The "samples" row covers
// allSampleMessages as it stood when the digests were recorded; messages
// added there later need a row of their own here.
func TestWireGolden(t *testing.T) {
	negZero := math.Copysign(0, -1)
	big := bytes.Repeat([]byte{0xa5, 0x5a, 0x00, 0xff}, 1<<18) // 1 MiB
	cases := []struct {
		name string
		msgs []Message
		want string
	}{
		{"samples", allSampleMessages(), "602a929d41a3cdc69ea530f3b7c25ee34a18a744185b8f5fd61f2393ef4723db"},
		{"nil-and-empty", []Message{
			ReadRequest{}, ReadRequest{Key: []byte{}},
			WriteRequest{Key: []byte{}, Value: []byte{}},
			WriteResponse{},
			ReplicaReadResp{Value: Value{Data: []byte{}}},
			Mutation{}, Repair{Key: []byte{}},
			StatsResponse{}, StatsResponse{Groups: []GroupCounters{}, KeySamples: []KeySample{{}}},
			GossipSyn{}, GossipSyn{Digests: []GossipEntry{}}, GossipAck{Entries: []GossipEntry{{}}},
			Error{}, Error{Msg: ""},
			GroupUpdate{}, GroupUpdate{Tolerances: []float64{}, Entries: []GroupAssign{{}}},
			TreeRequest{Ranges: []TokenRange{}}, TreeResponse{Trees: []RangeTree{{Leaves: []uint64{}}}},
			RangeSync{}, RangeSync{Leaves: []LeafRef{{}}, Entries: []SyncEntry{{}}},
		}, "c90009b7e705397ef906993f6b43d297d2d8770a47433e56eb01475e4cecc069"},
		{"max-uvarint", []Message{
			ReadRequest{ID: math.MaxUint64, DeadlineMs: math.MaxUint64, Token: math.MaxInt64},
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
		}, "9676ddb97516fd71c4bce057593c7d9a68e5164555d224e6d02fb4bce490ed9e"},
		{"signed-varints", []Message{
			Ping{Sent: -1}, Ping{Sent: math.MinInt64}, Pong{Sent: math.MaxInt64},
			WriteRequest{TsHint: math.MinInt64}, WriteResponse{Timestamp: -1 << 40},
			Mutation{Value: Value{Timestamp: math.MinInt64}},
			Repair{Value: Value{Timestamp: -300}},
		}, "d55a86579baf928c016f1bb166a95d497f896a40b80a97c12492ffcaea81e68a"},
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
		}, "60d3a112246beb0a8f48aceba5f38e21ff31ee53007d31f233ad788bf4c8e1c6"},
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
