package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func allSampleMessages() []Message {
	return []Message{
		ReadRequest{ID: 1, Key: []byte("k1"), Level: Quorum, Shadow: true},
		ReadRequest{ID: 28, Key: []byte("dk"), Level: One, DeadlineMs: 1500},
		WriteRequest{ID: 29, Key: []byte("wk"), Value: []byte("wv"), Level: Quorum,
			DeadlineMs: 750, TsHint: 1348500000000000000},
		WriteRequest{ID: 30, Key: []byte("wk2"), Delete: true, Level: One, TsHint: -3},
		Error{ID: 31, Code: ErrOverloaded, Msg: "coordinator at capacity"},
		ReadResponse{ID: 2, Found: true, Value: Value{Data: []byte("v"), Timestamp: 12345}, Stale: true, Achieved: Two},
		WriteRequest{ID: 3, Key: []byte("k2"), Value: []byte("payload"), Level: One},
		WriteRequest{ID: 4, Key: []byte("k3"), Delete: true, Level: All},
		WriteResponse{ID: 5, OK: true, Timestamp: -42},
		ReplicaRead{ID: 6, Key: []byte("rk")},
		ReplicaReadResp{ID: 7, Found: false},
		Mutation{ID: 8, Key: []byte("mk"), Value: Value{Data: []byte("mv"), Timestamp: 99, Tombstone: true}, Hint: true},
		MutationAck{ID: 9},
		Repair{Key: []byte("rp"), Value: Value{Data: []byte("rv"), Timestamp: 7}},
		StatsRequest{ID: 10},
		StatsResponse{ID: 11, Reads: 1, Writes: 2, ReplicaOps: 3, BytesRead: 4, BytesWrit: 5, RepairsSent: 6, HintsQueued: 7},
		StatsResponse{ID: 15, Reads: 8, Writes: 9,
			Groups: []GroupCounters{{Reads: 5, Writes: 3, BytesWritten: 4096}, {Reads: 0, Writes: 0}, {Reads: 1 << 40, Writes: 7}}},
		StatsResponse{ID: 16, Reads: 2, Epoch: 9,
			Groups: []GroupCounters{{Reads: 1, Writes: 1, BytesWritten: 100}},
			KeySamples: []KeySample{
				{Key: []byte("hot0"), Reads: 12.5, Writes: 3.25},
				{Key: []byte("cold7"), Reads: 0.125, Writes: 0},
			}},
		Ping{ID: 12, Sent: 1234567890},
		Pong{ID: 13, Sent: -5},
		GossipSyn{From: "node-1", Digests: []GossipEntry{{Node: "node-2", Generation: 3, Version: 9}}},
		GossipAck{From: "node-2", Entries: []GossipEntry{{Node: "node-1", Generation: 1, Version: 2}, {Node: "node-3", Generation: 4, Version: 5}}},
		Error{ID: 14, Code: ErrTimeout, Msg: "replica timeout"},
		GroupUpdate{Epoch: 3, Tolerances: []float64{0.02, 0.4}, Default: 1,
			Entries: []GroupAssign{{Key: []byte("user0000000001"), Group: 0}, {Key: []byte("user0000000002"), Group: 1}}},
		GroupUpdate{Epoch: 1, Tolerances: []float64{0.5}},
		StatsResponse{ID: 17, RepairRows: 1 << 33, RepairAgeMs: 123456, RecoveredRows: 1 << 21,
			AliveMembers: 5,
			Groups:       []GroupCounters{{Reads: 4, RepairRows: 9, RepairAgeMs: 8000}}},
		TreeRequest{ID: 18, Ranges: []TokenRange{{Start: 1, End: 2}, {Start: 1 << 63, End: 5}}},
		TreeRequest{ID: 19},
		TreeResponse{ID: 20, Trees: []RangeTree{
			{Range: TokenRange{Start: 9, End: 1 << 62}, Root: 0xdeadbeef, Leaves: []uint64{1, 0, 1 << 50}},
			{Range: TokenRange{Start: 3, End: 4}, Root: 0},
		}},
		TreeResponse{ID: 21},
		RangeSync{ID: 22, LeafCount: 64,
			Leaves:  []LeafRef{{Range: TokenRange{Start: 7, End: 8}, Leaf: 31}},
			Entries: []SyncEntry{{Key: []byte("sk"), Value: Value{Data: []byte("sv"), Timestamp: 44}}, {Key: []byte("dead"), Value: Value{Timestamp: 45, Tombstone: true}}},
			Reply:   true},
		RangeSync{ID: 23, Done: true},
		ReadRequest{ID: 24, Key: []byte("sk"), Level: Session,
			Token: []ClockEntry{{Node: "n1", Counter: 7}, {Node: "n2", Counter: 1 << 40}}},
		ReadResponse{ID: 25, Found: true, Achieved: Session,
			Value: Value{Data: []byte("sv"), Timestamp: 88, Clock: []ClockEntry{{Node: "n1", Counter: 88}}}},
		WriteResponse{ID: 26, OK: true, Timestamp: 99,
			Clock: []ClockEntry{{Node: "a", Counter: 99}, {Node: "b", Counter: 3}}},
		Mutation{ID: 27, Key: []byte("ck"), Value: Value{Data: []byte("cv"), Timestamp: 5,
			Clock: []ClockEntry{{Node: "n3", Counter: 5}}}},
		Repair{Key: []byte("rp2"), Value: Value{Timestamp: 6, Tombstone: true,
			Clock: []ClockEntry{{Node: "", Counter: 1}, {Node: "n4", Counter: 6}}}},
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	for _, m := range allSampleMessages() {
		b, err := Encode(nil, m)
		if err != nil {
			t.Fatalf("%T encode: %v", m, err)
		}
		got, n, err := Decode(b)
		if err != nil {
			t.Fatalf("%T decode: %v", m, err)
		}
		if n != len(b) {
			t.Fatalf("%T consumed %d of %d bytes", m, n, len(b))
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, m)
		}
	}
}

func TestDecodeTruncatedFrames(t *testing.T) {
	for _, m := range allSampleMessages() {
		b, err := Encode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			_, _, err := Decode(b[:cut])
			if err == nil {
				t.Fatalf("%T: decoding %d/%d bytes succeeded", m, cut, len(b))
			}
		}
	}
}

func TestDecodeGarbageNeverPanics(t *testing.T) {
	if err := quick.Check(func(raw []byte) bool {
		_, _, _ = Decode(raw) // must not panic
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripPropertyReadRequest(t *testing.T) {
	if err := quick.Check(func(id uint64, key []byte, lvl uint8, shadow bool, deadline uint64) bool {
		level := ConsistencyLevel(lvl%5 + 1)
		in := ReadRequest{ID: id, Key: key, Level: level, Shadow: shadow, DeadlineMs: deadline}
		b, err := Encode(nil, in)
		if err != nil {
			return false
		}
		out, _, err := Decode(b)
		if err != nil {
			return false
		}
		got := out.(ReadRequest)
		return got.ID == in.ID && bytes.Equal(got.Key, in.Key) &&
			got.Level == in.Level && got.Shadow == in.Shadow && got.DeadlineMs == in.DeadlineMs
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripPropertyMutation(t *testing.T) {
	if err := quick.Check(func(id uint64, key, data []byte, ts int64, tomb, hint bool) bool {
		in := Mutation{ID: id, Key: key, Value: Value{Data: data, Timestamp: ts, Tombstone: tomb}, Hint: hint}
		b, err := Encode(nil, in)
		if err != nil {
			return false
		}
		out, _, err := Decode(b)
		if err != nil {
			return false
		}
		got := out.(Mutation)
		return got.ID == in.ID && bytes.Equal(got.Key, in.Key) &&
			bytes.Equal(got.Value.Data, in.Value.Data) &&
			got.Value.Timestamp == in.Value.Timestamp &&
			got.Value.Tombstone == in.Value.Tombstone && got.Hint == in.Hint
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripPropertyStatsResponse(t *testing.T) {
	if err := quick.Check(func(id, reads, writes uint64, groups []uint64) bool {
		in := StatsResponse{ID: id, Reads: reads, Writes: writes}
		for i, g := range groups {
			in.Groups = append(in.Groups, GroupCounters{Reads: g, Writes: uint64(i)})
		}
		b, err := Encode(nil, in)
		if err != nil {
			return false
		}
		out, _, err := Decode(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(out, in)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripPropertyStatsResponseEpochSamples(t *testing.T) {
	if err := quick.Check(func(id, epoch uint64, keys [][]byte, reads, writes []float64, bytesW []uint64) bool {
		in := StatsResponse{ID: id, Epoch: epoch}
		for i, k := range keys {
			if len(k) == 0 {
				k = nil // empty keys decode as nil
			}
			ks := KeySample{Key: k}
			if i < len(reads) {
				ks.Reads = reads[i]
			}
			if i < len(writes) {
				ks.Writes = writes[i]
			}
			in.KeySamples = append(in.KeySamples, ks)
		}
		for i, b := range bytesW {
			in.Groups = append(in.Groups, GroupCounters{Reads: uint64(i), Writes: b % 7, BytesWritten: b})
		}
		b, err := Encode(nil, in)
		if err != nil {
			return false
		}
		out, n, err := Decode(b)
		if err != nil || n != len(b) {
			return false
		}
		return reflect.DeepEqual(out, in)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripPropertyGroupUpdate(t *testing.T) {
	if err := quick.Check(func(epoch uint64, tols []float64, def uint32, keys [][]byte, groups []uint32) bool {
		if len(tols) == 0 {
			tols = nil // empty slices decode as nil
		}
		in := GroupUpdate{Epoch: epoch, Tolerances: tols, Default: def}
		for i, k := range keys {
			if len(k) == 0 {
				k = nil // empty keys decode as nil
			}
			e := GroupAssign{Key: k}
			if i < len(groups) {
				e.Group = groups[i]
			}
			in.Entries = append(in.Entries, e)
		}
		b, err := Encode(nil, in)
		if err != nil {
			return false
		}
		out, n, err := Decode(b)
		if err != nil || n != len(b) {
			return false
		}
		return reflect.DeepEqual(out, in)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStreamReaderWriter streams every sample message type, framed by
// Encode, through FrameReader and its shared decode.
func TestStreamReaderWriter(t *testing.T) {
	msgs := allSampleMessages()
	readStream(t, NewFrameReader(bytes.NewReader(encodeAll(t, msgs))), msgs)
}

// chunkReader returns data in tiny chunks to exercise reassembly.
type chunkReader struct {
	data []byte
	r    *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1 + c.r.Intn(3)
	if n > len(c.data) {
		n = len(c.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

func TestStreamReaderFragmented(t *testing.T) {
	msgs := allSampleMessages()
	readStream(t, NewFrameReader(&chunkReader{data: encodeAll(t, msgs), r: rand.New(rand.NewSource(3))}), msgs)
}

// readStream reads want from fr, then expects a clean EOF.
func readStream(t *testing.T, fr *FrameReader, want []Message) {
	t.Helper()
	for i, w := range want {
		got, f, err := fr.Next()
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("msg %d mismatch: %#v vs %#v", i, got, w)
		}
		f.Release()
	}
	if _, _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestBlockFor(t *testing.T) {
	cases := []struct {
		cl   ConsistencyLevel
		rf   int
		want int
	}{
		{One, 5, 1}, {Two, 5, 2}, {Three, 5, 3}, {Quorum, 5, 3}, {All, 5, 5},
		{Quorum, 3, 2}, {All, 3, 3}, {Three, 2, 2}, // clamp to rf
		{Quorum, 1, 1}, {One, 1, 1},
	}
	for _, c := range cases {
		if got := c.cl.BlockFor(c.rf); got != c.want {
			t.Errorf("BlockFor(%v, rf=%d) = %d, want %d", c.cl, c.rf, got, c.want)
		}
	}
}

func TestLevelForCount(t *testing.T) {
	// For RF=5 (the paper's setting): quorum = 3.
	cases := []struct {
		x, rf int
		want  ConsistencyLevel
	}{
		{0, 5, One}, {1, 5, One}, {2, 5, Two}, {3, 5, Quorum},
		{4, 5, All}, {5, 5, All}, {9, 5, All},
		{1, 3, One}, {2, 3, Quorum}, {3, 3, All},
	}
	for _, c := range cases {
		if got := LevelForCount(c.x, c.rf); got != c.want {
			t.Errorf("LevelForCount(%d, rf=%d) = %v, want %v", c.x, c.rf, got, c.want)
		}
	}
}

func TestLevelForCountRoundTripProperty(t *testing.T) {
	// The level chosen for x must block for at least min(x, rf) replicas.
	if err := quick.Check(func(xRaw, rfRaw uint8) bool {
		rf := int(rfRaw%9) + 1
		x := int(xRaw % 12)
		lvl := LevelForCount(x, rf)
		want := x
		if want > rf {
			want = rf
		}
		if want < 1 {
			want = 1
		}
		return lvl.BlockFor(rf) >= want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSize(t *testing.T) {
	for _, m := range allSampleMessages() {
		if Size(m) <= 0 {
			t.Fatalf("%T: non-positive size", m)
		}
	}
}

func TestKindString(t *testing.T) {
	if kindReadRequest.String() != "read-req" {
		t.Fatal("kind name")
	}
	if Kind(200).String() == "" {
		t.Fatal("unknown kind must stringify")
	}
	if One.String() != "ONE" || Quorum.String() != "QUORUM" || All.String() != "ALL" {
		t.Fatal("consistency level names")
	}
}

func BenchmarkEncodeMutation(b *testing.B) {
	// Pre-boxed: the benchmark measures encoding, not interface conversion.
	var m Message = Mutation{ID: 42, Key: bytes.Repeat([]byte("k"), 24), Value: Value{Data: bytes.Repeat([]byte("v"), 1024), Timestamp: 1234567}}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var err error
		buf, err = Encode(buf, m)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeMutation(b *testing.B) {
	m := Mutation{ID: 42, Key: bytes.Repeat([]byte("k"), 24), Value: Value{Data: bytes.Repeat([]byte("v"), 1024), Timestamp: 1234567}}
	buf, err := Encode(nil, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
