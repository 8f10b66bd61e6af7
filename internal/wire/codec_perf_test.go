package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// TestBodySizeMatchesEncoding pins bodySize to the Encode switch: for every
// message kind the declared body size must equal the encoded body exactly,
// or Encode's direct-into-dst framing would corrupt the stream.
func TestBodySizeMatchesEncoding(t *testing.T) {
	for _, m := range allSampleMessages() {
		want, err := bodySize(m)
		if err != nil {
			t.Fatalf("%T: bodySize: %v", m, err)
		}
		b, err := Encode(nil, m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		n, sz := binary.Uvarint(b)
		if sz <= 0 || int(n) != len(b)-sz {
			t.Fatalf("%T: frame header says %d, body is %d bytes", m, n, len(b)-sz)
		}
		if int(n) != want {
			t.Fatalf("%T: bodySize = %d, encoded body = %d", m, want, n)
		}
	}
}

// TestBodySizeProperty drives bodySize vs Encode over randomized field
// contents for the hot-path messages (varint widths vary with magnitude).
func TestBodySizeProperty(t *testing.T) {
	if err := quick.Check(func(id uint64, key, data []byte, ts int64, tomb, hint bool) bool {
		for _, m := range []Message{
			Mutation{ID: id, Key: key, Value: Value{Data: data, Timestamp: ts, Tombstone: tomb}, Hint: hint},
			ReadRequest{ID: id, Key: key, Level: Quorum},
			WriteRequest{ID: id, Key: key, Value: data, Level: One},
			ReplicaReadResp{ID: id, Found: tomb, Value: Value{Data: data, Timestamp: ts}},
			WriteResponse{ID: id, OK: hint, Timestamp: ts},
			StatsResponse{ID: id, Reads: id >> 3, Writes: id >> 7,
				KeySamples: []KeySample{{Key: key, Reads: float64(ts)}}},
		} {
			want, err := bodySize(m)
			if err != nil {
				return false
			}
			b, err := Encode(nil, m)
			if err != nil {
				return false
			}
			n, sz := binary.Uvarint(b)
			if sz <= 0 || int(n) != len(b)-sz || int(n) != want {
				return false
			}
			if Size(m) != len(b) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeZeroAllocs is the double-copy regression gate: encoding into a
// buffer with capacity must not allocate at all (the old codec built a
// scratch buffer and copied it into dst, costing several allocations per
// message).
func TestEncodeZeroAllocs(t *testing.T) {
	msgs := []Message{
		Mutation{ID: 42, Key: bytes.Repeat([]byte("k"), 24), Value: Value{Data: bytes.Repeat([]byte("v"), 1024), Timestamp: 1234567}},
		ReadRequest{ID: 7, Key: []byte("user00001234"), Level: Quorum},
		ReplicaReadResp{ID: 9, Found: true, Value: Value{Data: bytes.Repeat([]byte("p"), 256), Timestamp: 55}},
		MutationAck{ID: 3},
		WriteResponse{ID: 4, OK: true, Timestamp: 99},
	}
	buf := make([]byte, 0, 8192)
	for _, m := range msgs {
		m := m
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			if buf, err = Encode(buf[:0], m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%T: Encode into pre-sized dst allocates %.1f/op, want 0", m, allocs)
		}
	}
}

// TestSizeZeroAllocs: Size runs on every simulated-fabric send, so it must
// not encode (the old implementation serialized the whole message and threw
// it away).
func TestSizeZeroAllocs(t *testing.T) {
	// Pre-boxed so the measurement sees Size itself, not interface boxing.
	var m Message = Mutation{ID: 42, Key: bytes.Repeat([]byte("k"), 24), Value: Value{Data: bytes.Repeat([]byte("v"), 1024), Timestamp: 1234567}}
	allocs := testing.AllocsPerRun(200, func() {
		if Size(m) == 0 {
			t.Fatal("zero size")
		}
	})
	if allocs != 0 {
		t.Errorf("Size allocates %.1f/op, want 0", allocs)
	}
}

// TestDecodeSharedAliases verifies both halves of the borrow contract: the
// decoded message equals the copying decode, and its byte fields alias the
// input buffer (mutating the input mutates the message).
func TestDecodeSharedAliases(t *testing.T) {
	for _, m := range allSampleMessages() {
		b, err := Encode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		shared, n, err := DecodeShared(b)
		if err != nil {
			t.Fatalf("%T: DecodeShared: %v", m, err)
		}
		if n != len(b) {
			t.Fatalf("%T: consumed %d of %d", m, n, len(b))
		}
		if !reflect.DeepEqual(shared, m) {
			t.Fatalf("%T: shared decode mismatch:\n got %#v\nwant %#v", m, shared, m)
		}
	}
	// Aliasing: scribbling on the input must show through the message.
	mut := Mutation{ID: 1, Key: []byte("aliased-key"), Value: Value{Data: []byte("aliased-value"), Timestamp: 5}}
	b, err := Encode(nil, mut)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeShared(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 'X'
	}
	gm := got.(Mutation)
	if string(gm.Key) == "aliased-key" || string(gm.Value.Data) == "aliased-value" {
		t.Fatal("DecodeShared copied fields; expected them to alias the input")
	}
	// And the copying Decode must NOT alias.
	b2, _ := Encode(nil, mut)
	got2, _, err := Decode(b2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b2 {
		b2[i] = 'X'
	}
	g2 := got2.(Mutation)
	if string(g2.Key) != "aliased-key" || string(g2.Value.Data) != "aliased-value" {
		t.Fatal("Decode aliased the input; expected owned copies")
	}
}

// TestDecodeSharedFewerAllocs pins the point of the borrow path: no
// per-field byte copies.
func TestDecodeSharedFewerAllocs(t *testing.T) {
	m := Mutation{ID: 42, Key: bytes.Repeat([]byte("k"), 24), Value: Value{Data: bytes.Repeat([]byte("v"), 1024), Timestamp: 1234567}}
	b, err := Encode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	shared := testing.AllocsPerRun(200, func() {
		if _, _, err := DecodeShared(b); err != nil {
			t.Fatal(err)
		}
	})
	copied := testing.AllocsPerRun(200, func() {
		if _, _, err := Decode(b); err != nil {
			t.Fatal(err)
		}
	})
	if shared >= copied {
		t.Errorf("DecodeShared allocs (%.1f) not below Decode allocs (%.1f)", shared, copied)
	}
	if shared > 1 { // the Message interface box is the only allocation left
		t.Errorf("DecodeShared allocates %.1f/op, want <=1", shared)
	}
}

// TestFramePoolRoundTrip covers the pooled transport-send path.
func TestFramePoolRoundTrip(t *testing.T) {
	m := Mutation{ID: 8, Key: []byte("mk"), Value: Value{Data: []byte("mv"), Timestamp: 99}}
	bp, err := GetFrame(m)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := Decode(*bp)
	if err != nil || n != len(*bp) {
		t.Fatalf("decode pooled frame: %v (n=%d len=%d)", err, n, len(*bp))
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("pooled frame mismatch: %#v", got)
	}
	PutFrame(bp)
	// Reuse must not leak the previous frame's bytes into the next encode.
	bp2, err := GetFrame(MutationAck{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	got2, _, err := Decode(*bp2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got2.(MutationAck); !ok {
		t.Fatalf("pooled reuse decoded %#v", got2)
	}
	PutFrame(bp2)
}

// TestEncodeSizeConcurrentReadOnly shares each sample message between
// goroutines that Size and Encode it and one that reads its slice elements,
// the way a group update fanned out to every node is sized per send while
// receivers already apply it. Size and Encode must only read the message;
// under -race any store into the caller's fields (tolerances, group ids,
// leaf ids, sync-entry values, key-sample rates) is reported.
func TestEncodeSizeConcurrentReadOnly(t *testing.T) {
	for _, m := range allSampleMessages() {
		want, err := Encode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		snapshot, _, err := Decode(want)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf []byte
				var err error
				for i := 0; i < 20; i++ {
					if Size(m) != len(want) {
						t.Errorf("%T: concurrent Size disagrees with Encode", m)
						return
					}
					if buf, err = Encode(buf[:0], m); err != nil || !bytes.Equal(buf, want) {
						t.Errorf("%T: concurrent Encode changed the frame", m)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if !reflect.DeepEqual(m, snapshot) {
					t.Errorf("%T: message changed while being encoded", m)
					return
				}
			}
		}()
		wg.Wait()
	}
}

// TestEncodeFrameSizeLimit covers the one-pass Encode at its bound: a body
// of exactly maxFrame bytes carries the longest prefix (prefixRoom bytes)
// and round-trips, one byte more is rejected with dst returned unchanged.
func TestEncodeFrameSizeLimit(t *testing.T) {
	if uvarintLen(maxFrame) != prefixRoom {
		t.Fatalf("prefixRoom %d, want uvarintLen(maxFrame) = %d", prefixRoom, uvarintLen(maxFrame))
	}
	// A Mutation body is 7 fixed bytes plus the length-prefixed data.
	data := bytes.Repeat([]byte{0xab}, maxFrame-7-prefixRoom)
	dst := []byte("prefix")
	b, err := Encode(dst, Mutation{Value: Value{Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != len(dst)+prefixRoom+maxFrame || !bytes.Equal(b[:len(dst)], dst) {
		t.Fatalf("frame is %d bytes, want %d after the untouched prefix", len(b), len(dst)+prefixRoom+maxFrame)
	}
	got, n, err := Decode(b[len(dst):])
	if err != nil || n != prefixRoom+maxFrame || !bytes.Equal(got.(Mutation).Value.Data, data) {
		t.Fatalf("decode of a maxFrame body: n=%d err=%v", n, err)
	}
	data = append(data, 0xab)
	b, err = Encode(dst, Mutation{Value: Value{Data: data}})
	if !errors.Is(err, errFrameTooLarge) || string(b) != "prefix" {
		t.Fatalf("oversized body: err=%v, dst %q", err, b)
	}
}
