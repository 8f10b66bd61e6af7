package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
)

// TestRoundTripPropertySessionToken drives the session-token-bearing
// messages through encode/decode with randomized timestamps: the watermark
// token on ReadRequest, the stamped timestamp on WriteResponse, and the
// version inside Value. bodySize must agree with the encoding for each (the
// zero-copy framing contract).
func TestRoundTripPropertySessionToken(t *testing.T) {
	if err := quick.Check(func(id uint64, key []byte, ts, token int64, tomb bool) bool {
		if len(key) == 0 {
			key = nil // the codec decodes empty as nil
		}
		for _, in := range []Message{
			ReadRequest{ID: id, Key: key, Level: Session, Token: token},
			WriteResponse{ID: id, OK: true, Timestamp: ts},
			ReadResponse{ID: id, Found: true, Value: Value{Data: key, Timestamp: ts, Tombstone: tomb}},
			Mutation{ID: id, Key: key, Value: Value{Data: key, Timestamp: ts, Tombstone: tomb}},
		} {
			want, err := bodySize(in)
			if err != nil {
				return false
			}
			b, err := Encode(nil, in)
			if err != nil {
				return false
			}
			n, sz := binary.Uvarint(b)
			if sz <= 0 || int(n) != len(b)-sz || int(n) != want {
				return false
			}
			out, used, err := Decode(b)
			if err != nil || used != len(b) {
				return false
			}
			if !reflect.DeepEqual(out, in) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSessionTokenEncodeZeroAllocs pins the session messages to the
// zero-copy path: encoding token-bearing messages into a pre-sized buffer
// must not allocate.
func TestSessionTokenEncodeZeroAllocs(t *testing.T) {
	msgs := []Message{
		ReadRequest{ID: 7, Key: []byte("user00001234"), Level: Session, Token: 1 << 50},
		WriteResponse{ID: 4, OK: true, Timestamp: 99},
		Mutation{ID: 42, Key: bytes.Repeat([]byte("k"), 24),
			Value: Value{Data: bytes.Repeat([]byte("v"), 1024), Timestamp: 1234567}},
		ReadResponse{ID: 9, Found: true, Achieved: Session,
			Value: Value{Data: bytes.Repeat([]byte("p"), 256), Timestamp: 55}},
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
			t.Errorf("%T: Encode with session token allocates %.1f/op, want 0", m, allocs)
		}
	}
}
