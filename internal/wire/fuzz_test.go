package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to both decoders. They must never panic
// and must agree on the error, the bytes consumed and the message. Any
// message they accept must re-encode to exactly Size(m) bytes, and its
// encoding must be a fixed point: decoding and re-encoding it reproduces it.
// The seed corpus (every sample frame) runs with the ordinary tests; explore
// further with
//
//	go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 20s ./internal/wire
func FuzzDecode(f *testing.F) {
	for _, m := range allSampleMessages() {
		b, err := Encode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, n, err := Decode(b)
		sm, sn, serr := DecodeShared(b)
		if (err == nil) != (serr == nil) || err != nil && err.Error() != serr.Error() {
			t.Fatalf("Decode error %v, DecodeShared error %v", err, serr)
		}
		if n != sn {
			t.Fatalf("Decode consumed %d bytes, DecodeShared %d", n, sn)
		}
		if err != nil {
			return
		}
		enc, err := Encode(nil, m)
		if err != nil {
			t.Fatalf("%T decoded but does not encode: %v", m, err)
		}
		// DeepEqual holds a NaN weight unequal to itself; such messages
		// compare by their encodings, which keep the NaN's bits.
		if !reflect.DeepEqual(m, sm) {
			if senc, _ := Encode(nil, sm); !bytes.Equal(enc, senc) {
				t.Fatalf("decoders disagree:\n  Decode       %#v\n  DecodeShared %#v", m, sm)
			}
		}
		if len(enc) != Size(m) {
			t.Fatalf("%T encodes to %d bytes, Size says %d", m, len(enc), Size(m))
		}
		again, used, err := Decode(enc)
		if err != nil || used != len(enc) {
			t.Fatalf("%T: re-encoding does not decode: %v (%d of %d bytes)", m, err, used, len(enc))
		}
		if enc2, _ := Encode(nil, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("%T: encoding is not a fixed point:\n  %x\n  %x", m, enc, enc2)
		}
	})
}

// TestDecodeRejectsOversizedUint32 hand-builds frames whose uint32 fields
// carry a uvarint of 2^32. Decoding must reject them with ErrMalformed
// rather than wrap the value to group or leaf 0; one below, the same frames
// decode to MaxUint32.
func TestDecodeRejectsOversizedUint32(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	frame := func(kind Kind, parts ...[]byte) []byte {
		body := []byte{byte(kind)}
		for _, p := range parts {
			body = append(body, p...)
		}
		return append(uv(uint64(len(body))), body...)
	}
	tokens := make([]byte, 16) // one TokenRange: two fixed 8-byte words
	cases := []struct {
		field string
		frame func(v uint64) []byte
		got   func(Message) uint32
	}{
		{"GroupUpdate.Default",
			func(v uint64) []byte { return frame(KindGroupUpdate, uv(1), uv(0), uv(v), uv(0)) },
			func(m Message) uint32 { return m.(GroupUpdate).Default }},
		{"GroupAssign.Group",
			func(v uint64) []byte {
				return frame(KindGroupUpdate, uv(1), uv(0), uv(0), uv(1), uv(1), []byte("k"), uv(v))
			},
			func(m Message) uint32 { return m.(GroupUpdate).Entries[0].Group }},
		{"RangeSync.LeafCount",
			func(v uint64) []byte { return frame(KindRangeSync, uv(1), uv(v), uv(0), uv(0), []byte{0, 0}) },
			func(m Message) uint32 { return m.(RangeSync).LeafCount }},
		{"LeafRef.Leaf",
			func(v uint64) []byte {
				return frame(KindRangeSync, uv(1), uv(64), uv(1), tokens, uv(v), uv(0), []byte{0, 0})
			},
			func(m Message) uint32 { return m.(RangeSync).Leaves[0].Leaf }},
	}
	for _, tc := range cases {
		for name, decode := range map[string]func([]byte) (Message, int, error){"Decode": Decode, "DecodeShared": DecodeShared} {
			if m, _, err := decode(tc.frame(1 << 32)); !errors.Is(err, ErrMalformed) {
				t.Errorf("%s: %s of 2^32 returned (%#v, %v), want ErrMalformed", tc.field, name, m, err)
			}
			m, _, err := decode(tc.frame(math.MaxUint32))
			if err != nil {
				t.Fatalf("%s: %s of 2^32-1: %v", tc.field, name, err)
			}
			if got := tc.got(m); got != math.MaxUint32 {
				t.Errorf("%s: %s of 2^32-1 = %d", tc.field, name, got)
			}
		}
	}
}

// TestEmptyGossipListsDecodeNil: gossip digest lists decode an empty list as
// nil, like every other list field.
func TestEmptyGossipListsDecodeNil(t *testing.T) {
	for _, m := range []Message{
		GossipSyn{From: "a", Digests: []GossipEntry{}},
		GossipAck{From: "b", Entries: []GossipEntry{}},
	} {
		b, err := Encode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		switch g := got.(type) {
		case GossipSyn:
			if g.Digests != nil {
				t.Errorf("GossipSyn.Digests = %#v, want nil", g.Digests)
			}
		case GossipAck:
			if g.Entries != nil {
				t.Errorf("GossipAck.Entries = %#v, want nil", g.Entries)
			}
		}
	}
}
