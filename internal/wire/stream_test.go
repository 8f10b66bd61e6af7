package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// trickleReader feeds at most n bytes per Read call, exercising short reads
// and frames fragmented across arbitrary boundaries.
type trickleReader struct {
	b []byte
	n int
}

func (t *trickleReader) Read(p []byte) (int, error) {
	if len(t.b) == 0 {
		return 0, io.EOF
	}
	k := t.n
	if k > len(t.b) {
		k = len(t.b)
	}
	if k > len(p) {
		k = len(p)
	}
	copy(p, t.b[:k])
	t.b = t.b[k:]
	return k, nil
}

func streamTestMessages() []Message {
	return []Message{
		ReadRequest{ID: 1, Key: []byte("user0000000001"), Level: Quorum, Shadow: true},
		Mutation{ID: 2, Key: []byte("k2"), Value: Value{Data: bytes.Repeat([]byte{0xab}, 300), Timestamp: 42,
			Clock: []ClockEntry{{Node: "n1", Counter: 7}}}},
		ReplicaRead{ID: 3, Key: []byte("k3")},
		StatsResponse{ID: 4, Reads: 9, Groups: []GroupCounters{{Reads: 1, Writes: 2}},
			KeySamples: []KeySample{{Key: []byte("hot"), Reads: 1.5}}},
		Pong{ID: 5, Sent: 123456},
		RangeSync{ID: 6, LeafCount: 8, Leaves: []LeafRef{{Leaf: 3}},
			Entries: []SyncEntry{{Key: []byte("s"), Value: Value{Data: []byte("v"), Timestamp: 9}}}, Reply: true},
	}
}

func encodeAll(t *testing.T, msgs []Message) []byte {
	t.Helper()
	var buf []byte
	for _, m := range msgs {
		b, err := Encode(buf, m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		buf = b
	}
	return buf
}

func TestFrameReaderRoundTrip(t *testing.T) {
	msgs := streamTestMessages()
	buf := encodeAll(t, msgs)
	fr := NewFrameReader(bytes.NewReader(buf))
	for i, want := range msgs {
		got, f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %#v want %#v", i, got, want)
		}
		f.Release()
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: err=%v, want io.EOF", err)
	}
}

// TestFrameReaderFragmented feeds the same stream a few bytes at a time:
// frame boundaries never align with Read calls, so every prefix and body is
// assembled from short reads.
func TestFrameReaderFragmented(t *testing.T) {
	msgs := streamTestMessages()
	buf := encodeAll(t, msgs)
	for _, chunk := range []int{1, 3, 7} {
		fr := NewFrameReader(&trickleReader{b: buf, n: chunk})
		for i, want := range msgs {
			got, f, err := fr.Next()
			if err != nil {
				t.Fatalf("chunk=%d frame %d: %v", chunk, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("chunk=%d frame %d: got %#v want %#v", chunk, i, got, want)
			}
			f.Release()
		}
		if _, _, err := fr.Next(); err != io.EOF {
			t.Fatalf("chunk=%d after last frame: err=%v, want io.EOF", chunk, err)
		}
	}
}

func TestFrameReaderTruncatedBody(t *testing.T) {
	buf := encodeAll(t, []Message{Mutation{ID: 1, Key: []byte("k"), Value: Value{Data: make([]byte, 100)}}})
	fr := NewFrameReader(bytes.NewReader(buf[:len(buf)-5]))
	if _, _, err := fr.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body: err=%v, want ErrUnexpectedEOF", err)
	}
}

func TestFrameReaderOversizedFrame(t *testing.T) {
	// A prefix claiming more than maxFrame must be rejected before any
	// allocation of that size.
	prefix := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // ~34 GiB uvarint
	fr := NewFrameReader(bytes.NewReader(prefix))
	if _, _, err := fr.Next(); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized frame: err=%v, want errFrameTooLarge", err)
	}
}

// TestFrameReaderZeroCopy proves the decode borrows from the frame buffer:
// flipping a byte of the frame's backing storage must be visible through the
// decoded message's value bytes.
func TestFrameReaderZeroCopy(t *testing.T) {
	val := bytes.Repeat([]byte{0x5a}, 64)
	buf := encodeAll(t, []Message{Mutation{ID: 9, Key: []byte("alias"), Value: Value{Data: val, Timestamp: 1}}})
	fr := NewFrameReader(bytes.NewReader(buf))
	m, f, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	mut := m.(Mutation)
	if !bytes.Equal(mut.Value.Data, val) {
		t.Fatalf("decoded value mismatch")
	}
	// Locate the payload inside the frame and corrupt it there.
	idx := bytes.Index(*f.buf, val)
	if idx < 0 {
		t.Fatalf("payload not found in frame buffer — decode copied?")
	}
	(*f.buf)[idx] ^= 0xff
	if mut.Value.Data[0] == 0x5a {
		t.Fatalf("message did not observe frame mutation — decode copied instead of aliasing")
	}
	f.Release()
}

// TestFrameReaderAllocs pins the acceptance criterion: the receive path
// performs at most one allocation per frame in steady state (boxing the
// decoded message into the Message interface; buffers come from the pool).
// It uses a non-escaping kind — the transport's copy-on-escape promotion
// applies only to messages whose fields outlive delivery.
func TestFrameReaderAllocs(t *testing.T) {
	const frames = 2100
	var msgs []Message
	for i := 0; i < frames; i++ {
		msgs = append(msgs, ReplicaRead{ID: uint64(i), Key: []byte("user0000000042")})
	}
	buf := encodeAll(t, msgs)
	fr := NewFrameReader(bytes.NewReader(buf))
	// Warm the pool and the bufio buffer outside the measurement.
	for i := 0; i < 50; i++ {
		m, f, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if m.(ReplicaRead).ID != uint64(i) {
			t.Fatalf("frame %d: wrong message", i)
		}
		f.Release()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		m, f, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.(ReplicaRead); !ok {
			t.Fatalf("unexpected kind %T", m)
		}
		f.Release()
	})
	if allocs > 1 {
		t.Fatalf("receive path allocates %.2f/frame, want <= 1 (message boxing only)", allocs)
	}
}
