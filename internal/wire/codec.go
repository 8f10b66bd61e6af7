package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Codec errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrTruncated     = errors.New("wire: truncated payload")
	ErrUnknownKind   = errors.New("wire: unknown message kind")
)

// MaxFrame bounds a single encoded message; oversized frames indicate stream
// corruption, not a legitimate payload.
const MaxFrame = 16 << 20

// buffer is a simple append-only writer / cursor reader used by the codec.
// When share is set, rBytes returns subslices of the input instead of
// copies (see DecodeShared).
type buffer struct {
	b     []byte
	off   int
	share bool
}

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// varintLen returns the encoded length of v as a zig-zag varint.
func varintLen(v int64) int {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

func bytesLen(p []byte) int { return uvarintLen(uint64(len(p))) + len(p) }
func strLen(s string) int   { return uvarintLen(uint64(len(s))) + len(s) }

func clockLen(c []ClockEntry) int {
	n := uvarintLen(uint64(len(c)))
	for _, e := range c {
		n += strLen(e.Node) + uvarintLen(e.Counter)
	}
	return n
}

func valueLen(v Value) int {
	return bytesLen(v.Data) + varintLen(v.Timestamp) + 1 + clockLen(v.Clock)
}

func entriesLen(es []GossipEntry) int {
	n := uvarintLen(uint64(len(es)))
	for _, e := range es {
		n += strLen(e.Node) + uvarintLen(e.Generation) + uvarintLen(e.Version)
	}
	return n
}

// bodySize returns the exact encoded length of m's frame body (kind byte +
// payload) without encoding anything. It must mirror the Encode switch
// field-for-field; TestBodySizeMatchesEncoding pins the two together.
func bodySize(m Message) (int, error) {
	switch v := m.(type) {
	case ReadRequest:
		return 1 + uvarintLen(v.ID) + bytesLen(v.Key) + 2 + clockLen(v.Token) + uvarintLen(v.DeadlineMs), nil
	case ReadResponse:
		return 1 + uvarintLen(v.ID) + 1 + valueLen(v.Value) + 2, nil
	case WriteRequest:
		return 1 + uvarintLen(v.ID) + bytesLen(v.Key) + bytesLen(v.Value) + 2 +
			uvarintLen(v.DeadlineMs) + varintLen(v.TsHint), nil
	case WriteResponse:
		return 1 + uvarintLen(v.ID) + 1 + varintLen(v.Timestamp) + clockLen(v.Clock), nil
	case ReplicaRead:
		return 1 + uvarintLen(v.ID) + bytesLen(v.Key), nil
	case ReplicaReadResp:
		return 1 + uvarintLen(v.ID) + 1 + valueLen(v.Value), nil
	case Mutation:
		return 1 + uvarintLen(v.ID) + bytesLen(v.Key) + valueLen(v.Value) + 1, nil
	case MutationAck:
		return 1 + uvarintLen(v.ID), nil
	case Repair:
		return 1 + bytesLen(v.Key) + valueLen(v.Value), nil
	case StatsRequest:
		return 1 + uvarintLen(v.ID), nil
	case StatsResponse:
		n := 1 + uvarintLen(v.ID) + uvarintLen(v.Reads) + uvarintLen(v.Writes) +
			uvarintLen(v.ReplicaOps) + uvarintLen(v.BytesRead) + uvarintLen(v.BytesWrit) +
			uvarintLen(v.RepairsSent) + uvarintLen(v.HintsQueued) +
			uvarintLen(v.RepairRows) + uvarintLen(v.RepairAgeMs) +
			uvarintLen(v.RecoveredRows) + uvarintLen(v.AliveMembers) +
			uvarintLen(uint64(len(v.Groups)))
		for _, g := range v.Groups {
			n += uvarintLen(g.Reads) + uvarintLen(g.Writes) + uvarintLen(g.BytesWritten) +
				uvarintLen(g.RepairRows) + uvarintLen(g.RepairAgeMs)
		}
		n += uvarintLen(v.Epoch) + uvarintLen(uint64(len(v.KeySamples)))
		for _, ks := range v.KeySamples {
			n += bytesLen(ks.Key) + 16
		}
		return n, nil
	case Ping:
		return 1 + uvarintLen(v.ID) + varintLen(v.Sent), nil
	case Pong:
		return 1 + uvarintLen(v.ID) + varintLen(v.Sent), nil
	case GossipSyn:
		return 1 + strLen(v.From) + entriesLen(v.Digests), nil
	case GossipAck:
		return 1 + strLen(v.From) + entriesLen(v.Entries), nil
	case Error:
		return 1 + uvarintLen(v.ID) + 1 + strLen(v.Msg), nil
	case GroupUpdate:
		n := 1 + uvarintLen(v.Epoch) + uvarintLen(uint64(len(v.Tolerances))) +
			8*len(v.Tolerances) + uvarintLen(uint64(v.Default)) +
			uvarintLen(uint64(len(v.Entries)))
		for _, e := range v.Entries {
			n += bytesLen(e.Key) + uvarintLen(uint64(e.Group))
		}
		return n, nil
	case TreeRequest:
		return 1 + uvarintLen(v.ID) + uvarintLen(uint64(len(v.Ranges))) + 16*len(v.Ranges), nil
	case TreeResponse:
		n := 1 + uvarintLen(v.ID) + uvarintLen(uint64(len(v.Trees)))
		for _, t := range v.Trees {
			n += 16 + 8 + uvarintLen(uint64(len(t.Leaves))) + 8*len(t.Leaves)
		}
		return n, nil
	case RangeSync:
		n := 1 + uvarintLen(v.ID) + uvarintLen(uint64(v.LeafCount)) +
			uvarintLen(uint64(len(v.Leaves)))
		for _, l := range v.Leaves {
			n += 16 + uvarintLen(uint64(l.Leaf))
		}
		n += uvarintLen(uint64(len(v.Entries)))
		for _, e := range v.Entries {
			n += bytesLen(e.Key) + valueLen(e.Value)
		}
		return n + 2, nil
	default:
		return 0, fmt.Errorf("%w: %T", ErrUnknownKind, m)
	}
}

func (w *buffer) uvarint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *buffer) varint(v int64) {
	w.b = binary.AppendVarint(w.b, v)
}

func (w *buffer) bytes(p []byte) {
	w.uvarint(uint64(len(p)))
	w.b = append(w.b, p...)
}

func (w *buffer) str(s string) { w.bytes([]byte(s)) }

func (w *buffer) bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

func (w *buffer) byte(v byte) { w.b = append(w.b, v) }

// f64 writes a float64 as fixed 8-byte big-endian IEEE-754 bits (float bits
// are high-entropy, so varint encoding would not help).
func (w *buffer) f64(v float64) {
	w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(v))
}

// u64 writes a fixed 8-byte big-endian word; ring tokens and Merkle hashes
// are uniformly distributed, so varint encoding would only add bytes.
func (w *buffer) u64(v uint64) {
	w.b = binary.BigEndian.AppendUint64(w.b, v)
}

func (w *buffer) tokenRange(r TokenRange) {
	w.u64(r.Start)
	w.u64(r.End)
}

func (r *buffer) rUvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.off += n
	return v, nil
}

func (r *buffer) rVarint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.off += n
	return v, nil
}

func (r *buffer) rBytes() ([]byte, error) {
	n, err := r.rUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.off) {
		return nil, ErrTruncated
	}
	if n == 0 {
		return nil, nil
	}
	if r.share {
		out := r.b[r.off : r.off+int(n) : r.off+int(n)]
		r.off += int(n)
		return out, nil
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:r.off+int(n)])
	r.off += int(n)
	return out, nil
}

func (r *buffer) rStr() (string, error) {
	b, err := r.rBytes()
	return string(b), err
}

func (r *buffer) rBool() (bool, error) {
	b, err := r.rByte()
	return b != 0, err
}

func (r *buffer) rByte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, ErrTruncated
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

func (r *buffer) rF64() (float64, error) {
	if len(r.b)-r.off < 8 {
		return 0, ErrTruncated
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

func (r *buffer) rU64() (uint64, error) {
	if len(r.b)-r.off < 8 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *buffer) rTokenRange() (TokenRange, error) {
	var tr TokenRange
	var err error
	if tr.Start, err = r.rU64(); err != nil {
		return tr, err
	}
	if tr.End, err = r.rU64(); err != nil {
		return tr, err
	}
	return tr, nil
}

func (w *buffer) clock(c []ClockEntry) {
	w.uvarint(uint64(len(c)))
	for _, e := range c {
		w.str(e.Node)
		w.uvarint(e.Counter)
	}
}

func (r *buffer) rClock() ([]ClockEntry, error) {
	n, err := r.rUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)) { // cheap sanity bound
		return nil, ErrTruncated
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]ClockEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		var e ClockEntry
		if e.Node, err = r.rStr(); err != nil {
			return nil, err
		}
		if e.Counter, err = r.rUvarint(); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func (w *buffer) value(v Value) {
	w.bytes(v.Data)
	w.varint(v.Timestamp)
	w.bool(v.Tombstone)
	w.clock(v.Clock)
}

func (r *buffer) rValue() (Value, error) {
	var v Value
	var err error
	if v.Data, err = r.rBytes(); err != nil {
		return v, err
	}
	if v.Timestamp, err = r.rVarint(); err != nil {
		return v, err
	}
	if v.Tombstone, err = r.rBool(); err != nil {
		return v, err
	}
	if v.Clock, err = r.rClock(); err != nil {
		return v, err
	}
	return v, nil
}

// Encode serializes m into a self-delimiting frame appended to dst.
//
// The frame is written directly into dst — the body size is computed up
// front (bodySize), the length prefix appended, and every field encoded in
// place — so encoding performs no intermediate copy and allocates only when
// dst lacks capacity. Hot paths that reuse a buffer (the pooled frame path)
// therefore encode allocation-free.
func Encode(dst []byte, m Message) ([]byte, error) {
	size, err := bodySize(m)
	if err != nil {
		return dst, err
	}
	if size > MaxFrame {
		return dst, ErrFrameTooLarge
	}
	dst = slices.Grow(dst, uvarintLen(uint64(size))+size)
	dst = binary.AppendUvarint(dst, uint64(size))
	w := buffer{b: dst}
	w.byte(byte(m.Kind()))
	switch v := m.(type) {
	case ReadRequest:
		w.uvarint(v.ID)
		w.bytes(v.Key)
		w.byte(byte(v.Level))
		w.bool(v.Shadow)
		w.clock(v.Token)
		w.uvarint(v.DeadlineMs)
	case ReadResponse:
		w.uvarint(v.ID)
		w.bool(v.Found)
		w.value(v.Value)
		w.bool(v.Stale)
		w.byte(byte(v.Achieved))
	case WriteRequest:
		w.uvarint(v.ID)
		w.bytes(v.Key)
		w.bytes(v.Value)
		w.bool(v.Delete)
		w.byte(byte(v.Level))
		w.uvarint(v.DeadlineMs)
		w.varint(v.TsHint)
	case WriteResponse:
		w.uvarint(v.ID)
		w.bool(v.OK)
		w.varint(v.Timestamp)
		w.clock(v.Clock)
	case ReplicaRead:
		w.uvarint(v.ID)
		w.bytes(v.Key)
	case ReplicaReadResp:
		w.uvarint(v.ID)
		w.bool(v.Found)
		w.value(v.Value)
	case Mutation:
		w.uvarint(v.ID)
		w.bytes(v.Key)
		w.value(v.Value)
		w.bool(v.Hint)
	case MutationAck:
		w.uvarint(v.ID)
	case Repair:
		w.bytes(v.Key)
		w.value(v.Value)
	case StatsRequest:
		w.uvarint(v.ID)
	case StatsResponse:
		w.uvarint(v.ID)
		w.uvarint(v.Reads)
		w.uvarint(v.Writes)
		w.uvarint(v.ReplicaOps)
		w.uvarint(v.BytesRead)
		w.uvarint(v.BytesWrit)
		w.uvarint(v.RepairsSent)
		w.uvarint(v.HintsQueued)
		w.uvarint(v.RepairRows)
		w.uvarint(v.RepairAgeMs)
		w.uvarint(v.RecoveredRows)
		w.uvarint(v.AliveMembers)
		w.uvarint(uint64(len(v.Groups)))
		for _, g := range v.Groups {
			w.uvarint(g.Reads)
			w.uvarint(g.Writes)
			w.uvarint(g.BytesWritten)
			w.uvarint(g.RepairRows)
			w.uvarint(g.RepairAgeMs)
		}
		w.uvarint(v.Epoch)
		w.uvarint(uint64(len(v.KeySamples)))
		for _, ks := range v.KeySamples {
			w.bytes(ks.Key)
			w.f64(ks.Reads)
			w.f64(ks.Writes)
		}
	case Ping:
		w.uvarint(v.ID)
		w.varint(v.Sent)
	case Pong:
		w.uvarint(v.ID)
		w.varint(v.Sent)
	case GossipSyn:
		w.str(v.From)
		w.uvarint(uint64(len(v.Digests)))
		for _, d := range v.Digests {
			w.str(d.Node)
			w.uvarint(d.Generation)
			w.uvarint(d.Version)
		}
	case GossipAck:
		w.str(v.From)
		w.uvarint(uint64(len(v.Entries)))
		for _, d := range v.Entries {
			w.str(d.Node)
			w.uvarint(d.Generation)
			w.uvarint(d.Version)
		}
	case Error:
		w.uvarint(v.ID)
		w.byte(byte(v.Code))
		w.str(v.Msg)
	case GroupUpdate:
		w.uvarint(v.Epoch)
		w.uvarint(uint64(len(v.Tolerances)))
		for _, tol := range v.Tolerances {
			w.f64(tol)
		}
		w.uvarint(uint64(v.Default))
		w.uvarint(uint64(len(v.Entries)))
		for _, e := range v.Entries {
			w.bytes(e.Key)
			w.uvarint(uint64(e.Group))
		}
	case TreeRequest:
		w.uvarint(v.ID)
		w.uvarint(uint64(len(v.Ranges)))
		for _, rg := range v.Ranges {
			w.tokenRange(rg)
		}
	case TreeResponse:
		w.uvarint(v.ID)
		w.uvarint(uint64(len(v.Trees)))
		for _, t := range v.Trees {
			w.tokenRange(t.Range)
			w.u64(t.Root)
			w.uvarint(uint64(len(t.Leaves)))
			for _, l := range t.Leaves {
				w.u64(l)
			}
		}
	case RangeSync:
		w.uvarint(v.ID)
		w.uvarint(uint64(v.LeafCount))
		w.uvarint(uint64(len(v.Leaves)))
		for _, l := range v.Leaves {
			w.tokenRange(l.Range)
			w.uvarint(uint64(l.Leaf))
		}
		w.uvarint(uint64(len(v.Entries)))
		for _, e := range v.Entries {
			w.bytes(e.Key)
			w.value(e.Value)
		}
		w.bool(v.Reply)
		w.bool(v.Done)
	default:
		return dst, fmt.Errorf("%w: %T", ErrUnknownKind, m)
	}
	return w.b, nil
}

func decodeEntries(r *buffer) ([]GossipEntry, error) {
	n, err := r.rUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)) { // cheap sanity bound
		return nil, ErrTruncated
	}
	out := make([]GossipEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		var e GossipEntry
		if e.Node, err = r.rStr(); err != nil {
			return nil, err
		}
		if e.Generation, err = r.rUvarint(); err != nil {
			return nil, err
		}
		if e.Version, err = r.rUvarint(); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// decodeBody decodes one frame body (kind byte + payload). share propagates
// to rBytes: byte-slice fields alias body instead of being copied.
func decodeBody(body []byte, share bool) (Message, error) {
	r := &buffer{b: body, share: share}
	kb, err := r.rByte()
	if err != nil {
		return nil, err
	}
	kind := Kind(kb)
	switch kind {
	case KindReadRequest:
		var m ReadRequest
		if m.ID, err = r.rUvarint(); err != nil {
			return nil, err
		}
		if m.Key, err = r.rBytes(); err != nil {
			return nil, err
		}
		lb, err := r.rByte()
		if err != nil {
			return nil, err
		}
		m.Level = ConsistencyLevel(lb)
		if m.Shadow, err = r.rBool(); err != nil {
			return nil, err
		}
		if m.Token, err = r.rClock(); err != nil {
			return nil, err
		}
		if m.DeadlineMs, err = r.rUvarint(); err != nil {
			return nil, err
		}
		return m, nil
	case KindReadResponse:
		var m ReadResponse
		if m.ID, err = r.rUvarint(); err != nil {
			return nil, err
		}
		if m.Found, err = r.rBool(); err != nil {
			return nil, err
		}
		if m.Value, err = r.rValue(); err != nil {
			return nil, err
		}
		if m.Stale, err = r.rBool(); err != nil {
			return nil, err
		}
		ab, err := r.rByte()
		if err != nil {
			return nil, err
		}
		m.Achieved = ConsistencyLevel(ab)
		return m, nil
	case KindWriteRequest:
		var m WriteRequest
		if m.ID, err = r.rUvarint(); err != nil {
			return nil, err
		}
		if m.Key, err = r.rBytes(); err != nil {
			return nil, err
		}
		if m.Value, err = r.rBytes(); err != nil {
			return nil, err
		}
		if m.Delete, err = r.rBool(); err != nil {
			return nil, err
		}
		lb, err := r.rByte()
		if err != nil {
			return nil, err
		}
		m.Level = ConsistencyLevel(lb)
		if m.DeadlineMs, err = r.rUvarint(); err != nil {
			return nil, err
		}
		if m.TsHint, err = r.rVarint(); err != nil {
			return nil, err
		}
		return m, nil
	case KindWriteResponse:
		var m WriteResponse
		if m.ID, err = r.rUvarint(); err != nil {
			return nil, err
		}
		if m.OK, err = r.rBool(); err != nil {
			return nil, err
		}
		if m.Timestamp, err = r.rVarint(); err != nil {
			return nil, err
		}
		if m.Clock, err = r.rClock(); err != nil {
			return nil, err
		}
		return m, nil
	case KindReplicaRead:
		var m ReplicaRead
		if m.ID, err = r.rUvarint(); err != nil {
			return nil, err
		}
		if m.Key, err = r.rBytes(); err != nil {
			return nil, err
		}
		return m, nil
	case KindReplicaReadResp:
		var m ReplicaReadResp
		if m.ID, err = r.rUvarint(); err != nil {
			return nil, err
		}
		if m.Found, err = r.rBool(); err != nil {
			return nil, err
		}
		if m.Value, err = r.rValue(); err != nil {
			return nil, err
		}
		return m, nil
	case KindMutation:
		var m Mutation
		if m.ID, err = r.rUvarint(); err != nil {
			return nil, err
		}
		if m.Key, err = r.rBytes(); err != nil {
			return nil, err
		}
		if m.Value, err = r.rValue(); err != nil {
			return nil, err
		}
		if m.Hint, err = r.rBool(); err != nil {
			return nil, err
		}
		return m, nil
	case KindMutationAck:
		var m MutationAck
		if m.ID, err = r.rUvarint(); err != nil {
			return nil, err
		}
		return m, nil
	case KindRepair:
		var m Repair
		if m.Key, err = r.rBytes(); err != nil {
			return nil, err
		}
		if m.Value, err = r.rValue(); err != nil {
			return nil, err
		}
		return m, nil
	case KindStatsRequest:
		var m StatsRequest
		if m.ID, err = r.rUvarint(); err != nil {
			return nil, err
		}
		return m, nil
	case KindStatsResponse:
		var m StatsResponse
		if m.ID, err = r.rUvarint(); err != nil {
			return nil, err
		}
		fields := []*uint64{&m.Reads, &m.Writes, &m.ReplicaOps, &m.BytesRead, &m.BytesWrit, &m.RepairsSent, &m.HintsQueued, &m.RepairRows, &m.RepairAgeMs, &m.RecoveredRows, &m.AliveMembers}
		for _, f := range fields {
			if *f, err = r.rUvarint(); err != nil {
				return nil, err
			}
		}
		ng, err := r.rUvarint()
		if err != nil {
			return nil, err
		}
		if ng > uint64(len(r.b)) { // cheap sanity bound
			return nil, ErrTruncated
		}
		if ng > 0 {
			m.Groups = make([]GroupCounters, 0, ng)
			for i := uint64(0); i < ng; i++ {
				var g GroupCounters
				gf := []*uint64{&g.Reads, &g.Writes, &g.BytesWritten, &g.RepairRows, &g.RepairAgeMs}
				for _, f := range gf {
					if *f, err = r.rUvarint(); err != nil {
						return nil, err
					}
				}
				m.Groups = append(m.Groups, g)
			}
		}
		if m.Epoch, err = r.rUvarint(); err != nil {
			return nil, err
		}
		nk, err := r.rUvarint()
		if err != nil {
			return nil, err
		}
		if nk > uint64(len(r.b)) { // cheap sanity bound
			return nil, ErrTruncated
		}
		if nk > 0 {
			m.KeySamples = make([]KeySample, 0, nk)
			for i := uint64(0); i < nk; i++ {
				var ks KeySample
				if ks.Key, err = r.rBytes(); err != nil {
					return nil, err
				}
				if ks.Reads, err = r.rF64(); err != nil {
					return nil, err
				}
				if ks.Writes, err = r.rF64(); err != nil {
					return nil, err
				}
				m.KeySamples = append(m.KeySamples, ks)
			}
		}
		return m, nil
	case KindPing:
		var m Ping
		if m.ID, err = r.rUvarint(); err != nil {
			return nil, err
		}
		if m.Sent, err = r.rVarint(); err != nil {
			return nil, err
		}
		return m, nil
	case KindPong:
		var m Pong
		if m.ID, err = r.rUvarint(); err != nil {
			return nil, err
		}
		if m.Sent, err = r.rVarint(); err != nil {
			return nil, err
		}
		return m, nil
	case KindGossipSyn:
		var m GossipSyn
		if m.From, err = r.rStr(); err != nil {
			return nil, err
		}
		if m.Digests, err = decodeEntries(r); err != nil {
			return nil, err
		}
		return m, nil
	case KindGossipAck:
		var m GossipAck
		if m.From, err = r.rStr(); err != nil {
			return nil, err
		}
		if m.Entries, err = decodeEntries(r); err != nil {
			return nil, err
		}
		return m, nil
	case KindError:
		var m Error
		if m.ID, err = r.rUvarint(); err != nil {
			return nil, err
		}
		cb, err := r.rByte()
		if err != nil {
			return nil, err
		}
		m.Code = ErrorCode(cb)
		if m.Msg, err = r.rStr(); err != nil {
			return nil, err
		}
		return m, nil
	case KindGroupUpdate:
		var m GroupUpdate
		if m.Epoch, err = r.rUvarint(); err != nil {
			return nil, err
		}
		nt, err := r.rUvarint()
		if err != nil {
			return nil, err
		}
		if nt > uint64(len(r.b)) { // cheap sanity bound
			return nil, ErrTruncated
		}
		if nt > 0 {
			m.Tolerances = make([]float64, 0, nt)
			for i := uint64(0); i < nt; i++ {
				tol, err := r.rF64()
				if err != nil {
					return nil, err
				}
				m.Tolerances = append(m.Tolerances, tol)
			}
		}
		def, err := r.rUvarint()
		if err != nil {
			return nil, err
		}
		m.Default = uint32(def)
		ne, err := r.rUvarint()
		if err != nil {
			return nil, err
		}
		if ne > uint64(len(r.b)) { // cheap sanity bound
			return nil, ErrTruncated
		}
		if ne > 0 {
			m.Entries = make([]GroupAssign, 0, ne)
			for i := uint64(0); i < ne; i++ {
				var e GroupAssign
				if e.Key, err = r.rBytes(); err != nil {
					return nil, err
				}
				g, err := r.rUvarint()
				if err != nil {
					return nil, err
				}
				e.Group = uint32(g)
				m.Entries = append(m.Entries, e)
			}
		}
		return m, nil
	case KindTreeRequest:
		var m TreeRequest
		if m.ID, err = r.rUvarint(); err != nil {
			return nil, err
		}
		nr, err := r.rUvarint()
		if err != nil {
			return nil, err
		}
		if nr > uint64(len(r.b)) { // cheap sanity bound
			return nil, ErrTruncated
		}
		if nr > 0 {
			m.Ranges = make([]TokenRange, 0, nr)
			for i := uint64(0); i < nr; i++ {
				tr, err := r.rTokenRange()
				if err != nil {
					return nil, err
				}
				m.Ranges = append(m.Ranges, tr)
			}
		}
		return m, nil
	case KindTreeResponse:
		var m TreeResponse
		if m.ID, err = r.rUvarint(); err != nil {
			return nil, err
		}
		nt, err := r.rUvarint()
		if err != nil {
			return nil, err
		}
		if nt > uint64(len(r.b)) { // cheap sanity bound
			return nil, ErrTruncated
		}
		if nt > 0 {
			m.Trees = make([]RangeTree, 0, nt)
			for i := uint64(0); i < nt; i++ {
				var t RangeTree
				if t.Range, err = r.rTokenRange(); err != nil {
					return nil, err
				}
				if t.Root, err = r.rU64(); err != nil {
					return nil, err
				}
				nl, err := r.rUvarint()
				if err != nil {
					return nil, err
				}
				if nl > uint64(len(r.b)) { // cheap sanity bound
					return nil, ErrTruncated
				}
				if nl > 0 {
					t.Leaves = make([]uint64, 0, nl)
					for j := uint64(0); j < nl; j++ {
						l, err := r.rU64()
						if err != nil {
							return nil, err
						}
						t.Leaves = append(t.Leaves, l)
					}
				}
				m.Trees = append(m.Trees, t)
			}
		}
		return m, nil
	case KindRangeSync:
		var m RangeSync
		if m.ID, err = r.rUvarint(); err != nil {
			return nil, err
		}
		lc, err := r.rUvarint()
		if err != nil {
			return nil, err
		}
		m.LeafCount = uint32(lc)
		nl, err := r.rUvarint()
		if err != nil {
			return nil, err
		}
		if nl > uint64(len(r.b)) { // cheap sanity bound
			return nil, ErrTruncated
		}
		if nl > 0 {
			m.Leaves = make([]LeafRef, 0, nl)
			for i := uint64(0); i < nl; i++ {
				var l LeafRef
				if l.Range, err = r.rTokenRange(); err != nil {
					return nil, err
				}
				leaf, err := r.rUvarint()
				if err != nil {
					return nil, err
				}
				l.Leaf = uint32(leaf)
				m.Leaves = append(m.Leaves, l)
			}
		}
		ne, err := r.rUvarint()
		if err != nil {
			return nil, err
		}
		if ne > uint64(len(r.b)) { // cheap sanity bound
			return nil, ErrTruncated
		}
		if ne > 0 {
			m.Entries = make([]SyncEntry, 0, ne)
			for i := uint64(0); i < ne; i++ {
				var e SyncEntry
				if e.Key, err = r.rBytes(); err != nil {
					return nil, err
				}
				if e.Value, err = r.rValue(); err != nil {
					return nil, err
				}
				m.Entries = append(m.Entries, e)
			}
		}
		if m.Reply, err = r.rBool(); err != nil {
			return nil, err
		}
		if m.Done, err = r.rBool(); err != nil {
			return nil, err
		}
		return m, nil
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownKind, kb)
}

// Decode parses one frame from b, returning the message and the number of
// bytes consumed. It returns ErrTruncated when b does not hold a complete
// frame yet (callers accumulating from a stream should read more). The
// returned message owns its memory: every byte-slice field is copied out of
// b, so the caller may reuse b immediately.
func Decode(b []byte) (Message, int, error) {
	return decode(b, false)
}

// DecodeShared parses one frame like Decode but borrows from the input: the
// returned message's byte-slice fields (keys, value payloads, key samples,
// sync entries) alias b directly, eliminating the per-field copies.
//
// Aliasing contract: the caller must not modify or reuse b while the message
// — or anything derived from it — is live. Paths that retain decoded bytes
// beyond the handling of one message (a coordinator stashing a read key in a
// pending-op table, the storage engine keeping a mutation's value) must copy
// those fields explicitly. The in-memory fabrics pass message structs
// without encoding, so this only matters to byte-stream transports, which
// must give each frame its own buffer (see FrameReader).
func DecodeShared(b []byte) (Message, int, error) {
	return decode(b, true)
}

// DecodeBodyShared parses a frame body — the bytes after the length prefix —
// in shared mode. It exists for transports that read the prefix themselves
// (FrameReader reads the uvarint off the stream and the body into an owned
// per-frame buffer) and want the zero-copy decode without re-framing. The
// aliasing contract is DecodeShared's: the returned message's byte-slice
// fields alias body, which must stay untouched while the message is live.
func DecodeBodyShared(body []byte) (Message, error) {
	return decodeBody(body, true)
}

func decode(b []byte, share bool) (Message, int, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, 0, ErrTruncated
	}
	if n > MaxFrame {
		return nil, 0, ErrFrameTooLarge
	}
	if uint64(len(b)-sz) < n {
		return nil, 0, ErrTruncated
	}
	m, err := decodeBody(b[sz:sz+int(n)], share)
	if err != nil {
		return nil, 0, err
	}
	return m, sz + int(n), nil
}

// Size returns the encoded size of m in bytes; the simulator uses it to
// model serialization/bandwidth delay. It is a pure computation over the
// message's fields — nothing is encoded and nothing allocates — so the
// in-memory fabrics can call it on every send.
func Size(m Message) int {
	n, err := bodySize(m)
	if err != nil {
		return 0
	}
	return uvarintLen(uint64(n)) + n
}

// framePool recycles encode scratch buffers for transports whose senders
// run concurrently (the TCP backend encodes outside its per-connection
// lock). Buffers that ballooned past a frame-ish size are dropped rather
// than pinned in the pool.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledFrame = 1 << 20

// GetFrame encodes m into a pooled scratch buffer and returns it; release
// with PutFrame once the bytes have been handed to the kernel (or copied).
func GetFrame(m Message) (*[]byte, error) {
	bp := framePool.Get().(*[]byte)
	b, err := Encode((*bp)[:0], m)
	if err != nil {
		framePool.Put(bp)
		return nil, err
	}
	*bp = b
	return bp, nil
}

// PutFrame returns a GetFrame buffer to the pool.
func PutFrame(bp *[]byte) {
	if cap(*bp) > maxPooledFrame {
		return
	}
	framePool.Put(bp)
}
