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

// Codec errors. errMalformed reports a field that decoded completely but
// holds a value its Go type cannot represent, such as a uint32 field
// carrying 2^32.
var (
	errFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	errTruncated     = errors.New("wire: truncated payload")
	errUnknownKind   = errors.New("wire: unknown message kind")
	errMalformed     = errors.New("wire: malformed field")
)

// maxFrame bounds a single encoded message; oversized frames indicate stream
// corruption, not a legitimate payload.
const maxFrame = 16 << 20

// mode selects what a coder does with each field it is handed.
type mode uint8

const (
	sizing  mode = iota // add the field's encoded length to n
	writing             // append the field to b
	reading             // parse the field from b at off into the message
)

// coder runs one message's field list — its code method, the only place the
// message's layout is written down — in one of three modes, so sizing,
// encoding and decoding cannot drift apart. When reading, byte fields are
// copied out of b, or alias it when share is set (see DecodeShared). The
// first read failure is kept in err and moves the cursor to the end, so
// every later field fails too and decodes as its zero value.
type coder struct {
	mode  mode
	share bool
	n     int
	off   int
	b     []byte
	err   error
}

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

func (c *coder) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.off = len(c.b)
}

// Every primitive adds its encoded length to n in every mode (only sizing
// reads it). uvarint, u8 and fixed64 leave writing and reading to an
// out-of-line IO half, which keeps them small enough to inline into the
// field lists: Size runs on every simulated send. Only reading stores
// through a field pointer, as one message may be sized or encoded by many
// goroutines at once (a group update sent to every node).

func (c *coder) uvarint(p *uint64) {
	c.n += (bits.Len64(*p|1) + 6) / 7 // uvarintLen, spelled out to inline
	if c.mode != sizing {
		c.uvarintIO(p)
	}
}

func (c *coder) uvarintIO(p *uint64) {
	if c.mode == writing {
		c.b = binary.AppendUvarint(c.b, *p)
		return
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail(errTruncated)
		return
	}
	*p = v
	c.off += n
}

// varint codes a signed integer as a zig-zag uvarint (binary.AppendVarint's
// encoding).
func (c *coder) varint(p *int64) {
	u := uint64(*p)<<1 ^ uint64(*p>>63)
	if c.uvarint(&u); c.mode == reading {
		*p = int64(u>>1) ^ -int64(u&1)
	}
}

// u32 codes a uvarint that must fit in 32 bits; a larger value read from
// the wire is rejected instead of truncated.
func (c *coder) u32(p *uint32) {
	v := uint64(*p)
	if c.uvarint(&v); c.mode == reading && v > math.MaxUint32 {
		c.fail(errMalformed)
	} else if c.mode == reading {
		*p = uint32(v)
	}
}

func (c *coder) u8(p *uint8) {
	c.n++
	if c.mode != sizing {
		c.u8IO(p)
	}
}

func (c *coder) u8IO(p *uint8) {
	if c.mode == writing {
		c.b = append(c.b, *p)
		return
	}
	if c.off >= len(c.b) {
		c.fail(errTruncated)
		return
	}
	*p = c.b[c.off]
	c.off++
}

func (c *coder) bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	if c.u8(&v); c.mode == reading {
		*p = v != 0
	}
}

// fixed64 codes a fixed 8-byte big-endian word. Ring tokens, Merkle hashes
// and float bits are uniformly distributed, so a varint would only add
// bytes.
func (c *coder) fixed64(p *uint64) {
	c.n += 8
	if c.mode != sizing {
		c.fixed64IO(p)
	}
}

func (c *coder) fixed64IO(p *uint64) {
	if c.mode == writing {
		c.b = binary.BigEndian.AppendUint64(c.b, *p)
		return
	}
	if len(c.b)-c.off < 8 {
		c.fail(errTruncated)
		return
	}
	*p = binary.BigEndian.Uint64(c.b[c.off:])
	c.off += 8
}

func (c *coder) f64(p *float64) {
	u := math.Float64bits(*p)
	if c.fixed64(&u); c.mode == reading {
		*p = math.Float64frombits(u)
	}
}

// bytes codes a length-prefixed byte string; an empty one reads as nil.
func (c *coder) bytes(p *[]byte) {
	c.n += uvarintLen(uint64(len(*p))) + len(*p)
	if c.mode == writing {
		c.b = append(binary.AppendUvarint(c.b, uint64(len(*p))), *p...)
	} else if c.mode == reading {
		if v := c.view(); c.share {
			*p = v
		} else {
			*p = slices.Clone(v)
		}
	}
}

func (c *coder) str(p *string) {
	c.n += uvarintLen(uint64(len(*p))) + len(*p)
	if c.mode == writing {
		c.b = append(binary.AppendUvarint(c.b, uint64(len(*p))), *p...)
	} else if c.mode == reading {
		*p = string(c.view())
	}
}

// view reads a length-prefixed byte string as a subslice of b (nil when
// empty or on failure).
func (c *coder) view() []byte {
	n, k := binary.Uvarint(c.b[c.off:])
	if k <= 0 || n > uint64(len(c.b)-c.off-k) {
		c.fail(errTruncated)
		return nil
	}
	c.off += k
	if n == 0 {
		return nil
	}
	v := c.b[c.off : c.off+int(n) : c.off+int(n)]
	c.off += int(n)
	return v
}

// list codes a list's length and, when reading, allocates the list (nil
// when empty); the caller then codes each element in place with a plain
// loop. Every element encodes to at least one byte, so a count beyond the
// rest of the frame is truncation and never sizes an allocation.
func list[T any](c *coder, p *[]T) {
	n := uint64(len(*p))
	c.uvarint(&n)
	if c.mode != reading || n == 0 {
		return
	}
	if n > uint64(len(c.b)-c.off) {
		c.fail(errTruncated)
		return
	}
	*p = make([]T, n)
}

// The field lists: the order of the calls is the order of the bytes.

func (v *Value) code(c *coder) {
	c.bytes(&v.Data)
	c.varint(&v.Timestamp)
	c.bool(&v.Tombstone)
}

func (r *TokenRange) code(c *coder) {
	c.fixed64(&r.Start)
	c.fixed64(&r.End)
}

func (m *ReadRequest) code(c *coder) {
	c.uvarint(&m.ID)
	c.bytes(&m.Key)
	c.u8((*uint8)(&m.Level))
	c.bool(&m.Shadow)
	c.varint(&m.Token)
	c.uvarint(&m.DeadlineMs)
}

func (m *ReadResponse) code(c *coder) {
	c.uvarint(&m.ID)
	c.bool(&m.Found)
	m.Value.code(c)
	c.bool(&m.Stale)
	c.u8((*uint8)(&m.Achieved))
}

func (m *WriteRequest) code(c *coder) {
	c.uvarint(&m.ID)
	c.bytes(&m.Key)
	c.bytes(&m.Value)
	c.bool(&m.Delete)
	c.u8((*uint8)(&m.Level))
	c.uvarint(&m.DeadlineMs)
	c.varint(&m.TsHint)
}

func (m *WriteResponse) code(c *coder) {
	c.uvarint(&m.ID)
	c.bool(&m.OK)
	c.varint(&m.Timestamp)
}

func (m *ReplicaRead) code(c *coder) {
	c.uvarint(&m.ID)
	c.bytes(&m.Key)
}

func (m *ReplicaReadResp) code(c *coder) {
	c.uvarint(&m.ID)
	c.bool(&m.Found)
	m.Value.code(c)
}

func (m *Mutation) code(c *coder) {
	c.uvarint(&m.ID)
	c.bytes(&m.Key)
	m.Value.code(c)
	c.bool(&m.Hint)
}

func (m *MutationAck) code(c *coder) { c.uvarint(&m.ID) }

func (m *Repair) code(c *coder) {
	c.bytes(&m.Key)
	m.Value.code(c)
}

func (m *StatsRequest) code(c *coder) { c.uvarint(&m.ID) }

func (m *StatsResponse) code(c *coder) {
	for _, f := range [...]*uint64{&m.ID, &m.Reads, &m.Writes, &m.ReplicaOps, &m.BytesRead,
		&m.BytesWrit, &m.RepairsSent, &m.HintsQueued, &m.RepairRows, &m.RepairAgeMs,
		&m.RecoveredRows, &m.AliveMembers} {
		c.uvarint(f)
	}
	list(c, &m.Groups)
	for i := range m.Groups {
		g := &m.Groups[i]
		for _, f := range [...]*uint64{&g.Reads, &g.Writes, &g.BytesWritten, &g.RepairRows, &g.RepairAgeMs} {
			c.uvarint(f)
		}
	}
	c.uvarint(&m.Epoch)
	list(c, &m.KeySamples)
	for i := range m.KeySamples {
		ks := &m.KeySamples[i]
		c.bytes(&ks.Key)
		c.f64(&ks.Reads)
		c.f64(&ks.Writes)
	}
}

func (m *Ping) code(c *coder) {
	c.uvarint(&m.ID)
	c.varint(&m.Sent)
}

func (m *Pong) code(c *coder) {
	c.uvarint(&m.ID)
	c.varint(&m.Sent)
}

func (e *GossipEntry) code(c *coder) {
	c.str(&e.Node)
	c.uvarint(&e.Generation)
	c.uvarint(&e.Version)
}

func (m *GossipSyn) code(c *coder) {
	c.str(&m.From)
	list(c, &m.Digests)
	for i := range m.Digests {
		m.Digests[i].code(c)
	}
}

func (m *GossipAck) code(c *coder) {
	c.str(&m.From)
	list(c, &m.Entries)
	for i := range m.Entries {
		m.Entries[i].code(c)
	}
}

func (m *Error) code(c *coder) {
	c.uvarint(&m.ID)
	c.u8((*uint8)(&m.Code))
	c.str(&m.Msg)
}

func (m *GroupUpdate) code(c *coder) {
	c.uvarint(&m.Epoch)
	list(c, &m.Tolerances)
	for i := range m.Tolerances {
		c.f64(&m.Tolerances[i])
	}
	c.u32(&m.Default)
	list(c, &m.Entries)
	for i := range m.Entries {
		c.bytes(&m.Entries[i].Key)
		c.u32(&m.Entries[i].Group)
	}
}

func (m *TreeRequest) code(c *coder) {
	c.uvarint(&m.ID)
	list(c, &m.Ranges)
	for i := range m.Ranges {
		m.Ranges[i].code(c)
	}
}

func (m *TreeResponse) code(c *coder) {
	c.uvarint(&m.ID)
	list(c, &m.Trees)
	for i := range m.Trees {
		t := &m.Trees[i]
		t.Range.code(c)
		c.fixed64(&t.Root)
		list(c, &t.Leaves)
		for j := range t.Leaves {
			c.fixed64(&t.Leaves[j])
		}
	}
}

func (m *RangeSync) code(c *coder) {
	c.uvarint(&m.ID)
	c.u32(&m.LeafCount)
	list(c, &m.Leaves)
	for i := range m.Leaves {
		m.Leaves[i].Range.code(c)
		c.u32(&m.Leaves[i].Leaf)
	}
	list(c, &m.Entries)
	for i := range m.Entries {
		c.bytes(&m.Entries[i].Key)
		m.Entries[i].Value.code(c)
	}
	c.bool(&m.Reply)
	c.bool(&m.Done)
}

// payload runs m's field list in c's sizing or writing mode; it reports
// false when m is not one of this package's messages. The cases are plain
// calls on a local copy so neither the copy nor the coder escapes.
func (c *coder) payload(m Message) bool {
	switch v := m.(type) {
	case ReadRequest:
		v.code(c)
	case ReadResponse:
		v.code(c)
	case WriteRequest:
		v.code(c)
	case WriteResponse:
		v.code(c)
	case ReplicaRead:
		v.code(c)
	case ReplicaReadResp:
		v.code(c)
	case Mutation:
		v.code(c)
	case MutationAck:
		v.code(c)
	case Repair:
		v.code(c)
	case StatsRequest:
		v.code(c)
	case StatsResponse:
		v.code(c)
	case Ping:
		v.code(c)
	case Pong:
		v.code(c)
	case GossipSyn:
		v.code(c)
	case GossipAck:
		v.code(c)
	case Error:
		v.code(c)
	case GroupUpdate:
		v.code(c)
	case TreeRequest:
		v.code(c)
	case TreeResponse:
		v.code(c)
	case RangeSync:
		v.code(c)
	default:
		return false
	}
	return true
}

// bodySize returns the exact encoded length of m's frame body (kind byte +
// payload) without encoding anything.
func bodySize(m Message) (int, error) {
	c := coder{mode: sizing, n: 1} // n starts at the kind byte
	if !c.payload(m) {
		return 0, fmt.Errorf("%w: %T", errUnknownKind, m)
	}
	return c.n, nil
}

// prefixRoom is uvarintLen(maxFrame), the longest length prefix.
const prefixRoom = 4

// Encode serializes m into a self-delimiting frame appended to dst, in one
// pass: it leaves prefixRoom bytes for the length prefix, writes the kind
// byte and every field after them, then writes the prefix and slides the
// body down over the bytes it did not use. Encoding allocates only when dst
// lacks capacity, so the pooled frame path encodes allocation-free.
func Encode(dst []byte, m Message) ([]byte, error) {
	start := len(dst)
	c := coder{mode: writing, b: append(dst, make([]byte, prefixRoom+1)...)}
	if !c.payload(m) {
		return dst, fmt.Errorf("%w: %T", errUnknownKind, m)
	}
	size := len(c.b) - start - prefixRoom
	if size > maxFrame {
		return dst, errFrameTooLarge
	}
	c.b[start+prefixRoom] = byte(m.Kind())
	k := binary.PutUvarint(c.b[start:], uint64(size))
	n := copy(c.b[start+k:], c.b[start+prefixRoom:])
	return c.b[:start+k+n], nil
}

// decodeBody decodes one frame body (kind byte + payload). share makes
// byte-slice fields alias body instead of copying it. Each case decodes
// into a local value before boxing it, which keeps the boxing the only
// allocation a shared decode makes.
func decodeBody(body []byte, share bool) (Message, error) {
	c := coder{mode: reading, b: body, share: share}
	var kind uint8
	c.u8(&kind)
	var m Message
	switch Kind(kind) {
	case kindReadRequest:
		var v ReadRequest
		v.code(&c)
		m = v
	case kindReadResponse:
		var v ReadResponse
		v.code(&c)
		m = v
	case kindWriteRequest:
		var v WriteRequest
		v.code(&c)
		m = v
	case kindWriteResponse:
		var v WriteResponse
		v.code(&c)
		m = v
	case kindReplicaRead:
		var v ReplicaRead
		v.code(&c)
		m = v
	case kindReplicaReadResp:
		var v ReplicaReadResp
		v.code(&c)
		m = v
	case kindMutation:
		var v Mutation
		v.code(&c)
		m = v
	case kindMutationAck:
		var v MutationAck
		v.code(&c)
		m = v
	case kindRepair:
		var v Repair
		v.code(&c)
		m = v
	case kindStatsRequest:
		var v StatsRequest
		v.code(&c)
		m = v
	case kindStatsResponse:
		var v StatsResponse
		v.code(&c)
		m = v
	case kindPing:
		var v Ping
		v.code(&c)
		m = v
	case kindPong:
		var v Pong
		v.code(&c)
		m = v
	case kindGossipSyn:
		var v GossipSyn
		v.code(&c)
		m = v
	case kindGossipAck:
		var v GossipAck
		v.code(&c)
		m = v
	case kindError:
		var v Error
		v.code(&c)
		m = v
	case kindGroupUpdate:
		var v GroupUpdate
		v.code(&c)
		m = v
	case kindTreeRequest:
		var v TreeRequest
		v.code(&c)
		m = v
	case kindTreeResponse:
		var v TreeResponse
		v.code(&c)
		m = v
	case kindRangeSync:
		var v RangeSync
		v.code(&c)
		m = v
	default:
		c.fail(fmt.Errorf("%w: %d", errUnknownKind, kind))
	}
	if c.err != nil {
		return nil, c.err
	}
	return m, nil
}

// Decode parses one frame from b, returning the message and the number of
// bytes consumed. It returns errTruncated when b does not hold a complete
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

// decodeBodyShared parses a frame body — the bytes after the length prefix —
// in shared mode. It exists for transports that read the prefix themselves
// (FrameReader reads the uvarint off the stream and the body into an owned
// per-frame buffer) and want the zero-copy decode without re-framing. The
// aliasing contract is DecodeShared's: the returned message's byte-slice
// fields alias body, which must stay untouched while the message is live.
func decodeBodyShared(body []byte) (Message, error) {
	return decodeBody(body, true)
}

func decode(b []byte, share bool) (Message, int, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, 0, errTruncated
	}
	if n > maxFrame {
		return nil, 0, errFrameTooLarge
	}
	if uint64(len(b)-sz) < n {
		return nil, 0, errTruncated
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
