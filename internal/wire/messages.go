// Package wire defines the messages exchanged between storage nodes and
// clients, and a compact binary codec for sending them over a byte stream.
// It plays the role Thrift played in the paper's Cassandra deployment: a
// stable, language-independent framing so the same store can be driven
// in-process, over the discrete-event simulator, or over TCP.
//
// Encoding: every message is a frame of
//
//	uvarint(totalLen) byte(kind) payload
//
// where the payload is the message's fields in declaration order: integers,
// timestamps and list lengths as uvarints (signed ones zig-zag encoded),
// levels, codes and booleans as single bytes, byte strings and strings
// length-prefixed, and fixed 8-byte big-endian words only for float64
// weights, ring tokens and Merkle hashes. Each message's field list is
// written once, in its code method in codec.go; Size, Encode, Decode and
// DecodeShared all run that one list.
//
// Adding a message kind:
//
//   - append its Kind constant and its name in kindNames (kind values are
//     part of the format, so never reuse or reorder one);
//   - give the type a Kind method, at the end of this file;
//   - give it a code method in codec.go listing its fields in wire order;
//   - add one case to each of codec.go's two switches, coder.payload
//     (sizing and encoding) and decodeBody;
//   - if a handler keeps the message's bytes after its delivery returns,
//     add the message to transport/promote.go, which copies those fields
//     out of the shared receive buffer.
package wire

import (
	"fmt"
	"time"
)

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds. Values are part of the wire format; do not reorder.
const (
	kindInvalid Kind = iota
	kindReadRequest
	kindReadResponse
	kindWriteRequest
	kindWriteResponse
	kindReplicaRead
	kindReplicaReadResp
	kindMutation
	kindMutationAck
	kindRepair
	kindStatsRequest
	kindStatsResponse
	kindPing
	kindPong
	kindGossipSyn
	kindGossipAck
	kindError
	kindGroupUpdate
	kindTreeRequest
	kindTreeResponse
	kindRangeSync
)

var kindNames = [...]string{
	"invalid", "read-req", "read-resp", "write-req", "write-resp",
	"replica-read", "replica-read-resp", "mutation", "mutation-ack",
	"repair", "stats-req", "stats-resp", "ping", "pong",
	"gossip-syn", "gossip-ack", "error", "group-update",
	"tree-req", "tree-resp", "range-sync",
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ConsistencyLevel is the number-of-replicas policy for one operation,
// mirroring Cassandra's per-operation levels.
type ConsistencyLevel uint8

// Consistency levels. One..Three are absolute counts; Quorum and All are
// resolved against the replication factor at coordination time. Session sits
// between One and Quorum in guarantee strength: the coordinator answers from
// a single replica when that replica already covers the client's session
// token, and widens the read only when it does not — so the common case costs
// ONE while read-your-writes and monotonic reads still hold.
const (
	One ConsistencyLevel = iota + 1
	Two
	Three
	Quorum
	All
	Session
)

// String names the level like Cassandra's documentation does.
func (c ConsistencyLevel) String() string {
	switch c {
	case One:
		return "ONE"
	case Two:
		return "TWO"
	case Three:
		return "THREE"
	case Quorum:
		return "QUORUM"
	case All:
		return "ALL"
	case Session:
		return "SESSION"
	}
	return fmt.Sprintf("CL(%d)", uint8(c))
}

// BlockFor resolves the level to a replica count for replication factor rf.
func (c ConsistencyLevel) BlockFor(rf int) int {
	var n int
	switch c {
	case One, Session:
		// Session blocks for one replica; token satisfaction, not replica
		// count, provides its extra guarantee.
		n = 1
	case Two:
		n = 2
	case Three:
		n = 3
	case Quorum:
		n = rf/2 + 1
	case All:
		n = rf
	default:
		n = 1
	}
	if n > rf {
		n = rf
	}
	if n < 1 {
		n = 1
	}
	return n
}

// LevelForCount returns the weakest ConsistencyLevel that blocks for at
// least x replicas under replication factor rf. Harmony's controller uses it
// to translate the computed Xn into a per-operation level.
func LevelForCount(x, rf int) ConsistencyLevel {
	if x <= 1 {
		return One
	}
	if x >= rf {
		return All
	}
	q := rf/2 + 1
	switch {
	case x == q:
		return Quorum
	case x == 2:
		return Two
	case x == 3:
		return Three
	case x < q:
		return Quorum
	default:
		return All
	}
}

// ClockEntry is one coordinator's component of a vector clock: the highest
// write timestamp the value has observed through that coordinator. Counters
// are write timestamps (UnixNano of the coordinating write), so a value's
// clock doubles as a causal history and a recency watermark.
type ClockEntry struct {
	Node    string
	Counter uint64
}

// Value is a timestamped cell. Timestamps are the write coordinator's clock
// in nanoseconds; conflict resolution is last-writer-wins by default, exactly
// the reconciliation Cassandra applies on read, with the vector Clock
// available for causal comparison and pluggable sibling resolution
// (internal/versioning).
type Value struct {
	Data      []byte
	Timestamp int64 // UnixNano of the coordinating write
	Tombstone bool
	// Clock is the value's vector clock, stamped by the write coordinator:
	// the previous version's clock merged with (coordinator, Timestamp).
	// Empty for legacy/bulk-loaded values, which compare purely by
	// Timestamp.
	Clock []ClockEntry
}

// Fresh reports whether v is newer than other (ties broken toward v=false so
// merges are stable).
func (v Value) Fresh(other Value) bool { return v.Timestamp > other.Timestamp }

// Time returns the timestamp as a time.Time.
func (v Value) Time() time.Time { return time.Unix(0, v.Timestamp) }

// ReadRequest is a client-to-coordinator read.
type ReadRequest struct {
	ID    uint64
	Key   []byte
	Level ConsistencyLevel
	// Shadow requests a second internal read at level ALL whose result is
	// compared against the primary read to detect staleness — the paper's
	// §V-F dual-read measurement.
	Shadow bool
	// Token is the client's session token for the key's range: high-water
	// vector-clock entries from the session's previous reads and writes.
	// Meaningful only at Level Session, where the coordinator must answer
	// with a version covering the token (read-your-writes + monotonic
	// reads) or widen the read until one is found.
	Token []ClockEntry
	// DeadlineMs is the client's remaining per-op budget in milliseconds at
	// send time. Relative (not an absolute wall time) so it needs no clock
	// agreement between client and coordinator. The coordinator clamps its
	// own op timeout to it and sheds work it cannot finish in time; zero
	// means no client deadline.
	DeadlineMs uint64
}

// ReadResponse is the coordinator's reply to a ReadRequest.
type ReadResponse struct {
	ID    uint64
	Found bool
	Value Value
	// Stale is meaningful only when the request had Shadow set: it reports
	// whether a read at level ALL returned a newer timestamp than the
	// primary read.
	Stale bool
	// Achieved echoes the consistency level actually used (Harmony may
	// override the client's hint).
	Achieved ConsistencyLevel
}

// WriteRequest is a client-to-coordinator write (upsert or delete).
type WriteRequest struct {
	ID     uint64
	Key    []byte
	Value  []byte
	Delete bool
	Level  ConsistencyLevel
	// DeadlineMs is the client's remaining per-op budget in milliseconds at
	// send time (see ReadRequest.DeadlineMs); zero means none.
	DeadlineMs uint64
	// TsHint, when nonzero, is the mutation timestamp the coordinator must
	// stamp instead of generating its own. Retrying clients reuse the first
	// attempt's hint so a replayed write carries the identical timestamp and
	// LWW-collapses into the original application instead of appearing as a
	// second, newer write.
	TsHint int64
}

// WriteResponse acknowledges a WriteRequest.
type WriteResponse struct {
	ID        uint64
	OK        bool
	Timestamp int64
	// Clock is the vector clock the coordinator stamped on the written
	// value; sessions fold it into their token so subsequent SESSION reads
	// observe the write.
	Clock []ClockEntry
}

// ReplicaRead is a coordinator-to-replica data read.
type ReplicaRead struct {
	ID  uint64
	Key []byte
}

// ReplicaReadResp carries the replica's local version (zero Value with
// Found=false when absent).
type ReplicaReadResp struct {
	ID    uint64
	Found bool
	Value Value
}

// Mutation is a coordinator-to-replica replicated write.
type Mutation struct {
	ID    uint64
	Key   []byte
	Value Value
	// Hint marks a hinted-handoff replay destined for a node that was down
	// at write time.
	Hint bool
}

// MutationAck acknowledges a Mutation.
type MutationAck struct {
	ID uint64
}

// Repair is a read-repair write sent in the background to stale replicas. It
// needs no ack: repair is best-effort, like Cassandra's.
type Repair struct {
	Key   []byte
	Value Value
}

// StatsRequest asks a node for its counters; the monitoring module's
// nodetool substitute.
type StatsRequest struct {
	ID uint64
}

// StatsResponse carries cumulative per-node counters since process start.
type StatsResponse struct {
	ID          uint64
	Reads       uint64 // client reads coordinated
	Writes      uint64 // client writes coordinated
	ReplicaOps  uint64 // replica-level operations served
	BytesRead   uint64
	BytesWrit   uint64
	RepairsSent uint64
	HintsQueued uint64
	// RepairRows / RepairAgeMs are the anti-entropy divergence gauge: how
	// many locally-stale rows repair sessions have healed on this node, and
	// the summed age (now − row timestamp, milliseconds) of those rows at
	// heal time. A recovering replica shows a burst of repaired old rows;
	// once anti-entropy converges the counters stop moving, so the monitor's
	// windowed delta is a live "divergence being discovered" signal.
	RepairRows  uint64
	RepairAgeMs uint64
	// RecoveredRows is the number of rows the node's storage engine rebuilt
	// from its data dir at startup (hint files + log tail replay). Zero for
	// memory-backed nodes; constant after startup, so the monitor reads it
	// as "how much pre-crash state a restarted node brought back itself"
	// versus rows anti-entropy had to heal (RepairRows).
	RecoveredRows uint64
	// AliveMembers is how many cluster members (including itself) this
	// node's failure detector currently believes are up. Zero means the
	// node has no liveness source wired (the monitor then skips the
	// availability clamp). During a partition each side reports only the
	// members it can still reach, which lets the controller stop
	// commanding consistency levels the reachable replica count cannot
	// serve.
	AliveMembers uint64
	// Groups carries per-key-group operation counters, indexed by group id
	// (the node's GroupFn assigns keys to groups). Empty when the node
	// tallies a single implicit group; the aggregate counters above always
	// cover all traffic regardless.
	Groups []GroupCounters
	// Epoch is the grouping epoch the per-group counters belong to. Group
	// counters re-baseline (restart from zero) whenever a node applies a
	// GroupUpdate, so samples from different epochs must never be mixed:
	// the monitor discards group counters whose epoch disagrees with the
	// round's consensus. Zero for clusters that never regroup.
	Epoch uint64
	// KeySamples is the node's view of its hottest coordinated keys: the
	// top keys of a decayed per-key access tally, the raw material the
	// regrouping subsystem clusters into consistency categories. Empty
	// when key sampling is disabled.
	KeySamples []KeySample
}

// GroupCounters is one key group's cumulative coordinated-operation tally.
type GroupCounters struct {
	Reads  uint64
	Writes uint64
	// BytesWritten is the group's cumulative coordinated write payload, so
	// the monitor can derive a per-group mean write size (groups with
	// different payload sizes get distinct Tp estimates).
	BytesWritten uint64
	// RepairRows / RepairAgeMs split the anti-entropy divergence gauge by
	// key group (see StatsResponse), so the controller can tighten exactly
	// the groups whose data a recovering replica is serving stale.
	RepairRows  uint64
	RepairAgeMs uint64
}

// KeySample is one key's exponentially decayed read/write weight as sampled
// by a storage node. Weights are decayed floats, not counters: each stats
// poll multiplies them down, so a key that stops being accessed fades out of
// the sample within a few rounds.
type KeySample struct {
	Key    []byte
	Reads  float64
	Writes float64
}

// GroupUpdate is an epoch-versioned key-grouping assignment broadcast by
// the regrouping subsystem to every storage node: which group each sampled
// key belongs to, each group's tolerable stale-read rate, and the group
// unassigned keys default to. A node applies an update exactly once per
// epoch (stale or duplicate epochs are ignored), atomically swapping its
// GroupFn and re-baselining its per-group counters so telemetry from epoch
// e is never mixed with epoch e+1.
type GroupUpdate struct {
	// Epoch strictly increases with every assignment change.
	Epoch uint64
	// Tolerances holds one tolerable stale-read rate per group; its length
	// is the group count of the new assignment.
	Tolerances []float64
	// Default is the group for keys absent from Entries (index into
	// Tolerances); unseen keys are by construction cold, so this is
	// normally the loosest group.
	Default uint32
	// Entries maps the sampled keys to their groups.
	Entries []GroupAssign
}

// GroupAssign is one key→group binding of a GroupUpdate.
type GroupAssign struct {
	Key   []byte
	Group uint32
}

// TokenRange is a half-open arc (Start, End] of the 64-bit token ring. A
// wrapping range (Start >= End) covers (Start, 2^64) ∪ [0, End]. Ranges are
// derived deterministically from the ring's vnode tokens, so every node
// computes identical range boundaries without coordination.
type TokenRange struct {
	Start, End uint64
}

// Contains reports whether token t falls inside the range.
func (r TokenRange) Contains(t uint64) bool {
	if r.Start < r.End {
		return t > r.Start && t <= r.End
	}
	return t > r.Start || t <= r.End // wrapping arc
}

// TreeRequest asks a replica to build (or fetch cached) Merkle trees over
// the given token ranges of its local engine — the validation phase of an
// anti-entropy repair session.
type TreeRequest struct {
	ID     uint64
	Ranges []TokenRange
}

// RangeTree is one range's Merkle tree: the root hash plus every leaf hash,
// in leaf order. Exchanging whole trees (Cassandra's validation protocol)
// costs one round trip; the initiator diffs the leaves locally. Tree size is
// proportional to the configured leaf count, never to the data.
type RangeTree struct {
	Range  TokenRange
	Root   uint64
	Leaves []uint64
}

// TreeResponse carries the responder's trees back to the session initiator.
type TreeResponse struct {
	ID    uint64
	Trees []RangeTree
}

// LeafRef names one divergent Merkle leaf within a session.
type LeafRef struct {
	Range TokenRange
	Leaf  uint32
}

// SyncEntry is one key/value streamed during range synchronization.
// Tombstones ride along so deletes anti-entropy the same way writes do.
type SyncEntry struct {
	Key   []byte
	Value Value
}

// RangeSync streams the rows of divergent Merkle leaves between the two
// endpoints of a repair session. The initiator sends its rows with
// Reply=true; the responder applies them (last-writer-wins through the
// normal storage path) and answers with its own rows for the same leaves at
// Reply=false, so after one exchange both replicas hold the union of newest
// versions. Done marks the final chunk of a direction.
type RangeSync struct {
	ID uint64
	// LeafCount is the per-range Merkle leaf count the Leaves indices were
	// computed against — the INITIATOR's resolution. The responder selects
	// its reply rows at this resolution, so replicas configured with
	// different LeavesPerRange still converge (the diff conservatively
	// marks every leaf divergent when counts mismatch).
	LeafCount uint32
	Leaves    []LeafRef
	Entries   []SyncEntry
	Reply     bool
	Done      bool
}

// Ping measures pairwise latency; the monitoring module's ping substitute.
type Ping struct {
	ID   uint64
	Sent int64 // sender clock, UnixNano
}

// Pong answers a Ping, echoing the original send time.
type Pong struct {
	ID   uint64
	Sent int64
}

// GossipSyn carries heartbeat digests: node id -> (generation, version).
type GossipSyn struct {
	From    string
	Digests []GossipEntry
}

// GossipAck answers a GossipSyn with the sender's newer state.
type GossipAck struct {
	From    string
	Entries []GossipEntry
}

// GossipEntry is one node's heartbeat state.
type GossipEntry struct {
	Node       string
	Generation uint64
	Version    uint64
}

// Error reports a coordination failure (timeout, unavailable).
type Error struct {
	ID   uint64
	Code ErrorCode
	Msg  string
}

// ErrorCode classifies failures.
type ErrorCode uint8

// Error codes.
const (
	errUnknown ErrorCode = iota
	ErrTimeout
	ErrUnavailable
	errBadRequest
	// ErrOverloaded is the coordinator's fail-fast reply when its bounded
	// in-flight op budget is exhausted: load is shed immediately instead of
	// queueing work that would time out anyway.
	ErrOverloaded
)

func (e ErrorCode) String() string {
	switch e {
	case ErrTimeout:
		return "timeout"
	case ErrUnavailable:
		return "unavailable"
	case errBadRequest:
		return "bad-request"
	case ErrOverloaded:
		return "overloaded"
	}
	return "unknown"
}

// Message is implemented by every wire message.
type Message interface {
	Kind() Kind
}

// Kind implementations.
func (ReadRequest) Kind() Kind     { return kindReadRequest }
func (ReadResponse) Kind() Kind    { return kindReadResponse }
func (WriteRequest) Kind() Kind    { return kindWriteRequest }
func (WriteResponse) Kind() Kind   { return kindWriteResponse }
func (ReplicaRead) Kind() Kind     { return kindReplicaRead }
func (ReplicaReadResp) Kind() Kind { return kindReplicaReadResp }
func (Mutation) Kind() Kind        { return kindMutation }
func (MutationAck) Kind() Kind     { return kindMutationAck }
func (Repair) Kind() Kind          { return kindRepair }
func (StatsRequest) Kind() Kind    { return kindStatsRequest }
func (StatsResponse) Kind() Kind   { return kindStatsResponse }
func (Ping) Kind() Kind            { return kindPing }
func (Pong) Kind() Kind            { return kindPong }
func (GossipSyn) Kind() Kind       { return kindGossipSyn }
func (GossipAck) Kind() Kind       { return kindGossipAck }
func (Error) Kind() Kind           { return kindError }
func (GroupUpdate) Kind() Kind     { return kindGroupUpdate }
func (TreeRequest) Kind() Kind     { return kindTreeRequest }
func (TreeResponse) Kind() Kind    { return kindTreeResponse }
func (RangeSync) Kind() Kind       { return kindRangeSync }
