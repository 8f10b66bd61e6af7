package versioning

import (
	"bytes"

	"harmony/internal/wire"
)

// lastWriterWins settles two causally concurrent (or clock-less) versions:
// last-writer-wins on the coordinator write timestamp, ties kept (incoming
// loses), matching the engine's historical Fresh() comparison exactly. For
// true siblings with identical timestamps it falls back to a deterministic
// byte-order tie-break so replicas that received the siblings in different
// orders still converge. The rule is symmetric — every replica resolving the
// same pair picks the same winner regardless of arrival order — which is
// what lets anti-entropy converge replicas byte-for-byte.
func lastWriterWins(incoming, current wire.Value) bool {
	if incoming.Timestamp != current.Timestamp {
		return incoming.Timestamp > current.Timestamp
	}
	// Identical timestamps. Legacy clock-less values keep the historical
	// "ties keep current" rule — idempotent replays must not churn state.
	// Concurrent same-timestamp siblings (both clock-bearing, different
	// content) need a content tie-break: tombstones win (deletes are
	// explicit intent), then higher byte-order data.
	if len(incoming.Clock) == 0 || len(current.Clock) == 0 {
		return false
	}
	if incoming.Tombstone != current.Tombstone {
		return incoming.Tombstone
	}
	return bytes.Compare(incoming.Data, current.Data) > 0
}

// Decide is the engine's version-comparison gate: it reports whether
// incoming should replace current, and whether the pair was concurrent
// (siblings settled by last-writer-wins rather than causally). When both
// values carry clocks the causal order is authoritative; otherwise
// last-writer-wins arbitrates directly, which reproduces the legacy
// timestamp comparison bit-for-bit.
func Decide(incoming, current wire.Value) (take, concurrent bool) {
	if len(incoming.Clock) > 0 && len(current.Clock) > 0 {
		switch Compare(Clock(incoming.Clock), Clock(current.Clock)) {
		case Descends:
			return true, false
		case DescendedBy, Equal:
			return false, false
		case Concurrent:
			return lastWriterWins(incoming, current), true
		}
	}
	return lastWriterWins(incoming, current), false
}
