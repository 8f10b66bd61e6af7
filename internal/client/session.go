package client

import (
	"hash/fnv"

	"harmony/internal/versioning"
	"harmony/internal/wire"
)

// sessionBuckets is the token-table width: keys hash onto this many
// key-range buckets, each holding one high-water vector clock. More buckets
// mean fewer cross-key watermark collisions (a hot neighbor inflating the
// token another key's reads must satisfy) at a few words per bucket.
const sessionBuckets = 64

// Session is the client's documented entry point: Driver operations wrapped
// with session guarantees. It maintains compact session tokens — one
// high-water vector clock per key-range bucket, folded from every
// acknowledged write and observed read — and attaches them to reads issued
// at wire.Session, where the coordinator must answer with a version covering
// the token (read-your-writes + monotonic reads, usually at single-replica
// cost).
//
// A Session works over ANY policy. At levels other than wire.Session the
// cluster enforces nothing, but the Session still tracks what it has seen
// and counts violations (Regressions): a Session over a ONE policy is the
// measurement arm showing what SESSION would have prevented.
//
// Like the Driver it wraps, a Session must be used from the driver's runtime
// context; callbacks run there too.
type Session struct {
	d       *Driver
	buckets [sessionBuckets]versioning.Clock
	// lastSeen is the per-key high-water timestamp of everything this
	// session wrote or read, the ground truth Regressions is judged
	// against.
	lastSeen    map[string]int64
	reads       uint64
	writes      uint64
	regressions uint64
}

// NewSession wraps a driver. Multiple sessions over one driver are
// independent: each carries its own tokens and guarantees.
func NewSession(d *Driver) *Session {
	return &Session{d: d, lastSeen: make(map[string]int64)}
}

// Driver exposes the wrapped low-level driver.
func (s *Session) Driver() *Driver { return s.d }

// bucket maps a key to its token bucket with a fixed hash (FNV-1a), so a
// seeded run assigns every key the same bucket each time.
func (s *Session) bucket(key []byte) *versioning.Clock {
	h := fnv.New64a()
	h.Write(key)
	return &s.buckets[h.Sum64()%sessionBuckets]
}

// observe folds an operation's outcome into the session state: the version
// clock raises the key range's token, the timestamp raises the per-key
// watermark. A read answering below the watermark is a regression — the
// session had already seen (or written) something newer.
func (s *Session) observe(key []byte, ts int64, clock []wire.ClockEntry, isRead bool) {
	b := s.bucket(key)
	if len(clock) > 0 {
		*b = versioning.Merge(*b, versioning.Clock(clock))
	} else if ts > 0 {
		// Legacy clock-less value: keep the watermark honest anyway.
		*b = versioning.Stamp(*b, "", uint64(ts))
	}
	k := string(key)
	if isRead && ts < s.lastSeen[k] {
		s.regressions++
	}
	if ts > s.lastSeen[k] {
		s.lastSeen[k] = ts
	}
}

// Read fetches key at the policy's read level, carrying the session token
// when that level is wire.Session.
func (s *Session) Read(key []byte, cb func(ReadResult)) {
	level, _ := s.d.opts.Policy.LevelsFor(key)
	s.ReadAt(key, level, cb)
}

// ReadAt fetches key at an explicit level under the session's guarantees.
func (s *Session) ReadAt(key []byte, level wire.ConsistencyLevel, cb func(ReadResult)) {
	var token []wire.ClockEntry
	if level == wire.Session {
		token = []wire.ClockEntry(*s.bucket(key))
	}
	s.reads++
	s.d.readToken(key, level, token, s.d.opts.MaxAttempts, true, func(res ReadResult) {
		if res.Err == nil {
			s.observe(key, res.Ts, res.Clock, true)
		}
		cb(res)
	})
}

// Write stores value under key and folds the acknowledged write's clock into
// the session token, so subsequent SESSION reads observe it.
func (s *Session) Write(key, value []byte, cb func(WriteResult)) {
	s.writes++
	s.d.Write(key, value, func(res WriteResult) {
		if res.Err == nil {
			s.observe(key, res.Ts, res.Clock, false)
		}
		cb(res)
	})
}

// Delete removes key (tombstone write) under the session's guarantees.
func (s *Session) Delete(key []byte, cb func(WriteResult)) {
	s.writes++
	s.d.Delete(key, func(res WriteResult) {
		if res.Err == nil {
			s.observe(key, res.Ts, res.Clock, false)
		}
		cb(res)
	})
}

// Regressions reports how many reads answered with a version older than one
// this session had already written or read — the violations SESSION level
// exists to prevent. A session running at wire.Session must report zero; a
// session observing a ONE policy reports what weak reads let through.
func (s *Session) Regressions() uint64 { return s.regressions }

// Ops reports the session's completed-or-issued read and write counts.
func (s *Session) Ops() (reads, writes uint64) { return s.reads, s.writes }
