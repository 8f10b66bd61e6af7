package main

import (
	"encoding/binary"
	"sync"

	"harmony/internal/ycsb"
)

// valueHeader is the prefix every generated value carries: its key index and
// a per-key sequence number, so a read can be checked against the key it
// asked for whatever the rest of the payload is.
const valueHeader = 16

func stampValue(buf []byte, key int64, seq uint64) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(key))
	binary.LittleEndian.PutUint64(buf[8:16], seq)
}

func decodeValue(v []byte) (key int64, seq uint64, ok bool) {
	if len(v) < valueHeader {
		return 0, 0, false
	}
	return int64(binary.LittleEndian.Uint64(v[0:8])), binary.LittleEndian.Uint64(v[8:16]), true
}

// keyState is what the generator knows about each key. It is the only
// writer, so for a key whose last write did not overlap another it knows the
// newest acknowledged version exactly, and a linearizable read issued
// afterwards must return that version or a later one.
//
// Versions are compared by the store's write timestamp, which orders two
// writes the same way real time does only when one finished before the other
// began. Two writes to a key in flight together are ordered by the
// coordinators (by vector clock first, so the one stamped earlier can win),
// and the generator cannot tell which won: it then holds no floor for the
// key until a write that overlapped nothing is acknowledged.
type keyState struct {
	keys    [][]byte // ycsb.Key(i), built once and shared read-only
	entries []keyEntry
}

// keyEntry is guarded by its own lock: endpoints run on separate goroutines.
type keyEntry struct {
	mu         sync.Mutex
	seq        uint64
	inflight   int
	overlapped bool  // some write since inflight last hit zero overlapped another
	floor      int64 // timestamp of the newest clean acknowledged write; 0 = unknown
}

func newKeyState(n int64) *keyState {
	st := &keyState{keys: make([][]byte, n), entries: make([]keyEntry, n)}
	for i := range st.keys {
		st.keys[i] = ycsb.Key(int64(i))
	}
	return st
}

// writeIssued opens a write and returns its per-key sequence number.
func (st *keyState) writeIssued(key int64) uint64 {
	e := &st.entries[key]
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inflight > 0 {
		e.overlapped, e.floor = true, 0
	}
	e.inflight++
	e.seq++
	return e.seq
}

// writeDone closes a write; ts is its acknowledged timestamp, 0 if it
// failed (a failed write may still have landed, so it clears the floor).
func (st *keyState) writeDone(key int64, ts int64) {
	e := &st.entries[key]
	e.mu.Lock()
	defer e.mu.Unlock()
	e.inflight--
	switch {
	case ts == 0:
		e.floor = 0
	case !e.overlapped:
		e.floor = ts
	}
	if e.inflight == 0 {
		e.overlapped = false
	}
}

// floor is the version a linearizable read issued now must reach, or 0.
func (st *keyState) floor(key int64) int64 {
	e := &st.entries[key]
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.floor
}

// readVerdict classifies one successful read. mismatch: the value does not
// decode to the key asked for (or the key, preloaded, was not found).
// regression: the read returned a version older than one acknowledged before
// the read was issued — only meaningful where reads are linearizable.
func readVerdict(key int64, floor int64, found bool, value []byte, ts int64) (mismatch, regression bool) {
	got, _, ok := decodeValue(value)
	if !found || !ok || got != key {
		return true, false
	}
	return false, ts < floor
}
