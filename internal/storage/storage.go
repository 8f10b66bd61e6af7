// Package storage implements a node-local storage engine: the newest
// version of every key a replica holds, arbitrated on write by the store's
// one version order, wire.Value.Compare (last-writer-wins on the timestamp,
// ties settled by tombstone, then data bytes), so replicas that received the
// same versions in any order hold the same winner.
//
// By default — and in the simulator, which runs thousands of node instances
// — the engine is a lock-striped in-memory map. For the real TCP deployment
// Options.Persist backs every shard with a bitcask-style durable log
// instead: an append-only log of CRC-framed records (the node's commit log)
// plus an in-memory key→offset index, with group-commit fsync batching and
// crash recovery from hint files + tail replay (see bitcask.go).
//
// Keys hash onto N independent shards, each with its own mutex, so
// concurrent operations on different shards never contend. The backend
// split is one nil check per entry point: a shard either holds its versions
// in a map or has a disk log.
package storage

import (
	"fmt"
	"hash/maphash"
	"path/filepath"
	"runtime"
	"slices"
	"sync"

	"harmony/internal/wire"
)

// maxShards bounds the stripe count (past a few stripes per core more
// stripes no longer cut contention; each only adds a map for scans to visit).
const maxShards = 128

// shard is one lock stripe: an independent map of each key's newest version.
// The lock is a plain mutex, not an RWMutex: with operations spread over
// the stripes, intra-shard reader concurrency buys little, while the
// RWMutex write path costs roughly twice the atomic read-modify-writes per
// Apply (measured ~20% of the write hot path). All counters mutate under
// mu. The struct is padded to its own cache lines so one shard's hot mutex
// never false-shares with a neighbor's.
type shard struct {
	mu   sync.Mutex
	vals map[string]*wire.Value // nil iff disk is set
	disk *diskShard             // non-nil iff the engine was opened with Options.Persist

	reads    uint64
	writes   uint64
	siblings uint64 // same-timestamp versions with different contents

	_ [80]byte // pad to 128 bytes
}

// Engine is a single replica's storage. It is safe for concurrent use.
type Engine struct {
	shards    []shard
	mask      uint64 // len(shards)-1; shard selection is hash&mask
	seed      maphash.Seed
	onReplace func(key []byte, old wire.Value, hadOld bool, v wire.Value)
	persist   *persistState // nil for the in-memory engine
	scanPool  sync.Pool     // *scanScratch, reused across Scan/ScanVersions
}

// Options configure an Engine.
type Options struct {
	// Shards is the lock-stripe count, rounded up to a power of two and
	// capped at 128; <=0 picks a power of two a small multiple above
	// GOMAXPROCS (see defaultShards). One shard reproduces the classic
	// single-lock engine exactly.
	Shards int
	// OnReplace, when non-nil, observes every mutation that actually
	// changed the engine (version arbitration accepted it) together with
	// the displaced version: old is the newest value the engine held for
	// key before this mutation (hadOld false for a first write). The
	// anti-entropy subsystem uses it to fold the replaced row's digest out
	// of — and the new row's digest into — the affected Merkle leaf in
	// place, instead of invalidating the whole token arc. The callback runs
	// after the shard's lock is released, on the applying goroutine, once,
	// as soon as the version is visible — on a durable engine that is
	// before the fsync round covering it, not after: a hook sees a version
	// a crash may still lose. It must not call back into the engine's write
	// path.
	OnReplace func(key []byte, old wire.Value, hadOld bool, v wire.Value)
	// Persist, when non-nil, backs every shard with a bitcask-style
	// append-only log under Persist.Path (or the pre-acquired Persist.Dir)
	// instead of in-memory maps: writes are durable per the fsync mode,
	// and a reopened engine recovers its pre-crash state. Persistent
	// engines route keys with a stable hash and pin the shard count in the
	// data dir's MANIFEST, so Shards is only advisory on first open (unset,
	// a new dir gets one shard: one append log) and ignored on reopen. Use
	// Open to get construction errors instead of panics.
	Persist *PersistOptions
}

// defaultShards picks the power of two at or above four times GOMAXPROCS:
// with exclusive per-shard locks, a stripe surplus drives the chance that
// two runnable goroutines collide on one stripe toward zero — measured at
// 8 workers, 4x stripes benchmark ~10-15% faster reads than 2x and ~25%
// faster than 1x, with flat write cost (a shard is ~128 B + one empty map
// until data arrives, so the surplus is nearly free).
func defaultShards() int {
	n := 4 * runtime.GOMAXPROCS(0)
	p := 1
	for p < n && p < maxShards {
		p <<= 1
	}
	return p
}

// NewEngine creates an empty engine. With Options.Persist set it panics on
// any persistence error — use Open when errors should be handled (servers
// pre-flight the fallible lock/version checks via AcquireDataDir, so a
// panic here means real I/O failure).
func NewEngine(opts Options) *Engine {
	e, err := Open(opts)
	if err != nil {
		panic(fmt.Sprintf("storage: %v", err))
	}
	return e
}

// Open creates an engine, recovering persistent state when Options.Persist
// is set: each shard's key index is rebuilt from hint files plus a
// CRC-verified replay of the log tail, truncating the torn record a
// mid-write crash leaves. The in-memory engine (Persist nil) cannot fail.
func Open(opts Options) (*Engine, error) {
	n := opts.Shards
	if n <= 0 {
		if opts.Persist != nil {
			n = defaultPersistShards
		} else {
			n = defaultShards()
		}
	}
	if n > maxShards {
		n = maxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	var dd *DataDir
	if po := opts.Persist; po != nil {
		dd = po.Dir
		if dd == nil {
			var err error
			if dd, err = AcquireDataDir(po.Path); err != nil {
				return nil, err
			}
		}
		if dd.shards != 0 {
			p = dd.shards // MANIFEST pins the stripe count across restarts
		} else if err := dd.stamp(p); err != nil {
			dd.Release()
			return nil, err
		}
	}
	e := &Engine{
		shards:    make([]shard, p),
		mask:      uint64(p - 1),
		seed:      maphash.MakeSeed(),
		onReplace: opts.OnReplace,
	}
	if opts.Persist == nil {
		for i := range e.shards {
			e.shards[i].vals = make(map[string]*wire.Value)
		}
		return e, nil
	}
	po := *opts.Persist
	if po.SegmentBytes <= 0 {
		po.SegmentBytes = 64 << 20
	}
	if po.maxSealedSegments <= 0 {
		po.maxSealedSegments = 4
	}
	e.persist = newPersistState(dd, po.FsyncInterval)
	for i := range e.shards {
		d, err := openDiskShard(filepath.Join(dd.Path(), fmt.Sprintf("shard-%03d", i)), po.SegmentBytes, po.maxSealedSegments)
		if err != nil {
			for j := range i {
				e.shards[j].disk.closeAll()
			}
			dd.Release()
			return nil, err
		}
		e.shards[i].disk = d
	}
	if e.persist.groupCommit {
		go e.persist.runGroup(e)
	} else {
		go e.persist.runPeriodic(e)
	}
	return e, nil
}

// defaultPersistShards is the stripe count — the number of append logs —
// for a new persistent data dir when Options.Shards is unset: one. A fsync
// round fsyncs each dirty log in turn, and one fsync costs the same whether
// it covers one record or sixteen, so k appends spread over k logs pay k
// fsyncs where one log pays one; and a member's engine calls all arrive on
// its mailbox goroutine, so there is no lock contention for stripes to
// relieve. An existing data dir keeps the count its MANIFEST pins.
const defaultPersistShards = 1

// shardOf routes a key to its stripe. Persistent engines use a fixed hash
// (FNV-1a): routing must be identical across process restarts or a
// reopened engine would look for keys in the wrong shard's log.
func (e *Engine) shardOf(key []byte) *shard {
	if e.mask == 0 {
		return &e.shards[0]
	}
	if e.persist != nil {
		return &e.shards[fnv64a(key)&e.mask]
	}
	return &e.shards[maphash.Bytes(e.seed, key)&e.mask]
}

// fnv64a is the FNV-1a hash, inlined to keep the persistent read/write hot
// path free of the hash/fnv package's interface indirection.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Apply writes v under key if it is newer than what is already held in the
// version order (wire.Value.Compare); a replay of the held version is not
// newer and changes nothing. It reports whether the value was applied, and
// returns once the outcome is as durable as the engine's mode makes it:
// Apply is ApplyTicket followed by WaitDurable.
func (e *Engine) Apply(key []byte, v wire.Value) (bool, error) {
	applied, ticket, err := e.ApplyTicket(key, v)
	if err != nil {
		return false, err
	}
	if err := e.WaitDurable(ticket); err != nil {
		// The record is applied in memory but its durability is unknown —
		// the engine is poisoned (sticky error) and must be closed.
		return false, err
	}
	return applied, nil
}

// ApplyTicket is Apply without the durability wait: it arbitrates, appends,
// makes the version visible to reads, runs the OnReplace hook and returns a
// ticket for the fsync round that will cover the outcome. Ticket 0 means there is
// nothing to wait for — an in-memory engine, the periodic fsync mode, or a
// rejected mutation whose winner is already on disk — and the caller may
// acknowledge at once. A non-zero ticket is durable once WaitDurable(ticket)
// returns nil or the NotifySynced callback reports a watermark at or above
// it; tickets are issued in increasing order.
//
// A mutation rejected in favour of a version whose fsync is still pending (a
// replayed write arriving behind the original) gets the newest issued
// ticket, not 0: acknowledging it tells the writer "this or something newer
// is on disk", which is only true after the winner's round.
//
// The hot path is allocation-free for keys the engine already holds: the
// stored value is updated in place under the shard lock, so a steady-state
// overwrite workload performs no per-operation allocation.
func (e *Engine) ApplyTicket(key []byte, v wire.Value) (applied bool, ticket uint64, err error) {
	if len(key) == 0 {
		return false, 0, fmt.Errorf("storage: empty key")
	}
	s := e.shardOf(key)
	if s.disk != nil {
		return e.applyDisk(s, key, v)
	}
	var old wire.Value
	var hadOld bool
	s.mu.Lock()
	s.writes++
	if p, ok := s.vals[string(key)]; ok {
		old, hadOld = *p, true
		if !s.arbitrate(v, old) {
			s.mu.Unlock()
			return false, 0, nil
		}
		*p = v
	} else {
		vp := new(wire.Value)
		*vp = v
		s.vals[string(key)] = vp
	}
	s.mu.Unlock()
	if e.onReplace != nil {
		e.onReplace(key, old, hadOld, v)
	}
	return true, 0, nil
}

// WaitDurable blocks until the fsync round covering ticket has completed and
// returns the engine's sticky fsync error, if any. Ticket 0 never blocks.
func (e *Engine) WaitDurable(ticket uint64) error {
	if e.persist == nil {
		return nil
	}
	return e.persist.wait(ticket)
}

// NotifySynced registers fn to be called after every fsync round that
// advanced the watermark — once per round, in watermark order, on the
// goroutine that ran the round (the syncer's, or an explicit Sync's). Every
// ticket at or below the reported value is on disk. A failed round does not
// call it (a poisoned engine acknowledges nothing more) and neither does
// the final round of Close. fn may block: the applying goroutine never
// waits on the syncer. It is a no-op for engines that issue no tickets.
func (e *Engine) NotifySynced(fn func(watermark uint64)) {
	if p := e.persist; p != nil {
		p.mu.Lock()
		p.notify = fn
		p.mu.Unlock()
	}
}

// applyDisk is the persistent ApplyTicket path: version arbitration against
// the keydir's metadata (the stored Data is pread only when the comparison
// can actually reach a byte-level tie-break or a hook observes the old row),
// one appended record, and a group-commit ticket. Steady-state overwrites
// allocate nothing: the record encodes into the shard scratch and the keydir
// entry is updated in place.
func (e *Engine) applyDisk(s *shard, key []byte, v wire.Value) (bool, uint64, error) {
	var old wire.Value
	var hadOld bool
	s.mu.Lock()
	s.writes++
	d := s.disk
	ent := d.keydir[string(key)]
	if ent != nil {
		hadOld = true
		old = wire.Value{Timestamp: ent.ts, Tombstone: ent.tomb}
		if e.needOldData(v, old) {
			full, err := d.readValue(ent)
			if err != nil {
				s.mu.Unlock()
				return false, 0, err
			}
			old = full
		}
		if !s.arbitrate(v, old) {
			// Under the shard lock, so the winner's ticket is already issued.
			ticket, err := e.persist.pending()
			s.mu.Unlock()
			return false, ticket, err
		}
	}
	if err := d.append(key, v, ent); err != nil {
		s.mu.Unlock()
		return false, 0, err
	}
	ticket, err := e.persist.mark()
	s.mu.Unlock()
	if err != nil {
		return false, 0, err
	}
	if e.onReplace != nil {
		e.onReplace(key, old, hadOld, v)
	}
	return true, ticket, nil
}

// needOldData reports whether version arbitration (or the hook) can observe
// the stored value's Data, requiring a pread of the old record. The order
// reaches Data only when timestamp and tombstone flag tie; the OnReplace
// hook (whose consumers digest the replaced row's bytes) always needs it.
func (e *Engine) needOldData(incoming, old wire.Value) bool {
	if e.onReplace != nil {
		return true
	}
	return incoming.Timestamp == old.Timestamp && incoming.Tombstone == old.Tombstone
}

// arbitrate reports whether incoming replaces the held version old, and
// counts a sibling when the two share a timestamp but differ in content.
// Caller holds the shard lock.
func (s *shard) arbitrate(incoming, old wire.Value) bool {
	c := incoming.Compare(old)
	if c != 0 && incoming.Timestamp == old.Timestamp {
		s.siblings++
	}
	return c > 0
}

// Get returns the newest value for key. ok is false when the key was never
// written (a tombstoned key returns ok=true with Value.Tombstone set, so
// replication can propagate deletes).
func (e *Engine) Get(key []byte) (wire.Value, bool) {
	s := e.shardOf(key)
	s.mu.Lock()
	s.reads++
	if d := s.disk; d != nil {
		ent := d.keydir[string(key)]
		if ent == nil {
			s.mu.Unlock()
			return wire.Value{}, false
		}
		v, err := d.readValue(ent)
		s.mu.Unlock()
		if err != nil {
			// A record that fails its CRC after recovery is unreadable; the
			// shard's readErrs counter records it and the key reads as
			// missing so anti-entropy can re-converge it from peers.
			return wire.Value{}, false
		}
		return v, true
	}
	p, ok := s.vals[string(key)]
	var v wire.Value
	if ok {
		v = *p
	}
	s.mu.Unlock()
	return v, ok
}

// kv is one scan result row.
type kv struct {
	k string
	v wire.Value
}

// Scan invokes fn over every live key/value in [start, end) in key order
// (nil bounds mean unbounded); fn returning false stops the scan.
// Tombstoned entries are skipped. Tombstones are never dropped from the
// engine: peer replicas may still need them for read repair.
//
// Each shard contributes one sorted run, and the runs merge into the
// result. Shards are snapshotted one at a time under their locks, so a scan
// is consistent per shard but not a point-in-time snapshot across shards —
// concurrent writers to other shards may or may not be observed, exactly
// like a range read over a striped store.
func (e *Engine) Scan(start, end []byte, fn func(key []byte, v wire.Value) bool) {
	e.scan(start, end, false, fn)
}

// ScanVersions is Scan including tombstoned entries: anti-entropy repair
// must exchange deletes the same way it exchanges writes, or a tombstone on
// one replica against live data on another would diverge forever.
func (e *Engine) ScanVersions(start, end []byte, fn func(key []byte, v wire.Value) bool) {
	e.scan(start, end, true, fn)
}

// scanScratch is the pooled working set of one scan: per-shard run buffers,
// the merge heap and cursors, and the key snapshot a shard sorts. All are
// reused across scans so a steady scan workload allocates only what rows
// force the buffers to grow.
type scanScratch struct {
	runs [][]kv // per-shard collected rows, indexed by shard
	part []int  // indices into runs of the non-empty runs this scan
	heap []int
	idx  []int
	keys []string // one shard's sorted in-range key snapshot
}

func (e *Engine) scan(start, end []byte, tombstones bool, fn func(key []byte, v wire.Value) bool) {
	sc, _ := e.scanPool.Get().(*scanScratch)
	if sc == nil {
		sc = &scanScratch{}
	}
	if len(sc.runs) < len(e.shards) {
		sc.runs = append(sc.runs, make([][]kv, len(e.shards)-len(sc.runs))...)
	}
	defer func() {
		// Drop value references before pooling so a retained scratch never
		// pins row payloads alive.
		for i := range sc.runs {
			clear(sc.runs[i])
			sc.runs[i] = sc.runs[i][:0]
		}
		clear(sc.keys)
		sc.keys = sc.keys[:0]
		e.scanPool.Put(sc)
	}()
	parts := sc.part[:0]
	for i := range e.shards {
		sc.runs[i] = e.shards[i].collect(sc.runs[i][:0], start, end, tombstones, sc)
		if len(sc.runs[i]) > 0 {
			parts = append(parts, i)
		}
	}
	sc.part = parts
	// Merge the per-shard sorted runs via a min-heap of run heads: the run
	// count grows with the stripe count, so a linear min would cost
	// O(shards) per output row. Keys never repeat across shards, so this is
	// a pure merge with no dedup; each part is non-empty.
	heap := append(sc.heap[:0], parts...) // heap of run indices, keyed by head key
	idx := sc.idx[:0]                     // per-run cursor, indexed by shard
	for range sc.runs {
		idx = append(idx, 0)
	}
	sc.heap, sc.idx = heap, idx
	head := func(p int) string { return sc.runs[p][idx[p]].k }
	less := func(a, b int) bool { return head(heap[a]) < head(heap[b]) }
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i, less)
	}
	for len(heap) > 0 {
		p := heap[0]
		item := sc.runs[p][idx[p]]
		idx[p]++
		if idx[p] == len(sc.runs[p]) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		if len(heap) > 0 {
			siftDown(heap, 0, less)
		}
		if !fn([]byte(item.k), item.v) {
			return
		}
	}
}

// siftDown restores the min-heap property for the subtree rooted at i.
func siftDown(h []int, i int, less func(a, b int) bool) {
	for {
		small := i
		if l := 2*i + 1; l < len(h) && less(l, small) {
			small = l
		}
		if r := 2*i + 2; r < len(h) && less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// collect appends the shard's live (or all-version) rows in [start, end) to
// dst in key order: a sorted snapshot of the in-range keys, each resolved
// under the shard lock by map lookup in memory or by pread on disk.
// Persistent rows whose records fail their CRC are skipped (and counted) so
// one bad sector cannot wedge anti-entropy for the whole range. The
// scratch's key buffer is borrowed for the call (the engine runs shard
// collects sequentially within a scan).
func (s *shard) collect(dst []kv, start, end []byte, tombstones bool, sc *scanScratch) []kv {
	startKey, endKey := string(start), string(end)
	inRange := func(k string) bool {
		return (start == nil || k >= startKey) && (end == nil || k < endKey)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := sc.keys[:0]
	if d := s.disk; d != nil {
		for k, ent := range d.keydir {
			if (tombstones || !ent.tomb) && inRange(k) {
				keys = append(keys, k)
			}
		}
	} else {
		for k, p := range s.vals {
			if (tombstones || !p.Tombstone) && inRange(k) {
				keys = append(keys, k)
			}
		}
	}
	slices.Sort(keys)
	sc.keys = keys
	for _, k := range keys {
		if s.disk == nil {
			dst = append(dst, kv{k, *s.vals[k]})
		} else if v, err := s.disk.readValue(s.disk.keydir[k]); err == nil {
			dst = append(dst, kv{k, v})
		}
	}
	return dst
}

// Stats is a snapshot of engine counters, summed across shards.
type Stats struct {
	Writes uint64
	Reads  uint64
	// Compactions counts persistent segment compactions.
	Compactions uint64
	// Siblings counts applies where the incoming and held versions shared a
	// timestamp but differed in content, so the version order's tie-break
	// (tombstone, then data bytes) decided — the store's conflict-rate
	// gauge.
	Siblings uint64
	LiveKeys int
	Shards   int
	// Persistent-backend gauges; zero for the in-memory engine.
	DiskSegments  int    // data files across shards (incl. active)
	DiskBytes     int64  // total log bytes on disk
	DiskDeadBytes int64  // bytes owned by overwritten records (compaction reclaims)
	RecoveredRows int    // keydir entries rebuilt from disk at Open
	ReadErrors    uint64 // records that failed CRC/pread after recovery
	KeydirBytes   int64  // estimated resident bytes of the keydirs (the RAM ceiling)
	// Fsync-batch stats: fsync calls issued by batch rounds, and the
	// appends those rounds covered — FsyncBatchedOps/Fsyncs is the group-
	// commit amortization factor.
	Fsyncs          uint64
	FsyncBatchedOps uint64
}

// Stats returns a snapshot of the engine's counters, aggregated over
// shards. Each shard is snapshotted consistently under its lock; the
// aggregate is not a cross-shard point-in-time snapshot. It allocates
// nothing: /metrics calls it on every scrape.
func (e *Engine) Stats() Stats {
	st := Stats{Shards: len(e.shards)}
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		st.Writes += s.writes
		st.Reads += s.reads
		st.Siblings += s.siblings
		st.LiveKeys += len(s.vals)
		if d := s.disk; d != nil {
			st.Compactions += d.compacted
			st.LiveKeys += len(d.keydir)
			st.DiskSegments += len(d.segs)
			for _, sg := range d.segs {
				st.DiskBytes += sg.size
				st.DiskDeadBytes += sg.dead
			}
			st.RecoveredRows += d.recovered
			st.ReadErrors += d.readErrs
			st.KeydirBytes += d.keydirBytes
		}
		s.mu.Unlock()
	}
	if p := e.persist; p != nil {
		p.mu.Lock()
		st.Fsyncs = p.fsyncs
		st.FsyncBatchedOps = p.fsyncOps
		p.mu.Unlock()
	}
	return st
}

// Recovered returns the number of rows rebuilt from disk when the engine
// opened — the keydir entries restored from hint files plus the replayed
// log tail. Zero for in-memory engines.
func (e *Engine) Recovered() int {
	n := 0
	for i := range e.shards {
		if d := e.shards[i].disk; d != nil {
			n += d.recovered
		}
	}
	return n
}

// Sync forces an immediate fsync round over every shard with unsynced
// appends. It is a no-op for in-memory engines. Periodic-mode callers use
// it to bound data loss at a checkpoint without waiting for the timer.
func (e *Engine) Sync() error {
	if e.persist == nil {
		return nil
	}
	return e.persist.syncRound(e)
}

// Close flushes and releases the persistent backend: a final fsync round,
// syncer shutdown, segment file closes, and the data-dir lock release. The
// engine must not be used after Close. In-memory engines close trivially.
func (e *Engine) Close() error {
	if e.persist == nil {
		return nil
	}
	return e.persist.close(e)
}
