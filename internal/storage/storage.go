// Package storage implements a node-local storage engine with the write
// path the paper describes for Cassandra (§II-B): a mutation is appended to
// a commit log and applied to an in-memory table before it is acknowledged;
// memtables are periodically frozen and flushed to immutable tables that
// reads merge with last-writer-wins timestamp reconciliation.
//
// The engine is deliberately log-structured like Cassandra's, but flushed
// tables live in memory by default (the simulator runs thousands of node
// instances). For the real TCP deployment Options.Persist slots a
// bitcask-style durable backend behind the same sharded interface: each
// shard keeps an append-only log of CRC-framed records plus an in-memory
// key→offset index, with group-commit fsync batching and crash recovery
// from hint files + tail replay (see bitcask.go). The legacy file-backed
// commit log remains for callers that only want a replayable journal.
//
// The engine is lock-striped: keys hash onto N independent shards, each
// with its own mutex, memtable, and flushed tables, so concurrent
// operations on different shards never contend and a flush or compaction
// freezes one shard instead of stopping the world. Within a shard the
// engine maintains the invariant that the memtable always holds the newest
// visible version of a key and later tables shadow earlier ones, so a
// lookup probes the memtable and then tables newest-first, stopping at the
// first hit.
package storage

import (
	"fmt"
	"hash/maphash"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"

	"harmony/internal/versioning"
	"harmony/internal/wire"
)

// maxShards bounds the stripe count (shard state is ~page-sized once maps
// warm up, and past the core count more stripes only dilute memtables).
const maxShards = 128

// shard is one lock stripe: an independent memtable plus flushed tables.
// The lock is a plain mutex, not an RWMutex: with operations spread over
// the stripes, intra-shard reader concurrency buys little, while the
// RWMutex write path costs roughly twice the atomic read-modify-writes per
// Apply (measured ~20% of the write hot path). All counters mutate under
// mu. The struct is padded to its own cache lines so one shard's hot mutex
// never false-shares with a neighbor's.
type shard struct {
	mu       sync.Mutex
	memtable map[string]*wire.Value
	memBytes int
	tables   []*table
	disk     *diskShard // non-nil iff the engine was opened with Options.Persist

	reads     uint64
	writes    uint64
	flushes   uint64
	compacted uint64
	siblings  uint64 // concurrent versions settled by the resolver

	_ [32]byte // pad to 128 bytes
}

// table is an immutable flushed memtable with sorted keys for scans.
type table struct {
	keys []string
	vals map[string]*wire.Value
}

// Engine is a single replica's storage. It is safe for concurrent use.
type Engine struct {
	shards    []shard
	mask      uint64 // len(shards)-1; shard selection is hash&mask
	seed      maphash.Seed
	flushAt   int // per-shard freeze threshold in bytes
	maxTables int // per-shard compaction trigger
	log       CommitLog
	resolver  versioning.Resolver
	onApply   func(key []byte, v wire.Value)
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
	// FlushThresholdBytes freezes a memtable after this much data across
	// the whole engine (each shard freezes at its 1/Shards slice);
	// <=0 means 4 MiB.
	FlushThresholdBytes int
	// MaxFlushedTables triggers a per-shard compaction when a shard's
	// flushed-table count exceeds it; <=0 means 4.
	MaxFlushedTables int
	// CommitLog, when non-nil, receives every mutation before it is applied
	// (durability hook). Nil disables logging.
	CommitLog CommitLog
	// Resolver arbitrates concurrent (sibling) versions detected by
	// vector-clock comparison; nil means versioning.LWW, which reproduces
	// the engine's historical last-writer-wins behavior exactly. Resolvers
	// must be deterministic or anti-entropy cannot converge replicas.
	Resolver versioning.Resolver
	// OnApply, when non-nil, observes every mutation that actually changed
	// the engine (last-writer-wins accepted it), after the shard's lock is
	// released. The callback runs on the applying goroutine, once, as soon
	// as the version is visible — on a durable engine that is before the
	// fsync round covering it, not after: a hook sees a version a crash may
	// still lose. It must not call back into the engine's write path.
	OnApply func(key []byte, v wire.Value)
	// OnReplace is OnApply with the displaced version: old is the newest
	// value the engine held for key before this mutation (hadOld false for
	// a first write). The anti-entropy subsystem uses it to fold the
	// replaced row's digest out of — and the new row's digest into — the
	// affected Merkle leaf in place, instead of invalidating the whole
	// token arc. Same timing and restrictions as OnApply; when both hooks
	// are set, OnReplace runs first.
	OnReplace func(key []byte, old wire.Value, hadOld bool, v wire.Value)
	// Persist, when non-nil, backs every shard with a bitcask-style
	// append-only log under Persist.Path (or the pre-acquired Persist.Dir)
	// instead of in-memory tables: writes are durable per the fsync mode,
	// and a reopened engine recovers its pre-crash state. Persistent
	// engines route keys with a stable hash and pin the shard count in the
	// data dir's MANIFEST, so Shards is only advisory on first open (unset,
	// a new dir gets one shard: one append log) and ignored on reopen. Use
	// Open to get construction errors instead of panics.
	Persist *PersistOptions
}

// CommitLog receives mutations before they are applied.
type CommitLog interface {
	Append(key []byte, v wire.Value) error
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
	if opts.FlushThresholdBytes <= 0 {
		opts.FlushThresholdBytes = 4 << 20
	}
	if opts.MaxFlushedTables <= 0 {
		opts.MaxFlushedTables = 4
	}
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
		flushAt:   max(1, opts.FlushThresholdBytes/p),
		maxTables: opts.MaxFlushedTables,
		log:       opts.CommitLog,
		resolver:  opts.Resolver,
		onApply:   opts.OnApply,
		onReplace: opts.OnReplace,
	}
	if opts.Persist == nil {
		for i := range e.shards {
			e.shards[i].memtable = make(map[string]*wire.Value)
		}
		return e, nil
	}
	po := *opts.Persist
	if po.SegmentBytes <= 0 {
		po.SegmentBytes = 64 << 20
	}
	if po.MaxSealedSegments <= 0 {
		po.MaxSealedSegments = 4
	}
	e.persist = newPersistState(dd, po.FsyncInterval)
	for i := range e.shards {
		d, err := openDiskShard(filepath.Join(dd.Path(), fmt.Sprintf("shard-%03d", i)), po.SegmentBytes, po.MaxSealedSegments)
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

// Apply writes v under key if it wins the engine's version comparison
// against what is already held: causal (vector-clock) order when both
// versions carry clocks, the configured Resolver for concurrent siblings
// and clock-less values (last-writer-wins by default). It reports whether
// the value was applied, and returns once the outcome is as durable as the
// engine's mode makes it: Apply is ApplyTicket followed by WaitDurable.
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
// makes the version visible to reads, runs the hooks and returns a ticket
// for the fsync round that will cover the outcome. Ticket 0 means there is
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
// The hot path is allocation-free for keys already resident in the
// memtable: the stored value is updated in place under the shard lock, so a
// steady-state overwrite workload performs no per-operation allocation.
func (e *Engine) ApplyTicket(key []byte, v wire.Value) (applied bool, ticket uint64, err error) {
	if len(key) == 0 {
		return false, 0, fmt.Errorf("storage: empty key")
	}
	if e.log != nil {
		if err := e.log.Append(key, v); err != nil {
			return false, 0, fmt.Errorf("storage: commit log: %w", err)
		}
	}
	s := e.shardOf(key)
	if s.disk != nil {
		return e.applyDisk(s, key, v)
	}
	var old wire.Value
	var hadOld bool
	s.mu.Lock()
	s.writes++
	if p, ok := s.memtable[string(key)]; ok {
		// Invariant: a memtable entry is the newest visible version.
		old, hadOld = *p, true
		take, conc := versioning.Decide(v, old, e.resolver)
		if conc {
			s.siblings++
		}
		if !take {
			s.mu.Unlock()
			return false, 0, nil
		}
		s.memBytes += len(v.Data) - len(p.Data)
		*p = v
	} else {
		if tp := s.tableLookup(key); tp != nil {
			old, hadOld = *tp, true
			take, conc := versioning.Decide(v, old, e.resolver)
			if conc {
				s.siblings++
			}
			if !take {
				s.mu.Unlock()
				return false, 0, nil
			}
		}
		k := string(key)
		vp := new(wire.Value)
		*vp = v
		s.memtable[k] = vp
		s.memBytes += len(v.Data) + len(k)
	}
	if s.memBytes >= e.flushAt {
		e.flushShard(s)
	}
	s.mu.Unlock()
	e.runHooks(key, old, hadOld, v)
	return true, 0, nil
}

// runHooks tells the observers about an accepted mutation; the caller has
// released the shard lock.
func (e *Engine) runHooks(key []byte, old wire.Value, hadOld bool, v wire.Value) {
	if e.onReplace != nil {
		e.onReplace(key, old, hadOld, v)
	}
	if e.onApply != nil {
		e.onApply(key, v)
	}
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
		old = wire.Value{Timestamp: ent.ts, Tombstone: ent.tomb, Clock: ent.clock}
		if e.needOldData(v, old) {
			full, err := d.readValue(ent)
			if err != nil {
				s.mu.Unlock()
				return false, 0, err
			}
			old = full
		}
		take, conc := versioning.Decide(v, old, e.resolver)
		if conc {
			s.siblings++
		}
		if !take {
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
	e.runHooks(key, old, hadOld, v)
	return true, ticket, nil
}

// needOldData reports whether version arbitration (or a hook) can observe
// the stored value's Data, requiring a pread of the old record. With the
// default LWW resolver, Decide touches Data only on the same-timestamp
// both-clock-bearing sibling tie-break; custom resolvers and the OnReplace
// hook (whose consumers digest the replaced row's bytes) always need it.
func (e *Engine) needOldData(incoming, old wire.Value) bool {
	if e.onReplace != nil {
		return true
	}
	if e.resolver != nil {
		if _, isLWW := e.resolver.(versioning.LWW); !isLWW {
			return true
		}
	}
	return incoming.Timestamp == old.Timestamp && len(incoming.Clock) > 0 && len(old.Clock) > 0
}

// tableLookup returns the newest flushed version of key in s, newest table
// first (later tables shadow earlier ones), or nil. Caller holds s.mu.
func (s *shard) tableLookup(key []byte) *wire.Value {
	for i := len(s.tables) - 1; i >= 0; i-- {
		if p, ok := s.tables[i].vals[string(key)]; ok {
			return p
		}
	}
	return nil
}

// Get returns the newest value for key across the memtable and all flushed
// tables. ok is false when the key was never written (a tombstoned key
// returns ok=true with Value.Tombstone set, so replication can propagate
// deletes).
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
	if p, ok := s.memtable[string(key)]; ok {
		v := *p
		s.mu.Unlock()
		return v, true
	}
	if p := s.tableLookup(key); p != nil {
		v := *p
		s.mu.Unlock()
		return v, true
	}
	s.mu.Unlock()
	return wire.Value{}, false
}

// Flush freezes every shard's current memtable into an immutable table.
// Each shard freezes independently — concurrent operations on other shards
// proceed while one shard flushes.
func (e *Engine) Flush() {
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		e.flushShard(s)
		s.mu.Unlock()
	}
}

// flushShard freezes s's memtable. Caller holds s.mu. Persistent shards
// have no memtable to freeze — every accepted write is already in the log.
func (e *Engine) flushShard(s *shard) {
	if s.disk != nil || len(s.memtable) == 0 {
		return
	}
	t := &table{vals: s.memtable, keys: make([]string, 0, len(s.memtable))}
	for k := range t.vals {
		t.keys = append(t.keys, k)
	}
	slices.Sort(t.keys)
	s.tables = append(s.tables, t)
	s.memtable = make(map[string]*wire.Value)
	s.memBytes = 0
	s.flushes++
	if len(s.tables) > e.maxTables {
		e.compactShard(s)
	}
}

// Compact merges each shard's flushed tables into one, dropping shadowed
// versions. Shards compact independently.
func (e *Engine) Compact() {
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		e.compactShard(s)
		s.mu.Unlock()
	}
}

// compactShard merges s's tables by k-way merging their already-sorted key
// slices — no intermediate map rebuild, no re-sort — reusing the stored
// value boxes. Later tables shadow earlier ones, so the newest version of a
// key is taken from the highest-indexed table holding it. Caller holds s.mu.
//
// Tombstones are retained across compactions: peer replicas may still need
// them for read repair, and the simulator's working sets are small enough
// that GC-grace bookkeeping would add machinery without adding fidelity to
// the experiments.
func (e *Engine) compactShard(s *shard) {
	if s.disk != nil {
		// Persistent shards compact their sealed segments instead: rewrite
		// live records into one merged segment, reclaim the dead bytes.
		_ = s.disk.compact()
		return
	}
	if len(s.tables) <= 1 {
		return
	}
	total := 0
	for _, t := range s.tables {
		total += len(t.keys)
	}
	merged := &table{keys: make([]string, 0, total), vals: make(map[string]*wire.Value, total)}
	idx := make([]int, len(s.tables))
	for {
		// Smallest current key across tables (table counts are tiny, a
		// linear min beats a heap).
		best := -1
		var bestK string
		for i, t := range s.tables {
			if idx[i] < len(t.keys) && (best == -1 || t.keys[idx[i]] < bestK) {
				best, bestK = i, t.keys[idx[i]]
			}
		}
		if best == -1 {
			break
		}
		// The newest version lives in the highest-indexed table holding the
		// key; advance every table past it.
		var vp *wire.Value
		for i := len(s.tables) - 1; i >= 0; i-- {
			t := s.tables[i]
			if idx[i] < len(t.keys) && t.keys[idx[i]] == bestK {
				if vp == nil {
					vp = t.vals[bestK]
				}
				idx[i]++
			}
		}
		merged.keys = append(merged.keys, bestK)
		merged.vals[bestK] = vp
	}
	s.tables = []*table{merged}
	s.compacted++
}

// kv is one scan result row.
type kv struct {
	k string
	v wire.Value
}

// Scan invokes fn over every live key/value in [start, end) in key order
// (nil bounds mean unbounded); fn returning false stops the scan.
// Tombstoned entries are skipped.
//
// Each shard contributes one sorted, deduplicated slice (its flushed tables
// already keep sorted keys; only the memtable snapshot is sorted per scan),
// and the shard slices k-way merge into the result. Shards are snapshotted
// one at a time under their read locks, so a scan is consistent per shard
// but not a point-in-time snapshot across shards — concurrent writers to
// other shards may or may not be observed, exactly like a range read over a
// striped store.
func (e *Engine) Scan(start, end []byte, fn func(key []byte, v wire.Value) bool) {
	e.scan(start, end, false, fn)
}

// ScanVersions is Scan including tombstoned entries: anti-entropy repair
// must exchange deletes the same way it exchanges writes, or a tombstone on
// one replica against live data on another would diverge forever.
func (e *Engine) ScanVersions(start, end []byte, fn func(key []byte, v wire.Value) bool) {
	e.scan(start, end, true, fn)
}

// scanScratch is the pooled working set of one scan: per-shard run buffers
// plus the merge heap and in-shard merge cursors. Runs and cursors are
// reused across scans so a steady scan workload allocates only what rows
// force the run buffers to grow.
type scanScratch struct {
	runs [][]kv // per-shard collected rows, indexed by shard
	part []int  // indices into runs of the non-empty runs this scan
	heap []int
	idx  []int
	srcs [][]string // in-shard merge sources (memtable snapshot + tables)
	keys []string   // sorted memtable / keydir key snapshot
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
		clear(sc.srcs)
		sc.srcs = sc.srcs[:0]
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
	// Merge the per-shard sorted runs via a min-heap of run heads: unlike
	// the in-shard merge (whose source count is bounded by maxTables+1),
	// the run count here grows with the stripe count, so a linear min would
	// cost O(shards) per output row. Keys never repeat across shards, so
	// this is a pure merge with no cross-part dedup; each part is non-empty.
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
// dst in key order: a k-way merge over the flushed tables' sorted key
// slices plus one sorted snapshot of the memtable keys, resolved to the
// newest version under the shard's read lock. Persistent shards snapshot
// and sort the keydir instead, preading each row. The scratch's srcs/keys
// buffers are borrowed for the duration of the call (the engine runs shard
// collects sequentially within a scan).
func (s *shard) collect(dst []kv, start, end []byte, tombstones bool, sc *scanScratch) []kv {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d := s.disk; d != nil {
		return d.collect(dst, start, end, tombstones, sc)
	}
	srcs := sc.srcs[:0]
	if len(s.memtable) > 0 {
		mk := sc.keys[:0]
		for k := range s.memtable {
			mk = append(mk, k)
		}
		slices.Sort(mk)
		sc.keys = mk
		srcs = append(srcs, mk)
	}
	for _, t := range s.tables {
		srcs = append(srcs, t.keys)
	}
	sc.srcs = srcs
	idx := sc.idx[:0]
	for range srcs {
		idx = append(idx, 0)
	}
	sc.idx = idx
	if start != nil {
		for i, src := range srcs {
			idx[i], _ = slices.BinarySearch(src, string(start))
		}
	}
	endKey := string(end)
	out := dst
	for {
		best := -1
		var bestK string
		for i, src := range srcs {
			if idx[i] < len(src) && (best == -1 || src[idx[i]] < bestK) {
				best, bestK = i, src[idx[i]]
			}
		}
		if best == -1 {
			break
		}
		if end != nil && bestK >= endKey {
			break // merge order: every remaining key is out of bounds too
		}
		// Advance every source past this key (cross-source dedup).
		for i, src := range srcs {
			for idx[i] < len(src) && src[idx[i]] == bestK {
				idx[i]++
			}
		}
		var vp *wire.Value
		if p, ok := s.memtable[bestK]; ok {
			vp = p // memtable always holds the newest visible version
		} else {
			vp = s.tableLookup([]byte(bestK))
		}
		if vp != nil && (tombstones || !vp.Tombstone) {
			out = append(out, kv{bestK, *vp})
		}
	}
	return out
}

// collect is the persistent shard's scan contribution: a sorted snapshot of
// the keydir's in-range keys, each row pread and decoded. Caller holds the
// shard lock. Rows whose records fail their CRC are skipped (and counted)
// so one bad sector cannot wedge anti-entropy for the whole range.
func (d *diskShard) collect(dst []kv, start, end []byte, tombstones bool, sc *scanScratch) []kv {
	startKey, endKey := string(start), string(end)
	keys := sc.keys[:0]
	for k, e := range d.keydir {
		if !tombstones && e.tomb {
			continue
		}
		if start != nil && k < startKey {
			continue
		}
		if end != nil && k >= endKey {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sc.keys = keys
	out := dst
	for _, k := range keys {
		v, err := d.readValue(d.keydir[k])
		if err != nil {
			continue
		}
		out = append(out, kv{k, v})
	}
	return out
}

// Stats is a snapshot of engine counters. Sums aggregate across shards;
// FlushedTables is the total table count over all shards.
type Stats struct {
	Writes      uint64
	Reads       uint64
	Flushes     uint64
	Compactions uint64
	// Siblings counts applies where the incoming and held versions were
	// causally concurrent and the resolver had to arbitrate — the store's
	// conflict-rate gauge.
	Siblings      uint64
	MemtableKeys  int
	MemtableBytes int
	FlushedTables int
	LiveKeys      int
	Shards        int
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
// aggregate is not a cross-shard point-in-time snapshot.
func (e *Engine) Stats() Stats {
	st := Stats{Shards: len(e.shards)}
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		st.Writes += s.writes
		st.Reads += s.reads
		st.Flushes += s.flushes
		st.Compactions += s.compacted
		st.Siblings += s.siblings
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
			s.mu.Unlock()
			continue
		}
		st.MemtableKeys += len(s.memtable)
		st.MemtableBytes += s.memBytes
		st.FlushedTables += len(s.tables)
		live := make(map[string]struct{}, len(s.memtable))
		for k := range s.memtable {
			live[k] = struct{}{}
		}
		for _, t := range s.tables {
			for _, k := range t.keys {
				live[k] = struct{}{}
			}
		}
		st.LiveKeys += len(live)
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
