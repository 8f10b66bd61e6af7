// Bitcask-style persistence for the sharded engine: each shard owns an
// append-only log of CRC-framed wire.Mutation records, an in-memory
// key→{segment,offset,size} index (the keydir), hint files written when a
// segment seals so cold start avoids re-scanning sealed data, and a
// compaction pass that rewrites live records and reclaims dead ones.
//
// On-disk layout under the data dir:
//
//	LOCK                 flock'd for the process lifetime (single opener)
//	MANIFEST             format version + pinned shard count
//	shard-NNN/XXXXXXXX.data   append-only record log, ascending segment ids
//	shard-NNN/XXXXXXXX.hint   keydir snapshot for a sealed segment
//
// A record is a 4-byte big-endian CRC32 (IEEE) over the wire frame that
// follows, then the frame itself: wire.Encode(wire.Mutation{Key, Value}),
// which is self-delimiting (uvarint length prefix). Recovery replays
// segments in id order — hint files for sealed segments, a CRC-verified
// scan for the tail — and truncates the log at the first torn or corrupt
// record, exactly the half-written tail a mid-write crash leaves.
//
// Durability is group-commit: an append lands in the OS page cache under the
// shard lock, is visible to reads from then on, and takes a ticket; a single
// engine-wide syncer goroutine runs fsync rounds, each covering every ticket
// issued before it began, so the appends that arrive while one round flushes
// share the next. With FsyncInterval <= 0 a write is acknowledged only by
// the round that covers its ticket — ApplyTicket returns the ticket and the
// NotifySynced callback reports each round's watermark; Apply is ApplyTicket
// plus a wait for that round. With a positive interval fsync runs on a timer,
// no tickets are issued and a write is acknowledged from the page cache. An
// fsync failure poisons the engine — the error is sticky and every later
// apply returns it — because a failed fsync leaves the page cache state
// unknowable (retrying would ack unsynced data).
//
// A new data dir has one shard, hence one append log (defaultPersistShards):
// a round is then one fsync, whatever the number of appends it covers.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"harmony/internal/wire"
)

const (
	manifestName = "MANIFEST"
	lockName     = "LOCK"

	// dataFormat is stamped into MANIFEST; an engine refuses a data dir
	// written by a different format.
	dataFormat = 1

	// recordHeader is the CRC32 prefix in front of every wire frame.
	recordHeader = 4

	// maxRecordBytes bounds a single record during replay so a corrupt
	// length prefix cannot drive a giant allocation.
	maxRecordBytes = 1 << 30

	hintMagic = "HNT1"
)

// PersistOptions configure the bitcask backend slotted behind the Engine.
type PersistOptions struct {
	// Path is the data directory, created if missing. Ignored when Dir is
	// set.
	Path string
	// Dir is a pre-acquired data directory (see AcquireDataDir), letting a
	// server separate "refuse to start" lock/version checks from engine
	// construction. Open takes ownership either way: Engine.Close releases
	// the lock.
	Dir *DataDir
	// FsyncInterval selects the durability mode: <= 0 means group commit
	// (every append takes a ticket, and the fsync round covering the ticket
	// acknowledges it: Apply blocks until then, ApplyTicket returns at once
	// and the round reports in through NotifySynced), > 0 means a background
	// fsync every interval with writes acknowledged from the page cache
	// (ticket 0).
	FsyncInterval time.Duration
	// SegmentBytes rotates a shard's active segment past this size;
	// <= 0 means 64 MiB.
	SegmentBytes int64
	// maxSealedSegments triggers a shard compaction when more sealed
	// segments than this accumulate; <= 0 means 4.
	maxSealedSegments int
}

// DataDir is an exclusively-locked, version-stamped storage directory.
type DataDir struct {
	path   string
	lock   *os.File
	shards int // stripe count pinned by MANIFEST; 0 until stamped
}

// AcquireDataDir creates (if needed) and exclusively locks the data
// directory at path, then validates its MANIFEST stamp. It fails when
// another process holds the directory or when the on-disk format version
// does not match this binary, so callers can refuse to start before
// touching any data. Release the returned DataDir directly only if it is
// never handed to Open; once an Engine owns it, Engine.Close releases it.
func AcquireDataDir(path string) (*DataDir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("storage: data dir: %w", err)
	}
	lf, err := os.OpenFile(filepath.Join(path, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: data dir lock: %w", err)
	}
	if err := syscall.Flock(int(lf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lf.Close()
		return nil, fmt.Errorf("storage: data dir %s locked by another process: %w", path, err)
	}
	d := &DataDir{path: path, lock: lf}
	if err := d.readManifest(); err != nil {
		d.Release()
		return nil, err
	}
	return d, nil
}

// Path returns the directory path.
func (d *DataDir) Path() string { return d.path }

// Release drops the directory lock.
func (d *DataDir) Release() error {
	if d.lock == nil {
		return nil
	}
	err := syscall.Flock(int(d.lock.Fd()), syscall.LOCK_UN)
	if cerr := d.lock.Close(); err == nil {
		err = cerr
	}
	d.lock = nil
	return err
}

func (d *DataDir) readManifest() error {
	data, err := os.ReadFile(filepath.Join(d.path, manifestName))
	if os.IsNotExist(err) {
		return nil // fresh directory; stamped on first Open
	}
	if err != nil {
		return fmt.Errorf("storage: manifest: %w", err)
	}
	format := -1
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(strings.TrimSpace(line), "=")
		if !ok {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(v, "%d", &n); err != nil {
			return fmt.Errorf("storage: manifest: bad %s=%q", k, v)
		}
		switch k {
		case "format":
			format = n
		case "shards":
			d.shards = n
		}
	}
	if format != dataFormat {
		return fmt.Errorf("storage: data dir %s has format %d, this binary speaks %d (version mismatch)", d.path, format, dataFormat)
	}
	if d.shards <= 0 || d.shards > maxShards {
		return fmt.Errorf("storage: manifest: bad shard count %d", d.shards)
	}
	return nil
}

// stamp writes the MANIFEST pinning the shard count. The stripe count must
// stay stable across restarts — keys route to shards by hash, so a reopened
// engine adopts the stamped count regardless of Options.Shards.
func (d *DataDir) stamp(shards int) error {
	if d.shards != 0 {
		return nil
	}
	body := fmt.Sprintf("format=%d\nshards=%d\n", dataFormat, shards)
	tmp := filepath.Join(d.path, manifestName+".tmp")
	if err := writeFileSync(tmp, []byte(body)); err != nil {
		return fmt.Errorf("storage: manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(d.path, manifestName)); err != nil {
		return fmt.Errorf("storage: manifest: %w", err)
	}
	if err := syncDir(d.path); err != nil {
		return err
	}
	d.shards = shards
	return nil
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and unlinks within it are durable.
func syncDir(path string) error {
	df, err := os.Open(path)
	if err != nil {
		return err
	}
	err = df.Sync()
	if cerr := df.Close(); err == nil {
		err = cerr
	}
	return err
}

// diskEntry is one keydir slot: where the newest record for a key lives,
// plus the version metadata the engine needs to arbitrate an incoming write
// without touching disk (arbitration reads Data only on same-timestamp
// sibling tie-breaks, which pread the full record on demand).
type diskEntry struct {
	seg   *segment
	off   int64
	size  uint32
	ts    int64
	tomb  bool
	clock []wire.ClockEntry
}

// segment is one append-only data file.
type segment struct {
	id   uint64
	f    *os.File
	size int64
	dead int64 // bytes owned by overwritten/obsolete records
	live int64 // keydir entries pointing here
}

// diskShard is one shard's bitcask: segments plus the keydir. All access is
// under the owning shard's mutex except the dirty flag, which the syncer
// claims with an atomic swap.
type diskShard struct {
	dir         string
	segs        []*segment // ascending id; the last is the active (append) segment
	keydir      map[string]*diskEntry
	scratch     []byte // record encode/pread buffer; grows to the largest record
	dirty       atomic.Uint32
	recovered   int // keydir entries rebuilt at open
	hintLoads   int // sealed segments restored from hint files (vs scanned)
	readErrs    uint64
	segBytes    int64
	maxSealed   int
	compacted   uint64
	keydirBytes int64 // estimated resident bytes of the keydir (see keydirEntryBytes)
}

// keydirEntryBytes estimates the resident heap cost of one keydir entry: the
// map slot (key string header + bytes, entry pointer), the diskEntry
// allocation, and its vector-clock slice. The keydir is the durable engine's
// RAM ceiling, so the estimate is maintained incrementally on every insert
// and clock change rather than recomputed by walking the map at scrape time.
func keydirEntryBytes(keyLen int, clock []wire.ClockEntry) int64 {
	const entryFixed = 64 + // diskEntry: seg ptr, off, size, ts, tomb, clock header
		16 + // key string header held by the map
		16 // amortized map bucket share for the key/value slots
	return entryFixed + int64(keyLen) + clockBytes(clock)
}

// clockBytes estimates the heap bytes of a vector clock: per entry, the
// ClockEntry struct (string header + counter) plus the node-id bytes.
func clockBytes(clock []wire.ClockEntry) int64 {
	b := int64(0)
	for i := range clock {
		b += 24 + int64(len(clock[i].Node))
	}
	return b
}

func segPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.data", id))
}

func hintPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.hint", id))
}

// buf returns the shard scratch buffer resized to n bytes.
func (d *diskShard) buf(n int) []byte {
	if cap(d.scratch) < n {
		d.scratch = make([]byte, n, max(n, 2*cap(d.scratch)))
	}
	return d.scratch[:n]
}

// openDiskShard opens (or creates) one shard directory and rebuilds its
// keydir: hint files for sealed segments, a CRC-verified scan for segments
// without a usable hint, truncating at the first torn record.
func openDiskShard(dir string, segBytes int64, maxSealed int) (*diskShard, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: shard dir: %w", err)
	}
	d := &diskShard{
		dir:       dir,
		keydir:    make(map[string]*diskEntry),
		scratch:   make([]byte, 0, 512),
		segBytes:  segBytes,
		maxSealed: maxSealed,
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: shard dir: %w", err)
	}
	var ids []uint64
	for _, de := range entries {
		name := de.Name()
		// Leftovers from an interrupted hint write or compaction swap are
		// garbage by construction (the swap is ordered so the renamed files
		// are always complete) — remove them.
		if strings.HasSuffix(name, ".tmp") || strings.HasSuffix(name, ".cmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		var id uint64
		if _, err := fmt.Sscanf(name, "%d.data", &id); err == nil && strings.HasSuffix(name, ".data") {
			ids = append(ids, id)
		}
	}
	slicesSortUint64(ids)
	for i, id := range ids {
		f, err := os.OpenFile(segPath(dir, id), os.O_RDWR, 0o644)
		if err != nil {
			d.closeAll()
			return nil, fmt.Errorf("storage: open segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			d.closeAll()
			return nil, fmt.Errorf("storage: stat segment: %w", err)
		}
		seg := &segment{id: id, f: f, size: st.Size()}
		d.segs = append(d.segs, seg)
		sealed := i < len(ids)-1
		if sealed && d.loadHint(seg) {
			continue
		}
		if err := d.scanSegment(seg); err != nil {
			d.closeAll()
			return nil, err
		}
	}
	if len(d.segs) == 0 {
		if err := d.addSegment(1); err != nil {
			return nil, err
		}
	}
	d.recovered = len(d.keydir)
	return d, nil
}

func slicesSortUint64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (d *diskShard) closeAll() {
	for _, s := range d.segs {
		s.f.Close()
	}
}

func (d *diskShard) addSegment(id uint64) error {
	f, err := os.OpenFile(segPath(d.dir, id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create segment: %w", err)
	}
	d.segs = append(d.segs, &segment{id: id, f: f})
	return nil
}

// load records a replayed record in the keydir. Replay order equals apply
// order (appends happen under the shard lock after version arbitration), so
// a later record always supersedes an earlier one for the same key — blind
// overwrite reproduces the pre-crash arbitration outcome exactly.
func (d *diskShard) load(key string, seg *segment, off int64, size uint32, v wire.Value) {
	if e, ok := d.keydir[key]; ok {
		e.seg.dead += int64(e.size)
		e.seg.live--
		d.keydirBytes += clockBytes(v.Clock) - clockBytes(e.clock)
		e.seg, e.off, e.size = seg, off, size
		e.ts, e.tomb, e.clock = v.Timestamp, v.Tombstone, v.Clock
	} else {
		d.keydir[key] = &diskEntry{seg: seg, off: off, size: size, ts: v.Timestamp, tomb: v.Tombstone, clock: v.Clock}
		d.keydirBytes += keydirEntryBytes(len(key), v.Clock)
	}
	seg.live++
}

// scanSegment rebuilds keydir entries by reading seg front to back,
// verifying each record's CRC. The scan stops at the first torn or corrupt
// record and truncates the file there: a mid-write crash leaves exactly one
// half-written record at the tail, and records carry no resync marker, so
// nothing after the tear is trustworthy.
func (d *diskShard) scanSegment(seg *segment) error {
	r := bufio.NewReaderSize(io.NewSectionReader(seg.f, 0, seg.size), 1<<20)
	var off int64
	frame := make([]byte, 0, 512)
	torn := false
scan:
	for off < seg.size {
		var hdr [recordHeader]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			torn = true
			break
		}
		want := binary.BigEndian.Uint32(hdr[:])
		// The frame is self-delimiting: uvarint length, then the body.
		frame = frame[:0]
		var bodyLen uint64
		var shift uint
		for {
			b, err := r.ReadByte()
			if err != nil {
				torn = true
				break scan
			}
			frame = append(frame, b)
			bodyLen |= uint64(b&0x7f) << shift
			if b < 0x80 {
				break
			}
			shift += 7
			if shift > 63 {
				torn = true
				break scan
			}
		}
		if bodyLen > maxRecordBytes {
			torn = true
			break
		}
		pre := len(frame)
		frame = append(frame, make([]byte, bodyLen)...)
		if _, err := io.ReadFull(r, frame[pre:]); err != nil {
			torn = true
			break
		}
		if crc32.ChecksumIEEE(frame) != want {
			torn = true
			break
		}
		m, _, err := wire.Decode(frame)
		if err != nil {
			torn = true
			break
		}
		mut, ok := m.(wire.Mutation)
		if !ok || len(mut.Key) == 0 {
			torn = true
			break
		}
		recLen := int64(recordHeader + len(frame))
		d.load(string(mut.Key), seg, off, uint32(recLen), mut.Value)
		off += recLen
	}
	if torn && off < seg.size {
		if err := seg.f.Truncate(off); err != nil {
			return fmt.Errorf("storage: truncate torn tail: %w", err)
		}
		seg.size = off
	}
	return nil
}

// hint file layout: "HNT1", then per live key
//
//	uvarint keyLen | key | uvarint off | uvarint size | uvarint ts (zigzag)
//	| flags byte (bit0 tombstone) | uvarint clockLen
//	| clockLen × (uvarint nodeLen | node | uvarint counter)
//
// then a trailing CRC32 over everything after the magic. Hints are pure
// optimization: any parse or bounds failure falls back to scanning the data
// file, so a stale or torn hint can never corrupt recovery.

// writeHint snapshots the keydir entries that live in seg (which is about
// to seal) into seg's hint file via write-temp-fsync-rename.
func (d *diskShard) writeHint(seg *segment) error {
	buf := append(make([]byte, 0, 64*1024), hintMagic...)
	for k, e := range d.keydir {
		if e.seg != seg {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(e.off))
		buf = binary.AppendUvarint(buf, uint64(e.size))
		buf = binary.AppendVarint(buf, e.ts)
		var flags byte
		if e.tomb {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, uint64(len(e.clock)))
		for _, ce := range e.clock {
			buf = binary.AppendUvarint(buf, uint64(len(ce.Node)))
			buf = append(buf, ce.Node...)
			buf = binary.AppendUvarint(buf, ce.Counter)
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(hintMagic):]))
	tmp := hintPath(d.dir, seg.id) + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		return fmt.Errorf("storage: write hint: %w", err)
	}
	if err := os.Rename(tmp, hintPath(d.dir, seg.id)); err != nil {
		return fmt.Errorf("storage: write hint: %w", err)
	}
	return syncDir(d.dir)
}

// loadHint rebuilds seg's keydir entries from its hint file, reporting
// whether the hint was usable. Note hint-based recovery undercounts
// seg.dead: records overwritten within seg before it sealed are invisible
// to the hint (only live-at-seal keys are recorded), which skews compaction
// gain estimates but never correctness.
func (d *diskShard) loadHint(seg *segment) bool {
	data, err := os.ReadFile(hintPath(d.dir, seg.id))
	if err != nil || len(data) < len(hintMagic)+recordHeader || string(data[:len(hintMagic)]) != hintMagic {
		return false
	}
	body := data[len(hintMagic) : len(data)-recordHeader]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[len(data)-recordHeader:]) {
		return false
	}
	type staged struct {
		key  string
		off  int64
		size uint32
		v    wire.Value
	}
	var entries []staged
	for len(body) > 0 {
		keyLen, n := binary.Uvarint(body)
		if n <= 0 || uint64(len(body)-n) < keyLen {
			return false
		}
		body = body[n:]
		key := string(body[:keyLen])
		body = body[keyLen:]
		off, n := binary.Uvarint(body)
		if n <= 0 {
			return false
		}
		body = body[n:]
		size, n := binary.Uvarint(body)
		if n <= 0 {
			return false
		}
		body = body[n:]
		ts, n := binary.Varint(body)
		if n <= 0 || len(body) == n {
			return false
		}
		body = body[n:]
		flags := body[0]
		body = body[1:]
		clockLen, n := binary.Uvarint(body)
		if n <= 0 || clockLen > 1<<16 {
			return false
		}
		body = body[n:]
		var clock []wire.ClockEntry
		if clockLen > 0 {
			clock = make([]wire.ClockEntry, 0, clockLen)
			for range clockLen {
				nodeLen, n := binary.Uvarint(body)
				if n <= 0 || uint64(len(body)-n) < nodeLen {
					return false
				}
				body = body[n:]
				node := string(body[:nodeLen])
				body = body[nodeLen:]
				counter, n := binary.Uvarint(body)
				if n <= 0 {
					return false
				}
				body = body[n:]
				clock = append(clock, wire.ClockEntry{Node: node, Counter: counter})
			}
		}
		if int64(off)+int64(size) > seg.size || size < recordHeader {
			return false
		}
		entries = append(entries, staged{key, int64(off), uint32(size), wire.Value{Timestamp: ts, Tombstone: flags&1 != 0, Clock: clock}})
	}
	// Apply only after the whole hint parsed — a partial apply followed by
	// a data scan would double-count dead bytes.
	for _, e := range entries {
		d.load(e.key, seg, e.off, e.size, e.v)
	}
	d.hintLoads++
	return true
}

// append writes one accepted record to the active segment and updates the
// keydir. ent is the key's existing entry, or nil for a first write. Caller
// holds the shard lock. The encode scratch is reused across calls, so a
// steady-state overwrite allocates nothing.
func (d *diskShard) append(key []byte, v wire.Value, ent *diskEntry) error {
	rec := d.buf(recordHeader)
	rec, err := wire.Encode(rec, wire.Mutation{Key: key, Value: v})
	if err != nil {
		return fmt.Errorf("storage: encode record: %w", err)
	}
	d.scratch = rec
	binary.BigEndian.PutUint32(rec[:recordHeader], crc32.ChecksumIEEE(rec[recordHeader:]))
	active := d.segs[len(d.segs)-1]
	if _, err := active.f.WriteAt(rec, active.size); err != nil {
		return fmt.Errorf("storage: append: %w", err)
	}
	off := active.size
	active.size += int64(len(rec))
	if ent != nil {
		ent.seg.dead += int64(ent.size)
		ent.seg.live--
		d.keydirBytes += clockBytes(v.Clock) - clockBytes(ent.clock)
		ent.seg, ent.off, ent.size = active, off, uint32(len(rec))
		ent.ts, ent.tomb, ent.clock = v.Timestamp, v.Tombstone, v.Clock
	} else {
		d.keydir[string(key)] = &diskEntry{seg: active, off: off, size: uint32(len(rec)), ts: v.Timestamp, tomb: v.Tombstone, clock: v.Clock}
		d.keydirBytes += keydirEntryBytes(len(key), v.Clock)
	}
	active.live++
	d.dirty.Store(1)
	if active.size >= d.segBytes {
		return d.rotate()
	}
	return nil
}

// rotate seals the active segment — fsync, hint file — and opens the next
// one, compacting when sealed segments pile past the threshold. Caller
// holds the shard lock.
func (d *diskShard) rotate() error {
	active := d.segs[len(d.segs)-1]
	if err := active.f.Sync(); err != nil {
		return fmt.Errorf("storage: seal: %w", err)
	}
	if err := d.writeHint(active); err != nil {
		return err
	}
	if err := d.addSegment(active.id + 1); err != nil {
		return err
	}
	if len(d.segs)-1 > d.maxSealed {
		return d.compact()
	}
	return nil
}

// readRecord preads the raw record for e into the shard scratch and
// verifies its CRC.
func (d *diskShard) readRecord(e *diskEntry) ([]byte, error) {
	rec := d.buf(int(e.size))
	if _, err := e.seg.f.ReadAt(rec, e.off); err != nil {
		d.readErrs++
		return nil, fmt.Errorf("storage: read record: %w", err)
	}
	if crc32.ChecksumIEEE(rec[recordHeader:]) != binary.BigEndian.Uint32(rec[:recordHeader]) {
		d.readErrs++
		return nil, fmt.Errorf("storage: read record: CRC mismatch in %s @%d", segPath(d.dir, e.seg.id), e.off)
	}
	return rec, nil
}

// readValue preads and decodes the full value for e. The decode copies, so
// the returned Value owns its Data.
func (d *diskShard) readValue(e *diskEntry) (wire.Value, error) {
	rec, err := d.readRecord(e)
	if err != nil {
		return wire.Value{}, err
	}
	m, _, err := wire.Decode(rec[recordHeader:])
	if err != nil {
		d.readErrs++
		return wire.Value{}, fmt.Errorf("storage: decode record: %w", err)
	}
	mut, ok := m.(wire.Mutation)
	if !ok {
		d.readErrs++
		return wire.Value{}, fmt.Errorf("storage: decode record: unexpected %T", m)
	}
	return mut.Value, nil
}

// compact rewrites every live record held by sealed segments into a single
// merged segment and deletes the rest. The swap is crash-ordered: the merge
// output (and its hint) are written and fsynced under .cmp names, the
// target id's stale hint is removed, the data file renames into place, then
// the hint, then the superseded segments unlink. Every crash window leaves
// a state recovery handles — at worst stale duplicate records that in-order
// replay overrides. Caller holds the shard lock.
func (d *diskShard) compact() error {
	sealed := len(d.segs) - 1
	if sealed <= 1 {
		return nil
	}
	merged := d.segs[:sealed]
	target := merged[sealed-1] // highest sealed id becomes the merge output
	inMerge := make(map[*segment]bool, sealed)
	for _, s := range merged {
		inMerge[s] = true
	}
	tmpData := segPath(d.dir, target.id) + ".cmp"
	out, err := os.OpenFile(tmpData, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: compact: %w", err)
	}
	bw := bufio.NewWriterSize(out, 1<<20)
	type staged struct {
		e   *diskEntry
		off int64
	}
	var plan []staged
	var outOff int64
	for _, e := range d.keydir {
		if !inMerge[e.seg] {
			continue
		}
		rec, err := d.readRecord(e)
		if err != nil {
			out.Close()
			os.Remove(tmpData)
			return fmt.Errorf("storage: compact: %w", err)
		}
		if _, err := bw.Write(rec); err != nil {
			out.Close()
			os.Remove(tmpData)
			return fmt.Errorf("storage: compact: %w", err)
		}
		plan = append(plan, staged{e, outOff})
		outOff += int64(len(rec))
	}
	if err := bw.Flush(); err == nil {
		err = out.Sync()
	}
	if err != nil {
		out.Close()
		os.Remove(tmpData)
		return fmt.Errorf("storage: compact: %w", err)
	}
	if err := out.Close(); err != nil {
		os.Remove(tmpData)
		return fmt.Errorf("storage: compact: %w", err)
	}
	newSeg := &segment{id: target.id, size: outOff, live: int64(len(plan))}
	// Hint for the merged segment, staged under a .cmp name for the swap.
	tmpHint := hintPath(d.dir, target.id) + ".cmp"
	{
		hbuf := append(make([]byte, 0, 64*1024), hintMagic...)
		// The keydir still points at the old segments; re-walk it pairing
		// keys with the staged (post-merge) offsets.
		stagedOff := make(map[*diskEntry]int64, len(plan))
		for _, p := range plan {
			stagedOff[p.e] = p.off
		}
		for k, e := range d.keydir {
			off, ok := stagedOff[e]
			if !ok {
				continue
			}
			hbuf = binary.AppendUvarint(hbuf, uint64(len(k)))
			hbuf = append(hbuf, k...)
			hbuf = binary.AppendUvarint(hbuf, uint64(off))
			hbuf = binary.AppendUvarint(hbuf, uint64(e.size))
			hbuf = binary.AppendVarint(hbuf, e.ts)
			var flags byte
			if e.tomb {
				flags |= 1
			}
			hbuf = append(hbuf, flags)
			hbuf = binary.AppendUvarint(hbuf, uint64(len(e.clock)))
			for _, ce := range e.clock {
				hbuf = binary.AppendUvarint(hbuf, uint64(len(ce.Node)))
				hbuf = append(hbuf, ce.Node...)
				hbuf = binary.AppendUvarint(hbuf, ce.Counter)
			}
		}
		hbuf = binary.BigEndian.AppendUint32(hbuf, crc32.ChecksumIEEE(hbuf[len(hintMagic):]))
		if err := writeFileSync(tmpHint, hbuf); err != nil {
			os.Remove(tmpData)
			return fmt.Errorf("storage: compact hint: %w", err)
		}
	}
	// Swap, in crash-safe order (see the function comment).
	os.Remove(hintPath(d.dir, target.id))
	if err := os.Rename(tmpData, segPath(d.dir, target.id)); err != nil {
		os.Remove(tmpData)
		os.Remove(tmpHint)
		return fmt.Errorf("storage: compact swap: %w", err)
	}
	if err := os.Rename(tmpHint, hintPath(d.dir, target.id)); err != nil {
		return fmt.Errorf("storage: compact swap: %w", err)
	}
	if err := syncDir(d.dir); err != nil {
		return err
	}
	f, err := os.OpenFile(segPath(d.dir, target.id), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: compact reopen: %w", err)
	}
	newSeg.f = f
	for _, s := range merged {
		s.f.Close()
		if s != target {
			os.Remove(segPath(d.dir, s.id))
			os.Remove(hintPath(d.dir, s.id))
		}
	}
	for _, p := range plan {
		p.e.seg, p.e.off = newSeg, p.off
	}
	d.segs = append([]*segment{newSeg}, d.segs[sealed:]...)
	d.compacted++
	return nil
}

// fsyncHook, when set, replaces the fsync of group-commit rounds; see
// SetFsyncForTest.
var fsyncHook atomic.Pointer[func(*os.File) error]

// fsyncFile is the seam through which fsync rounds reach the disk.
func fsyncFile(f *os.File) error {
	if h := fsyncHook.Load(); h != nil {
		return (*h)(f)
	}
	return f.Sync()
}

// SetFsyncForTest replaces the fsync that every engine's rounds call, so a
// test can stall or fail a round, and returns a function that restores the
// real one. The seam is package-wide: tests using it must not run in
// parallel.
func SetFsyncForTest(fn func(*os.File) error) (restore func()) {
	fsyncHook.Store(&fn)
	return func() { fsyncHook.Store(nil) }
}

// persistState is the engine-wide durability coordinator: the fsync batcher
// plus the data-dir lifetime.
type persistState struct {
	dir         *DataDir
	interval    time.Duration
	groupCommit bool
	failed      atomic.Bool // fast-path flag for the sticky error

	// round serializes fsync rounds (the syncer, Sync, Close): a round that
	// found nothing dirty must not advance the watermark over a record whose
	// fsync is still running in another round.
	round sync.Mutex

	mu       sync.Mutex
	cond     *sync.Cond
	seq      uint64 // ticket issued per group-commit append
	synced   uint64 // highest ticket covered by a completed fsync round
	fsyncs   uint64 // file fsync calls performed by batch rounds
	fsyncOps uint64 // tickets (appends) covered by completed rounds
	err      error  // sticky first fsync failure
	closed   bool
	notify   func(watermark uint64) // see Engine.NotifySynced

	stop     chan struct{}
	done     chan struct{}
	closeAll sync.Once
	closeErr error
}

func newPersistState(dir *DataDir, interval time.Duration) *persistState {
	p := &persistState{
		dir:         dir,
		interval:    interval,
		groupCommit: interval <= 0,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// stickyErr is the first fsync failure, or nil.
func (p *persistState) stickyErr() error {
	if !p.failed.Load() {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// mark issues a group-commit ticket for an append and wakes the syncer. In
// the periodic mode there is nothing to wait for and the ticket is 0. A
// poisoned engine issues no ticket: the record will never be acknowledged.
func (p *persistState) mark() (uint64, error) {
	if !p.groupCommit {
		return 0, p.stickyErr()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return 0, p.err
	}
	p.seq++
	p.cond.Broadcast()
	return p.seq, nil
}

// pending is the ticket a rejected mutation waits on: the newest one issued
// if any append is still waiting for its round, else 0.
func (p *persistState) pending() (uint64, error) {
	if !p.groupCommit {
		return 0, p.stickyErr()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil || p.seq == p.synced {
		return 0, p.err
	}
	return p.seq, nil
}

// wait blocks until the fsync round covering ticket t completes (group
// commit), or just surfaces the sticky error (ticket 0, periodic mode).
func (p *persistState) wait(t uint64) error {
	if t == 0 {
		return p.stickyErr()
	}
	p.mu.Lock()
	for p.synced < t && p.err == nil && !p.closed {
		p.cond.Wait()
	}
	err := p.err
	if err == nil && p.synced < t {
		err = errors.New("storage: engine closed")
	}
	p.mu.Unlock()
	return err
}

// syncRound fsyncs every dirty shard's active segment, advances the
// group-commit watermark past every ticket issued before the round began,
// releases the goroutines blocked in wait and — once per round, whatever
// the number of tickets it covered — tells the NotifySynced callback the
// new watermark. With one log per member that is one fsync per round.
//
// Correctness of the watermark: a ticket is issued only after its record's
// WriteAt returned and its shard's dirty flag was set, so every ticket
// ≤ target has its record in the page cache of either the shard's current
// active segment (covered by this round's fsync) or an already-sealed one
// (covered by the fsync rotate performed when sealing it). The fsync runs
// outside the shard lock — appends continue while the batch flushes, which
// is where group commit's amortization comes from.
func (p *persistState) syncRound(e *Engine) error {
	p.round.Lock()
	defer p.round.Unlock()
	p.mu.Lock()
	target := p.seq
	p.mu.Unlock()
	var firstErr error
	var roundSyncs uint64
	for i := range e.shards {
		s := &e.shards[i]
		d := s.disk
		if d == nil || !d.dirty.CompareAndSwap(1, 0) {
			continue
		}
		s.mu.Lock()
		f := d.segs[len(d.segs)-1].f
		s.mu.Unlock()
		roundSyncs++
		// A file closed under us was sealed (fsynced by rotate) and then
		// compacted away between the unlock and here: already durable.
		if err := fsyncFile(f); err != nil && !errors.Is(err, os.ErrClosed) && firstErr == nil {
			firstErr = err
		}
	}
	p.mu.Lock()
	if firstErr != nil && p.err == nil {
		p.err = fmt.Errorf("storage: fsync: %w", firstErr)
		p.failed.Store(true)
	}
	p.fsyncs += roundSyncs
	advanced := target > p.synced && p.err == nil
	if advanced {
		p.fsyncOps += target - p.synced
		p.synced = target
	}
	err := p.err
	fn := p.notify
	p.cond.Broadcast()
	p.mu.Unlock()
	if advanced && fn != nil {
		// Still inside the round lock, so watermarks are reported in order.
		fn(target)
	}
	return err
}

// runGroup is the group-commit syncer: it sleeps until tickets are pending,
// then fsyncs one batch — every append that arrived while the previous
// batch flushed shares the next fsync.
func (p *persistState) runGroup(e *Engine) {
	defer close(p.done)
	for {
		p.mu.Lock()
		for (p.seq == p.synced || p.err != nil) && !p.closed {
			p.cond.Wait()
		}
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return
		}
		p.syncRound(e)
	}
}

// runPeriodic fsyncs dirty shards every interval.
func (p *persistState) runPeriodic(e *Engine) {
	defer close(p.done)
	tick := time.NewTicker(p.interval)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			p.syncRound(e)
		}
	}
}

// close shuts the syncer down after a final fsync round, closes every
// segment file, and releases the data dir.
func (p *persistState) close(e *Engine) error {
	p.closeAll.Do(func() {
		p.mu.Lock()
		p.notify = nil // a closing engine acknowledges nothing more
		p.mu.Unlock()
		p.syncRound(e)
		p.mu.Lock()
		p.closed = true
		p.cond.Broadcast()
		p.mu.Unlock()
		close(p.stop)
		<-p.done
		var firstErr error
		for i := range e.shards {
			s := &e.shards[i]
			d := s.disk
			if d == nil {
				continue
			}
			s.mu.Lock()
			for _, sg := range d.segs {
				if err := sg.f.Close(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			s.mu.Unlock()
		}
		if err := p.dir.Release(); err != nil && firstErr == nil {
			firstErr = err
		}
		p.closeErr = firstErr
	})
	p.mu.Lock()
	err := p.err
	p.mu.Unlock()
	if err == nil {
		err = p.closeErr
	}
	return err
}
