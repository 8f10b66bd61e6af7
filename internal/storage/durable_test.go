package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/wire"
)

// These tests pin the contract of the asynchronous durable apply: a ticket
// is reported (NotifySynced) or released (WaitDurable) only by the fsync
// round that covers it. They drive rounds through the package's fsync seam,
// so none of them may run in parallel.

// fsyncGate is a seam that can hold fsync rounds until the test lets them
// through, and remembers how many bytes of each file completed rounds cover.
type fsyncGate struct {
	entered chan struct{} // a token per round that reached the seam (dropped when full)

	mu      sync.Mutex
	cond    *sync.Cond
	hold    bool             // rounds wait at the seam
	allow   int              // held rounds to let through
	fail    error            // returned in place of the real fsync
	durable map[string]int64 // file → bytes on disk when its last completed fsync began
}

// installGate swaps the seam for a gate, holding rounds or not, and restores
// the real fsync when the test ends.
func installGate(t *testing.T, hold bool) *fsyncGate {
	t.Helper()
	g := &fsyncGate{entered: make(chan struct{}, 64), hold: hold, durable: make(map[string]int64)}
	g.cond = sync.NewCond(&g.mu)
	t.Cleanup(SetFsyncForTest(g.fsync))
	return g
}

func (g *fsyncGate) fsync(f *os.File) error {
	st, statErr := f.Stat() // fails once compaction closed the file
	select {
	case g.entered <- struct{}{}:
	default:
	}
	g.mu.Lock()
	for g.hold && g.allow == 0 {
		g.cond.Wait()
	}
	if g.hold {
		g.allow--
	}
	fail := g.fail
	g.mu.Unlock()
	if fail != nil {
		return fail
	}
	err := f.Sync()
	if err == nil && statErr == nil {
		g.mu.Lock()
		g.durable[f.Name()] = max(g.durable[f.Name()], st.Size())
		g.mu.Unlock()
	}
	return err
}

// release lets one held round through.
func (g *fsyncGate) release() {
	g.mu.Lock()
	g.allow++
	g.cond.Broadcast()
	g.mu.Unlock()
}

// setHold starts or stops holding rounds; stopping releases a held one.
func (g *fsyncGate) setHold(hold bool) {
	g.mu.Lock()
	g.hold = hold
	g.cond.Broadcast()
	g.mu.Unlock()
}

func groupCommitOpts(dir string, segBytes int64) Options {
	return Options{
		Shards:  1,
		Persist: &PersistOptions{Path: dir, SegmentBytes: segBytes, maxSealedSegments: 3},
	}
}

// stillBlocked fails the test if done completes within a short grace period.
func stillBlocked(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s completed (err=%v) before its round was released", what, err)
	case <-time.After(30 * time.Millisecond):
	}
}

func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestDurableTicketsShareARound: appends made while a round is flushing get
// tickets without blocking, all share the next round, and the callback
// fires once per round with that round's watermark.
func TestDurableTicketsShareARound(t *testing.T) {
	g := installGate(t, true)
	e := mustOpen(t, groupCommitOpts(t.TempDir(), 64<<20))
	defer e.Close()
	defer g.setHold(false)
	reports := make(chan uint64, 16)
	e.NotifySynced(func(w uint64) { reports <- w })

	apply := func(i int) uint64 {
		t.Helper()
		ok, ticket, err := e.ApplyTicket([]byte(fmt.Sprintf("k%02d", i)), wire.Value{Data: []byte("v"), Timestamp: int64(i + 1)})
		if err != nil || !ok || ticket != uint64(i+1) {
			t.Fatalf("ApplyTicket %d: ok=%v ticket=%d err=%v", i, ok, ticket, err)
		}
		return ticket
	}
	apply(0)
	waitFor(t, g.entered, "round 1")
	for i := 1; i <= 8; i++ {
		apply(i) // returns while round 1 is still in its fsync
	}
	if _, ok := e.Get([]byte("k08")); !ok {
		t.Fatal("an appended version is not visible before its round")
	}
	select {
	case w := <-reports:
		t.Fatalf("watermark %d reported while the round is stalled", w)
	default:
	}
	g.release()
	if w := <-reports; w != 1 {
		t.Fatalf("round 1 reported watermark %d, want 1 (tickets issued before it began)", w)
	}
	waitFor(t, g.entered, "round 2")
	g.release()
	if w := <-reports; w != 9 {
		t.Fatalf("round 2 reported watermark %d, want 9", w)
	}
	if err := e.WaitDurable(9); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Fsyncs != 2 || st.FsyncBatchedOps != 9 {
		t.Fatalf("Fsyncs=%d FsyncBatchedOps=%d, want 2 rounds covering 9 appends", st.Fsyncs, st.FsyncBatchedOps)
	}
}

// TestDurableRejectedReplayWaitsForWinnersRound: a mutation rejected in
// favour of a version that is appended but not yet fsynced must not complete
// before that version's round — otherwise a writer holds an acknowledgement
// for data that is not on disk.
func TestDurableRejectedReplayWaitsForWinnersRound(t *testing.T) {
	g := installGate(t, true)
	e := mustOpen(t, groupCommitOpts(t.TempDir(), 64<<20))
	defer e.Close()
	defer g.setHold(false)

	if _, _, err := e.ApplyTicket([]byte("other"), wire.Value{Data: []byte("x"), Timestamp: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, g.entered, "round 1") // covers ticket 1 only
	orig := wire.Value{Data: []byte("v"), Timestamp: 10}
	ok, winner, err := e.ApplyTicket([]byte("k"), orig)
	if err != nil || !ok || winner != 2 {
		t.Fatalf("original: ok=%v ticket=%d err=%v", ok, winner, err)
	}
	ok, loser, err := e.ApplyTicket([]byte("k"), orig) // the replay
	if err != nil || ok {
		t.Fatalf("replay: ok=%v err=%v, want rejected", ok, err)
	}
	if loser < winner {
		t.Fatalf("rejected replay got ticket %d, below its winner's %d", loser, winner)
	}
	done := make(chan error, 1)
	go func() { done <- e.WaitDurable(loser) }()
	stillBlocked(t, done, "rejected replay")
	g.release() // round 1 completes: the winner is still not on disk
	waitFor(t, g.entered, "round 2")
	stillBlocked(t, done, "rejected replay (after an earlier round)")
	g.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// With the winner on disk a further replay has nothing to wait for.
	if ok, ticket, err := e.ApplyTicket([]byte("k"), orig); ok || ticket != 0 || err != nil {
		t.Fatalf("replay of a durable version: ok=%v ticket=%d err=%v, want rejected with ticket 0", ok, ticket, err)
	}
}

// TestDurableFsyncErrorAcknowledgesNothing: a failed round reports no
// watermark, fails the waiters, and poisons later applies.
func TestDurableFsyncErrorAcknowledgesNothing(t *testing.T) {
	g := installGate(t, true)
	e := mustOpen(t, groupCommitOpts(t.TempDir(), 64<<20))
	defer e.Close()
	defer g.setHold(false)
	var reported atomic.Uint64
	e.NotifySynced(func(w uint64) { reported.Store(w) })

	_, ticket, err := e.ApplyTicket([]byte("k"), wire.Value{Data: []byte("v"), Timestamp: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, g.entered, "round 1")
	boom := errors.New("injected fsync failure")
	g.mu.Lock()
	g.fail = boom
	g.mu.Unlock()
	g.release()
	if err := e.WaitDurable(ticket); !errors.Is(err, boom) {
		t.Fatalf("WaitDurable after a failed round = %v, want the fsync error", err)
	}
	if _, _, err := e.ApplyTicket([]byte("k2"), wire.Value{Data: []byte("v"), Timestamp: 2}); !errors.Is(err, boom) {
		t.Fatalf("ApplyTicket on a poisoned engine = %v, want the sticky error", err)
	}
	if ok, err := e.Apply([]byte("k"), wire.Value{Data: []byte("old"), Timestamp: 0}); ok || !errors.Is(err, boom) {
		t.Fatalf("rejected Apply on a poisoned engine = %v, %v, want the sticky error", ok, err)
	}
	if w := reported.Load(); w != 0 {
		t.Fatalf("failed round reported watermark %d", w)
	}
}

// TestDurableCloseAcknowledgesNothing: the final round of Close makes the
// data durable but reports no watermark, and waiters are released.
func TestDurableCloseAcknowledgesNothing(t *testing.T) {
	g := installGate(t, true)
	dir := t.TempDir()
	e := mustOpen(t, groupCommitOpts(dir, 64<<20))
	var reported atomic.Uint64
	e.NotifySynced(func(w uint64) { reported.Store(w) })
	if _, _, err := e.ApplyTicket([]byte("a"), wire.Value{Data: []byte("v"), Timestamp: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, g.entered, "round 1")
	if _, _, err := e.ApplyTicket([]byte("b"), wire.Value{Data: []byte("v"), Timestamp: 2}); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	// Release round 1 only once Close has withdrawn the callback: otherwise
	// the syncer may run an ordinary round for "b" first, which may report.
	for withdrawn := false; !withdrawn; runtime.Gosched() {
		e.persist.mu.Lock()
		withdrawn = e.persist.notify == nil
		e.persist.mu.Unlock()
	}
	g.setHold(false)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if w := reported.Load(); w > 1 {
		t.Fatalf("Close reported watermark %d; only round 1 may report", w)
	}
	e2 := mustOpen(t, groupCommitOpts(dir, 64<<20))
	defer e2.Close()
	if e2.Recovered() != 2 {
		t.Fatalf("recovered %d rows, want 2", e2.Recovered())
	}
}

// copyTree copies a data dir — the crash image of a process killed now.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDurableCrashRecoveryStalledRounds extends the crash-recovery property
// to the asynchronous path: random histories through ApplyTicket with fsync
// rounds stalled and released at random, a crash image taken mid-history
// whose active log is cut anywhere at or past what completed fsyncs cover
// (everything beyond a completed fsync may or may not survive a kill), then
// recovery. Every ticket the callback had reported by the crash survives,
// and recovery is byte-identical to a reference replay of the surviving
// prefix.
func TestDurableCrashRecoveryStalledRounds(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := installGate(t, false)
			dir := t.TempDir()
			// Tiny segments: stalled rounds straddle rotations and
			// compactions, which close the file a held round is about to
			// fsync.
			e := mustOpen(t, groupCommitOpts(dir, 2048))
			var reported atomic.Uint64
			e.NotifySynced(func(w uint64) {
				if prev := reported.Swap(w); prev >= w {
					t.Errorf("watermark went %d -> %d", prev, w)
				}
			})

			type op struct {
				key     string
				v       wire.Value
				applied bool
				ticket  uint64
				segID   uint64
				endOff  int64
			}
			const total = 400
			crashAt := 50 + rng.Intn(total-50)
			stallFrom := crashAt - 1 - rng.Intn(16) // a round is held when the crash comes
			ops := make([]op, 0, total)
			held := false
			for i := 0; i < crashAt; i++ {
				switch {
				case i == stallFrom || (!held && rng.Intn(25) == 0):
					g.setHold(true)
					held = true
				case held && i < stallFrom && rng.Intn(6) == 0:
					g.setHold(false)
					held = false
				}
				o := op{key: fmt.Sprintf("k%02d", rng.Intn(12)), v: randValue(rng)}
				var err error
				o.applied, o.ticket, err = e.ApplyTicket([]byte(o.key), o.v)
				if err != nil {
					t.Fatalf("ApplyTicket: %v", err)
				}
				s := &e.shards[0]
				s.mu.Lock()
				act := s.disk.segs[len(s.disk.segs)-1]
				o.segID, o.endOff = act.id, act.size
				s.mu.Unlock()
				ops = append(ops, o)
			}

			// The crash. Read the reported watermark first: whatever it
			// covers must lie within what completed fsyncs cover, read after.
			acked := reported.Load()
			s := &e.shards[0]
			s.mu.Lock()
			act := s.disk.segs[len(s.disk.segs)-1]
			activeID, activePath, activeSize := act.id, act.f.Name(), act.size
			s.mu.Unlock()
			g.mu.Lock()
			synced := g.durable[activePath]
			g.mu.Unlock()
			for i, o := range ops {
				if o.applied && o.ticket <= acked && o.segID == activeID && o.endOff > synced {
					t.Fatalf("op %d: ticket %d reported durable (watermark %d) but its record ends at %d, past the %d bytes completed fsyncs cover",
						i, o.ticket, acked, o.endOff, synced)
				}
			}
			image := t.TempDir()
			copyTree(t, dir, image)
			cut := synced + rng.Int63n(activeSize-synced+1)
			if err := os.Truncate(filepath.Join(image, "shard-000", filepath.Base(activePath)), cut); err != nil {
				t.Fatal(err)
			}
			g.setHold(false)
			if err := e.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			last := -1
			for i, o := range ops {
				if o.applied && (o.segID < activeID || o.endOff <= cut) {
					last = i
				}
			}
			for i, o := range ops {
				if o.applied && o.ticket <= acked && i > last {
					t.Fatalf("op %d (ticket %d) was reported durable at watermark %d and did not survive the cut@%d", i, o.ticket, acked, cut)
				}
			}
			ref := NewEngine(Options{Shards: 1})
			for i := 0; i <= last; i++ {
				if _, err := ref.Apply([]byte(ops[i].key), ops[i].v); err != nil {
					t.Fatalf("ref Apply: %v", err)
				}
			}
			e2 := mustOpen(t, groupCommitOpts(image, 2048))
			defer e2.Close()
			if got, want := dump(e2), dump(ref); !bytes.Equal(got, want) {
				t.Fatalf("recovered state diverges from reference after cut@%d/%d (synced %d, %d ops survive, watermark %d)",
					cut, activeSize, synced, last+1, acked)
			}
			// The recovered engine keeps working, through the blocking path.
			for i := last + 1; i < len(ops); i++ {
				if _, err := e2.Apply([]byte(ops[i].key), ops[i].v); err != nil {
					t.Fatalf("post-recovery Apply: %v", err)
				}
				if _, err := ref.Apply([]byte(ops[i].key), ops[i].v); err != nil {
					t.Fatalf("ref Apply: %v", err)
				}
			}
			if got, want := dump(e2), dump(ref); !bytes.Equal(got, want) {
				t.Fatal("post-recovery writes diverge from reference")
			}
		})
	}
}
