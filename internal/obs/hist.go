// Package obs is the runtime observability layer: concurrent latency
// histograms the hot paths can record into without contending, a metric
// registry every subsystem exports gauges through (Prometheus text
// exposition), a bounded ring buffer of structured control-loop decision
// events, an admin HTTP endpoint serving all three plus pprof/expvar, and
// the leveled logger multi-process deployments prefix their diagnostics
// with.
//
// The package sits below the control plane: it depends only on the
// measurement primitives (internal/stats) and the wire vocabulary
// (internal/wire), so storage, transport, cluster, core, and grouping can
// all emit into it without import cycles.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/stats"
	"harmony/internal/wire"
)

// histStripes is the stripe count of a concurrentHist. Eight stripes keep
// the TryLock cascade short while making same-instant collisions rare at
// the parallelism the hot paths run (GOMAXPROCS-ish goroutines).
const (
	histStripes    = 8
	histStripeMask = histStripes - 1
)

// histStripe is one lock + histogram pair. stats.Histogram is itself
// several cache lines, so stripes never share a line and no explicit
// padding is needed.
type histStripe struct {
	mu sync.Mutex
	h  stats.Histogram
}

// concurrentHist is a striped, merge-able latency histogram safe for
// concurrent recording. record takes one of histStripes independent locks —
// chosen by a rotating index, falling through to the first free stripe via
// TryLock — so concurrent recorders almost never serialize on each other,
// and never allocate. snapshot merges the stripes into one plain
// stats.Histogram (bucket counts are exact under merge; see
// stats.Histogram.Merge).
//
// The zero value is ready to use.
type concurrentHist struct {
	rotor   atomic.Uint32
	stripes [histStripes]histStripe
}

// record adds one observation. It is safe for concurrent use and performs
// no allocation.
func (c *concurrentHist) record(d time.Duration) {
	start := c.rotor.Add(1)
	for i := uint32(0); i < histStripes; i++ {
		s := &c.stripes[(start+i)&histStripeMask]
		if s.mu.TryLock() {
			s.h.Record(d)
			s.mu.Unlock()
			return
		}
	}
	// Every stripe momentarily busy: wait on ours rather than drop.
	s := &c.stripes[start&histStripeMask]
	s.mu.Lock()
	s.h.Record(d)
	s.mu.Unlock()
}

// snapshot merges every stripe into one histogram. Each stripe is copied
// consistently under its lock; the merge is not a cross-stripe
// point-in-time snapshot (counters are monotonic, so concurrent recording
// skews the result by at most the records in flight).
func (c *concurrentHist) snapshot() stats.Histogram {
	var out stats.Histogram
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		h := s.h
		s.mu.Unlock()
		out.Merge(&h)
	}
	return out
}

// reset clears every stripe.
func (c *concurrentHist) reset() {
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		s.h.Reset()
		s.mu.Unlock()
	}
}

// OpKind names a coordinated operation class for latency accounting.
type OpKind uint8

const (
	OpRead OpKind = iota
	OpWrite
	opKindCount
)

// String returns the metric label for the kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	}
	return "unknown"
}

// levelSlots bounds the consistency-level dimension (wire levels are 1..6;
// slot 0 absorbs out-of-range input).
const levelSlots = 8

// OpLevelHist holds one concurrentHist per (operation kind, consistency
// level) pair — the per-operation latency surface the paper's analysis
// wants split by the level the operation was served at. Both dimensions are
// fixed arrays, so recording involves no map lookups and no allocation; a
// nil *OpLevelHist is an always-off recorder (Record is a no-op), which is
// how the hot paths stay untouched when observability is disabled.
type OpLevelHist struct {
	hists [opKindCount][levelSlots]concurrentHist
}

// NewOpLevelHist allocates an operation × level histogram family.
func NewOpLevelHist() *OpLevelHist { return &OpLevelHist{} }

// record adds one observation for (op, level). Out-of-range levels clamp to
// slot 0; a nil receiver drops the observation.
func (o *OpLevelHist) Record(op OpKind, level wire.ConsistencyLevel, d time.Duration) {
	if o == nil {
		return
	}
	if op >= opKindCount {
		return
	}
	l := int(level)
	if l < 0 || l >= levelSlots {
		l = 0
	}
	o.hists[op][l].record(d)
}

// OpLevelSnapshot is one populated (op, level) cell of an OpLevelHist.
type OpLevelSnapshot struct {
	Op    OpKind
	Level wire.ConsistencyLevel
	Hist  stats.Histogram
}

// Snapshot returns the non-empty cells, op-major then level-ascending —
// a deterministic order exposition and tests rely on.
func (o *OpLevelHist) Snapshot() []OpLevelSnapshot {
	if o == nil {
		return nil
	}
	var out []OpLevelSnapshot
	for op := OpKind(0); op < opKindCount; op++ {
		for l := 0; l < levelSlots; l++ {
			h := o.hists[op][l].snapshot()
			if h.Count() == 0 {
				continue
			}
			out = append(out, OpLevelSnapshot{Op: op, Level: wire.ConsistencyLevel(l), Hist: h})
		}
	}
	return out
}
