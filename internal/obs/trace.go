package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event kinds emitted by the control loop and the nodes. The trace is a
// vocabulary, not an enum: emitters may add kinds, and readers should treat
// unknown kinds as opaque.
const (
	// EventLevel records a key group's consistency level changing: From/To
	// carry the old and new levels, Estimate/Tolerance/Xn the observation
	// and model output that triggered the flip.
	EventLevel = "level"
	// EventRegroup records a grouping epoch installing: Epoch is the new
	// epoch, Detail summarizes the assignment (groups, shifted weight).
	EventRegroup = "regroup"
	// EventDivergenceHold / EventDivergenceRelease bracket the interval a
	// group is pinned at >= quorum because unrepaired divergence alone
	// breaches its tolerance.
	EventDivergenceHold    = "divergence-hold"
	EventDivergenceRelease = "divergence-release"
	// EventAvailabilityClamp records the controller lowering a group's
	// commanded level because the failure detector reports too few live
	// members to serve it: From is the demanded level, To the clamped one.
	EventAvailabilityClamp = "availability-clamp"
	// EventSession records a group being served at the SESSION tier instead
	// of the level the estimator demanded (From carries the overridden
	// level).
	EventSession = "session"
	// EventGroupUpdate records a storage node applying a broadcast
	// GroupUpdate (the node-side half of a regroup).
	EventGroupUpdate = "group-update"
)

// Event is one structured control-loop decision record. Numeric fields are
// meaningful per kind (see the kind constants); unused fields are zero and
// omitted from JSON.
type Event struct {
	// Seq is the trace-assigned monotone sequence number; gaps after a
	// wrap tell readers how many events they missed.
	Seq uint64 `json:"seq"`
	// AtMs is the event's Unix milliseconds on the clock of the emitter's
	// runtime: virtual time for controller events on the simulator, the
	// host clock on a live cluster (comparable across its processes, which
	// share that clock). Add stamps the host clock when it is left zero.
	AtMs int64 `json:"at_ms"`
	// Kind is one of the Event* constants (or an emitter extension).
	Kind string `json:"kind"`
	// Node identifies the emitting process ("" for the controller).
	Node string `json:"node,omitempty"`
	// Group is the key group the event concerns (-1 for the global stream).
	Group int `json:"group"`
	// Epoch is the grouping epoch in force when the event fired.
	Epoch uint64 `json:"epoch,omitempty"`
	// From/To are consistency-level names for level transitions.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Estimate/Tolerance/Xn/Divergence echo the decision inputs that
	// triggered the event.
	Estimate   float64 `json:"estimate,omitempty"`
	Tolerance  float64 `json:"tolerance,omitempty"`
	Xn         int     `json:"xn,omitempty"`
	Divergence float64 `json:"divergence,omitempty"`
	// Detail is a free-form human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

// Trace is a bounded, concurrency-safe ring buffer of Events. Appends never
// block and never allocate beyond the fixed buffer; when full, the oldest
// event is overwritten (Dropped counts the overwrites). The sequence number
// is assigned at append time and strictly increases, so a reader polling
// Since(lastSeq) observes every retained event exactly once and can detect
// loss from sequence gaps.
type Trace struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // next sequence number == total events ever appended
}

// NewTrace returns a trace retaining the last capacity events (minimum 16).
func NewTrace(capacity int) *Trace {
	if capacity < 16 {
		capacity = 16
	}
	return &Trace{buf: make([]Event, capacity)}
}

// Add stamps the event's sequence number (and AtMs, when zero) and appends
// it, overwriting the oldest retained event if the ring is full. It returns
// the assigned sequence number. A nil trace drops the event.
func (t *Trace) Add(e Event) uint64 {
	if t == nil {
		return 0
	}
	if e.AtMs == 0 {
		e.AtMs = time.Now().UnixMilli()
	}
	t.mu.Lock()
	t.next++
	e.Seq = t.next
	t.buf[int((t.next-1)%uint64(len(t.buf)))] = e
	t.mu.Unlock()
	return e.Seq
}

// Len reports how many events are retained (<= capacity).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next < uint64(len(t.buf)) {
		return int(t.next)
	}
	return len(t.buf)
}

// Dropped reports how many events have been overwritten.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next <= uint64(len(t.buf)) {
		return 0
	}
	return t.next - uint64(len(t.buf))
}

// Events returns the retained events, oldest first.
func (t *Trace) Events() []Event { return t.Since(0) }

// Since returns the retained events with Seq > seq, oldest first. Polling
// readers pass the last Seq they saw; a first event whose Seq exceeds
// seq+1 means the ring wrapped past them.
func (t *Trace) Since(seq uint64) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total := t.next
	n := uint64(len(t.buf))
	start := uint64(0)
	if total > n {
		start = total - n
	}
	if seq > start {
		start = seq
	}
	if start >= total {
		return nil
	}
	out := make([]Event, 0, total-start)
	for s := start; s < total; s++ {
		out = append(out, t.buf[int(s%n)])
	}
	return out
}

// WriteJSONL writes the events with Seq > since as JSON Lines, oldest
// first — the dump format of the admin endpoint's /trace.
func (t *Trace) WriteJSONL(w io.Writer, since uint64) error {
	enc := json.NewEncoder(w)
	for _, e := range t.Since(since) {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
