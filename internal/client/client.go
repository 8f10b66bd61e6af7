// Package client implements the store's client side: the counterpart of the
// paper's modified YCSB Cassandra client.
//
// Session is the documented entry point for applications: it wraps a Driver
// with session guarantees (read-your-writes, monotonic reads) by carrying
// compact session tokens, and it works at every consistency level — at
// wire.Session the cluster enforces the token, at other levels the Session
// merely observes and counts violations. Driver is the low-level layer: it
// routes operations to coordinator nodes round-robin, attaches per-operation
// consistency levels from a pluggable ConsistencyPolicy (Harmony's adaptive
// controller, or a static Fixed policy), correlates responses, and enforces
// timeouts. It also offers the dual-read staleness probe of §V-F.
//
// The driver is event-driven like the rest of the system: operations take a
// callback and complete on the driver's runtime.
//
// # Hardened request path
//
// Each application-level operation is a logical op that may span several
// wire attempts. Options.Timeout is the logical op's overall budget; within
// it, attempts are bounded by Options.AttemptTimeout and retried — against
// the next coordinator, after capped exponential backoff with full jitter —
// when they fail with a retryable error (timeout, unavailable, overloaded).
// The remaining budget rides on every request (wire DeadlineMs) so
// coordinators shed work the client has already abandoned. Reads may
// additionally be hedged: after Options.Hedge with no response, a duplicate
// read is sent to the next coordinator and the first answer wins (the
// loser's response is discarded — hedged-read cancellation). Writes stay
// idempotent across retries: the first attempt stamps the mutation
// timestamp (wire TsHint) and every retry replays it, so a duplicate
// application LWW-collapses into the original instead of appearing newer.
package client

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"time"

	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

// Driver errors.
var (
	ErrTimeout     = errors.New("client: operation timed out")
	ErrUnavailable = errors.New("client: not enough replicas")
	ErrOverloaded  = errors.New("client: coordinator overloaded")
	errServer      = errors.New("client: server error")
)

// ConsistencyPolicy supplies the read and write consistency levels for an
// operation on key. It is the single policy surface of the client: Harmony's
// adaptive controller implements it (per key group) and static deployments
// use Fixed.
//
// The driver consults the policy at issue time for every operation and never
// caches levels, so a policy whose grouping changes at runtime (the
// regrouping subsystem swaps epochs mid-run) takes effect on the very next
// operation. Implementations must resolve the key's group and that group's
// levels atomically — a key must never be judged with one epoch's group id
// against another epoch's group table (core.Controller.LevelsFor holds its
// lock across both lookups for exactly this reason). A zero returned level
// means One.
type ConsistencyPolicy interface {
	LevelsFor(key []byte) (read, write wire.ConsistencyLevel)
}

// Fixed is a ConsistencyPolicy returning constant levels; zero fields mean
// One, so Fixed{} is the paper's baseline (read ONE, write ONE) and
// Fixed{Read: wire.Quorum} upgrades only reads.
type Fixed struct {
	Read  wire.ConsistencyLevel
	Write wire.ConsistencyLevel
}

// LevelsFor implements ConsistencyPolicy.
func (f Fixed) LevelsFor([]byte) (read, write wire.ConsistencyLevel) {
	read, write = f.Read, f.Write
	if read == 0 {
		read = wire.One
	}
	if write == 0 {
		write = wire.One
	}
	return read, write
}

// Options configure a Driver.
type Options struct {
	// ID is the driver's endpoint identity on the fabric.
	ID ring.NodeID
	// Coordinators are the nodes the driver spreads requests over.
	Coordinators []ring.NodeID
	// Policy supplies per-operation consistency levels; nil means Fixed{}
	// (read ONE, write ONE — the paper's baseline, "a write of consistency
	// level one", §II-B).
	Policy ConsistencyPolicy
	// Timeout bounds each logical operation across all its attempts; zero
	// means 2s.
	Timeout time.Duration
	// ShadowEvery requests the dual-read staleness probe (§V-F) on every
	// k-th read; 0 disables probing, 1 probes every read. Sampling keeps
	// the measurement from perturbing the run the way the paper's
	// probe-every-read method admits to doing.
	ShadowEvery int

	// MaxAttempts is how many wire attempts a logical op may consume when
	// attempts fail with retryable errors (timeout, unavailable,
	// overloaded). Each retry goes to the NEXT coordinator (failover) after
	// capped exponential backoff with full jitter. 0 or 1 disables retry —
	// the pre-hardening behavior.
	MaxAttempts int
	// AttemptTimeout bounds one attempt; zero derives Timeout/MaxAttempts,
	// so the budget accommodates every attempt without backoff starvation.
	AttemptTimeout time.Duration
	// RetryBackoff is the first backoff bound and RetryBackoffMax the cap
	// it doubles toward; the wait before each retry is uniform in
	// [0, bound) — "full jitter". Zero means 10ms and 320ms.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// Hedge, when positive, arms hedged reads: a read unanswered after
	// this long sends a duplicate to the next coordinator and the first
	// response wins. Hedges do not consume retry attempts. Writes are
	// never hedged (a hedge is a deliberate duplicate; reads are naturally
	// idempotent, and duplicating writes would double mutation traffic for
	// no latency win given TsHint replay already exists).
	Hedge time.Duration
}

// ReadResult is delivered to read callbacks.
type ReadResult struct {
	Found    bool
	Value    []byte
	Ts       int64
	Achieved wire.ConsistencyLevel
	Err      error
}

// WriteResult is delivered to write callbacks.
type WriteResult struct {
	Ts  int64
	Err error
}

// Driver issues operations against the cluster. All methods must be called
// from the driver's runtime context; callbacks run there too.
type Driver struct {
	opts    Options
	rt      sim.Runtime
	send    transport.Sender
	rng     *rand.Rand
	nextID  uint64
	nextCo  int
	reads   uint64
	retries uint64
	hedges  uint64
	pending map[uint64]*logicalOp
}

// logicalOp is one application-level operation: up to MaxAttempts wire
// attempts plus at most one hedge, all sharing the overall deadline. Every
// outstanding attempt's wire id maps to the op in Driver.pending; the first
// response (or terminal error) completes the op and orphans the rest.
type logicalOp struct {
	isRead bool
	key    []byte
	value  []byte
	del    bool
	level  wire.ConsistencyLevel
	token  int64
	shadow bool
	tsHint int64

	deadline    time.Time
	attempts    int
	maxAttempts int           // per-op cap; best-effort reads pin it to 1
	backoff     time.Duration // next retry's jitter bound
	done        bool
	lastErr     error

	// live holds the attempts in flight — the current one and, for a hedged
	// read, its duplicate — each with the cancel of its timeout timer. It
	// starts out on liveBuf, so the usual op allocates no attempt table.
	live        []attempt
	liveBuf     [2]attempt
	hedgeCancel func()

	onRead  func(ReadResult)
	onWrite func(WriteResult)
}

// attempt is one outstanding wire attempt of a logical op.
type attempt struct {
	id     uint64
	cancel func() // stops the attempt's timeout timer
}

// dropAttempt forgets the attempt with the given wire id and returns the
// cancel of its timeout timer; ok is false when no such attempt is live.
func (op *logicalOp) dropAttempt(id uint64) (cancel func(), ok bool) {
	for i, a := range op.live {
		if a.id == id {
			op.live = slices.Delete(op.live, i, i+1)
			return a.cancel, true
		}
	}
	return nil, false
}

// New creates a driver and registers nothing: the caller must register the
// driver on the fabric (bus.Register(opts.ID, rt, driver)).
func New(opts Options, rt sim.Runtime, send transport.Sender) (*Driver, error) {
	if len(opts.Coordinators) == 0 {
		return nil, fmt.Errorf("client: no coordinators")
	}
	if opts.Policy == nil {
		opts.Policy = Fixed{}
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 1
	}
	if opts.AttemptTimeout <= 0 {
		opts.AttemptTimeout = opts.Timeout / time.Duration(opts.MaxAttempts)
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 10 * time.Millisecond
	}
	if opts.RetryBackoffMax <= 0 {
		opts.RetryBackoffMax = 320 * time.Millisecond
	}
	// Retry jitter is seeded from the ID, so a seeded simulation repeats.
	h := fnv.New64a()
	h.Write([]byte(opts.ID))
	return &Driver{
		opts:    opts,
		rt:      rt,
		send:    send,
		rng:     rand.New(rand.NewSource(int64(h.Sum64()))),
		pending: make(map[uint64]*logicalOp),
	}, nil
}

// ID returns the driver's fabric identity.
func (d *Driver) ID() ring.NodeID { return d.opts.ID }

func (d *Driver) coordinator() ring.NodeID {
	c := d.opts.Coordinators[d.nextCo%len(d.opts.Coordinators)]
	d.nextCo++
	return c
}

func (d *Driver) newOp() uint64 {
	d.nextID++
	return d.nextID
}

// Read fetches key at the read level the configured policy chooses.
func (d *Driver) Read(key []byte, cb func(ReadResult)) {
	level, _ := d.opts.Policy.LevelsFor(key)
	d.ReadAt(key, level, cb)
}

// ReadAt fetches key at an explicit consistency level.
func (d *Driver) ReadAt(key []byte, level wire.ConsistencyLevel, cb func(ReadResult)) {
	d.readToken(key, level, 0, d.opts.MaxAttempts, true, cb)
}

// ReadAtOnce fetches key at an explicit level with a single attempt and no
// hedge: a refusal or timeout reports immediately instead of consuming the
// hardened path's retry budget. Measurement and diagnostic reads (the
// strong leg of a dual-read staleness probe) use it so the apparatus never
// amplifies load or burns extra deadlines exactly when the cluster is
// degraded — a refused ALL read during a partition is deterministic until
// membership changes, and retrying it buys nothing.
func (d *Driver) ReadAtOnce(key []byte, level wire.ConsistencyLevel, cb func(ReadResult)) {
	d.readToken(key, level, 0, 1, false, cb)
}

// readToken fetches key at level carrying a session token: at wire.Session
// the coordinator must answer with a version covering the token (Session
// maintains tokens); at other levels the cluster ignores it.
func (d *Driver) readToken(key []byte, level wire.ConsistencyLevel, token int64, maxAttempts int, hedge bool, cb func(ReadResult)) {
	if level == 0 {
		level = wire.One
	}
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	d.reads++
	op := &logicalOp{
		isRead:      true,
		key:         key,
		level:       level,
		token:       token,
		shadow:      d.opts.ShadowEvery > 0 && d.reads%uint64(d.opts.ShadowEvery) == 0,
		deadline:    d.rt.Now().Add(d.opts.Timeout),
		maxAttempts: maxAttempts,
		backoff:     d.opts.RetryBackoff,
		onRead:      cb,
	}
	d.issue(op)
	if hedge && d.opts.Hedge > 0 && !op.done {
		op.hedgeCancel = d.rt.After(d.opts.Hedge, func() { d.hedge(op) })
	}
}

// Write stores value under key at the write level the policy chooses.
func (d *Driver) Write(key, value []byte, cb func(WriteResult)) {
	d.write(key, value, false, cb)
}

// Delete removes key (tombstone write).
func (d *Driver) Delete(key []byte, cb func(WriteResult)) {
	d.write(key, nil, true, cb)
}

func (d *Driver) write(key, value []byte, del bool, cb func(WriteResult)) {
	_, level := d.opts.Policy.LevelsFor(key)
	if level == 0 {
		level = wire.One
	}
	if level == wire.Session {
		// Session is a read guarantee; writes at a session policy ship at
		// ONE (the cheap arm of the tier).
		level = wire.One
	}
	op := &logicalOp{
		key:         key,
		value:       value,
		del:         del,
		level:       level,
		deadline:    d.rt.Now().Add(d.opts.Timeout),
		maxAttempts: d.opts.MaxAttempts,
		backoff:     d.opts.RetryBackoff,
		onWrite:     cb,
	}
	if d.opts.MaxAttempts > 1 {
		// Client-stamped timestamp, identical on every attempt, so a retry
		// that replays an already-applied mutation LWW-collapses into it.
		// Single-attempt configs keep coordinator stamping (TsHint zero).
		op.tsHint = d.rt.Now().UnixNano()
	}
	d.issue(op)
}

// issue sends one wire attempt for op to the next coordinator, bounded by
// the attempt timeout clamped to the remaining overall budget.
func (d *Driver) issue(op *logicalOp) {
	remaining := op.deadline.Sub(d.rt.Now())
	if remaining <= 0 {
		d.finishErr(op, ErrTimeout, "overall budget exhausted")
		return
	}
	at := d.opts.AttemptTimeout
	if at > remaining {
		at = remaining
	}
	op.attempts++
	id := d.newOp()
	d.pending[id] = op
	if op.live == nil {
		op.live = op.liveBuf[:0]
	}
	op.live = append(op.live, attempt{id: id, cancel: d.rt.After(at, func() { d.attemptFailed(op, id, ErrTimeout, "attempt timed out") })})
	deadlineMs := uint64(remaining / time.Millisecond)
	if deadlineMs == 0 {
		deadlineMs = 1
	}
	co := d.coordinator()
	if op.isRead {
		d.send.Send(d.opts.ID, co, wire.ReadRequest{
			ID: id, Key: op.key, Level: op.level, Shadow: op.shadow,
			Token: op.token, DeadlineMs: deadlineMs,
		})
	} else {
		d.send.Send(d.opts.ID, co, wire.WriteRequest{
			ID: id, Key: op.key, Value: op.value, Delete: op.del,
			Level: op.level, DeadlineMs: deadlineMs, TsHint: op.tsHint,
		})
	}
}

// hedge fires the read's hedge timer: if no response has arrived, issue a
// duplicate attempt to the next coordinator. First response wins.
func (d *Driver) hedge(op *logicalOp) {
	op.hedgeCancel = nil
	if op.done || len(op.live) == 0 {
		// Completed, or between retries (backoff); the retry path is
		// already driving the op.
		return
	}
	d.hedges++
	d.issue(op)
}

// attemptFailed handles one attempt's retryable failure: the attempt is
// forgotten and the op retries, waits for a still-outstanding sibling
// (hedge), or completes with the error.
func (d *Driver) attemptFailed(op *logicalOp, id uint64, base error, detail string) {
	if op.done {
		return
	}
	cancel, live := op.dropAttempt(id)
	if !live {
		return
	}
	cancel()
	delete(d.pending, id)
	op.lastErr = d.wrapErr(op, base, detail)
	if len(op.live) > 0 {
		return // a sibling attempt is still in flight; let it race
	}
	if op.attempts >= op.maxAttempts {
		d.finish(op, ReadResult{Err: op.lastErr}, WriteResult{Err: op.lastErr})
		return
	}
	// Capped exponential backoff, full jitter: uniform in [0, bound).
	wait := time.Duration(d.rng.Int63n(int64(op.backoff) + 1))
	op.backoff = min(2*op.backoff, d.opts.RetryBackoffMax)
	if !d.rt.Now().Add(wait).Before(op.deadline) {
		d.finish(op, ReadResult{Err: op.lastErr}, WriteResult{Err: op.lastErr})
		return
	}
	d.retries++
	d.rt.After(wait, func() {
		if !op.done {
			d.issue(op)
		}
	})
}

// finish completes op exactly once: every outstanding attempt is orphaned
// (late responses and timers find nothing) and the callback runs.
func (d *Driver) finish(op *logicalOp, r ReadResult, w WriteResult) {
	if op.done {
		return
	}
	op.done = true
	for _, a := range op.live {
		a.cancel()
		delete(d.pending, a.id)
	}
	op.live = nil
	if op.hedgeCancel != nil {
		op.hedgeCancel()
		op.hedgeCancel = nil
	}
	if op.isRead {
		op.onRead(r)
	} else {
		op.onWrite(w)
	}
}

func (d *Driver) finishErr(op *logicalOp, base error, detail string) {
	err := d.wrapErr(op, base, detail)
	d.finish(op, ReadResult{Err: err}, WriteResult{Err: err})
}

// wrapErr gives degraded-mode errors enough context to act on: op kind,
// key, attempted level, and how many attempts were burned.
func (d *Driver) wrapErr(op *logicalOp, base error, detail string) error {
	kind := "write"
	if op.isRead {
		kind = "read"
	}
	if op.del {
		kind = "delete"
	}
	return fmt.Errorf("%w: %s %q at %s (attempt %d/%d): %s",
		base, kind, op.key, op.level, op.attempts, op.maxAttempts, detail)
}

// VerifyRead performs the paper's literal dual-read staleness measurement:
// one read at the adaptive level followed by one at ALL, comparing
// timestamps. The callback receives the primary result and whether it was
// stale relative to the strong read. The primary read was stale only if the
// strong read surfaces a version that is newer than what it got AND was
// stamped before the primary read was issued — a write the reader was
// entitled to observe. Versions stamped while the probe is in flight are
// concurrent updates, not staleness (counting them measures the key's
// update rate). Timestamps are coordinator clocks, compared against the
// driver's runtime clock, so the filter assumes the two agree (one host's
// clock, or the simulator's). Note the measurement perturbs the system
// exactly as §V-F warns.
func (d *Driver) VerifyRead(key []byte, cb func(primary ReadResult, stale bool)) {
	issuedAt := d.rt.Now().UnixNano()
	d.Read(key, func(primary ReadResult) {
		if primary.Err != nil {
			cb(primary, false)
			return
		}
		// Best-effort strong leg: a refused or slow ALL read yields no
		// verdict, and retrying it would amplify the measurement's load
		// exactly when the cluster is degraded.
		d.ReadAtOnce(key, wire.All, func(strong ReadResult) {
			stale := strong.Err == nil && strong.Found &&
				strong.Ts > primary.Ts && strong.Ts <= issuedAt
			cb(primary, stale)
		})
	})
}

// retryable reports whether a server error code may succeed on another
// coordinator or a later attempt.
func retryable(code wire.ErrorCode) bool {
	return code == wire.ErrTimeout || code == wire.ErrUnavailable || code == wire.ErrOverloaded
}

func baseErr(code wire.ErrorCode) error {
	switch code {
	case wire.ErrTimeout:
		return ErrTimeout
	case wire.ErrUnavailable:
		return ErrUnavailable
	case wire.ErrOverloaded:
		return ErrOverloaded
	}
	return errServer
}

// Deliver implements transport.Handler: correlate responses to callbacks.
func (d *Driver) Deliver(_ ring.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case wire.ReadResponse:
		if op, ok := d.pending[msg.ID]; ok && op.isRead {
			d.finish(op, ReadResult{
				Found:    msg.Found,
				Value:    msg.Value.Data,
				Ts:       msg.Value.Timestamp,
				Achieved: msg.Achieved,
			}, WriteResult{})
		}
	case wire.WriteResponse:
		if op, ok := d.pending[msg.ID]; ok && !op.isRead {
			d.finish(op, ReadResult{}, WriteResult{Ts: msg.Timestamp})
		}
	case wire.Error:
		op, ok := d.pending[msg.ID]
		if !ok {
			return
		}
		if retryable(msg.Code) {
			d.attemptFailed(op, msg.ID, baseErr(msg.Code), msg.Msg)
			return
		}
		err := d.wrapErr(op, fmt.Errorf("%w: %s (%s)", errServer, msg.Msg, msg.Code), "not retryable")
		d.finish(op, ReadResult{Err: err}, WriteResult{Err: err})
	}
}

// Pending reports in-flight wire attempts (tests).
func (d *Driver) Pending() int { return len(d.pending) }

// Retries and Hedges report how many retry attempts and hedged reads the
// driver has issued (tests, bench accounting).
func (d *Driver) Retries() uint64 { return d.retries }

// Hedges reports issued hedge reads; see Retries.
func (d *Driver) Hedges() uint64 { return d.hedges }

var _ transport.Handler = (*Driver)(nil)
