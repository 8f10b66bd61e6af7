package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"
)

// event is a scheduled callback in virtual time. seq breaks ties so that
// events scheduled earlier at the same instant run first, keeping the
// simulation deterministic.
type event struct {
	at  int64 // virtual instant, nanoseconds since the Unix epoch
	seq uint64
	fn  func()
	// index is the event's position in Sim.queue while it is queued.
	index int
	// gen counts how many times this object has left the queue (fired or
	// cancelled). Event objects are recycled, so a cancel handle remembers
	// the generation it was issued for and is dead once it has passed.
	gen uint64
}

func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Sim is a single-threaded discrete-event simulator. It implements Runtime,
// so protocol actors written against sim.Runtime run unmodified under
// virtual time. Sim is not safe for concurrent use: all interaction must
// happen from the goroutine driving Run/Step (which is also the goroutine
// executing event callbacks).
type Sim struct {
	now     int64     // virtual clock, nanoseconds since the Unix epoch
	nowTime time.Time // now as a time.Time, refreshed when the clock moves
	// queue is a binary min-heap on (at, seq) holding exactly the live
	// events: a cancelled event is removed at once, not left to surface.
	queue  []*event
	free   []*event // fired and cancelled events awaiting reuse
	seq    uint64
	rng    *rand.Rand
	events uint64 // total events executed
}

// New creates a simulator whose clock starts at a fixed epoch and whose
// random streams derive from seed. The epoch is arbitrary but stable so that
// virtual timestamps are reproducible across runs.
func New(seed int64) *Sim {
	s := &Sim{rng: rand.New(rand.NewSource(seed))}
	s.setNow(time.Date(2012, time.September, 24, 0, 0, 0, 0, time.UTC).UnixNano())
	return s
}

func (s *Sim) setNow(ns int64) {
	s.now = ns
	s.nowTime = time.Unix(0, ns).UTC()
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.nowTime }

// Rand returns the simulator's deterministic random source. Callers needing
// independent streams should derive child RNGs via NewStream.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// NewStream derives an independent deterministic random stream. Each call
// consumes one value from the parent stream, so creation order matters and
// must itself be deterministic.
func (s *Sim) NewStream() *rand.Rand {
	return rand.New(rand.NewSource(s.rng.Int63()))
}

// Events reports how many event callbacks have executed.
func (s *Sim) Events() uint64 { return s.events }

// After schedules fn at now+d. A negative d is treated as zero. The returned
// cancel function removes the event from the queue if it has not yet fired;
// once it has fired or been cancelled, cancel does nothing, however often and
// from wherever (the callback included) it is called.
func (s *Sim) After(d time.Duration, fn func()) (cancel func()) {
	e := s.schedule(d, fn)
	gen := e.gen
	return func() {
		if e.gen == gen {
			s.remove(e.index)
			s.recycle(e)
		}
	}
}

// Schedule is After for callers that will never cancel: it queues fn at
// now+d and hands back nothing, so it allocates nothing once the simulator
// has events to recycle.
func (s *Sim) Schedule(d time.Duration, fn func()) { s.schedule(d, fn) }

// Post schedules fn to run at the current instant, after already-queued
// events for this instant.
func (s *Sim) Post(fn func()) { s.schedule(0, fn) }

// schedule queues fn at now+d (d clamped to [0, end of time]). Every call
// consumes exactly one seq, which is what orders same-instant events and
// therefore part of the simulation's observable behaviour.
func (s *Sim) schedule(d time.Duration, fn func()) *event {
	at := s.now
	if d > 0 {
		if at += int64(d); at < s.now {
			at = math.MaxInt64
		}
	}
	var e *event
	if n := len(s.free); n > 0 {
		e, s.free = s.free[n-1], s.free[:n-1]
	} else {
		e = new(event)
	}
	e.at, e.seq, e.fn = at, s.seq, fn
	s.seq++
	e.index = len(s.queue)
	s.queue = append(s.queue, e)
	s.up(e.index)
	return e
}

// recycle retires an event that has left the queue: outstanding cancel
// handles for it die with the generation bump, and the object is reused.
func (s *Sim) recycle(e *event) {
	e.gen++
	e.fn = nil
	s.free = append(s.free, e)
}

// remove takes the event at heap position i out of the queue.
func (s *Sim) remove(i int) {
	last := len(s.queue) - 1
	moved := s.queue[last]
	s.queue[last] = nil
	s.queue = s.queue[:last]
	if i == last {
		return
	}
	s.queue[i] = moved
	moved.index = i
	if !s.down(i) {
		s.up(i)
	}
}

func (s *Sim) up(i int) {
	q := s.queue
	e := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = e
	e.index = i
}

// down sifts the event at i toward the leaves and reports whether it moved.
func (s *Sim) down(i int) bool {
	q := s.queue
	e := q[i]
	start := i
	for {
		child := 2*i + 1
		if child >= len(q) {
			break
		}
		if r := child + 1; r < len(q) && q[r].before(q[child]) {
			child = r
		}
		if !q[child].before(e) {
			break
		}
		q[i] = q[child]
		q[i].index = i
		i = child
	}
	q[i] = e
	e.index = i
	return i != start
}

// Step executes the next event, advancing the clock. It reports false when
// the queue is empty.
func (s *Sim) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue[0]
	s.remove(0)
	if e.at > s.now {
		s.setNow(e.at)
	}
	s.events++
	// Retire the event before running it: the callback may schedule (and
	// so reuse the object), and a cancel called from inside it must find
	// its generation already gone.
	fn := e.fn
	s.recycle(e)
	fn()
	return true
}

// Run executes events until the queue empties or the virtual clock passes
// deadline. Events scheduled exactly at the deadline still execute. It
// returns the number of events executed during this call.
func (s *Sim) Run(deadline time.Time) uint64 {
	start := s.events
	end := deadline.UnixNano()
	for len(s.queue) > 0 && s.queue[0].at <= end {
		s.Step()
	}
	if s.now < end {
		s.setNow(end)
	}
	return s.events - start
}

// RunFor advances the simulation by d of virtual time.
func (s *Sim) RunFor(d time.Duration) uint64 { return s.Run(s.nowTime.Add(d)) }

// RunUntilIdle executes events until none remain, with a safety cap on the
// number of events to guard against runaway feedback loops in tests.
func (s *Sim) RunUntilIdle(maxEvents uint64) error {
	start := s.events
	for len(s.queue) > 0 {
		if s.events-start >= maxEvents {
			return fmt.Errorf("sim: exceeded %d events without going idle", maxEvents)
		}
		s.Step()
	}
	return nil
}

// Pending reports the number of events waiting to fire. Cancelled events
// are not among them: cancelling removes.
func (s *Sim) Pending() int { return len(s.queue) }

// Ticker repeatedly invokes fn every interval until the returned stop
// function is called. The first invocation happens after one full interval.
func (s *Sim) Ticker(interval time.Duration, fn func()) (stop func()) {
	if interval <= 0 {
		panic("sim: non-positive ticker interval")
	}
	return Every(s, func() time.Duration { return interval }, fn)
}

// Every repeatedly invokes fn on rt, waiting next() before each
// invocation. It is the variable-interval generalization of Ticker and
// works on any Runtime: stochastic arrival processes (Poisson open-loop
// load, jittered maintenance cadences) supply a next that samples an
// inter-arrival distribution. Non-positive gaps are scheduled immediately.
// The returned stop function halts the loop; it is safe to call from
// within fn, and — because RealRuntime callbacks run on a mailbox
// goroutine — from any other goroutine.
func Every(rt Runtime, next func() time.Duration, fn func()) (stop func()) {
	var stopped atomic.Bool
	var schedule func()
	schedule = func() {
		rt.After(next(), func() {
			if stopped.Load() {
				return
			}
			fn()
			if !stopped.Load() {
				schedule()
			}
		})
	}
	schedule()
	return func() { stopped.Store(true) }
}

var _ Runtime = (*Sim)(nil)
var _ Runtime = (*RealRuntime)(nil)
