// Package sim provides a deterministic discrete-event simulation engine and
// the Runtime abstraction that lets the same protocol code run either under
// virtual time (for reproducible, laptop-scale experiments) or on real
// goroutines and wall-clock timers (for live deployments).
//
// All protocol code in this repository is event-driven: it never blocks, and
// it reacts to delivered messages and timer callbacks. Under the simulator
// every callback runs on a single scheduler goroutine in virtual-time order,
// which makes whole-cluster experiments deterministic. Under the real-time
// runtime each actor owns a mailbox goroutine and timers post back into it,
// preserving the same single-threaded-per-actor discipline.
package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// Runtime is the execution substrate protocol actors are written against.
// Implementations must guarantee that all callbacks scheduled through a
// single Runtime value execute serially (never concurrently with each
// other).
type Runtime interface {
	// Now returns the current time (virtual or wall-clock).
	Now() time.Time
	// After schedules fn to run once after d elapses. The returned cancel
	// function stops the timer if it has not fired; calling it multiple
	// times is safe.
	After(d time.Duration, fn func()) (cancel func())
	// Post schedules fn to run as soon as possible, after the currently
	// executing callback returns.
	Post(fn func())
}

// RealRuntime runs callbacks on a dedicated mailbox goroutine using
// wall-clock timers. The zero value is not usable; create with NewRealRuntime
// and release with Stop.
type RealRuntime struct {
	mu     sync.Mutex
	inbox  chan func()
	done   chan struct{}
	closed bool

	// The overflow behind PostSelf: callbacks that found the inbox full.
	// spilled is set while any are waiting, so the loop checks for them with
	// one atomic load per callback. ahead counts the inbox callbacks that
	// must still run before the overflow may: what the inbox held when the
	// first of them spilled, which includes every earlier PostSelf.
	spillMu  sync.Mutex
	overflow []func()
	ahead    int
	spilled  atomic.Bool
}

// NewRealRuntime starts the mailbox goroutine and returns the runtime.
func NewRealRuntime() *RealRuntime {
	r := &RealRuntime{
		inbox: make(chan func(), 1024),
		done:  make(chan struct{}),
	}
	go r.loop()
	return r
}

func (r *RealRuntime) loop() {
	for {
		if r.spilled.Load() {
			// PostSelf has callbacks in the overflow: never block while
			// they wait.
			select {
			case fn := <-r.inbox:
				fn()
				r.runSpilled(false)
			case <-r.done:
				r.flush()
				return
			default:
				r.runSpilled(true)
			}
			continue
		}
		select {
		case fn := <-r.inbox:
			fn()
		case <-r.done:
			r.flush()
			return
		}
	}
}

// flush runs anything already queued so Stop has flush semantics.
func (r *RealRuntime) flush() {
	for {
		select {
		case fn := <-r.inbox:
			fn()
		default:
			if !r.spilled.Load() {
				return
			}
			r.runSpilled(true)
		}
	}
}

// runSpilled runs the overflow, in the order it was posted and including
// anything it spills in turn, once the inbox callbacks that were ahead of it
// have run: the caller has just run one, or found the inbox empty.
func (r *RealRuntime) runSpilled(inboxEmpty bool) {
	for {
		r.spillMu.Lock()
		if inboxEmpty {
			r.ahead = 0
		}
		if r.ahead > 0 {
			r.ahead--
			if r.ahead > 0 {
				r.spillMu.Unlock()
				return
			}
		}
		batch := r.overflow
		r.overflow = nil
		if len(batch) == 0 {
			r.spilled.Store(false)
			r.spillMu.Unlock()
			return
		}
		r.spillMu.Unlock()
		for _, fn := range batch {
			fn()
		}
	}
}

// Now returns the wall-clock time.
func (r *RealRuntime) Now() time.Time { return time.Now() }

// After schedules fn on the mailbox goroutine after d.
func (r *RealRuntime) After(d time.Duration, fn func()) (cancel func()) {
	t := time.AfterFunc(d, func() { r.Post(fn) })
	return func() { t.Stop() }
}

// Post enqueues fn on the mailbox. If the runtime is stopped the callback is
// dropped: actors are expected to be quiesced before Stop.
func (r *RealRuntime) Post(fn func()) {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return
	}
	select {
	case r.inbox <- fn:
	case <-r.done:
	}
}

// PostSelf is Post for a callback that is itself running on this runtime's
// mailbox (a node sending a message to itself): it never blocks. Post from
// the mailbox goroutine would wait on a full inbox that only that goroutine
// drains. PostSelf takes an inbox slot while there is one and nothing has
// spilled, which is exactly Post; otherwise the callback joins an unbounded
// overflow that the loop runs once the callbacks posted before the first
// spill have run, so PostSelf calls are delivered in the order they were
// made. It offers no backpressure, so anything that is not already on the
// mailbox should use Post.
func (r *RealRuntime) PostSelf(fn func()) {
	if !r.spilled.Load() {
		select {
		case r.inbox <- fn:
			return
		default:
		}
	}
	r.spillMu.Lock()
	first := !r.spilled.Load()
	if first {
		r.ahead = len(r.inbox)
		r.spilled.Store(true)
	}
	r.overflow = append(r.overflow, fn)
	r.spillMu.Unlock()
	if first {
		// The loop checks spilled before each receive; if it is already
		// blocked in one (the inbox emptied under us), wake it.
		select {
		case r.inbox <- func() {}:
		default:
		}
	}
}

// Stop terminates the mailbox goroutine after draining queued callbacks.
func (r *RealRuntime) Stop() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.done)
}
