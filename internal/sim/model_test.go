package sim

import (
	"math/rand"
	"testing"
	"time"
)

// The model is the scheduler's specification, written the slow way: a plain
// list of live events, the next one found by scanning for the smallest
// (at, seq), time kept as time.Time arithmetic. Every After, Schedule and
// Post consumes one seq in call order whether or not the event is later
// cancelled; a cancel handle removes its own event if that event is still
// queued and otherwise does nothing, for ever.

type modelEvent struct {
	id  int
	at  time.Time
	seq uint64
}

type schedulerModel struct {
	now    time.Time
	seq    uint64
	events uint64
	live   []modelEvent
}

func (m *schedulerModel) add(id int, d time.Duration) {
	if d < 0 {
		d = 0
	}
	m.live = append(m.live, modelEvent{id: id, at: m.now.Add(d), seq: m.seq})
	m.seq++
}

// next returns the position of the event that must fire next.
func (m *schedulerModel) next() int {
	best := 0
	for i, e := range m.live {
		b := m.live[best]
		if e.at.Before(b.at) || (e.at.Equal(b.at) && e.seq < b.seq) {
			best = i
		}
	}
	return best
}

func (m *schedulerModel) remove(id int) bool {
	for i, e := range m.live {
		if e.id == id {
			m.live = append(m.live[:i], m.live[i+1:]...)
			return true
		}
	}
	return false
}

// modelRun drives one Sim and its model through the same random script.
type modelRun struct {
	t       *testing.T
	s       *Sim
	m       schedulerModel
	rng     *rand.Rand
	nextID  int
	cancels []func()       // every handle ever issued, live or long dead
	own     map[int]func() // event id -> its handle, for events made by After
	fired   int
}

func (r *modelRun) check(when string) {
	r.t.Helper()
	if got := r.s.Now(); got != r.m.now {
		r.t.Fatalf("%s: Now() = %v, model %v", when, got, r.m.now)
	}
	if got := r.s.Events(); got != r.m.events {
		r.t.Fatalf("%s: Events() = %d, model %d", when, got, r.m.events)
	}
	if got := r.s.Pending(); got != len(r.m.live) {
		r.t.Fatalf("%s: Pending() = %d, model has %d live events", when, got, len(r.m.live))
	}
}

// delay draws from a small set so that ties, zero and negative delays are
// common.
func (r *modelRun) delay() time.Duration {
	switch r.rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return -time.Millisecond
	case 2:
		return 5 * time.Second // the timeout nobody expects to fire
	default:
		return time.Duration(r.rng.Intn(4)) * time.Millisecond
	}
}

// schedule queues one event through a random entry point, on both sides.
func (r *modelRun) schedule() {
	id := r.nextID
	r.nextID++
	fn := func() { r.fire(id) }
	switch r.rng.Intn(4) {
	case 0:
		r.m.add(id, 0)
		r.s.Post(fn)
	case 1:
		d := r.delay()
		r.m.add(id, d)
		r.s.Schedule(d, fn)
	default:
		d := r.delay()
		r.m.add(id, d)
		cancel := r.s.After(d, fn)
		// Remember which event the handle is for, so the model can apply
		// the same cancel.
		r.own[id] = func() {
			r.m.remove(id)
			cancel()
		}
		r.cancels = append(r.cancels, r.own[id])
	}
}

// cancel pulls a random handle — most are for events that already fired,
// were already cancelled, or whose event object has since been recycled.
func (r *modelRun) cancel() {
	if len(r.cancels) == 0 {
		return
	}
	r.cancels[r.rng.Intn(len(r.cancels))]()
}

// fire is every event's callback: it must be the model's next event.
func (r *modelRun) fire(id int) {
	i := r.m.next()
	want := r.m.live[i]
	if want.id != id {
		r.t.Fatalf("event %d fired, model expected %d (at %v seq %d)", id, want.id, want.at, want.seq)
	}
	if want.at.After(r.m.now) {
		r.m.now = want.at
	}
	r.m.events++
	r.m.remove(id)
	r.fired++
	r.check("in callback")
	// Act from inside the callback: cancel the very event that is running,
	// before and after its object may have been reused; schedule; cancel
	// others.
	self := r.own[id]
	if self != nil && r.rng.Intn(2) == 0 {
		self()
	}
	for n := r.rng.Intn(5) - 2; n > 0; n-- { // 0.6 on average: the script dies out
		r.schedule()
	}
	if r.rng.Intn(3) == 0 {
		r.cancel()
	}
	if self != nil && r.rng.Intn(2) == 0 {
		self()
	}
	r.check("after acting in callback")
}

func TestSchedulerMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		s := New(seed)
		r := &modelRun{t: t, s: s, rng: rand.New(rand.NewSource(seed)), own: map[int]func(){}}
		r.m.now = time.Date(2012, time.September, 24, 0, 0, 0, 0, time.UTC)
		r.check("at start")
		for step := 0; step < 2000; step++ {
			switch r.rng.Intn(10) {
			case 0, 1, 2:
				r.schedule()
			case 3, 4:
				r.cancel()
			case 5, 6, 7:
				fired := r.fired
				if ok := s.Step(); ok != (r.fired == fired+1) {
					t.Fatalf("Step() = %v after firing %d events", ok, r.fired-fired)
				}
			case 8:
				d := time.Duration(r.rng.Intn(3000)) * time.Microsecond
				deadline := r.m.now.Add(d)
				fired := r.fired
				if n := s.RunFor(d); n != uint64(r.fired-fired) {
					t.Fatalf("RunFor reported %d events, %d fired", n, r.fired-fired)
				}
				for _, e := range r.m.live {
					if !e.at.After(deadline) {
						t.Fatalf("RunFor(%v) left event %d due at %v", d, e.id, e.at)
					}
				}
				r.m.now = deadline // the clock lands on the deadline exactly
			case 9:
				// Run to a deadline in the past: nothing fires, nothing moves.
				if n := s.Run(r.m.now.Add(-time.Second)); n != 0 {
					t.Fatalf("Run to a past deadline fired %d events", n)
				}
			}
			r.check("after step")
		}
		if err := s.RunUntilIdle(1 << 20); err != nil {
			t.Fatal(err)
		}
		if len(r.m.live) != 0 || s.Pending() != 0 {
			t.Fatalf("idle with %d model events, Pending() = %d", len(r.m.live), s.Pending())
		}
		r.check("idle")
	}
}

// A cancel handle outlives its event by design (callers keep them in maps
// and structs and call them late). None of these may touch another event.
func TestCancelIsDeadOnceItsEventLeft(t *testing.T) {
	s := New(1)
	var cancelSelf func()
	ran := 0
	cancelSelf = s.After(time.Millisecond, func() {
		ran++
		cancelSelf() // from inside the callback
	})
	s.RunUntilIdle(10)
	cancelSelf() // after fire
	cancelSelf() // and again

	// The fired event's object is free: the next event reuses it. The old
	// handle must not cancel the newcomer.
	s.After(time.Millisecond, func() { ran++ })
	cancelSelf()
	if s.Pending() != 1 {
		t.Fatalf("a dead handle cancelled a recycled event: Pending() = %d", s.Pending())
	}

	// Cancel, recycle, then cancel twice more through the first handle.
	cancelA := s.After(2*time.Millisecond, func() { t.Error("cancelled event fired") })
	cancelA()
	s.After(2*time.Millisecond, func() { ran++ })
	cancelA()
	cancelA()
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
	s.RunUntilIdle(10)
	if ran != 3 {
		t.Fatalf("%d callbacks ran, want 3", ran)
	}
}
