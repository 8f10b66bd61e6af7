package main

import (
	"math/rand"
	"syscall"
	"time"
)

// timetable is the open-loop schedule: operation i is due at
// start + (i + u_i) × gap with u_i seeded uniform in [0,1), so the rate is
// exact over any stretch and the instants within a slot are the seed's.
type timetable struct {
	start time.Time
	gap   time.Duration
	total int64
	rng   *rand.Rand
	i     int64
	next  time.Time
}

func newTimetable(start time.Time, rate float64, dur time.Duration, seed int64) *timetable {
	gap := time.Duration(float64(time.Second) / rate)
	tt := &timetable{start: start, gap: gap, total: int64(dur / gap), rng: rand.New(rand.NewSource(seed))}
	tt.advance()
	return tt
}

func (tt *timetable) advance() {
	tt.next = tt.start.Add(time.Duration((float64(tt.i) + tt.rng.Float64()) * float64(tt.gap)))
}

// pop returns the next operation's index and due time if it is due by now.
func (tt *timetable) pop(now time.Time) (idx int64, due time.Time, ok bool) {
	if tt.i >= tt.total || tt.next.After(now) {
		return 0, time.Time{}, false
	}
	idx, due = tt.i, tt.next
	tt.i++
	tt.advance()
	return idx, due, true
}

func (tt *timetable) done() bool { return tt.i >= tt.total }

// pacedOp is one scheduled operation handed to the endpoint.
type pacedOp struct {
	idx int64
	due time.Time
}

// minPacerSleep keeps the pacer from spinning: operations due within it of
// one another go out as one batch, well inside lateLimit.
const minPacerSleep = 20 * time.Microsecond

// runPacer walks the timetable on the caller's goroutine: whenever
// operations have come due it posts them as one batch, then sleeps until the
// next is due. It never skips an operation because the generator fell
// behind — a late operation keeps its due time, which is what charges the
// stall to it. now and sleep are parameters so a test can drive a fake clock.
func runPacer(tt *timetable, now func() time.Time, sleep func(time.Duration), post func([]pacedOp)) {
	for !tt.done() {
		t := now()
		var batch []pacedOp
		for {
			idx, due, ok := tt.pop(t)
			if !ok {
				break
			}
			batch = append(batch, pacedOp{idx, due})
		}
		if len(batch) > 0 {
			post(batch)
		}
		if tt.done() {
			return
		}
		sleep(max(tt.next.Sub(t), minPacerSleep))
	}
}

// preciseSleep sleeps with the kernel's own timer. time.Sleep will not do
// for a pacer: a Go timer that is the only thing a thread waits for is
// served by epoll_wait, whose timeout counts in whole milliseconds, and an
// open loop at 12 000 ops/s then issues half its operations 0.2–1.4 ms late
// (measured) and charges that to the store. The calling goroutine must hold
// its OS thread (runtime.LockOSThread) so the blocking call is its own.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
