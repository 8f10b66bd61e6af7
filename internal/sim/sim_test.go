package sim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSimOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSimTieBreakFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5*time.Millisecond, func() { got = append(got, i) })
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSimClockAdvances(t *testing.T) {
	s := New(1)
	start := s.Now()
	var at time.Time
	s.After(42*time.Millisecond, func() { at = s.Now() })
	s.RunUntilIdle(10)
	if got := at.Sub(start); got != 42*time.Millisecond {
		t.Fatalf("callback ran at +%v, want +42ms", got)
	}
}

func TestSimCancel(t *testing.T) {
	s := New(1)
	fired := false
	cancel := s.After(time.Millisecond, func() { fired = true })
	cancel()
	cancel() // double-cancel must be safe
	s.RunUntilIdle(10)
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestSimNestedScheduling(t *testing.T) {
	s := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			s.After(time.Millisecond, recurse)
		}
	}
	s.Post(recurse)
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
}

func TestSimRunDeadline(t *testing.T) {
	s := New(1)
	count := 0
	s.Ticker(10*time.Millisecond, func() { count++ })
	s.RunFor(95 * time.Millisecond)
	if count != 9 {
		t.Fatalf("ticks = %d, want 9", count)
	}
	// Clock must land exactly on the deadline even though the next event is
	// beyond it.
	if got := s.Now().Sub(New(1).Now()); got != 95*time.Millisecond {
		t.Fatalf("now = +%v, want +95ms", got)
	}
}

func TestSimTickerStop(t *testing.T) {
	s := New(1)
	count := 0
	stop := s.Ticker(time.Millisecond, func() {
		count++
		if count == 3 {
			// stop from within the callback
		}
	})
	s.RunFor(3 * time.Millisecond)
	stop()
	s.RunFor(10 * time.Millisecond)
	if count != 3 {
		t.Fatalf("ticks after stop = %d, want 3", count)
	}
}

func TestSimRunUntilIdleGuard(t *testing.T) {
	s := New(1)
	var loop func()
	loop = func() { s.After(time.Millisecond, loop) }
	s.Post(loop)
	if err := s.RunUntilIdle(50); err == nil {
		t.Fatal("expected runaway-loop error")
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(99)
		var draws []int64
		for i := 0; i < 4; i++ {
			d := time.Duration(s.Rand().Intn(100)) * time.Millisecond
			s.After(d, func() { draws = append(draws, s.Now().UnixNano()) })
		}
		s.RunUntilIdle(100)
		return draws
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic run lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic event times: %v vs %v", a, b)
		}
	}
}

func TestSimNewStreamIndependence(t *testing.T) {
	s := New(7)
	r1, r2 := s.NewStream(), s.NewStream()
	same := true
	for i := 0; i < 8; i++ {
		if r1.Int63() != r2.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("derived streams are identical")
	}
}

func TestRealRuntimeServializesAndRuns(t *testing.T) {
	r := NewRealRuntime()
	defer r.Stop()
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	r.Post(func() {
		mu.Lock()
		got = append(got, 1)
		mu.Unlock()
	})
	r.After(5*time.Millisecond, func() {
		mu.Lock()
		got = append(got, 2)
		mu.Unlock()
		close(done)
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

func TestRealRuntimeCancel(t *testing.T) {
	r := NewRealRuntime()
	defer r.Stop()
	fired := make(chan struct{}, 1)
	cancel := r.After(20*time.Millisecond, func() { fired <- struct{}{} })
	cancel()
	select {
	case <-fired:
		t.Fatal("canceled timer fired")
	case <-time.After(60 * time.Millisecond):
	}
}

func TestRealRuntimeStopIdempotent(t *testing.T) {
	r := NewRealRuntime()
	r.Stop()
	r.Stop()
	r.Post(func() { t.Error("post after stop executed") }) // must be dropped
	time.Sleep(10 * time.Millisecond)
}

func BenchmarkSimEventThroughput(b *testing.B) {
	s := New(1)
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			s.After(time.Microsecond, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Post(fn)
	s.RunUntilIdle(uint64(b.N) + 10)
}

func TestEveryVariableIntervals(t *testing.T) {
	s := New(1)
	gaps := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	i := 0
	next := func() time.Duration {
		d := gaps[i%len(gaps)]
		i++
		return d
	}
	var fired []time.Time
	stop := Every(s, next, func() { fired = append(fired, s.Now()) })
	start := s.Now()
	s.RunFor(70 * time.Millisecond)
	stop()
	s.RunFor(200 * time.Millisecond)
	// Expected firing offsets: 10, 30, 70 ms; stopped before the next.
	want := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 70 * time.Millisecond}
	if len(fired) != len(want) {
		t.Fatalf("fired %d times, want %d", len(fired), len(want))
	}
	for j, at := range fired {
		if got := at.Sub(start); got != want[j] {
			t.Fatalf("firing %d at +%v, want +%v", j, got, want[j])
		}
	}
}

func TestEveryStopFromCallback(t *testing.T) {
	s := New(1)
	count := 0
	var stop func()
	stop = Every(s, func() time.Duration { return time.Millisecond }, func() {
		count++
		if count == 3 {
			stop()
		}
	})
	s.RunFor(time.Second)
	if count != 3 {
		t.Fatalf("callback ran %d times after self-stop, want 3", count)
	}
}

// TestRealRuntimePostSelfPastFullInbox: a callback posting to its own
// runtime must never block, however full the inbox. Peers fill the inbox
// (and more block behind it) while a callback is held; the callback then
// self-posts 5000 times. Post would wait forever on the first — only the
// posting goroutine drains the inbox — so nothing would be delivered;
// PostSelf delivers all of them, in order, and the peers' posts too.
func TestRealRuntimePostSelfPastFullInbox(t *testing.T) {
	rt := NewRealRuntime()
	defer rt.Stop()
	const selfPosts, blockedPeers = 5000, 8
	held, resume := make(chan struct{}), make(chan struct{})
	got := make(chan int, selfPosts)
	rt.Post(func() {
		close(held)
		<-resume
		for i := 0; i < selfPosts; i++ {
			i := i
			rt.PostSelf(func() { got <- i })
		}
	})
	<-held
	var fromPeers atomic.Int64
	for i := 0; i < cap(rt.inbox); i++ {
		rt.Post(func() { fromPeers.Add(1) })
	}
	var peers sync.WaitGroup
	for i := 0; i < blockedPeers; i++ {
		peers.Add(1)
		go func() {
			defer peers.Done()
			rt.Post(func() { fromPeers.Add(1) }) // blocks: the inbox is full
		}()
	}
	close(resume)
	for want := 0; want < selfPosts; want++ {
		select {
		case i := <-got:
			if i != want {
				t.Fatalf("self-post %d delivered where %d was due", i, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("delivered %d of %d self-posts", want, selfPosts)
		}
	}
	peers.Wait()
	done := make(chan struct{})
	rt.Post(func() { close(done) })
	<-done
	if n := fromPeers.Load(); n != int64(cap(rt.inbox)+blockedPeers) {
		t.Fatalf("%d peer posts ran, want %d", n, cap(rt.inbox)+blockedPeers)
	}
	// With nothing spilled the door is the inbox again, in order with Post.
	order := make(chan string, 2)
	rt.Post(func() {
		rt.PostSelf(func() { order <- "self" })
		rt.Post(func() { order <- "post" })
	})
	if a, b := <-order, <-order; a != "self" || b != "post" {
		t.Fatalf("PostSelf then Post ran as %s, %s", a, b)
	}
}
