package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/wire"
)

// recorder collects deliveries per destination with arrival times.
type recorder struct {
	mu   sync.Mutex
	rt   sim.Runtime
	got  map[ring.NodeID][]wire.Message
	when map[ring.NodeID][]time.Time
}

func newRecorder(rt sim.Runtime) *recorder {
	return &recorder{rt: rt, got: map[ring.NodeID][]wire.Message{}, when: map[ring.NodeID][]time.Time{}}
}

func (r *recorder) sender() Sender {
	return sendFunc(func(from, to ring.NodeID, m wire.Message) {
		r.mu.Lock()
		r.got[to] = append(r.got[to], m)
		r.when[to] = append(r.when[to], r.rt.Now())
		r.mu.Unlock()
	})
}

func (r *recorder) count(to ring.NodeID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.got[to])
}

type sendFunc func(from, to ring.NodeID, m wire.Message)

func (f sendFunc) Send(from, to ring.NodeID, m wire.Message) { f(from, to, m) }

func ping(id uint64) wire.Message { return wire.Ping{ID: id} }

// wrapped wraps rec's sender in a fresh plane over members.
func wrapped(rt sim.Runtime, rec *recorder, members ...ring.NodeID) (*Plane, Sender) {
	p := New(rt, 7, members)
	return p, p.Wrap(rec.sender())
}

func rule(from, to string, r Rule) Update {
	return Update{Set: []RuleUpdate{{From: from, To: to, Rule: r}}}
}

func TestUnarmedPassThrough(t *testing.T) {
	s := sim.New(1)
	rec := newRecorder(s)
	p, in := wrapped(s, rec)
	for i := 0; i < 100; i++ {
		in.Send("a", "b", ping(uint64(i)))
	}
	if rec.count("b") != 100 {
		t.Fatalf("delivered %d of 100 with no rules", rec.count("b"))
	}
	if st := p.Snapshot().Stats; st != (Stats{}) {
		t.Fatalf("counters moved with no rules: %+v", st)
	}
}

func TestDropRuleIsDirected(t *testing.T) {
	s := sim.New(2)
	rec := newRecorder(s)
	p, in := wrapped(s, rec)
	p.Apply(rule("a", "b", Rule{Drop: 1}))
	for i := 0; i < 50; i++ {
		in.Send("a", "b", ping(uint64(i)))
		in.Send("b", "a", ping(uint64(i)))
	}
	if rec.count("b") != 0 {
		t.Fatalf("a->b delivered %d frames through a 100%% drop rule", rec.count("b"))
	}
	if rec.count("a") != 50 {
		t.Fatalf("reverse direction impaired: %d of 50", rec.count("a"))
	}
	if st := p.Snapshot().Stats; st.Dropped != 50 {
		t.Fatalf("dropped = %d, want 50", st.Dropped)
	}
	// Removing the rule (zero Rule) restores pass-through.
	p.Apply(rule("a", "b", Rule{}))
	in.Send("a", "b", ping(99))
	if rec.count("b") != 1 {
		t.Fatal("rule removal did not restore delivery")
	}
}

func TestDelayDefersDelivery(t *testing.T) {
	s := sim.New(3)
	rec := newRecorder(s)
	p, in := wrapped(s, rec)
	p.Apply(rule("a", "b", Rule{Delay: 40 * time.Millisecond}))
	start := s.Now()
	in.Send("a", "b", ping(1))
	if rec.count("b") != 0 {
		t.Fatal("delayed frame delivered synchronously")
	}
	s.RunUntilIdle(100)
	if rec.count("b") != 1 {
		t.Fatal("delayed frame never delivered")
	}
	if got := rec.when["b"][0].Sub(start); got < 40*time.Millisecond {
		t.Fatalf("delivered after %s, want >= 40ms", got)
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	s := sim.New(4)
	rec := newRecorder(s)
	p, in := wrapped(s, rec)
	p.Apply(rule("a", "b", Rule{Duplicate: 1}))
	for i := 0; i < 20; i++ {
		in.Send("a", "b", ping(uint64(i)))
	}
	s.RunUntilIdle(1000)
	if rec.count("b") != 40 {
		t.Fatalf("delivered %d frames, want 40 (every frame duplicated)", rec.count("b"))
	}
	if st := p.Snapshot().Stats; st.Duplicated != 20 {
		t.Fatalf("duplicated = %d, want 20", st.Duplicated)
	}
}

func TestReorderOvertakes(t *testing.T) {
	s := sim.New(5)
	rec := newRecorder(s)
	p, in := wrapped(s, rec)
	// Reorder every frame with a latency scale, so consecutive sends at
	// the same instant land shuffled.
	p.Apply(rule("a", "b", Rule{Delay: time.Millisecond, Jitter: 10 * time.Millisecond, Reorder: 0.5}))
	for i := 0; i < 64; i++ {
		in.Send("a", "b", ping(uint64(i)))
	}
	s.RunUntilIdle(10_000)
	if rec.count("b") != 64 {
		t.Fatalf("delivered %d of 64", rec.count("b"))
	}
	inOrder := true
	for i, m := range rec.got["b"] {
		if m.(wire.Ping).ID != uint64(i) {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatal("64 reordered frames arrived in exact send order")
	}
}

func TestWildcardPrecedence(t *testing.T) {
	s := sim.New(6)
	rec := newRecorder(s)
	p, in := wrapped(s, rec)
	p.Apply(rule(Wildcard, Wildcard, Rule{Drop: 1}))
	p.Apply(rule("a", "b", Rule{Delay: time.Millisecond})) // exact beats wildcard
	in.Send("a", "b", ping(1))
	in.Send("a", "c", ping(2)) // falls to *->*: dropped
	s.RunUntilIdle(100)
	if rec.count("b") != 1 || rec.count("c") != 0 {
		t.Fatalf("precedence wrong: b=%d c=%d", rec.count("b"), rec.count("c"))
	}
}

func TestSymmetricAndAsymmetricPartition(t *testing.T) {
	s := sim.New(7)
	rec := newRecorder(s)
	p, in := wrapped(s, rec)
	p.Apply(Update{Partition: &PartitionSpec{A: []string{"n1", "n2"}, B: []string{"n3"}}})
	in.Send("n1", "n3", ping(1))
	in.Send("n3", "n2", ping(2))
	in.Send("n1", "n2", ping(3)) // same side: unaffected
	if rec.count("n3") != 0 || rec.count("n2") != 1 {
		t.Fatalf("symmetric cut leaked: n3=%d n2=%d", rec.count("n3"), rec.count("n2"))
	}
	if st := p.Snapshot().Stats; st.Cut != 2 {
		t.Fatalf("cut = %d, want 2", st.Cut)
	}
	p.Apply(Update{Heal: true})
	in.Send("n1", "n3", ping(4))
	if rec.count("n3") != 1 {
		t.Fatal("heal did not restore delivery")
	}

	// Asymmetric: n1->n3 blocked, n3->n1 flows.
	p.Apply(Update{Partition: &PartitionSpec{A: []string{"n1"}, B: []string{"n3"}, Asymmetric: true}})
	in.Send("n1", "n3", ping(5))
	in.Send("n3", "n1", ping(6))
	if rec.count("n3") != 1 {
		t.Fatal("asymmetric cut leaked n1->n3")
	}
	if rec.count("n1") != 1 {
		t.Fatal("asymmetric cut blocked the open direction")
	}
}

func TestWildcardPartitionSide(t *testing.T) {
	s := sim.New(8)
	rec := newRecorder(s)
	p, in := wrapped(s, rec, "n1", "n2", "n3", "n4")
	p.Apply(Update{Partition: &PartitionSpec{A: []string{"n4"}, B: []string{Wildcard}}})
	in.Send("n4", "n1", ping(1))
	in.Send("n2", "n4", ping(2))
	in.Send("n1", "n2", ping(3))
	if rec.count("n1") != 0 || rec.count("n4") != 0 {
		t.Fatal("wildcard isolation leaked")
	}
	if rec.count("n2") != 1 {
		t.Fatal("wildcard isolation cut an unrelated pair")
	}
}

func TestApplyUpdateAndSnapshot(t *testing.T) {
	s := sim.New(9)
	rec := newRecorder(s)
	p, _ := wrapped(s, rec)
	p.Apply(Update{
		Set:       []RuleUpdate{{From: "a", To: "b", Rule: Rule{Drop: 0.5}}},
		Partition: &PartitionSpec{A: []string{"x"}, B: []string{"y"}},
		Down:      []string{"z"},
	})
	st := p.Snapshot()
	if len(st.Rules) != 1 || st.Rules[0].From != "a" || st.Rules[0].Drop != 0.5 {
		t.Fatalf("snapshot rules = %+v", st.Rules)
	}
	if len(st.Partitions) != 1 || len(st.Down) != 1 || st.Down[0] != "z" {
		t.Fatalf("snapshot partitions = %+v, down = %v", st.Partitions, st.Down)
	}
	p.Apply(Update{Clear: true})
	if st := p.Snapshot(); len(st.Rules) != 0 || len(st.Partitions) != 0 {
		t.Fatal("clear left state behind")
	}
}

// TestScenarioSchedulesSteps runs a scripted scenario — a plan carried by
// an update — on virtual time, and cancels the rest of a plan mid-way.
func TestScenarioSchedulesSteps(t *testing.T) {
	s := sim.New(10)
	rec := newRecorder(s)
	p, in := wrapped(s, rec, "a", "b")
	p.Apply(Update{Plan: Plan{
		{After: 0, Update: Update{Partition: &PartitionSpec{A: []string{"a"}, B: []string{"b"}}}},
		{After: 100 * time.Millisecond, Update: Update{Heal: true}},
	}})
	s.RunFor(10 * time.Millisecond)
	in.Send("a", "b", ping(1))
	if rec.count("b") != 0 {
		t.Fatal("scenario cut not applied")
	}
	s.RunFor(200 * time.Millisecond)
	in.Send("a", "b", ping(2))
	if rec.count("b") != 1 {
		t.Fatal("scenario heal not applied")
	}

	stop := p.Run(Plan{
		{After: 0, Update: Update{Down: []string{"b"}}},
		{After: 100 * time.Millisecond, Update: Update{Up: []string{"b"}}},
	})
	s.RunFor(10 * time.Millisecond)
	stop()
	s.RunFor(200 * time.Millisecond)
	if p.Alive("a", "b") {
		t.Fatal("cancelled step still fired")
	}
}

func TestHTTPHandlerRoundTrip(t *testing.T) {
	s := sim.New(11)
	rec := newRecorder(s)
	p, in := wrapped(s, rec, "n1", "n2", "n3")
	h := p

	body, _ := json.Marshal(Update{Partition: &PartitionSpec{A: []string{"n1"}, B: []string{Wildcard}}})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/faults", bytes.NewReader(body)))
	if w.Code != 200 {
		t.Fatalf("POST status %d: %s", w.Code, w.Body.String())
	}
	in.Send("n1", "n2", ping(1))
	if rec.count("n2") != 0 {
		t.Fatal("posted partition not applied")
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/faults", nil))
	var st State
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("GET body: %v", err)
	}
	if len(st.Partitions) != 1 || st.Stats.Cut != 1 {
		t.Fatalf("GET state = %+v", st)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/faults", strings.NewReader("{bad")))
	if w.Code != 400 {
		t.Fatalf("bad JSON status %d", w.Code)
	}

	body, _ = json.Marshal(Update{Heal: true})
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/faults", bytes.NewReader(body)))
	if w.Code != 200 {
		t.Fatalf("heal status %d", w.Code)
	}
	in.Send("n1", "n2", ping(2))
	if rec.count("n2") != 1 {
		t.Fatal("posted heal not applied")
	}
}

// TestHTTPRejectsInvalidUpdates pins POST /faults validation: an update the
// plane cannot run is refused with 400 before it is applied, so the plane's
// state is unchanged and the send path keeps working. Once applied, a
// reorder rule with a huge delay panics the next Send in the reorder draw
// (3*scale overflows into a negative Int63n bound).
func TestHTTPRejectsInvalidUpdates(t *testing.T) {
	for _, tc := range []struct {
		name, body string
	}{
		{"reorder overflow", `{"set":[{"from":"*","to":"*","delay":4000000000000000000,"reorder":1}]}`},
		{"delay above bound", `{"set":[{"from":"n1","to":"n2","delay":3600000000001}]}`},
		{"negative delay", `{"set":[{"from":"n1","to":"n2","delay":-1}]}`},
		{"negative jitter", `{"set":[{"from":"n1","to":"n2","jitter":-5}]}`},
		{"jitter above bound", `{"set":[{"from":"n1","to":"n2","jitter":3600000000001}]}`},
		{"drop above one", `{"set":[{"from":"n1","to":"n2","drop":1.5}]}`},
		{"negative duplicate", `{"set":[{"from":"n1","to":"n2","duplicate":-0.1}]}`},
		{"reorder above one", `{"set":[{"from":"n1","to":"n2","reorder":2}]}`},
		{"negative after", `{"plan":[{"after":-1,"update":{"heal":true}}]}`},
		{"bad rule in plan", `{"plan":[{"after":0,"update":{"set":[{"from":"n1","to":"n2","drop":7}]}}]}`},
		{"bad rule in nested plan", `{"plan":[{"after":0,"update":{"plan":[{"after":0,"update":{"set":[{"from":"*","to":"*","delay":-1}]}}]}}]}`},
		{"good rule beside bad", `{"set":[{"from":"n1","to":"n2","drop":0.5},{"from":"n2","to":"n3","drop":-1}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(12)
			rec := newRecorder(s)
			p, in := wrapped(s, rec, "n1", "n2", "n3")
			before, _ := json.Marshal(p.Snapshot())
			w := httptest.NewRecorder()
			p.ServeHTTP(w, httptest.NewRequest("POST", "/faults", strings.NewReader(tc.body)))
			if w.Code != 400 {
				t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
			}
			s.RunFor(time.Second) // a plan that slipped through would fire here
			after, _ := json.Marshal(p.Snapshot())
			if !bytes.Equal(before, after) {
				t.Fatalf("refused update changed the plane:\n before %s\n after  %s", before, after)
			}
			in.Send("n1", "n2", ping(1))
			s.RunFor(time.Second)
			if rec.count("n2") != 1 {
				t.Fatalf("send after a refused update delivered %d frames, want 1", rec.count("n2"))
			}
		})
	}

	// The bounds themselves are accepted.
	s := sim.New(13)
	rec := newRecorder(s)
	p, in := wrapped(s, rec, "n1", "n2")
	w := httptest.NewRecorder()
	body := `{"set":[{"from":"n1","to":"n2","delay":3600000000000,"jitter":3600000000000,"drop":0,"duplicate":1,"reorder":1}],"plan":[{"after":0,"update":{"heal":true}}]}`
	p.ServeHTTP(w, httptest.NewRequest("POST", "/faults", strings.NewReader(body)))
	if w.Code != 200 {
		t.Fatalf("rule at the bounds refused: %d %s", w.Code, w.Body.String())
	}
	in.Send("n1", "n2", ping(1)) // must not panic in the reorder draw
}

// TestConcurrentSendsUnderMutation pins -race cleanliness: senders on many
// goroutines while rules and partitions churn.
func TestConcurrentSendsUnderMutation(t *testing.T) {
	rt := sim.NewRealRuntime()
	defer rt.Stop()
	rec := newRecorder(rt)
	p, in := wrapped(rt, rec, "a", "b", "c")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Senders also meet new endpoints, which grow the table.
				in.Send(ring.NodeID("a"), ring.NodeID(fmt.Sprintf("e%d-%d", g, i%64)), ping(uint64(i)))
				in.Send(ring.NodeID("a"), ring.NodeID("b"), ping(uint64(i)))
				_ = p.Alive("a", "b")
				_ = p.AliveCount("a")
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		p.Apply(Update{Convict: &PartitionSpec{A: []string{"a"}, B: []string{Wildcard}}, Acquit: i%2 == 0})
		p.Apply(rule("a", "b", Rule{Drop: 0.1, Delay: time.Microsecond}))
		p.Apply(Update{Partition: &PartitionSpec{A: []string{"a"}, B: []string{"c"}}})
		p.Apply(Update{Heal: true})
		p.Apply(Update{Down: []string{"b"}, Up: []string{"b"}})
		p.Apply(Update{Clear: true})
		_ = p.Snapshot()
	}
	close(stop)
	wg.Wait()
}
