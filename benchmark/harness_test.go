package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/dist"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

// The self-tests cover the harness's own arithmetic and bookkeeping. None of
// them starts a cluster: they must stay a few seconds in total.

// fakeClock is a manual clock whose sleep overshoots by a set amount, the way
// a busy box does.
type fakeClock struct {
	now       time.Time
	overshoot func(i int) time.Duration
	sleeps    int
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.now = c.now.Add(d + c.overshoot(c.sleeps))
	c.sleeps++
}

func TestPacerChargesDueTimeAndCountsLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	// Every tenth sleep stalls for 5 ms; the rest wake on time.
	clk := &fakeClock{now: start, overshoot: func(i int) time.Duration {
		if i%10 == 9 {
			return 5 * time.Millisecond
		}
		return 0
	}}
	const rate, dur = 2000.0, time.Second
	tt := newTimetable(start, rate, dur, 42)
	rec := newPhaseRec(start, 4, dur/4, 0, true, true)
	const service = 300 * time.Microsecond
	var last time.Time
	n, lateOps := 0, 0
	runPacer(tt, clk.Now, clk.Sleep, func(batch []pacedOp) {
		for _, op := range batch {
			if op.due.Before(last) {
				t.Fatalf("op %d due %v before its predecessor %v", op.idx, op.due, last)
			}
			slot := start.Add(time.Duration(float64(op.idx) / rate * float64(time.Second)))
			if op.due.Before(slot) || !op.due.Before(slot.Add(time.Duration(float64(time.Second)/rate))) {
				t.Fatalf("op %d due %v outside its slot starting %v", op.idx, op.due, slot)
			}
			if op.due.After(clk.Now()) {
				t.Fatalf("op %d issued at %v before it was due at %v", op.idx, clk.Now(), op.due)
			}
			last = op.due
			n++
			rec.issued(op.due, clk.Now())
			// The store answers service after the operation is sent. Latency
			// runs from the due time, so a stall before sending is in it.
			done := clk.Now().Add(service)
			rec.done(done, kindRead, op.due, true)
			lateness := clk.Now().Sub(op.due)
			if lateness > lateLimit {
				lateOps++
			}
			if w := rec.window(done); w < rec.n {
				lat := rec.lat[kindRead][w]
				if got := time.Duration(lat[len(lat)-1]); got != lateness+service {
					t.Fatalf("op %d charged %v, want lateness %v + service %v", op.idx, got, lateness, service)
				}
			}
		}
	})
	if n != int(rate) {
		t.Fatalf("issued %d operations, want every one of %d (a late operation is sent late, never skipped)", n, int(rate))
	}
	total := 0
	for _, w := range rec.late {
		total += len(w)
	}
	if total != n || lateOps == 0 {
		t.Fatalf("lateness recorded for %d of %d ops, %d late; want all recorded and some late", total, n, lateOps)
	}
	overall, p99 := lateStats(rec.late)
	if want := float64(lateOps) / float64(n); overall != want || p99 < lateLimit {
		t.Fatalf("lateStats = %v, %v; a 5 ms stall every tenth wake must show as a late share of %v and a p99 over %v", overall, p99, want, lateLimit)
	}

	// A punctual generator is never late and charges exactly the service time.
	clk = &fakeClock{now: start, overshoot: func(int) time.Duration { return 0 }}
	rec = newPhaseRec(start, 4, dur/4, 0, true, true)
	runPacer(newTimetable(start, rate, dur, 42), clk.Now, clk.Sleep, func(batch []pacedOp) {
		for _, op := range batch {
			rec.issued(op.due, clk.Now())
		}
	})
	if overall, _ := lateStats(rec.late); overall != 0 {
		t.Fatalf("punctual pacer reported late share %v", overall)
	}
}

// The open loop keeps a stall's backlog in the generator, not in the members'
// mailboxes: beyond pacedMaxInflight an operation waits for a completion,
// keeps its due time, and goes out in order.
func TestOpenLoopHoldsBackBeyondItsBound(t *testing.T) {
	s := sim.New(1)
	st := newKeyState(10)
	out := &recordingSender{}
	drv, err := client.New(client.Options{
		ID: "c", Coordinators: []ring.NodeID{"n1"}, Policy: client.Fixed{Read: wire.One, Write: wire.One},
	}, s, out)
	if err != nil {
		t.Fatal(err)
	}
	start := s.Now()
	e := &endpoint{rt: s, drv: drv, st: st, rec: newPhaseRec(start, 1, time.Hour, 0, true, true),
		gen: &generator{rng: dist.NewRand(1), classes: []opClass{{dist.NewUniformChooser(10), 1}}, valueBytes: 32, st: st}}
	const extra = 50
	batch := make([]pacedOp, pacedMaxInflight+extra)
	for i := range batch {
		batch[i] = pacedOp{int64(i), start}
	}
	e.issuePaced(batch)
	if len(out.sent) != pacedMaxInflight || len(e.held) != extra {
		t.Fatalf("%d sent and %d held; want %d and %d", len(out.sent), len(e.held), pacedMaxInflight, extra)
	}
	idle := false
	e.whenIdle(func() { idle = true })
	// Every answer frees a slot for exactly one held operation, and the held
	// operation is charged from its due time, not from when it went out.
	for i := 0; i < len(batch); i++ {
		s.RunFor(time.Millisecond)
		drv.Deliver("n1", wire.ReadResponse{ID: out.sent[i].(wire.ReadRequest).ID, Found: true, Value: wire.Value{Data: e.gen.value(0, 1), Timestamp: 1}})
		if want := min(pacedMaxInflight+i+1, len(batch)); len(out.sent) != want {
			t.Fatalf("after %d answers %d requests had gone out, want %d", i+1, len(out.sent), want)
		}
	}
	if !idle || e.inflight != 0 || len(e.held) != 0 || e.attempted != int64(len(batch)) {
		t.Fatalf("idle=%v inflight=%d held=%d attempted=%d after every answer", idle, e.inflight, len(e.held), e.attempted)
	}
	lat := e.rec.lat[kindRead][0]
	if last := time.Duration(lat[len(lat)-1]); last != time.Duration(len(batch))*time.Millisecond {
		t.Fatalf("the last held operation was charged %v, want the %d ms since it was due", last, len(batch))
	}
}

func TestTimetableRepeatsForASeed(t *testing.T) {
	start := time.Unix(5, 0)
	a, b, c := newTimetable(start, 500, time.Second, 7), newTimetable(start, 500, time.Second, 7), newTimetable(start, 500, time.Second, 8)
	differs := false
	for !a.done() {
		_, da, _ := a.pop(start.Add(time.Hour))
		_, db, _ := b.pop(start.Add(time.Hour))
		_, dc, _ := c.pop(start.Add(time.Hour))
		if !da.Equal(db) {
			t.Fatalf("same seed, different due times: %v vs %v", da, db)
		}
		differs = differs || !da.Equal(dc)
	}
	if !differs {
		t.Fatal("different seeds produced the same timetable")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input, computed with CPython.
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{41580, 40025, 42702, 43100, 39000, 41000, 40500, 42000}, 40143.75, 41290, 42526.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q2-tc.q2) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	s := overWindows([]float64{5, 1, 3}, 30)
	if s.Value != 3 || s.Windows != 3 || s.Samples != 30 || s.Q1 != 1 || s.Q3 != 5 {
		t.Errorf("overWindows = %+v", s)
	}
}

func TestPercentileSampleRule(t *testing.T) {
	if tailSupported(999, 0.99) || !tailSupported(1000, 0.99) {
		t.Error("a p99 needs 1000 samples to leave ten beyond it")
	}
	if tailSupported(19, 0.5) || !tailSupported(20, 0.5) {
		t.Error("a median needs 20 samples to leave ten beyond it")
	}
	window := func(n int, base int64) []int64 {
		w := make([]int64, n)
		for i := range w {
			w[i] = (base + int64(i)) * 1000 // ns; i µs above base
		}
		return w
	}
	// Windows big enough: the median over windows of each window's p99.
	s, ok := windowPercentiles([][]int64{window(1000, 0), window(1000, 100), window(1000, 200)}, 0.99)
	if !ok || s.Windows != 3 || s.Value != 100+989 {
		t.Errorf("per-window p99 = %+v ok=%v, want the middle window's 1089", s, ok)
	}
	// Windows too small for a p99 on their own but not together: pooled.
	s, ok = windowPercentiles([][]int64{window(400, 0), window(400, 0), window(400, 0)}, 0.99)
	if !ok || s.Windows != 1 || s.Samples != 1200 {
		t.Errorf("pooled p99 = %+v ok=%v", s, ok)
	}
	// Too few even pooled: no number at all.
	if _, ok = windowPercentiles([][]int64{window(100, 0), window(100, 0)}, 0.99); ok {
		t.Error("200 samples must not yield a p99")
	}
	if got := percentile([]int64{10, 20, 30, 40}, 0.5); got != 20 {
		t.Errorf("nearest-rank median of 4 = %d, want 20", got)
	}
}

func TestQuorumCheckerCatchesPlantedStaleRead(t *testing.T) {
	st := newKeyState(4)
	value := func(key int64) []byte {
		b := make([]byte, 32)
		stampValue(b, key, 1)
		return b
	}
	// A clean write acknowledged at ts 100 sets the floor.
	st.writeIssued(1)
	st.writeDone(1, 100)
	floor := st.floor(1)
	if floor != 100 {
		t.Fatalf("floor after a clean write = %d, want 100", floor)
	}
	if m, r := readVerdict(1, floor, true, value(1), 100); m || r {
		t.Error("a read of the acknowledged version was flagged")
	}
	if m, r := readVerdict(1, floor, true, value(1), 130); m || r {
		t.Error("a read of a newer version was flagged")
	}
	// The planted stale read: an older version after the ack.
	if _, r := readVerdict(1, floor, true, value(1), 90); !r {
		t.Error("a read older than the acknowledged version was not caught")
	}
	// A value that belongs to another key, and a preloaded key not found.
	if m, _ := readVerdict(1, floor, true, value(2), 100); !m {
		t.Error("a value decoding to another key was not caught")
	}
	if m, _ := readVerdict(1, floor, false, nil, 0); !m {
		t.Error("a missing preloaded key was not caught")
	}
	// Two writes in flight together: the coordinators order them, not the
	// generator, so there is no floor until a clean write lands.
	st.writeIssued(1)
	st.writeIssued(1)
	if st.floor(1) != 0 {
		t.Error("overlapping writes must clear the floor at once")
	}
	st.writeDone(1, 210)
	st.writeDone(1, 205)
	if st.floor(1) != 0 {
		t.Error("overlapped writes must not set a floor")
	}
	st.writeIssued(1)
	st.writeDone(1, 300)
	if st.floor(1) != 300 {
		t.Error("the next clean write must restore the floor")
	}
	// A failed write may have landed anywhere: unknown again.
	st.writeIssued(1)
	st.writeDone(1, 0)
	if st.floor(1) != 0 {
		t.Error("a failed write must clear the floor")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{"read_p50_us", "us", "lower", 0.10}
	higher := metricDef{"ops_per_s", "ops/s", "higher", 0.10}
	tight := func(v float64) summary { return summary{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	for _, tc := range []struct {
		m    metricDef
		a, b summary
		want string
	}{
		{lower, tight(100), tight(105), "same"},
		{lower, tight(100), tight(80), "better"},
		{lower, tight(100), tight(120), "worse"},
		{higher, tight(1000), tight(1200), "better"},
		{higher, tight(1000), tight(850), "worse"},
		{lower, summary{Value: 100, Q1: 80, Q3: 120}, tight(150), "unresolved"},
	} {
		if _, got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", tc.m.Name, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}

	// End to end over files: one row per workload × metric, nonzero on worse.
	file := func(scale map[string]float64) string {
		f := resultFile{Seconds: 15, Workloads: map[string]*result{}}
		for _, w := range workloads {
			r := newResult()
			for _, m := range endToEnd {
				v := 100.0
				if s, ok := scale[w.Name+"/"+m.Name]; ok {
					v *= s
				}
				r.e2e(m.Name, tight(v))
			}
			if w.Name != "live-read-quorum" { // as an untraced live run: latencies not measured, no rows
				for _, m := range latencies {
					r.layer(m.Name, tight(100))
				}
			}
			f.Workloads[w.Name] = r
		}
		path := t.TempDir() + "/r.json"
		b, _ := json.Marshal(f)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file(nil)
	var out bytes.Buffer
	if code := compareFiles(base, file(nil), &out); code != 0 {
		t.Errorf("identical files: exit %d\n%s", code, out.String())
	}
	if rows, want := strings.Count(out.String(), "\n")-1, len(workloads)*len(endToEnd)+(len(workloads)-1)*len(latencies); rows != want {
		t.Errorf("%d rows, want %d", rows, want)
	}
	out.Reset()
	code := compareFiles(base, file(map[string]float64{
		"live-read-quorum/cpu_us_per_op": 1.3, "sim-ycsb-a/ops_per_s": 1.5,
	}), &out)
	if code != 1 || !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "better") {
		t.Errorf("exit %d, want 1 with a worse and a better row\n%s", code, out.String())
	}
	if code := compareFiles(base, t.TempDir()+"/missing.json", &out); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

func TestManifestMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(m.Workloads) != len(workloads) || len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest lists %d workloads, %d end-to-end and %d per-layer metrics; the spec has %d, %d and %d",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) || seen[n] {
			t.Errorf("name %q / unit %q is malformed or repeated", n, u)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: manifest %+v, spec %q", i, m.Workloads[i], w.Name)
		}
		check(w.Name, "x")
	}
	setup := false
	for i, d := range endToEnd {
		g := m.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %d: manifest %+v, spec %+v", i, g, d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		check(d.Name, d.Unit)
	}
	if !setup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	for i, d := range perLayer {
		if g := m.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: manifest %+v, spec %+v", i, g, d)
		}
		check(d.Name, d.Unit)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", m.Paths, m.RunSeconds)
	}
}

func TestEmittedJSONNamesEveryMetricWithItsUnit(t *testing.T) {
	r := newResult()
	r.Attempted = 10
	for _, m := range endToEnd {
		r.e2e(m.Name, scalar(1.5))
	}
	r.finish()
	if !r.Correct {
		t.Fatalf("a complete result failed its checks: %v", r.Failures)
	}
	for trace, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
		var line struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(r.contractLine(trace)), &line); err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != len(defs) || line.Attempted != 10 || !line.Correct {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if got, ok := line.Metrics[d.Name]; !ok || got.Unit != d.Unit || got.Value == nil {
				t.Errorf("trace=%v: metric %s missing or without unit %q: %+v", trace, d.Name, d.Unit, got)
			}
		}
	}
	// A missing end-to-end metric, a failed operation and a planted stale
	// read each fail the run.
	bad := newResult()
	bad.Attempted, bad.Failed, bad.regressions = 10, 1, 1
	bad.finish()
	if bad.Correct || len(bad.Failures) < 3 {
		t.Errorf("failures not reported: %v", bad.Failures)
	}
}

type recordingSender struct{ sent []wire.Message }

func (s *recordingSender) Send(_, _ ring.NodeID, m wire.Message) { s.sent = append(s.sent, m) }

func TestInterposersRecordSpansThatAddUp(t *testing.T) {
	tr := newTracer(time.Now(), 1)
	inner := &recordingSender{}
	send := tracingSender{inner, tr}
	delivered := 0
	recv := tracingHandler{transport.HandlerFunc(func(ring.NodeID, wire.Message) { delivered++ }), tr}

	for i := uint64(1); i <= 3; i++ {
		due := time.Now()
		op := tr.begin(due, due.Add(50*time.Microsecond))
		send.Send("c", "n1", wire.ReadRequest{ID: i})
		tr.issued()
		recv.Deliver("n1", wire.ReadResponse{ID: i})
		tr.end(op, time.Now().Add(time.Millisecond), kindRead)
	}
	// A message sent outside an operation (a probe) is passed on, not traced.
	send.Send("c", "n1", wire.ReadRequest{ID: 99})
	recv.Deliver("n1", wire.ReadResponse{ID: 99})
	if len(inner.sent) != 4 || delivered != 4 {
		t.Fatalf("interposers swallowed traffic: %d sent, %d delivered", len(inner.sent), delivered)
	}
	if len(tr.spans) != 3*5 || len(tr.byWire) != 0 {
		t.Fatalf("%d spans, %d ids still mapped; want 15 and 0", len(tr.spans), len(tr.byWire))
	}
	self, roots := selfTimes(tr.spans)
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != roots || roots <= 0 {
		t.Errorf("self times sum to %d, operations to %d", sum, roots)
	}
	if self["op"] != 0 {
		t.Errorf("the children tile the operation, yet it kept %d ns of self time", self["op"])
	}

	// Self time is the span minus what its children cover, overlap once.
	spans := []span{
		{1, "op", "", 0, 100},
		{1, "a", "op", 10, 40},
		{1, "b", "op", 30, 60}, // overlaps a by 10
	}
	self, roots = selfTimes(spans)
	if roots != 100 || self["op"] != 50 || self["a"] != 30 || self["b"] != 30 {
		t.Errorf("selfTimes = %v roots %d", self, roots)
	}

	path := t.TempDir() + "/out/trace.jsonl"
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	var first map[string]any
	if err := json.Unmarshal(bytes.SplitN(b, []byte("\n"), 2)[0], &first); err != nil || first["name"] != "op" || first["end_ns"] != 100.0 {
		t.Errorf("trace line %v: %v", first, err)
	}
}
