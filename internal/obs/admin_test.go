package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// promSeries is one parsed exposition line: full series key ("name{a="b"}")
// to value, plus the families' declared types.
type promScrape struct {
	series map[string]float64
	types  map[string]string
	help   map[string]string
}

// parseProm parses the Prometheus text exposition format strictly enough to
// round-trip what writeProm emits: # HELP/# TYPE lines, then
// name{labels} value samples.
func parseProm(t *testing.T, body string) promScrape {
	t.Helper()
	out := promScrape{
		series: map[string]float64{},
		types:  map[string]string{},
		help:   map[string]string{},
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("malformed TYPE line %q", line)
			}
			out.types[name] = typ
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("malformed HELP line %q", line)
			}
			out.help[name] = help
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, valStr := line[:idx], line[idx+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if _, dup := out.series[key]; dup {
			t.Fatalf("duplicate series %q", key)
		}
		// The family must have a TYPE declared before its first sample.
		fam := key
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		fam = strings.TrimSuffix(strings.TrimSuffix(fam, "_sum"), "_count")
		if _, ok := out.types[fam]; !ok {
			t.Fatalf("sample %q before its # TYPE", key)
		}
		out.series[key] = val
	}
	return out
}

type testStatus struct {
	Node   string         `json:"node"`
	Epoch  uint64         `json:"epoch"`
	Levels map[string]int `json:"levels"`
}

func startTestAdmin(t *testing.T, ops *atomic.Uint64, hist *OpLevelHist, tr *Trace) *Admin {
	t.Helper()
	reg := NewRegistry()
	reg.Register(func(emit func(Metric)) {
		emit(Metric{
			Name: "harmony_ops_total", Help: "Operations coordinated.", Type: Counter,
			Labels: []Label{{Name: "node", Value: `n"1`}}, // exercises escaping
			Value:  float64(ops.Load()),
		})
		emit(Metric{Name: "harmony_queue_depth", Help: "Queued frames.", Type: Gauge, Value: 3})
	})
	reg.Register(OpLatencyCollector(hist, Label{Name: "node", Value: "n1"}))

	adm, err := StartAdmin("127.0.0.1:0", AdminConfig{
		Registry: reg,
		Trace:    tr,
		Status: func() any {
			return testStatus{Node: "n1", Epoch: 7, Levels: map[string]int{"0": 1, "1": 4}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { adm.Close() })
	return adm
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// Golden shape of /metrics: parseable exposition, declared types, escaped
// labels, summary quantiles — and counters are monotonic across scrapes.
func TestAdminMetricsExposition(t *testing.T) {
	var ops atomic.Uint64
	ops.Store(10)
	hist := NewOpLevelHist()
	hist.Record(OpRead, 4, 2*time.Millisecond) // wire.Quorum
	adm := startTestAdmin(t, &ops, hist, NewTrace(16))
	base := "http://" + adm.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	first := parseProm(t, body)

	counterKey := `harmony_ops_total{node="n\"1"}`
	if got := first.series[counterKey]; got != 10 {
		t.Fatalf("%s = %v, want 10 (series: %v)", counterKey, got, first.series)
	}
	if first.types["harmony_ops_total"] != "counter" {
		t.Fatalf("harmony_ops_total type = %q", first.types["harmony_ops_total"])
	}
	if first.types["harmony_queue_depth"] != "gauge" {
		t.Fatalf("harmony_queue_depth type = %q", first.types["harmony_queue_depth"])
	}
	if first.types["harmony_op_latency_seconds"] != "summary" {
		t.Fatalf("latency family type = %q", first.types["harmony_op_latency_seconds"])
	}
	if first.help["harmony_ops_total"] == "" {
		t.Fatal("missing HELP for harmony_ops_total")
	}
	countKey := `harmony_op_latency_seconds_count{node="n1",op="read",level="QUORUM"}`
	if got := first.series[countKey]; got != 1 {
		t.Fatalf("%s = %v, want 1 (series: %v)", countKey, got, first.series)
	}
	q99 := `harmony_op_latency_seconds{node="n1",op="read",level="QUORUM",quantile="0.99"}`
	if got, ok := first.series[q99]; !ok || got <= 0 {
		t.Fatalf("%s = %v, %v", q99, got, ok)
	}

	// Counters only move forward between scrapes.
	ops.Add(5)
	hist.Record(OpRead, 4, time.Millisecond)
	_, body2 := get(t, base+"/metrics")
	second := parseProm(t, body2)
	for _, key := range []string{counterKey, countKey} {
		if second.series[key] < first.series[key] {
			t.Fatalf("counter %s went backward: %v -> %v", key, first.series[key], second.series[key])
		}
	}
	if got := second.series[counterKey]; got != 15 {
		t.Fatalf("%s after Add = %v, want 15", counterKey, got)
	}
}

func TestAdminStatusRoundTrip(t *testing.T) {
	var ops atomic.Uint64
	adm := startTestAdmin(t, &ops, nil, nil)

	code, body := get(t, "http://"+adm.Addr()+"/status")
	if code != http.StatusOK {
		t.Fatalf("GET /status = %d", code)
	}
	var got testStatus
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("status not JSON: %v\n%s", err, body)
	}
	want := testStatus{Node: "n1", Epoch: 7, Levels: map[string]int{"0": 1, "1": 4}}
	if got.Node != want.Node || got.Epoch != want.Epoch ||
		got.Levels["0"] != 1 || got.Levels["1"] != 4 {
		t.Fatalf("status round-trip = %+v, want %+v", got, want)
	}
}

func TestAdminTraceEndpoint(t *testing.T) {
	var ops atomic.Uint64
	tr := NewTrace(16)
	for i := 0; i < 5; i++ {
		tr.Add(Event{Kind: EventLevel, Group: i, From: "ONE", To: "TWO"})
	}
	adm := startTestAdmin(t, &ops, nil, tr)
	base := "http://" + adm.Addr()

	code, body := get(t, base+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /trace = %d", code)
	}
	if lines := strings.Count(strings.TrimSpace(body), "\n") + 1; lines != 5 {
		t.Fatalf("trace lines = %d, want 5\n%s", lines, body)
	}

	code, body = get(t, base+"/trace?since=3")
	if code != http.StatusOK {
		t.Fatalf("GET /trace?since=3 = %d", code)
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	var seqs []uint64
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		seqs = append(seqs, e.Seq)
	}
	if fmt.Sprint(seqs) != "[4 5]" {
		t.Fatalf("since=3 seqs = %v, want [4 5]", seqs)
	}

	if code, _ := get(t, base+"/trace?since=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad since = %d, want 400", code)
	}
}

func TestAdminDebugEndpoints(t *testing.T) {
	var ops atomic.Uint64
	adm := startTestAdmin(t, &ops, nil, nil)
	base := "http://" + adm.Addr()

	if code, body := get(t, base+"/debug/vars"); code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Fatalf("GET /debug/vars = %d", code)
	}
	if code, body := get(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("GET /debug/pprof/ = %d", code)
	}
	if code, body := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Fatalf("GET /debug/pprof/cmdline = %d", code)
	}
}

func TestRegistryDeterministicOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Register(func(emit func(Metric)) {
		emit(Metric{Name: "zzz_metric", Type: Gauge, Value: 1})
		emit(Metric{Name: "aaa_metric", Type: Gauge, Value: 2})
		emit(Metric{Name: "mmm_metric", Type: Gauge, Labels: []Label{{Name: "g", Value: "2"}}, Value: 3})
		emit(Metric{Name: "mmm_metric", Type: Gauge, Labels: []Label{{Name: "g", Value: "1"}}, Value: 4})
	})
	var b1, b2 strings.Builder
	if err := reg.writeProm(&b1); err != nil {
		t.Fatal(err)
	}
	if err := reg.writeProm(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("writeProm not deterministic")
	}
	aaa := strings.Index(b1.String(), "aaa_metric")
	g1 := strings.Index(b1.String(), `mmm_metric{g="1"}`)
	g2 := strings.Index(b1.String(), `mmm_metric{g="2"}`)
	zzz := strings.Index(b1.String(), "zzz_metric")
	if !(aaa < g1 && g1 < g2 && g2 < zzz) {
		t.Fatalf("unsorted exposition:\n%s", b1.String())
	}
}
