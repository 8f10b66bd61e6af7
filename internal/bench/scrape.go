package bench

// The live scraper is the observability half of the live backend: while an
// experiment drives load, it polls every member's admin endpoint (/metrics +
// /trace) plus the client-side tally on a fixed cadence and assembles one
// aligned time series — throughput, per-group staleness, the level each
// group is commanded at and actually served at, and the queue-depth gauges.
// The hotcold/churn artifacts then show the adaptation trajectory over time
// instead of two end-state numbers.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"harmony/internal/obs"
	"harmony/internal/ring"
)

// LiveSample is one scrape tick of a live experiment.
type LiveSample struct {
	// TMs is the sample's offset from the series start.
	TMs float64 `json:"t_ms"`
	// Ops / OpsPerSec are the client operations completed during the tick.
	Ops       int64   `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// GroupLevels is the controller-commanded read level per group at
	// sample time (["QUORUM","ONE"], hot group first).
	GroupLevels []string `json:"group_levels"`
	// Probes / StaleFrac are the per-group dual-read staleness probes
	// issued during the tick and the stale fraction they measured.
	Probes    []uint64  `json:"probes"`
	StaleFrac []float64 `json:"stale_frac"`
	// ServedLevelUse tallies the consistency levels the members actually
	// coordinated at during the tick (scraped counter deltas, cluster-wide)
	// — the served-side complement of GroupLevels.
	ServedLevelUse map[string]uint64 `json:"served_level_use,omitempty"`
	// Queue-depth gauges summed over scraped members.
	HintQueueDepth float64 `json:"hint_queue_depth"`
	SendQueueBytes float64 `json:"send_queue_bytes"`
	KeydirBytes    float64 `json:"keydir_bytes"`
	// ScrapedNodes counts members that answered /metrics this tick (a
	// killed member scrapes as 0 until its restart rebinds the port).
	ScrapedNodes int `json:"scraped_nodes"`
}

// LiveSeries is the scraped time series of one live experiment arm.
type LiveSeries struct {
	IntervalMs float64      `json:"interval_ms"`
	Samples    []LiveSample `json:"samples"`
	// Trace merges the experiment's control-loop events: every level
	// change, divergence hold/release and SESSION override the client-side
	// controller decided (no Node field), plus the events scraped from the
	// members' own rings (Node set). Ordered by AtMs.
	Trace []obs.Event `json:"trace,omitempty"`
}

// liveScraper polls a live backend's cluster once a second (the
// artifact's cadence) until stopped.
type liveScraper struct {
	interval time.Duration
	admins   map[ring.NodeID]string
	b        *liveBackend // its tally, controller and trace
	client   *http.Client

	stop chan struct{}
	done chan struct{}

	start      time.Time
	samples    []LiveSample
	nodeEvents []obs.Event
	prev       opCounts // the tally's running totals at the last tick
	prevLevels map[string]uint64
	since      map[ring.NodeID]uint64
}

// startLiveScraper begins polling; call finish to stop and collect the
// series.
func startLiveScraper(b *liveBackend) *liveScraper {
	s := &liveScraper{
		interval: time.Second,
		admins:   b.lc.AdminAddrs(),
		b:        b,
		client:   &http.Client{Timeout: time.Second / 2},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		start:    time.Now(),
		prev:     b.tally.totals(),
		since:    make(map[ring.NodeID]uint64),
	}
	go s.loop()
	return s
}

func (s *liveScraper) loop() {
	defer close(s.done)
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.sample()
		}
	}
}

// finish stops polling, takes one last sample, and assembles the series.
func (s *liveScraper) finish() *LiveSeries {
	close(s.stop)
	<-s.done
	s.sample()
	events := append([]obs.Event(nil), s.b.trace.Events()...)
	events = append(events, s.nodeEvents...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].AtMs < events[j].AtMs })
	return &LiveSeries{
		IntervalMs: durMs(s.interval),
		Samples:    s.samples,
		Trace:      events,
	}
}

// sample takes one aligned tick: client tally deltas, controller levels,
// and a parallel scrape of every member's /metrics and /trace.
func (s *liveScraper) sample() {
	cur := s.b.tally.totals()
	tick := cur.minus(s.prev)
	s.prev = cur
	levels := groupLevels(s.b.ctl)
	sm := LiveSample{
		TMs:         durMs(time.Since(s.start)),
		Ops:         tick.ops,
		GroupLevels: levels[:],
	}
	sm.OpsPerSec = float64(sm.Ops) / s.interval.Seconds()
	for g := 0; g < 2; g++ {
		frac := 0.0
		if tick.samples[g] > 0 {
			frac = float64(tick.stale[g]) / float64(tick.samples[g])
		}
		sm.Probes = append(sm.Probes, tick.samples[g])
		sm.StaleFrac = append(sm.StaleFrac, frac)
	}

	// Scrape members concurrently so one dead admin port (a killed member)
	// costs a connect refusal, not a serialized timeout chain.
	results := make(map[ring.NodeID]*nodeScrape, len(s.admins))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for id, addr := range s.admins {
		wg.Add(1)
		go func(id ring.NodeID, addr string) {
			defer wg.Done()
			r := s.scrapeNode(id, addr)
			mu.Lock()
			results[id] = r
			mu.Unlock()
		}(id, addr)
	}
	wg.Wait()

	levelUse := make(map[string]uint64)
	for id, r := range results {
		if !r.ok {
			continue
		}
		sm.ScrapedNodes++
		sm.HintQueueDepth += r.hints
		sm.SendQueueBytes += r.sendq
		sm.KeydirBytes += r.keydir
		for lvl, n := range r.levelUse {
			levelUse[lvl] += n
		}
		s.nodeEvents = append(s.nodeEvents, r.events...)
		if r.lastSeq > s.since[id] {
			s.since[id] = r.lastSeq
		}
	}
	// Served-level deltas: the members' cumulative level-use counters minus
	// the previous tick's. A re-baselined counter (restart, regroup epoch)
	// clamps at zero rather than going negative.
	if s.prevLevels != nil {
		delta := make(map[string]uint64)
		for lvl, n := range levelUse {
			if prev := s.prevLevels[lvl]; n > prev {
				delta[lvl] = n - prev
			}
		}
		if len(delta) > 0 {
			sm.ServedLevelUse = delta
		}
	}
	s.prevLevels = levelUse

	s.samples = append(s.samples, sm)
}

// nodeScrape is what one member yielded on one tick.
type nodeScrape struct {
	ok       bool
	hints    float64
	sendq    float64
	keydir   float64
	levelUse map[string]uint64
	events   []obs.Event
	lastSeq  uint64
}

// scrapeNode pulls one member's /metrics and /trace.
func (s *liveScraper) scrapeNode(id ring.NodeID, addr string) *nodeScrape {
	r := &nodeScrape{levelUse: make(map[string]uint64)}

	resp, err := s.client.Get("http://" + addr + "/metrics")
	if err != nil {
		return r
	}
	scanProm(resp, func(name string, labels string, v float64) {
		switch name {
		case "harmony_hint_queue_depth":
			r.hints += v
		case "harmony_transport_peer_queue_bytes":
			r.sendq += v
		case "harmony_storage_keydir_bytes":
			r.keydir += v
		case "harmony_group_level_use_total":
			if lvl := labelValue(labels, "level"); lvl != "" {
				r.levelUse[lvl] += uint64(v)
			}
		}
	})
	r.ok = true

	tr, err := s.client.Get(fmt.Sprintf("http://%s/trace?since=%d", addr, s.since[id]))
	if err != nil {
		return r
	}
	defer tr.Body.Close()
	sc := bufio.NewScanner(tr.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var e obs.Event
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue
		}
		if e.Node == "" {
			e.Node = string(id)
		}
		r.events = append(r.events, e)
		if e.Seq > r.lastSeq {
			r.lastSeq = e.Seq
		}
	}
	return r
}

// scanProm walks a Prometheus text exposition response line by line. labels
// is the raw `k="v",...` payload between the braces ("" when absent) — the
// scraper only resolves individual labels on the few series that need them.
func scanProm(resp *http.Response, visit func(name, labels string, value float64)) {
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name, labels := series, ""
		if br := strings.IndexByte(series, '{'); br >= 0 && strings.HasSuffix(series, "}") {
			name, labels = series[:br], series[br+1:len(series)-1]
		}
		visit(name, labels, v)
	}
}

// labelValue extracts one label's value from a raw label payload. Label
// values produced by this repo's registry never contain escaped quotes for
// the labels the scraper reads (node ids, level names), so a plain scan to
// the closing quote suffices.
func labelValue(labels, key string) string {
	needle := key + `="`
	i := strings.Index(labels, needle)
	if i < 0 {
		return ""
	}
	rest := labels[i+len(needle):]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}
