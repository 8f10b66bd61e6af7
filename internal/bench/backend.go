package bench

import (
	"fmt"
	"sync"
	"time"

	"harmony/internal/client"
	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/dist"
	"harmony/internal/faults"
	"harmony/internal/obs"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/transport"
	"harmony/internal/wire"
	"harmony/internal/ycsb"
)

// The failure experiments (churn, partition) write their schedule once,
// against backend, and run it on either implementation: simBackend (the
// simulator and a simulated cluster) or liveBackend (spawned server
// processes and one real-time runtime beside them). Both backends carry a
// monitor feeding the experiment's controller and a hot and a cold client
// pool; what differs is only how time passes, how a fault lands, and where
// the counters come from. client.Driver and sim.Every run on any
// sim.Runtime, so the staleness windows and the minority prober are one
// piece of code on both.
type backend interface {
	// runtime is where the schedule's samplers and probers run: the
	// simulator itself, or the live backend's real-time runtime.
	runtime() sim.Runtime
	// start starts the monitor and both load pools.
	start()
	// wait lets d of the schedule pass: virtual time, or a sleep.
	wait(d time.Duration)
	// apply installs a fault-plane update on every member.
	apply(u faults.Update) error
	// crash takes a member down; restart brings it back.
	crash(id ring.NodeID) error
	restart(id ring.NodeID) error
	// verified returns the cumulative per-group verified-read counters: the
	// dual reads made, and how many found the first read stale.
	verified() (samples, stale [2]uint64)
	// resetLoad opens a measured interval; load reports the pools'
	// operations and errors since, and their throughput over it.
	resetLoad()
	load() loadCounts
	// stop ends both pools and reports their load one last time.
	stop() loadCounts
	// ledger sums the cluster's hint and repair counters.
	ledger() repairLedger
}

// loadCounts is the pools' work over a measured interval.
type loadCounts struct {
	ops, errs int64
	tput      float64 // ops/s
}

// repairLedger is what hinted handoff and anti-entropy did over a run.
type repairLedger struct {
	hintsQueued, hintsDropped uint64
	rowsHealed, repairBytes   uint64
	rowsRecovered             uint64 // rebuilt from data dirs at startup
}

// loadPools shapes the two client pools of a hot/cold experiment: zipfian
// 50/50 over the hot range [0, hotKeys), and uniform 95/5 over the whole
// keyspace.
type loadPools struct {
	hotKeys, totalKeys int64
	// hot / cold are thread counts (simulator) or closed-loop workers (live).
	hot, cold int
	// hotArrival / coldArrival drive the simulator's pools open loop
	// (ops/s); zero keeps them closed loop.
	hotArrival, coldArrival float64
	valueBytes              int
	// verifyEvery makes every k-th read a dual-read staleness probe.
	verifyEvery int
	// timeout bounds each operation (zero: the client default).
	timeout time.Duration
	// coords restricts the coordinators the pools use (nil: every member).
	coords []ring.NodeID
	// prefix namespaces the simulator's client ids; sessions runs each
	// simulated thread through a client.Session.
	prefix   string
	sessions bool
	seed     int64
}

// hotColdClusterSpec is a scenario's cluster with the hot/cold group split.
func hotColdClusterSpec(sc Scenario, hotKeys int64) cluster.Spec {
	cspec := sc.Spec
	cspec.Groups = 2
	cspec.GroupFn = hotColdGroupFn(hotKeys)
	return cspec
}

// buildSim builds a seeded simulated cluster and runs the scenario's
// preparation; undo reverses it.
func buildSim(seed int64, sc Scenario, cspec cluster.Spec) (s *sim.Sim, c *cluster.Cluster, undo func(), err error) {
	s = sim.New(seed)
	if c, err = cluster.BuildSim(s, cspec); err != nil {
		return nil, nil, nil, err
	}
	undo = func() {}
	if sc.Prepare != nil {
		if stop := sc.Prepare(s, c); stop != nil {
			undo = stop
		}
	}
	return s, c, undo, nil
}

// simMonitor attaches cfg's monitor to a simulated cluster, polling every
// member from beside the first one.
func simMonitor(s *sim.Sim, c *cluster.Cluster, cfg core.MonitorConfig) *core.Monitor {
	cfg.ID, cfg.Nodes = "harmony-monitor", c.NodeIDs()
	mon := core.NewMonitor(cfg, s, c.Bus)
	c.Net.Colocate(cfg.ID, cfg.Nodes[0])
	c.Bus.Register(cfg.ID, s, mon)
	return mon
}

// simBackend runs a schedule on the simulator: waits are virtual time,
// faults go straight to the fault plane, and the pools are ycsb runners
// whose coordinator-side shadow reads are the verified-read counters.
type simBackend struct {
	s         *sim.Sim
	c         *cluster.Cluster
	mon       *core.Monitor
	hot, cold *ycsb.Runner
	// dropHints makes restart discard every coordinator's queued hints
	// first: the churn experiment's coordinator-crash injection.
	dropHints bool
}

// newSimBackend attaches a monitor and the two pools to a built cluster,
// then loads the whole keyspace.
func newSimBackend(s *sim.Sim, c *cluster.Cluster, ctl *core.Controller, monitorEvery time.Duration, rf int, p loadPools) (*simBackend, error) {
	b := &simBackend{s: s, c: c, mon: simMonitor(s, c, core.MonitorConfig{
		Interval: monitorEvery, ReplicaSetSize: rf, OnObservation: ctl.Observe,
	})}
	runner := func(wl ycsb.Workload, threads int, arrival float64, seedOff int64) (*ycsb.Runner, error) {
		wl.ValueBytes = p.valueBytes
		return ycsb.NewRunner(ycsb.RunConfig{
			Workload:     wl,
			Threads:      threads,
			ShadowEvery:  p.verifyEvery,
			Seed:         p.seed + seedOff,
			ClientPrefix: p.prefix + wl.Name,
			Policy:       ctl,
			Sessions:     p.sessions,
			ArrivalRate:  arrival,
			OpTimeout:    p.timeout,
			Coordinators: p.coords,
		}, s, c)
	}
	var err error
	b.hot, err = runner(ycsb.Workload{
		Name: "hot", ReadProportion: 0.5, UpdateProportion: 0.5,
		RecordCount: p.hotKeys, RequestDistribution: ycsb.DistZipfian,
	}, p.hot, p.hotArrival, 101)
	if err != nil {
		return nil, err
	}
	// Cold data is written rarely: a key dirtied during an outage stays
	// divergent until read repair samples it or anti-entropy streams it.
	b.cold, err = runner(ycsb.Workload{
		Name: "cold", ReadProportion: 0.95, UpdateProportion: 0.05,
		RecordCount: p.totalKeys, RequestDistribution: ycsb.DistUniform,
	}, p.cold, p.coldArrival, 202)
	if err != nil {
		return nil, err
	}
	// The cold workload spans the keyspace; the hot range is its prefix.
	b.cold.Load()
	return b, nil
}

func (b *simBackend) runtime() sim.Runtime { return b.s }

func (b *simBackend) start() {
	b.mon.Start()
	b.hot.Start()
	b.cold.Start()
}

func (b *simBackend) wait(d time.Duration) { b.s.RunFor(d) }

func (b *simBackend) apply(u faults.Update) error {
	b.c.Faults.Apply(u)
	return nil
}

func (b *simBackend) crash(id ring.NodeID) error {
	return b.apply(faults.Update{Down: []string{string(id)}})
}

func (b *simBackend) restart(id ring.NodeID) error {
	if b.dropHints {
		for _, n := range b.c.Nodes {
			n.DropHints()
		}
	}
	return b.apply(faults.Update{Up: []string{string(id)}})
}

func (b *simBackend) verified() (samples, stale [2]uint64) {
	m := b.c.AggregateMetrics()
	copy(samples[:], m.GroupShadowSamples)
	copy(stale[:], m.GroupShadowStale)
	return samples, stale
}

func (b *simBackend) resetLoad() {
	b.hot.ResetMeasurement()
	b.cold.ResetMeasurement()
}

func (b *simBackend) load() loadCounts {
	hot, cold := b.hot.Report(), b.cold.Report()
	return loadCounts{
		ops:  hot.Operations + cold.Operations,
		errs: hot.Errors + cold.Errors,
		tput: hot.ThroughputOps + cold.ThroughputOps,
	}
}

func (b *simBackend) stop() loadCounts {
	b.hot.Stop()
	b.cold.Stop()
	b.mon.Stop()
	b.hot.Drain()
	b.cold.Drain()
	return b.load()
}

func (b *simBackend) ledger() repairLedger {
	m := b.c.AggregateMetrics()
	l := repairLedger{hintsQueued: m.HintsQueued, hintsDropped: m.HintsDropped, rowsHealed: m.RepairRows}
	for _, n := range b.c.Nodes {
		if r := n.RepairManager(); r != nil {
			l.repairBytes += r.Stats().BytesStreamed
		}
	}
	return l
}

// liveStreams is the transport pool size on both sides of a live run.
const liveStreams = 2

// liveBackend runs a schedule on spawned server processes: waits are
// sleeps, faults are POSTs to every member's admin /faults, a crash is
// SIGKILL and a restart a respawn, and the pools are closed-loop workers
// whose dual reads are the verified-read counters. The monitor and any
// sampler or prober share one real-time runtime; the scraper records the
// measured interval from the first resetLoad to stop.
type liveBackend struct {
	lc      *LiveCluster
	rt      *sim.RealRuntime
	ctl     *core.Controller
	trace   *obs.Trace
	mon     *core.Monitor
	eps     []*transport.TCPNode
	tally   liveTally
	workers []*liveWorker
	loadAt  time.Time
	scraper *liveScraper
	// series and final are the scraped series and the tally's last
	// snapshot, both taken by stop.
	series *LiveSeries
	final  liveTallySnap

	mu    sync.Mutex
	stats map[ring.NodeID]wire.StatsResponse // each member's latest report
}

// newLiveBackend takes over a running cluster: it preloads the keyspace
// and attaches a monitor and the two pools. The controller's decisions
// land in b.trace, so the scraped series accounts for every level change
// the experiment commanded. Nothing issues load until start; close tears
// it all down, the cluster included.
func newLiveBackend(lc *LiveCluster, ccfg core.ControllerConfig, monitorEvery time.Duration, p loadPools) (*liveBackend, error) {
	ccfg.Trace = obs.NewTrace(4096)
	ctl := core.NewController(ccfg)
	b := &liveBackend{
		lc: lc, rt: sim.NewRealRuntime(), ctl: ctl, trace: ccfg.Trace,
		stats: make(map[ring.NodeID]wire.StatsResponse),
	}
	tcp, err := b.endpoint("harmony-monitor")
	if err != nil {
		b.close()
		return nil, err
	}
	b.mon = core.NewMonitor(core.MonitorConfig{
		ID:             "harmony-monitor",
		Nodes:          lc.IDs(),
		Interval:       monitorEvery,
		ReplicaSetSize: lc.RF(),
		OnObservation:  ctl.Observe,
		OnNodeStats: func(node ring.NodeID, s wire.StatsResponse) {
			b.mu.Lock()
			b.stats[node] = s
			b.mu.Unlock()
		},
	}, b.rt, tcp)
	tcp.SetHandler(b.mon)

	if err := b.preload(p.totalKeys, p.valueBytes); err != nil {
		b.close()
		return nil, err
	}
	coords := p.coords
	if len(coords) == 0 {
		coords = lc.IDs()
	}
	for i := 0; i < p.hot; i++ {
		if err := b.addWorker(fmt.Sprintf("live-hot-%d", i), p, coords, 0.5, dist.NewZipfianChooser(p.hotKeys), p.seed+101+int64(i)); err != nil {
			b.close()
			return nil, err
		}
	}
	for i := 0; i < p.cold; i++ {
		if err := b.addWorker(fmt.Sprintf("live-cold-%d", i), p, coords, 0.95, dist.NewUniformChooser(p.totalKeys), p.seed+10_101+int64(i)); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

// endpoint opens a client endpoint on the backend's runtime; close shuts it.
func (b *liveBackend) endpoint(id ring.NodeID) (*transport.TCPNode, error) {
	tcp, err := transport.NewTCPNode(transport.TCPConfig{
		ID: id, Peers: b.lc.Peers(),
		Logf: func(string, ...any) {}, // dials to killed or cut-off members fail by design
	}, b.rt, nil)
	if err == nil {
		b.eps = append(b.eps, tcp)
	}
	return tcp, err
}

func (b *liveBackend) runtime() sim.Runtime { return b.rt }

func (b *liveBackend) start() {
	b.mon.Start()
	for _, w := range b.workers {
		w.start()
	}
}

func (b *liveBackend) wait(d time.Duration) { time.Sleep(d) }

// apply ships the update to every member in turn: the cut is only as atomic
// as a loop of HTTP posts, exactly like an operator's chaos tooling.
func (b *liveBackend) apply(u faults.Update) error {
	for id, admin := range b.lc.AdminAddrs() {
		if err := postFaults(admin, u); err != nil {
			return fmt.Errorf("member %s: %w", id, err)
		}
	}
	return nil
}

func (b *liveBackend) crash(id ring.NodeID) error   { return b.lc.Kill(id) }
func (b *liveBackend) restart(id ring.NodeID) error { return b.lc.Restart(id) }

func (b *liveBackend) verified() (samples, stale [2]uint64) { return b.tally.probes() }

func (b *liveBackend) resetLoad() {
	b.tally.reset()
	b.loadAt = time.Now()
	if b.scraper == nil {
		b.scraper = startLiveScraper(b)
	}
}

func (b *liveBackend) load() loadCounts { return b.loadOf(b.tally.snapshot()) }

func (b *liveBackend) loadOf(s liveTallySnap) loadCounts {
	return loadCounts{ops: s.ops, errs: s.errors, tput: float64(s.ops) / time.Since(b.loadAt).Seconds()}
}

func (b *liveBackend) stop() loadCounts {
	b.final = b.tally.snapshot()
	l := b.loadOf(b.final)
	if b.scraper != nil {
		b.series = b.scraper.finish()
	}
	haltAll(b.workers)
	b.workers = nil
	return l
}

// ledger sums each member's latest report. A member that restarted with
// its data dir reports the rows it rebuilt; every other member started
// empty and reports none.
func (b *liveBackend) ledger() repairLedger {
	b.mu.Lock()
	defer b.mu.Unlock()
	var l repairLedger
	for _, s := range b.stats {
		l.hintsQueued += s.HintsQueued
		l.rowsHealed += s.RepairRows
		l.rowsRecovered += s.RecoveredRows
	}
	return l
}

// maxAliveOf returns the largest failure-detector alive count any of the
// given members reported in its latest stats, or 0 before any report. The
// max is the view of the best-connected member, so waiting for it to drop
// means every listed member has convicted at least one peer.
func (b *liveBackend) maxAliveOf(ids []ring.NodeID) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	best := 0
	for _, id := range ids {
		if s, ok := b.stats[id]; ok && int(s.AliveMembers) > best {
			best = int(s.AliveMembers)
		}
	}
	return best
}

// close halts anything still running, releases the runtime and its
// endpoints, and kills the cluster.
func (b *liveBackend) close() {
	haltAll(b.workers)
	if b.mon != nil {
		b.mon.Stop()
	}
	for _, tcp := range b.eps {
		tcp.Close()
	}
	b.rt.Stop()
	b.lc.Close()
}

// prober issues the partition experiment's explicit-level probe rounds
// against minority coordinators: a CL=ONE read, a QUORUM read and a QUORUM
// write per round, walking the keyspace in order. Each outcome books into
// whichever phase is current when the op COMPLETES, so a probe straddling
// a phase boundary books where its outcome was observed.
type prober struct {
	rt   sim.Runtime
	drv  *client.Driver
	keys int64
	next int64
	stop func()

	mu                 sync.Mutex
	base, cut, discard PartitionProbe
	cur                *PartitionProbe
}

// probeOptions is the prober's driver: minority coordinators only, one
// attempt per op so every refusal's latency is the server path's own.
func probeOptions(minority []ring.NodeID, timeout time.Duration) client.Options {
	return client.Options{
		ID:           "part-probe",
		Coordinators: minority,
		Policy:       client.Fixed{Write: wire.Quorum},
		Timeout:      timeout,
	}
}

// startProber runs a probe round every interval on rt, booking into the
// discard phase until the schedule says otherwise.
func startProber(rt sim.Runtime, drv *client.Driver, keys int64, every time.Duration) *prober {
	p := &prober{rt: rt, drv: drv, keys: keys}
	p.cur = &p.discard
	p.stop = sim.Every(rt, func() time.Duration { return every }, p.round)
	return p
}

// to switches the phase later completions book into.
func (p *prober) to(phase *PartitionProbe) {
	p.mu.Lock()
	p.cur = phase
	p.mu.Unlock()
}

// phases returns the baseline and cut tallies.
func (p *prober) phases() (base, cut PartitionProbe) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.base, p.cut
}

func (p *prober) round() {
	key := ycsb.Key(p.next % p.keys)
	p.next++
	start := p.rt.Now()
	p.drv.ReadAt(key, wire.One, func(r client.ReadResult) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if r.Err != nil {
			p.cur.OneErr++
		} else {
			p.cur.OneOK++
		}
	})
	p.drv.ReadAt(key, wire.Quorum, func(r client.ReadResult) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if r.Err != nil {
			p.cur.QuorumErr++
			p.noteErrLatencyLocked(start)
		} else {
			p.cur.QuorumOK++
		}
	})
	p.drv.Write(key, []byte("probe"), func(r client.WriteResult) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if r.Err != nil {
			p.cur.WriteErr++
			p.noteErrLatencyLocked(start)
		} else {
			p.cur.WriteOK++
		}
	})
}

func (p *prober) noteErrLatencyLocked(start time.Time) {
	if ms := durMs(p.rt.Now().Sub(start)); ms > p.cur.WorstQuorumErrMs {
		p.cur.WorstQuorumErrMs = ms
	}
}
