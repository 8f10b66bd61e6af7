package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"harmony/internal/client"
	"harmony/internal/cluster"
	"harmony/internal/dist"
	"harmony/internal/ring"
	"harmony/internal/wire"
)

// liveSpec is the shape of one live workload.
type liveSpec struct {
	keys       int64
	valueBytes int
	durable    bool
	// classes builds the traffic classes for one endpoint (choosers carry
	// state, so each endpoint gets its own).
	classes func() []opClass
	// pacedRate is the open-loop rate in ops/s: about a sixth of the closed
	// phase's median on the reference box, rounded, then frozen — a constant,
	// so two commits are offered the same load. ISSUE 11 proposed a third
	// (12 000 and 1 200 for the first two workloads). At a third each
	// member's single mailbox goroutine is about half busy and queueing
	// multiplies every wobble of the box: live-read-quorum's read median ran
	// 456–876 µs over twenty runs at 12 000 ops/s while member CPU per
	// operation moved ±8 %, and 324–351 µs at 6 000.
	pacedRate float64

	// The adaptive workload: members tally two key groups split at hotKeys,
	// levels come from a per-group controller, and every probeEvery-th read
	// is followed by a staleness probe. Zero for the fixed-level workloads.
	hotKeys    int64
	probeEvery int
}

var readQuorumSpec = &liveSpec{
	keys: 10_000, valueBytes: 256, pacedRate: 6_000,
	classes: func() []opClass {
		return []opClass{{dist.NewZipfianChooser(10_000), 0.95}}
	},
}

var writeDurableSpec = &liveSpec{
	keys: 5_000, valueBytes: 1024, durable: true, pacedRate: 800,
	classes: func() []opClass {
		return []opClass{{dist.NewUniformChooser(5_000), 0.50}}
	},
}

var hotColdSpec = &liveSpec{
	keys: 4_000, valueBytes: 3072, pacedRate: 5_000,
	hotKeys: 200, probeEvery: 8,
	classes: func() []opClass {
		return []opClass{
			{dist.NewZipfianChooser(200), 0.50},   // hot: contended, write-heavy
			{dist.NewUniformChooser(4_000), 0.95}, // cold: read-mostly, all keys
		}
	},
}

const (
	slotsPerEndpoint = 16 // closed-loop callers per endpoint
	// windowsPerPhase cuts the closed and paced phases of a traced run and the
	// simulator's measured phase; gatedWindows cuts the closed phase of an
	// untraced live run, which is all such a run measures (see phases).
	windowsPerPhase = 5
	gatedWindows    = 9
	setupRepeats    = 3
	setupAttempts   = 3
	// An operation fails only if the store does not serve it within opTimeout
	// over opAttempts attempts (a coordinator gives up on an attempt after its
	// own 1 s and the driver retries on the next coordinator). The shared host
	// stalls the whole VM for a second or two now and then; an operation caught
	// in that is slow, and charged as slow, not failed — every run must end
	// with failed = 0, and a store that is merely late has not lost anything.
	opTimeout  = 10 * time.Second
	opAttempts = 5
	// The adaptive workload's constants, from internal/bench's live hotcold
	// experiment. The bandwidth stands in for provisioned per-replica
	// bandwidth: loopback RTTs are microseconds, so the latency term alone
	// would let the estimator serve everything at ONE.
	hotTolerance = 0.05
	// internal/bench runs the cold group at 0.60. Under this workload's
	// closed phase the cold estimate sits at 0.65–0.70, a few percent of
	// throughput drift from flipping the group between QUORUM and ONE, and a
	// workload whose level mix flips between runs cannot hold a 10 % bound.
	// 0.50 puts the threshold 30 % below the closed phase's estimate and 2×
	// above the paced phase's (0.21–0.27). Moved once; do not tune again.
	coldTolerance   = 0.50
	ctlBandwidth    = 8 << 20
	monitorInterval = 500 * time.Millisecond
)

// phases splits the measured time. An untraced run reports the end-to-end
// metrics only, and those are read from the closed phase, so after a
// discarded warm-up it spends all of its time there, in gatedWindows windows:
// the more of them, the steadier the medians the driver gates on. A traced
// run reports the per-layer table and splits the same time between a closed
// phase (counters, CPU) and a paced phase (latency) of windowsPerPhase
// windows each; its traced phase comes on top.
func phases(seconds float64, traced bool) (warm, window time.Duration, closedWindows int) {
	total := time.Duration(seconds * float64(time.Second))
	warm = total / 10
	if traced {
		return warm, (total - warm) / (2 * windowsPerPhase), windowsPerPhase
	}
	return warm, (total - warm) / gatedWindows, gatedWindows
}

// endpoints is the whole load generator: nproc endpoints in this process.
type endpoints struct{ eps []*endpoint }

func newEndpoints(c *liveCluster, spec *liveSpec, st *keyState, policy client.ConsistencyPolicy, seed int64, traced bool) (*endpoints, error) {
	set := &endpoints{}
	t0 := time.Now()
	for i := 0; i < runtime.NumCPU(); i++ {
		e := &endpoint{
			st: st,
			gen: &generator{
				rng:     dist.NewRand(seed*1000 + int64(i)),
				classes: spec.classes(), valueBytes: spec.valueBytes, st: st, reuse: true,
			},
			checkQuorum: spec.hotKeys == 0,
			probeEvery:  spec.probeEvery,
			groupOf: func(key int64) int {
				if key < spec.hotKeys {
					return 0
				}
				return 1
			},
		}
		if traced {
			e.tr = newTracer(t0, uint64(i+1))
		}
		// Stagger the coordinator rotation so endpoints do not move in step.
		coords := append(append([]ring.NodeID(nil), c.ids[i%len(c.ids):]...), c.ids[:i%len(c.ids)]...)
		var err error
		e.rt, e.drv, e.stop, err = openDriver(c, client.Options{
			ID: ring.NodeID(fmt.Sprintf("bench-load-%d", i)), Coordinators: coords, Policy: policy,
			Timeout: opTimeout, MaxAttempts: opAttempts, Hedge: 100 * time.Millisecond,
		}, e.tr)
		if err != nil {
			set.close()
			return nil, err
		}
		set.eps = append(set.eps, e)
	}
	return set, nil
}

func (s *endpoints) close() {
	for _, e := range s.eps {
		e.stop()
	}
}

// on runs fn on every endpoint's runtime and waits for all to return.
func (s *endpoints) on(fn func(e *endpoint)) {
	var wg sync.WaitGroup
	for _, e := range s.eps {
		wg.Add(1)
		e.rt.Post(func() { defer wg.Done(); fn(e) })
	}
	wg.Wait()
}

// quiesce stops the closed loop and waits until nothing is in flight; the
// driver's own timeout bounds the wait. Operations still out after it are
// reported as failed.
func (s *endpoints) quiesce() {
	var wg sync.WaitGroup
	for _, e := range s.eps {
		wg.Add(1)
		e.rt.Post(func() { e.whenIdle(wg.Done) })
	}
	idle := make(chan struct{})
	go func() { wg.Wait(); close(idle) }()
	select {
	case <-idle:
	case <-time.After(opTimeout + time.Second):
	}
}

// begin opens a recording phase on every endpoint at one common start.
func (s *endpoints) begin(start time.Time, windows int, window time.Duration, paced bool) {
	s.on(func(e *endpoint) {
		e.rec = newPhaseRec(start, windows, window, 0, paced, paced)
	})
}

// collect closes the phase and merges the endpoints' records.
func (s *endpoints) collect() *phaseRec {
	var recs []*phaseRec
	var mu sync.Mutex
	s.on(func(e *endpoint) {
		mu.Lock()
		recs = append(recs, e.rec)
		mu.Unlock()
		e.rec = nil
	})
	m := newPhaseRec(recs[0].start, recs[0].n, recs[0].win, 0, recs[0].keepLat, recs[0].paced)
	for _, r := range recs {
		m.completed += r.completed
		m.failed += r.failed
		for w := range r.ok {
			m.ok[w] += r.ok[w]
			if r.paced {
				m.late[w] = append(m.late[w], r.late[w]...)
			}
			for k := range r.lat {
				m.lat[k][w] = append(m.lat[k][w], r.lat[k][w]...)
			}
		}
	}
	return m
}

func (r *phaseRec) total() (n int64) {
	for _, c := range r.ok {
		n += c
	}
	return n
}

// runPaced offers the open-loop load for windowsPerPhase windows and returns
// the merged record once every operation has come back.
func (s *endpoints) runPaced(rate float64, window time.Duration, seed int64) *phaseRec {
	start := time.Now().Add(10 * time.Millisecond)
	s.begin(start, windowsPerPhase, window, true)
	dur := windowsPerPhase * window
	var wg sync.WaitGroup
	for i, e := range s.eps {
		tt := newTimetable(start, rate/float64(len(s.eps)), dur, seed*7919+int64(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			runPacer(tt, time.Now, preciseSleep, func(batch []pacedOp) {
				e.rt.Post(func() { e.issuePaced(batch) })
			})
		}()
	}
	wg.Wait()
	s.quiesce()
	return s.collect()
}

// tally sums the endpoints' run-long counters into res.
func (s *endpoints) tally(res *result) (retries, hedges uint64, pendingMax int, probes [2]probeTally) {
	s.on(func(*endpoint) {}) // order everything the endpoints wrote before we read
	for _, e := range s.eps {
		res.Attempted += e.attempted
		res.Failed += e.failed + int64(e.inflight)
		res.mismatches += e.mismatches
		res.regressions += e.regressions
		retries += e.drv.Retries()
		hedges += e.drv.Hedges()
		pendingMax = max(pendingMax, e.pendingMax)
		for g := range probes {
			probes[g].samples += e.probes[g].samples
			probes[g].stale += e.probes[g].stale
		}
	}
	return
}

// setUp boots a cluster, waits for membership and preloads every key. What
// fails here is the harness's accident or the box's, not the store's measured
// behaviour — a reserved port lost between bind and release (about one boot
// in 150), a member too starved to answer the convergence poll — so it is
// tried again. It returns how long the attempt that succeeded took.
func setUp(rc *runConfig, spec *liveSpec) (c *liveCluster, st *keyState, took time.Duration, err error) {
	for attempt := 1; attempt <= setupAttempts; attempt++ {
		t0 := time.Now()
		if c, err = bootCluster(rc.root, spec); err == nil {
			rc.onExit(c.close)
			st = newKeyState(spec.keys)
			if err = preload(c, st, spec.valueBytes); err == nil {
				return c, st, time.Since(t0), nil
			}
			c.close()
		}
		logf("set-up attempt %d of %d failed: %v", attempt, setupAttempts, err)
	}
	return nil, nil, 0, err
}

// runLive is one live workload, start to finish.
func runLive(rc *runConfig, spec *liveSpec) (*result, error) {
	res := newResult()
	warm, window, closedWindows := phases(rc.seconds, rc.trace)

	// Set-up: boot, wait for membership, preload — several times over, so
	// setup_s is a median and not one draw of the gossip timer.
	var c *liveCluster
	var st *keyState
	var setups []float64
	reps := setupRepeats
	if rc.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if c != nil {
			c.close()
		}
		var took time.Duration
		var err error
		if c, st, took, err = setUp(rc, spec); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer c.close()
	res.e2e("setup_s", overWindows(setups, len(setups)))

	var policy client.ConsistencyPolicy = client.Fixed{Read: wire.Quorum, Write: wire.Quorum}
	var ad *adaptive
	if spec.hotKeys > 0 {
		var err error
		if ad, err = startAdaptive(c, spec, rc.trace); err != nil {
			return nil, err
		}
		defer ad.close()
		policy = ad.ctl
	}
	if rc.trace {
		if err := runProbes(res, c, spec, policy, rc.seed); err != nil {
			return nil, err
		}
	}

	var prober boxProber
	var box []boxReading
	probeBox := func() error {
		r, err := prober.probe()
		box = append(box, r)
		return err
	}
	if err := probeBox(); err != nil {
		return nil, err
	}

	load, err := newEndpoints(c, spec, st, policy, rc.seed, false)
	if err != nil {
		return nil, err
	}
	defer load.close()

	// Warm-up, discarded: connections dial, the controller settles.
	load.on(func(e *endpoint) { e.startClosed(slotsPerEndpoint) })
	time.Sleep(warm)
	closedFrom := ad.rounds()

	// Closed phase: callers that wait for their reply. Throughput and CPU
	// cost are read here; latency is not, because at fixed depth it is
	// depth ÷ throughput and says nothing of its own. The members' CPU is read
	// at every window's edge, so CPU per operation is a median over windows
	// like throughput, and a burst from a neighbour costs one window, not the
	// run.
	before, err := c.snap(false)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	ticks0 := readCPUTicks()
	start := time.Now()
	load.begin(start, closedWindows, window, false)
	cpuAt := make([]float64, closedWindows+1)
	for w := range cpuAt {
		time.Sleep(time.Until(start.Add(time.Duration(w) * window)))
		var s clusterSnap
		if err := c.usage(&s); err != nil {
			return nil, err
		}
		cpuAt[w] = s.proc.user + s.proc.sys
	}
	self1 := selfCPU()
	res.layer("box.cpu_busy_min", scalar(idlestCPU(ticks0, readCPUTicks())))
	after, err := c.snap(true)
	if err != nil {
		return nil, err
	}
	rounds := [][2]int{{closedFrom, ad.rounds()}}
	load.quiesce()
	closed := load.collect()
	ops := float64(closed.total())
	if ops == 0 {
		return nil, fmt.Errorf("closed phase completed no operations")
	}
	perWindow := make([]float64, closedWindows)
	var cpuPerOp []float64
	for w, n := range closed.ok {
		perWindow[w] = float64(n) / window.Seconds()
		if n > 0 { // a window the whole VM slept through has no cost per operation
			cpuPerOp = append(cpuPerOp, (cpuAt[w+1]-cpuAt[w])*1e6/float64(n))
		}
	}
	res.e2e("ops_per_s", overWindows(perWindow, int(ops)))
	res.e2e("cpu_us_per_op", overWindows(cpuPerOp, int(ops)))
	res.layer("loadgen.cpu_us_per_op", scalar((self1-self0)*1e6/ops))
	counterMetrics(res, before, after, ops)
	if err := probeBox(); err != nil {
		return nil, err
	}

	if rc.trace {
		// Paced phase: an open loop at the workload's fixed rate; latency is
		// read here, each operation timed from when it was due.
		pacedFrom := ad.rounds()
		paced := load.runPaced(spec.pacedRate, window, rc.seed)
		rounds = append(rounds, [2]int{pacedFrom, ad.rounds()})
		if err := latencyMetrics(res, paced); err != nil {
			return nil, err
		}
		if err := probeBox(); err != nil {
			return nil, err
		}
	}
	retries, hedges, pendingMax, probes := load.tally(res)
	kops := float64(res.Attempted) / 1e3
	res.layer("client.retries_per_kop", scalar(ratio(float64(retries), kops)))
	res.layer("client.hedges_per_kop", scalar(ratio(float64(hedges), kops)))
	res.layer("client.pending_max", scalar(float64(pendingMax)))
	load.close() // the traced phase dials its own connections
	boxReport(res, box)

	if rc.trace {
		if err := runTraced(rc, res, c, spec, st, policy, window); err != nil {
			return nil, err
		}
	}
	if ad != nil {
		ad.report(res, rounds)
		hot, cold := probes[0], probes[1]
		res.layer("core.stale_frac_hot", scalar(ratio(float64(hot.stale), float64(hot.samples))))
		res.layer("core.stale_frac_cold", scalar(ratio(float64(cold.stale), float64(cold.samples))))
		res.layer("core.probe_samples", scalar(float64(hot.samples+cold.samples)))
		res.layer("stale_frac", scalar(ratio(float64(hot.stale+cold.stale), float64(hot.samples+cold.samples))))
		res.require(ratio(float64(hot.stale), float64(hot.samples)) <= hotTolerance, "hot group stale fraction above its tolerance %.2f", hotTolerance)
		res.require(ratio(float64(cold.stale), float64(cold.samples)) <= coldTolerance, "cold group stale fraction above its tolerance %.2f", coldTolerance)
	}
	if spec.durable {
		if err := crashCheck(rc, res, c, st); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// latencyMetrics turns a paced phase into the latency metrics and the
// generator's lateness. A late generator does not fail the run: lateness is
// charged to the operations (latency runs from the due time) and reported,
// and a reader who sees loadgen.late_frac high knows the latencies beside it
// are the box's.
func latencyMetrics(res *result, paced *phaseRec) error {
	frac, p99 := lateStats(paced.late)
	res.layer("loadgen.late_frac", scalar(frac))
	res.layer("loadgen.late_p99_us", scalar(float64(p99)/1e3))
	return phaseLatencies(res, paced)
}

// phaseLatencies reports a phase's read and write medians and 99th
// percentiles (a p99 is 0 when the phase is too small to support one).
func phaseLatencies(res *result, rec *phaseRec) error {
	for kind, op := range []string{"read", "write"} {
		p50, ok := windowPercentiles(rec.lat[kind], 0.50)
		if !ok {
			return fmt.Errorf("%s_p50_us: too few samples for a median", op)
		}
		res.layer(op+"_p50_us", p50)
		p99, _ := windowPercentiles(rec.lat[kind], 0.99)
		res.layer(op+"_p99_us", p99)
	}
	return nil
}

// counterMetrics derives the [C] and [R] per-layer metrics from the members'
// published counters before and after the closed phase.
func counterMetrics(res *result, a, b clusterSnap, ops float64) {
	d := func(x, y uint64) float64 { return float64(y - x) }
	secs := b.at.Sub(a.at).Seconds()

	res.layer("transport.frames_per_op", scalar(d(a.tr.FramesSent, b.tr.FramesSent)/ops))
	res.layer("transport.bytes_per_op", scalar(d(a.tr.BytesSent, b.tr.BytesSent)/ops))
	res.layer("transport.frames_per_batch", scalar(ratio(d(a.tr.FramesSent, b.tr.FramesSent), d(a.tr.Batches, b.tr.Batches))))
	res.layer("transport.frames_dropped", scalar(d(a.tr.FramesDropped, b.tr.FramesDropped)))
	res.layer("transport.peer_queue_bytes_max", scalar(float64(max(a.queueMax, b.queueMax))))

	for k, name := range []string{"cluster.coord_read_us_mean", "cluster.coord_write_us_mean"} {
		res.layer(name, scalar(ratio(b.opLat[k].sum-a.opLat[k].sum, b.opLat[k].count-a.opLat[k].count)*1e6))
	}
	clusterMetrics(res, a.m, b.m, ops)

	res.layer("storage.engine_ops_per_op", scalar((d(a.st.Writes, b.st.Writes)+d(a.st.Reads, b.st.Reads))/ops))
	res.layer("storage.appends_per_fsync", scalar(ratio(d(a.st.FsyncBatchedOps, b.st.FsyncBatchedOps), d(a.st.Fsyncs, b.st.Fsyncs))))
	res.layer("storage.fsyncs_per_s", scalar(d(a.st.Fsyncs, b.st.Fsyncs)/secs))
	// Every user byte is stored on all three replicas.
	res.layer("storage.disk_bytes_per_user_byte", scalar(ratio(float64(b.st.DiskBytes-a.st.DiskBytes), members*d(a.m.BytesWritten, b.m.BytesWritten))))
	res.layer("storage.dead_bytes_frac", scalar(ratio(float64(b.st.DiskDeadBytes), float64(b.st.DiskBytes))))
	res.layer("storage.compactions", scalar(d(a.st.Compactions, b.st.Compactions)))
	res.layer("storage.keydir_bytes_per_key", scalar(ratio(float64(b.st.KeydirBytes), float64(b.st.LiveKeys))))

	cpu := (b.proc.user + b.proc.sys) - (a.proc.user + a.proc.sys)
	res.layer("server.cpu_user_frac", scalar(ratio(b.proc.user-a.proc.user, cpu)))
	res.layer("server.ctxsw_per_op", scalar((b.proc.volCtx-a.proc.volCtx)/ops))
	res.layer("server.rss_mb_max", scalar(b.proc.hwmKB/1024))
}

var levelNames = map[wire.ConsistencyLevel]string{
	wire.One: "one", wire.Two: "two", wire.Quorum: "quorum", wire.All: "all", wire.Session: "session",
}

// clusterMetrics derives the coordinator-side counters both backends
// publish in cluster.Metrics: summed over members from /status for the live
// cluster, Cluster.AggregateMetrics in the simulator.
func clusterMetrics(res *result, a, b cluster.Metrics, ops float64) {
	d := func(x, y uint64) float64 { return float64(y - x) }
	kops := ops / 1e3
	res.layer("cluster.replica_ops_per_op", scalar(d(a.ReplicaOps, b.ReplicaOps)/ops))
	var levelTotal float64
	for l := range b.LevelUse {
		levelTotal += d(a.LevelUse[l], b.LevelUse[l])
	}
	for l, name := range levelNames {
		res.layer("cluster.level_share_"+name, scalar(ratio(d(a.LevelUse[l], b.LevelUse[l]), levelTotal)))
	}
	res.layer("cluster.read_repairs_per_kop", scalar(d(a.RepairsSent, b.RepairsSent)/kops))
	res.layer("cluster.timeouts_per_kop", scalar((d(a.ReadTimeouts, b.ReadTimeouts)+d(a.WriteTimeouts, b.WriteTimeouts))/kops))
	res.layer("cluster.unavailable_per_kop", scalar(d(a.Unavailable, b.Unavailable)/kops))
	res.layer("cluster.overloaded_per_kop", scalar(d(a.Overloaded, b.Overloaded)/kops))
	res.layer("cluster.hints_queued_per_kop", scalar(d(a.HintsQueued, b.HintsQueued)/kops))
}

// runTraced repeats the paced phase with the interposers in place. The
// end-to-end numbers above were taken without them; the difference between
// the two read medians is what looking costs.
func runTraced(rc *runConfig, res *result, c *liveCluster, spec *liveSpec, st *keyState, policy client.ConsistencyPolicy, window time.Duration) error {
	load, err := newEndpoints(c, spec, st, policy, rc.seed+1, true)
	if err != nil {
		return err
	}
	defer load.close()
	before, err := c.snap(false)
	if err != nil {
		return err
	}
	// Two fifths of a paced phase: enough for a p99, short enough to keep
	// a traced run near an untraced one in length.
	paced := load.runPaced(spec.pacedRate, window*2/5, rc.seed+1)
	after, err := c.snap(true)
	if err != nil {
		return err
	}
	load.tally(res)

	var all []span
	var issue, complete []int64
	var reply [2][]int64
	for _, e := range load.eps {
		all = append(all, e.tr.spans...)
		issue = append(issue, e.tr.issueNs...)
		complete = append(complete, e.tr.completeNs...)
		for k := range reply {
			reply[k] = append(reply[k], e.tr.replyNs[k]...)
		}
	}
	if len(reply[kindRead]) == 0 {
		return fmt.Errorf("traced phase recorded no reads")
	}
	us := func(xs []int64, q float64) float64 {
		s := append([]int64(nil), xs...)
		sortInt64(s)
		return float64(percentile(s, q)) / 1e3
	}
	mean := func(xs []int64) float64 {
		var sum int64
		for _, x := range xs {
			sum += x
		}
		return ratio(float64(sum), float64(len(xs))) / 1e3
	}
	replies := append(append([]int64(nil), reply[kindRead]...), reply[kindWrite]...)
	issueP50, completeP50 := us(issue, 0.5), us(complete, 0.5)
	res.layer("client.issue_us_p50", scalar(issueP50))
	res.layer("client.complete_us_p50", scalar(completeP50))
	res.layer("transport.reply_us_p50", scalar(us(replies, 0.5)))
	res.layer("transport.reply_us_p99", scalar(us(replies, 0.99)))
	// What the reply span holds beyond the coordinator's own measured time
	// is the two hops and the hand-offs around them.
	coordRead := ratio(after.opLat[kindRead].sum-before.opLat[kindRead].sum, after.opLat[kindRead].count-before.opLat[kindRead].count) * 1e6
	hop := mean(reply[kindRead]) - coordRead
	res.layer("transport.hop_us_mean", scalar(hop))

	var lat []int64
	for _, w := range paced.lat[kindRead] {
		lat = append(lat, w...)
	}
	tracedP50 := us(lat, 0.5)
	res.layer("trace.overhead_us", scalar(tracedP50-res.PerLayer["read_p50_us"].Value))
	res.layer("unattributed_us", scalar(tracedP50-issueP50-completeP50-hop-coordRead))

	self, roots := selfTimes(all)
	var sum int64
	for _, v := range self {
		sum += v
	}
	res.layer("trace.self_sum_ratio", scalar(ratio(float64(sum), float64(roots))))
	res.require(roots > 0 && float64(sum) > 0.95*float64(roots) && float64(sum) < 1.05*float64(roots),
		"span self times sum to %d ns against %d ns of operations", sum, roots)
	return writeSpans(filepath.Join(rc.outDir, "trace-"+rc.workload+".jsonl"), all)
}
