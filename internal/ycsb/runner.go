package ycsb

import (
	"fmt"
	"math/rand"
	"time"

	"harmony/internal/client"
	"harmony/internal/cluster"
	"harmony/internal/dist"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/stats"
	"harmony/internal/wire"
)

// RunConfig parameterizes one benchmark run.
type RunConfig struct {
	Workload Workload
	// Threads is the number of closed-loop client threads (the paper
	// sweeps 1, 15, 40, 70, 90).
	Threads int
	// Operations caps the total operations issued; 0 means unlimited (the
	// caller stops the run by advancing virtual time and calling Stop).
	Operations int64
	// Policy supplies the read and write consistency levels per operation:
	// Harmony's controller (per key group) or client.Fixed for the static
	// baselines. Nil means client.Fixed{} — read ONE, write ONE, the
	// paper's baseline.
	Policy client.ConsistencyPolicy
	// Sessions routes every thread's operations through a client.Session:
	// reads at wire.Session carry the thread's session token (enforced
	// read-your-writes / monotonic reads), and the run's Report tallies the
	// regressions the sessions observed — zero when the policy serves
	// SESSION, a measured violation count when it serves plain ONE.
	Sessions bool
	// ShadowEvery enables the coordinator-side dual-read staleness probe
	// (§V-F) on every k-th read; 0 disables, 1 probes every read.
	ShadowEvery int
	// Seed drives all workload randomness.
	Seed int64
	// ClientPrefix namespaces the thread drivers' fabric identities
	// ("<prefix>-<i>"); it must differ between runners sharing one
	// cluster. Empty means "ycsb".
	ClientPrefix string
	// OpTimeout bounds each operation; zero means 5s.
	OpTimeout time.Duration
	// ArrivalRate, when positive, switches the runner to open loop:
	// operations arrive as a Poisson process at this aggregate rate (ops
	// per virtual second) regardless of completions — exponential
	// inter-arrival gaps driven by sim.Every — and are spread round-robin
	// over the thread drivers (Threads then only sizes the driver pool
	// and in-flight correlation space). Closed-loop thread parking and
	// SetActiveThreads do not apply in open loop.
	ArrivalRate float64
	// KeyOffset shifts every chosen key index by a constant: the chooser
	// draws i in [0, RecordCount) and the runner accesses Key(i+KeyOffset).
	// SetKeyOffset moves it mid-run — the mechanism behind migrating-
	// hotspot experiments (the popularity distribution keeps its shape
	// while the hot range jumps elsewhere in the keyspace).
	KeyOffset int64
	// Coordinators restricts the thread drivers to this coordinator set
	// (threads stagger their round-robin start over it). Nil keeps the
	// default — every cluster node coordinates. Partition experiments pin
	// a runner's load to one side of a cut with this.
	Coordinators []ring.NodeID
}

// Report summarizes a completed run.
type Report struct {
	Workload   string
	Threads    int
	Duration   time.Duration // virtual time spent in the run phase
	Operations int64
	Reads      int64
	Updates    int64
	Errors     int64
	// ThroughputOps is operations per virtual second.
	ThroughputOps float64
	// ReadLatency / updateLatency are client-observed distributions.
	ReadLatency   stats.Histogram
	updateLatency stats.Histogram
	// StaleReads / ShadowSamples are the cluster's dual-read staleness
	// counters accumulated during the run (valid when Shadow was set).
	StaleReads    uint64
	ShadowSamples uint64
	// LevelUse tallies reads coordinated per consistency level during the
	// run (index by wire.ConsistencyLevel; slot wire.Session counts
	// token-checked session reads).
	LevelUse [8]uint64
	// SessionRegressions counts reads the run's sessions saw answer below
	// their own high-water mark (always zero without RunConfig.Sessions;
	// zero by contract when the policy serves wire.Session).
	SessionRegressions uint64
	// SessionUpgrades / SessionRepolls are the cluster's coordinator-side
	// session-read escalation counters accumulated during the run: how often
	// the first replica's answer failed the token check and the read fanned
	// out, and how often a full fan-in still fell short and re-polled.
	SessionUpgrades uint64
	SessionRepolls  uint64
	// Groups splits the run's coordinated traffic and probe staleness by
	// key group (index by group id), when the cluster tallies groups.
	Groups []GroupStaleness
}

// GroupStaleness is one key group's share of a run: its coordinated
// operations and its dual-read staleness probe outcomes.
type GroupStaleness struct {
	Reads         uint64
	Writes        uint64
	ShadowSamples uint64
	StaleReads    uint64
}

// StaleFraction returns the group's measured stale reads over probed reads.
func (g GroupStaleness) StaleFraction() float64 {
	if g.ShadowSamples == 0 {
		return 0
	}
	return float64(g.StaleReads) / float64(g.ShadowSamples)
}

// StaleFraction returns measured stale reads over probed reads.
func (r Report) StaleFraction() float64 {
	if r.ShadowSamples == 0 {
		return 0
	}
	return float64(r.StaleReads) / float64(r.ShadowSamples)
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("%s threads=%d ops=%d tput=%.0f ops/s readP99=%v stale=%d/%d",
		r.Workload, r.Threads, r.Operations, r.ThroughputOps,
		r.ReadLatency.P99(), r.StaleReads, r.ShadowSamples)
}

// Runner drives a workload against a simulated cluster with closed-loop
// threads. It must be used with the cluster's own sim.Sim.
type Runner struct {
	cfg     RunConfig
	s       *sim.Sim
	c       *cluster.Cluster
	threads []*thread
	rng     *rand.Rand
	chooser dist.KeyChooser

	active      int
	arrivalStop func()
	issued      int64
	completed   int64
	errors      int64
	reads       int64
	updates     int64
	stopped     bool
	started     time.Time
	baseline    cluster.Metrics
	baseRegr    uint64
	readLat     stats.Histogram
	updateLat   stats.Histogram
	valuePool   [][]byte
}

type thread struct {
	idx    int
	drv    *client.Driver
	sess   *client.Session // non-nil in session mode (RunConfig.Sessions)
	rng    *rand.Rand
	parked bool
}

// read issues a read through the thread's session when session mode is on.
func (th *thread) read(key []byte, cb func(client.ReadResult)) {
	if th.sess != nil {
		th.sess.Read(key, cb)
		return
	}
	th.drv.Read(key, cb)
}

// write issues a write through the thread's session when session mode is on.
func (th *thread) write(key, value []byte, cb func(client.WriteResult)) {
	if th.sess != nil {
		th.sess.Write(key, value, cb)
		return
	}
	th.drv.Write(key, value, cb)
}

// NewRunner prepares a runner: it validates the workload, creates one client
// driver per thread and registers them on the cluster bus.
func NewRunner(cfg RunConfig, s *sim.Sim, c *cluster.Cluster) (*Runner, error) {
	if err := cfg.Workload.Validate(); err != nil {
		return nil, err
	}
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("ycsb: threads must be positive")
	}
	if cfg.Policy == nil {
		cfg.Policy = client.Fixed{}
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 5 * time.Second
	}
	chooser, err := cfg.Workload.NewChooser()
	if err != nil {
		return nil, err
	}
	r := &Runner{
		cfg:     cfg,
		s:       s,
		c:       c,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		chooser: chooser,
		active:  cfg.Threads,
	}
	// Pre-generate a pool of payloads; YCSB writes random field data, and
	// reusing a pool keeps the simulator allocation-light.
	r.valuePool = make([][]byte, 64)
	for i := range r.valuePool {
		buf := make([]byte, cfg.Workload.ValueBytes)
		r.rng.Read(buf)
		r.valuePool[i] = buf
	}
	prefix := cfg.ClientPrefix
	if prefix == "" {
		prefix = "ycsb"
	}
	coords := cfg.Coordinators
	if len(coords) == 0 {
		coords = c.NodeIDs()
	}
	for i := 0; i < cfg.Threads; i++ {
		id := ring.NodeID(fmt.Sprintf("%s-%d", prefix, i))
		// Stagger coordinator round-robin start per thread.
		rot := make([]ring.NodeID, len(coords))
		for j := range coords {
			rot[j] = coords[(j+i)%len(coords)]
		}
		drv, err := client.New(client.Options{
			ID:           id,
			Coordinators: rot,
			Policy:       cfg.Policy,
			Timeout:      cfg.OpTimeout,
			ShadowEvery:  cfg.ShadowEvery,
		}, s, c.Bus)
		if err != nil {
			return nil, err
		}
		c.Bus.Register(id, s, drv)
		th := &thread{
			idx: i,
			drv: drv,
			rng: rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
		}
		if cfg.Sessions {
			th.sess = client.NewSession(drv)
		}
		r.threads = append(r.threads, th)
	}
	return r, nil
}

// Load bulk-inserts the initial records directly into every replica's
// engine (the equivalent of streaming pre-built tables in), so experiments
// start from a fully replicated, consistent store exactly like the paper's
// pre-loaded 3M/5M-row tables.
func (r *Runner) Load() {
	w := r.cfg.Workload
	ts := int64(1)
	for i := int64(0); i < w.RecordCount; i++ {
		key := Key(i)
		v := wire.Value{Data: r.valuePool[i%int64(len(r.valuePool))], Timestamp: ts}
		for _, rep := range ring.ReplicasForKey(r.c.Ring, r.c.Strategy, key) {
			if n := r.c.Node(rep); n != nil {
				_, _ = n.Engine().Apply(key, v)
			}
		}
	}
}

// Start begins issuing operations: closed-loop threads by default, or the
// Poisson arrival process when ArrivalRate is set.
func (r *Runner) Start() {
	r.started = r.s.Now()
	r.baseline = r.c.AggregateMetrics()
	if r.cfg.ArrivalRate > 0 {
		r.startOpenLoop()
		return
	}
	for _, th := range r.threads {
		th := th
		r.s.Post(func() { r.next(th) })
	}
}

// startOpenLoop launches the open-loop generator: exponential inter-arrival
// gaps (a Poisson process at ArrivalRate) drive operations round-robin over
// the thread drivers regardless of completions, the way independent
// production clients offer load.
func (r *Runner) startOpenLoop() {
	gap := dist.NewExponential(1 / r.cfg.ArrivalRate)
	rng := rand.New(rand.NewSource(r.cfg.Seed + 104729))
	nextTh := 0
	r.arrivalStop = sim.Every(r.s,
		func() time.Duration { return dist.SampleDuration(gap, rng, time.Second) },
		func() {
			if r.done() {
				return
			}
			th := r.threads[nextTh%len(r.threads)]
			nextTh++
			r.issue(th)
		})
}

// Stop parks all threads after their in-flight operation completes and
// halts the open-loop arrival process.
func (r *Runner) Stop() {
	r.stopped = true
	if r.arrivalStop != nil {
		r.arrivalStop()
		r.arrivalStop = nil
	}
}

// done reports whether Stop was called or the op budget is exhausted.
func (r *Runner) done() bool {
	return r.stopped || (r.cfg.Operations > 0 && r.issued >= r.cfg.Operations)
}

// SetActiveThreads changes how many threads issue operations — the phase
// mechanism behind Fig. 4(a)'s 90→70→40→15→1 thread steps. Raising the
// count wakes parked threads.
func (r *Runner) SetActiveThreads(n int) {
	if n < 0 {
		n = 0
	}
	if n > len(r.threads) {
		n = len(r.threads)
	}
	r.active = n
	for _, th := range r.threads {
		if th.parked && th.idx < n && !r.done() {
			th.parked = false
			th := th
			r.s.Post(func() { r.next(th) })
		}
	}
}

// Completed returns operations finished so far.
func (r *Runner) Completed() int64 { return r.completed }

// next is the closed-loop continuation: a thread issues its next operation
// unless the run stopped or the thread was deactivated.
func (r *Runner) next(th *thread) {
	if r.done() || th.idx >= r.active {
		th.parked = true
		return
	}
	r.issue(th)
}

// issue dispatches one operation on a thread's driver.
func (r *Runner) issue(th *thread) {
	r.issued++
	if r.chooseOp(th.rng) == opRead {
		r.doRead(th)
	} else {
		r.doUpdate(th)
	}
}

func (r *Runner) chooseOp(rng *rand.Rand) opType {
	if rng.Float64() < r.cfg.Workload.ReadProportion {
		return opRead
	}
	return opUpdate
}

func (r *Runner) pickKey(rng *rand.Rand) []byte {
	return Key(r.chooser.Next(rng) + r.cfg.KeyOffset)
}

// SetKeyOffset moves the runner's key window mid-run (see
// RunConfig.KeyOffset). Call it from the simulation's goroutine, like the
// other runner controls.
func (r *Runner) SetKeyOffset(off int64) { r.cfg.KeyOffset = off }

func (r *Runner) value(rng *rand.Rand) []byte {
	return r.valuePool[rng.Intn(len(r.valuePool))]
}

func (r *Runner) doRead(th *thread) {
	key := r.pickKey(th.rng)
	start := r.s.Now()
	th.read(key, func(res client.ReadResult) {
		r.reads++
		r.finish(th, start, &r.readLat, res.Err)
	})
}

func (r *Runner) doUpdate(th *thread) {
	key := r.pickKey(th.rng)
	start := r.s.Now()
	th.write(key, r.value(th.rng), func(res client.WriteResult) {
		r.updates++
		r.finish(th, start, &r.updateLat, res.Err)
	})
}

func (r *Runner) finish(th *thread, start time.Time, hist *stats.Histogram, err error) {
	r.completed++
	if err != nil {
		r.errors++
	} else {
		hist.Record(r.s.Now().Sub(start))
	}
	if r.cfg.ArrivalRate > 0 {
		return // open loop: the arrival process issues the next op
	}
	r.next(th)
}

// Drain runs the simulation until all in-flight operations complete (or the
// event queue empties).
func (r *Runner) Drain() {
	for {
		pending := 0
		for _, th := range r.threads {
			pending += th.drv.Pending()
		}
		if pending == 0 {
			return
		}
		if !r.s.Step() {
			return
		}
	}
}

// ResetMeasurement re-baselines the run: histograms and counters restart
// from zero at the current virtual instant, while threads keep issuing
// uninterrupted. Call it after a warm-up phase so reports cover only steady
// state.
func (r *Runner) ResetMeasurement() {
	r.started = r.s.Now()
	r.baseline = r.c.AggregateMetrics()
	r.baseRegr = r.sessionRegressions()
	r.completed, r.errors, r.reads, r.updates = 0, 0, 0, 0
	r.readLat.Reset()
	r.updateLat.Reset()
}

// sessionRegressions sums the threads' session regression counters (zero
// without session mode).
func (r *Runner) sessionRegressions() uint64 {
	var total uint64
	for _, th := range r.threads {
		if th.sess != nil {
			total += th.sess.Regressions()
		}
	}
	return total
}

// RunMeasured runs the workload with an unmeasured warm-up of virtual
// duration warmup, then measures ops operations and reports. The config's
// Operations field must be zero (unlimited); thread parking and monitor
// interaction behave exactly as in a plain run.
func (r *Runner) RunMeasured(warmup time.Duration, ops int64) (Report, error) {
	if ops <= 0 {
		return Report{}, fmt.Errorf("ycsb: RunMeasured requires an op budget")
	}
	if r.cfg.Operations > 0 {
		return Report{}, fmt.Errorf("ycsb: RunMeasured requires an unlimited config (Operations=0)")
	}
	r.Start()
	if warmup > 0 {
		r.s.RunFor(warmup)
	}
	r.ResetMeasurement()
	for r.completed < ops {
		if !r.s.Step() {
			return Report{}, fmt.Errorf("ycsb: simulation went idle with %d/%d measured ops", r.completed, ops)
		}
	}
	r.Stop()
	r.Drain()
	return r.Report(), nil
}

// runOps is the common synchronous pattern: start, simulate until the op
// budget completes, and report. The budget must be set in the config.
func (r *Runner) runOps() (Report, error) {
	if r.cfg.Operations <= 0 {
		return Report{}, fmt.Errorf("ycsb: runOps requires an operation budget")
	}
	r.Start()
	for r.completed < r.cfg.Operations {
		if !r.s.Step() {
			return Report{}, fmt.Errorf("ycsb: simulation went idle with %d/%d ops done", r.completed, r.cfg.Operations)
		}
	}
	r.Stop()
	r.Drain()
	return r.Report(), nil
}

// Report builds the run summary from virtual start to now.
func (r *Runner) Report() Report {
	now := r.s.Now()
	dur := now.Sub(r.started)
	after := r.c.AggregateMetrics()
	rep := Report{
		Workload:        r.cfg.Workload.Name,
		Threads:         r.cfg.Threads,
		Duration:        dur,
		Operations:      r.completed,
		Reads:           r.reads,
		Updates:         r.updates,
		Errors:          r.errors,
		ReadLatency:     r.readLat,
		updateLatency:   r.updateLat,
		StaleReads:      after.ShadowStale - r.baseline.ShadowStale,
		ShadowSamples:   after.ShadowSamples - r.baseline.ShadowSamples,
		SessionUpgrades: after.SessionUpgrades - r.baseline.SessionUpgrades,
		SessionRepolls:  after.SessionRepolls - r.baseline.SessionRepolls,
	}
	rep.SessionRegressions = r.sessionRegressions() - r.baseRegr
	for i := range rep.LevelUse {
		rep.LevelUse[i] = after.LevelUse[i] - r.baseline.LevelUse[i]
	}
	// Group counters re-baseline whenever a grouping epoch applies, so the
	// baseline only subtracts within one epoch; across an epoch change the
	// current counters already are the delta since the (newer) re-baseline.
	// The <= guard also absorbs a reset the epoch field missed.
	sameEpoch := after.GroupEpoch == r.baseline.GroupEpoch
	groupDelta := func(cur []uint64, prev []uint64, g int) uint64 {
		c := cur[g]
		if sameEpoch && g < len(prev) && prev[g] <= c {
			return c - prev[g]
		}
		return c
	}
	for g := range after.GroupReads {
		gs := GroupStaleness{
			Reads:  groupDelta(after.GroupReads, r.baseline.GroupReads, g),
			Writes: groupDelta(after.GroupWrites, r.baseline.GroupWrites, g),
		}
		if g < len(after.GroupShadowSamples) {
			gs.ShadowSamples = groupDelta(after.GroupShadowSamples, r.baseline.GroupShadowSamples, g)
			gs.StaleReads = groupDelta(after.GroupShadowStale, r.baseline.GroupShadowStale, g)
		}
		rep.Groups = append(rep.Groups, gs)
	}
	if dur > 0 {
		rep.ThroughputOps = float64(r.completed) / dur.Seconds()
	}
	return rep
}
