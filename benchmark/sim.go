package main

import (
	"fmt"
	"runtime"
	"time"

	"harmony/internal/bench"
	"harmony/internal/client"
	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/dist"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/wire"
	"harmony/internal/ycsb"
)

// sim-ycsb-a: YCSB-A on bench.Grid5000() (20 simulated nodes, RF 5, modelled
// network delay) under the Harmony policy at tolerance 0.20, driven by the
// same generator and endpoint code as the live workloads, on a sim.Sim
// instead of a socket. One goroutine, no disk: the wall time is sim, simnet
// and the cluster/client state machines. It is also the only workload with
// message delay, so its latencies are virtual-time latencies — what the
// paper plots — and with its counts they repeat exactly for a seed.
const (
	simThreads   = 40
	simTolerance = 0.20
	simRecords   = 20_000 // YCSB-A's mix over a keyspace that loads in a second
	// simOpsPerSecond converts --seconds into a fixed operation count, so a
	// run's length does not depend on how fast the box is and every count
	// repeats: about what the reference box simulates per wall second.
	simOpsPerSecond = 15_000
	simShadowEvery  = 5 // the dual-read staleness probe on every 5th read, as internal/bench runs it
)

// simRun is one built and loaded simulated cluster with its load generator.
type simRun struct {
	s   *sim.Sim
	c   *cluster.Cluster
	ctl *core.Controller
	mon *core.Monitor
	ep  *endpoint
}

func buildSim(seed int64) (*simRun, time.Duration, error) {
	sc := bench.Grid5000()
	wl := ycsb.WorkloadA()
	wl.RecordCount = simRecords
	t0 := time.Now()
	s := sim.New(seed)
	c, err := cluster.BuildSim(s, sc.Spec)
	if err != nil {
		return nil, 0, err
	}
	ctl := core.NewController(core.ControllerConfig{
		Policy:               core.Policy{Name: "bench-harmony-20", ToleratedStaleRate: simTolerance},
		N:                    sc.Spec.RF,
		AvgWriteBytes:        float64(wl.ValueBytes),
		BandwidthBytesPerSec: sc.Spec.Profile.BandwidthBytesPerSec,
	})
	mon := core.NewMonitor(core.MonitorConfig{
		ID: "harmony-monitor", Nodes: c.NodeIDs(), Interval: sc.MonitorInterval,
		ReplicaSetSize: sc.Spec.RF, OnObservation: ctl.Observe,
	}, s, c.Bus)
	c.Net.Colocate("harmony-monitor", c.NodeIDs()[0])
	c.Bus.Register("harmony-monitor", s, mon)

	st := newKeyState(wl.RecordCount)
	chooser, err := wl.NewChooser()
	if err != nil {
		return nil, 0, err
	}
	e := &endpoint{
		rt: s, st: st,
		gen: &generator{
			rng:        dist.NewRand(seed),
			classes:    []opClass{{chooser, wl.ReadProportion}},
			valueBytes: wl.ValueBytes, st: st,
		},
	}
	e.drv, err = client.New(client.Options{
		ID: "bench-load", Coordinators: c.NodeIDs(), Policy: ctl,
		Timeout: 5 * time.Second, ShadowEvery: simShadowEvery,
	}, s, c.Bus)
	if err != nil {
		return nil, 0, err
	}
	c.Bus.Register("bench-load", s, e.drv)
	build := time.Since(t0)

	// Load: every record straight into every replica's engine, the
	// equivalent of streaming pre-built tables in (as ycsb.Runner.Load).
	for i := int64(0); i < wl.RecordCount; i++ {
		v := wire.Value{Data: e.gen.value(i, 0), Timestamp: 1}
		for _, rep := range ring.ReplicasForKey(c.Ring, c.Strategy, st.keys[i]) {
			if _, err := c.Node(rep).Engine().Apply(st.keys[i], v); err != nil {
				return nil, 0, err
			}
		}
	}
	return &simRun{s: s, c: c, ctl: ctl, mon: mon, ep: e}, build, nil
}

func runSim(rc *runConfig) (*result, error) {
	res := newResult()
	// Set-up (cluster build + load), several times over for a median.
	var r *simRun
	var setups, loads []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var build time.Duration
		var err error
		if r, build, err = buildSim(rc.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, (time.Since(t0) - build).Seconds())
	}
	res.e2e("setup_s", overWindows(setups, len(setups)))
	res.layer("sim.load_s", scalar(median(loads)))
	s, c, e := r.s, r.c, r.ep

	var prober boxProber
	box0, err := prober.probe()
	if err != nil {
		return nil, err
	}

	// Warm-up: several monitor rounds of virtual time, so the controller
	// has reached its level before anything is counted.
	r.mon.Start()
	e.startClosed(simThreads)
	t0 := time.Now()
	s.RunFor(6 * bench.Grid5000().MonitorInterval)
	res.layer("sim.warmup_s", scalar(time.Since(t0).Seconds()))
	changes := 0
	history := len(r.ctl.History())

	// Measured phase: a fixed number of operations in windowsPerPhase
	// windows cut by completion count; wall time is stamped per window.
	ops := int64(rc.seconds * simOpsPerSecond)
	perWin := ops / windowsPerPhase
	ops = perWin * windowsPerPhase
	if perWin == 0 {
		return nil, fmt.Errorf("--seconds %v leaves no operations to simulate", rc.seconds)
	}
	rec := newPhaseRec(s.Now(), windowsPerPhase, 0, perWin, true, false)
	e.rec = rec
	before := c.AggregateMetrics()
	delivered0, dropped0 := c.Bus.Stats()
	events0, virtual0 := s.Events(), s.Now()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0, wall0 := selfCPU(), time.Now()
	perWindow := make([]float64, 0, windowsPerPhase)
	for w := int64(1); w <= windowsPerPhase; w++ {
		t := time.Now()
		for rec.completed < w*perWin {
			if !s.Step() {
				return nil, fmt.Errorf("simulation went idle at %d of %d operations", rec.completed, ops)
			}
		}
		perWindow = append(perWindow, float64(perWin)/time.Since(t).Seconds())
	}
	wall, cpu := time.Since(wall0), selfCPU()-cpu0
	runtime.ReadMemStats(&mem1)
	events, virtual := s.Events()-events0, s.Now().Sub(virtual0)
	after := c.AggregateMetrics()
	delivered1, dropped1 := c.Bus.Stats()
	e.rec = nil
	e.whenIdle(func() {})
	for e.inflight > 0 && s.Step() {
	}
	r.mon.Stop()
	hist := r.ctl.History()
	for i := max(history, 1); i < len(hist); i++ {
		if hist[i].Level != hist[i-1].Level {
			changes++
		}
	}

	box1, err := prober.probe()
	if err != nil {
		return nil, err
	}
	boxReport(res, []boxReading{box0, box1})

	n := float64(ops)
	res.e2e("ops_per_s", overWindows(perWindow, int(ops)))
	res.e2e("cpu_us_per_op", summary{Value: cpu * 1e6 / n, Windows: 1, Samples: int(ops)})
	if err := phaseLatencies(res, rec); err != nil {
		return nil, err
	}
	res.layer("sim.virtual_read_p99_ms", scalar(res.PerLayer["read_p99_us"].Value/1e3))
	res.layer("sim.virtual_write_p99_ms", scalar(res.PerLayer["write_p99_us"].Value/1e3))
	res.layer("sim.virtual_ops_per_s", scalar(n/virtual.Seconds()))
	res.layer("sim.events_per_op", scalar(float64(events)/n))
	res.layer("sim.wall_ns_per_event", scalar(float64(wall.Nanoseconds())/float64(events)))
	res.layer("sim.allocs_per_op", scalar(float64(mem1.Mallocs-mem0.Mallocs)/n))
	res.layer("sim.alloc_bytes_per_op", scalar(float64(mem1.TotalAlloc-mem0.TotalAlloc)/n))
	res.layer("sim.gc_cycles", scalar(float64(mem1.NumGC-mem0.NumGC)))
	res.layer("simnet.messages_per_op", scalar(float64(delivered1-delivered0)/n))
	res.layer("simnet.dropped", scalar(float64(dropped1-dropped0)))

	res.layer("stale_frac", scalar(ratio(float64(after.ShadowStale-before.ShadowStale), float64(after.ShadowSamples-before.ShadowSamples))))
	clusterMetrics(res, before, after, n)
	res.layer("core.level_changes", scalar(float64(changes)))
	res.layer("client.pending_max", scalar(float64(e.pendingMax)))

	res.Attempted, res.Failed = e.attempted, e.failed+int64(e.inflight)
	res.mismatches = e.mismatches
	stale := res.PerLayer["stale_frac"].Value
	res.require(stale <= simTolerance, "stale fraction %.4f above the tolerated %.2f", stale, simTolerance)
	res.finish()
	return res, nil
}
