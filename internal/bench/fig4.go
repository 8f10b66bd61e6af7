package bench

import (
	"fmt"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/dist"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/simnet"
	"harmony/internal/wire"
	"harmony/internal/ycsb"
)

// fig4aPhases is the thread schedule of Fig. 4(a): the paper starts at 90
// threads and steps down to 70, 40, 15 and finally 1.
var fig4aPhases = []int{90, 70, 40, 15, 1}

// defaultFig4aPhase is the virtual time spent per thread phase when
// Options.PhaseDuration is zero.
const defaultFig4aPhase = 6 * time.Second

// Fig4a reproduces Fig. 4(a): the estimated stale-read probability over
// running time for Workload-A (heavy read-update) and Workload-B (read
// mostly), while the number of client threads steps down through
// fig4aPhases. Run on the Grid'5000 profile, as the paper does ("we used
// Grid'5000 as we can guarantee the network latency").
func Fig4a(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     "fig4a",
		Title:  "stale-read probability estimate over running time (thread steps 90/70/40/15/1)",
		XLabel: "time (s)",
		YLabel: "estimated probability of stale reads",
	}
	for _, wl := range []ycsb.Workload{ycsb.WorkloadA(), ycsb.WorkloadB()} {
		series, err := fig4aSeries(wl, opts)
		if err != nil {
			return Figure{}, err
		}
		fig.Series = append(fig.Series, series)
		opts.progress("fig4a %s: %d samples", wl.Name, len(series.Points))
	}
	return fig, nil
}

func fig4aSeries(wl ycsb.Workload, opts Options) (Series, error) {
	sc := Grid5000()
	s := sim.New(opts.Seed)
	c, err := cluster.BuildSim(s, sc.Spec)
	if err != nil {
		return Series{}, err
	}
	ctl := core.NewController(core.ControllerConfig{
		Policy:               core.Policy{Name: "estimator", ToleratedStaleRate: 1}, // observe only
		N:                    sc.Spec.RF,
		AvgWriteBytes:        float64(wl.ValueBytes),
		BandwidthBytesPerSec: sc.Spec.Profile.BandwidthBytesPerSec,
	})
	mon := simMonitor(s, c, core.MonitorConfig{
		Interval: sc.MonitorInterval, ReplicaSetSize: sc.Spec.RF, OnObservation: ctl.Observe,
	})

	runner, err := ycsb.NewRunner(ycsb.RunConfig{
		Workload: wl,
		Threads:  fig4aPhases[0],
		Seed:     opts.Seed,
	}, s, c)
	if err != nil {
		return Series{}, err
	}
	runner.Load()
	phase := opts.PhaseDuration
	if phase <= 0 {
		phase = defaultFig4aPhase
	}
	start := s.Now()
	mon.Start()
	runner.Start()
	for _, threads := range fig4aPhases {
		runner.SetActiveThreads(threads)
		s.RunFor(phase)
	}
	runner.Stop()
	mon.Stop()
	runner.Drain()

	series := Series{Name: wl.Name}
	for _, d := range ctl.History() {
		series.Points = append(series.Points, Point{
			X: d.At.Sub(start).Seconds(),
			Y: d.Estimate,
		})
	}
	return series, nil
}

// fig4bLatencies is the x-axis of Fig. 4(b): one-way network latencies from
// sub-millisecond up to 50 ms (the variability observed on EC2).
var fig4bLatencies = []time.Duration{
	500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond,
	5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond,
	30 * time.Millisecond, 40 * time.Millisecond, 50 * time.Millisecond,
}

// Fig4b reproduces Fig. 4(b): the impact of network latency on the
// stale-read estimate. Each point fixes every link to one latency (the
// controlled variable) and offers a constant Workload-A-shaped load in open
// loop — in the paper the latency varied underneath a roughly constant
// offered load (EC2's variability); a closed loop would slow the clients
// with the network and mask the effect. Expected shape: "high network
// latency causes higher stale reads regardless of the number of the
// threads", while at small latency the estimate depends on the rates.
func Fig4b(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     "fig4b",
		Title:  "stale-read probability estimate vs network latency (workload-a, open loop)",
		XLabel: "network latency (ms)",
		YLabel: "estimated probability of stale reads",
	}
	// Two offered loads demonstrate that latency dominates once large.
	for _, rate := range []float64{4000, 1000} {
		series := Series{Name: fmt.Sprintf("%.0f ops/s", rate)}
		for i, lat := range fig4bLatencies {
			est, err := fig4bPoint(lat, rate, opts.Seed+int64(i))
			if err != nil {
				return Figure{}, err
			}
			series.Points = append(series.Points, Point{X: float64(lat) / 1e6, Y: est})
			opts.progress("fig4b latency=%v rate=%.0f estimate=%.3f", lat, rate, est)
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// noopSink discards responses: the open-loop generator only cares about the
// arrival process it offers, not about completions.
type noopSink struct{}

func (noopSink) Deliver(ring.NodeID, wire.Message) {}

// startOpenLoad offers fixed-rate Workload-A-shaped traffic to the cluster
// regardless of response latency. Arrivals are Poisson (exponential
// inter-arrival gaps sampled from dist) rather than a metronome: the mean
// rate is identical, but requests clump and gap the way independent
// clients actually do, which is the arrival process the stale-read
// estimator sees in production.
func startOpenLoad(s *sim.Sim, c *cluster.Cluster, wl ycsb.Workload, opsPerSec float64) (stop func(), err error) {
	chooserRng := s.NewStream()
	chooser, err := wl.NewChooser()
	if err != nil {
		return nil, err
	}
	payload := make([]byte, wl.ValueBytes)
	chooserRng.Read(payload)
	coords := c.NodeIDs()
	c.Bus.Register("openload", s, noopSink{})
	var id uint64
	stops := make([]func(), 0, 2)
	startStream := func(rate float64, send func(id uint64, key []byte)) {
		if rate <= 0 {
			return
		}
		gap := dist.NewExponential(1 / rate)
		rng := s.NewStream()
		stops = append(stops, sim.Every(s,
			func() time.Duration { return dist.SampleDuration(gap, rng, time.Second) },
			func() {
				id++
				send(id, ycsb.Key(chooser.Next(chooserRng)))
			}))
	}
	startStream(opsPerSec*wl.ReadProportion, func(id uint64, key []byte) {
		c.Bus.Send("openload", coords[int(id)%len(coords)], wire.ReadRequest{ID: id, Key: key, Level: wire.One})
	})
	startStream(opsPerSec*wl.UpdateProportion, func(id uint64, key []byte) {
		c.Bus.Send("openload", coords[int(id)%len(coords)], wire.WriteRequest{ID: id, Key: key, Value: payload, Level: wire.One})
	})
	return func() {
		for _, st := range stops {
			st()
		}
	}, nil
}

func fig4bPoint(oneWay time.Duration, opsPerSec float64, seed int64) (float64, error) {
	sc := Grid5000()
	sc.Spec.Profile = simnet.UniformProfile(oneWay)
	s := sim.New(seed)
	c, err := cluster.BuildSim(s, sc.Spec)
	if err != nil {
		return 0, err
	}
	wl := ycsb.WorkloadA()
	ctl := core.NewController(core.ControllerConfig{
		Policy:               core.Policy{Name: "estimator", ToleratedStaleRate: 1},
		N:                    sc.Spec.RF,
		AvgWriteBytes:        float64(wl.ValueBytes),
		BandwidthBytesPerSec: sc.Spec.Profile.BandwidthBytesPerSec,
	})
	mon := simMonitor(s, c, core.MonitorConfig{
		Interval: sc.MonitorInterval, ReplicaSetSize: sc.Spec.RF, OnObservation: ctl.Observe,
	})
	stop, err := startOpenLoad(s, c, wl, opsPerSec)
	if err != nil {
		return 0, err
	}
	mon.Start()
	s.RunFor(12 * time.Second)
	stop()
	mon.Stop()
	s.RunFor(time.Second) // drain in-flight work

	hist := ctl.History()
	if len(hist) == 0 {
		return 0, fmt.Errorf("bench: no estimator samples at latency %v", oneWay)
	}
	// Skip the first sample (warm-up) and average the rest.
	if len(hist) > 1 {
		hist = hist[1:]
	}
	sum := 0.0
	for _, d := range hist {
		sum += d.Estimate
	}
	return sum / float64(len(hist)), nil
}
