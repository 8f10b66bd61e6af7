package main

import (
	"sync"
	"time"

	"harmony/internal/core"
	"harmony/internal/sim"
	"harmony/internal/transport"
	"harmony/internal/wire"
	"harmony/internal/ycsb"
)

// adaptive is the paper's control loop on the deployed stack: a per-group
// controller fed by a monitor polling the members from its own endpoint.
type adaptive struct {
	ctl  *core.Controller
	mon  *core.Monitor
	rt   *sim.RealRuntime
	tcp  *transport.TCPNode
	mu   sync.Mutex
	at   []time.Time                // one per monitor round
	lvls [2][]wire.ConsistencyLevel // commanded read level per group and round
	obs  []int64                    // ns inside Controller.Observe (traced runs)
}

func startAdaptive(c *liveCluster, spec *liveSpec, timed bool) (*adaptive, error) {
	a := &adaptive{rt: sim.NewRealRuntime()}
	a.ctl = core.NewController(core.ControllerConfig{
		Policy:               core.Policy{Name: "bench-hotcold", ToleratedStaleRate: hotTolerance},
		N:                    members,
		BandwidthBytesPerSec: ctlBandwidth,
		Groups:               2,
		GroupFn: func(key []byte) int {
			if idx, ok := ycsb.KeyIndex(key); ok && idx < spec.hotKeys {
				return 0
			}
			return 1
		},
		GroupTolerances: []float64{hotTolerance, coldTolerance},
		OnGroupDecision: func(g int, d core.Decision) {
			a.mu.Lock()
			a.lvls[g] = append(a.lvls[g], d.Level)
			if g == 0 {
				a.at = append(a.at, time.Now())
			}
			a.mu.Unlock()
		},
	})
	observe := a.ctl.Observe
	if timed {
		observe = func(o core.Observation) {
			t := time.Now()
			a.ctl.Observe(o)
			a.mu.Lock()
			a.obs = append(a.obs, int64(time.Since(t)))
			a.mu.Unlock()
		}
	}
	tcp, err := transport.NewTCPNode(transport.TCPConfig{
		ID: "bench-monitor", Peers: c.lc.Peers(), Logf: discardLog,
	}, a.rt, nil)
	if err != nil {
		a.rt.Stop()
		return nil, err
	}
	a.tcp = tcp
	a.mon = core.NewMonitor(core.MonitorConfig{
		ID: "bench-monitor", Nodes: c.ids, Interval: monitorInterval,
		ReplicaSetSize: members, OnObservation: observe,
	}, a.rt, tcp)
	tcp.SetHandler(a.mon)
	a.mon.Start()
	return a, nil
}

func (a *adaptive) close() {
	a.mon.Stop()
	a.tcp.Close()
	a.rt.Stop()
}

// report fills the core.* control-loop metrics. phases are the monitor-round
// ranges of the closed and the paced phase: the offered load differs between
// them by design, so the commanded level may too, and stability is judged
// inside each. A phase's first round straddles the change of load and is
// left out.
func (a *adaptive) report(res *result, phases [][2]int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	changes, stable := 0, 1.0
	var gaps []int64
	for _, ph := range phases {
		lo, hi := ph[0]+1, min(ph[1], len(a.at))
		for g := range a.lvls {
			counts := map[wire.ConsistencyLevel]int{}
			for i := lo; i < hi; i++ {
				counts[a.lvls[g][i]]++
				if i > lo && a.lvls[g][i-1] != a.lvls[g][i] {
					changes++
				}
			}
			mode := 0
			for _, n := range counts {
				mode = max(mode, n)
			}
			if hi > lo {
				stable = min(stable, float64(mode)/float64(hi-lo))
			}
		}
		for i := lo + 1; i < hi; i++ {
			gaps = append(gaps, int64(a.at[i].Sub(a.at[i-1])))
		}
	}
	res.layer("core.level_changes", scalar(float64(changes)))
	res.layer("core.level_stable_frac", scalar(stable))
	res.layer("core.estimate_hot", scalar(a.ctl.GroupLast(0).Estimate))
	res.layer("core.estimate_cold", scalar(a.ctl.GroupLast(1).Estimate))
	sortInt64(gaps)
	res.layer("core.observe_gap_ms_p99", scalar(float64(percentile(gaps, 0.99))/1e6))
	if len(a.obs) > 0 {
		o := append([]int64(nil), a.obs...)
		sortInt64(o)
		res.layer("core.observe_us_p50", scalar(float64(percentile(o, 0.5))/1e3))
	}
}

// rounds is how many monitor rounds have completed (0 without a controller).
func (a *adaptive) rounds() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.at)
}
