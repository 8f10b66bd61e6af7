package bench

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/faults"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/wire"
	"harmony/internal/ycsb"
)

// The golden trajectory pins the simulator's determinism contract: for a
// seed, the same cluster under the same load must produce the same virtual
// history whatever the scheduler, the transport or the placement lookup cost
// in wall time. Each digest folds every completion (issue index, virtual
// completion instant, achieved level, returned timestamp, error class) and
// the run's closing counters (Sim.Events, Bus.Stats, AggregateMetrics). The
// expected values were recorded from the code as it stood before the
// substrate was rebuilt; a change that moves one has changed the simulation,
// not only its cost, and the digests must not be regenerated to make it pass.

const (
	goldenThreads = 40
	goldenOps     = 16000
	goldenRecords = 2000
)

type goldenRun struct {
	s      *sim.Sim
	c      *cluster.Cluster
	h      hash.Hash64
	issued uint64
	done   int
}

func (g *goldenRun) fold(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		g.h.Write(b[:])
	}
}

func errClass(err error) uint64 {
	if err == nil {
		return 0
	}
	return 1
}

// goldenDigest drives 40 closed-loop YCSB-A threads under Harmony at
// tolerance 0.20 on bench.Grid5000() until goldenOps operations completed.
// With faulted set the clients retry and hedge, the cluster hints, and one
// replica goes down and returns mid-run, so timers that fire, timers
// cancelled late and hint replay are on the trajectory too.
func goldenDigest(t *testing.T, seed int64, faulted bool) uint64 {
	t.Helper()
	sc := Grid5000()
	if faulted {
		sc.Spec.HintedHandoff = true
		sc.Spec.ReadTimeout = 40 * time.Millisecond
		sc.Spec.WriteTimeout = 40 * time.Millisecond
	}
	wl := ycsb.WorkloadA()
	wl.RecordCount = goldenRecords
	s := sim.New(seed)
	c, err := cluster.BuildSim(s, sc.Spec)
	if err != nil {
		t.Fatal(err)
	}
	policy, ctl := PolicySpec{Kind: PolicyHarmony, Tolerance: 0.20}.policy(sc.Spec.RF, wl, sc.Spec.Profile)
	mon := core.NewMonitor(core.MonitorConfig{
		ID: "harmony-monitor", Nodes: c.NodeIDs(), Interval: sc.MonitorInterval,
		ReplicaSetSize: sc.Spec.RF, OnObservation: ctl.Observe,
	}, s, c.Bus)
	c.Net.Colocate("harmony-monitor", c.NodeIDs()[0])
	c.Bus.Register("harmony-monitor", s, mon)
	mon.Start()
	defer mon.Stop()

	for i := int64(0); i < wl.RecordCount; i++ {
		key := ycsb.Key(i)
		v := wire.Value{Data: []byte{byte(i)}, Timestamp: 1}
		for _, rep := range ring.ReplicasForKey(c.Ring, c.Strategy, key) {
			if _, err := c.Node(rep).Engine().Apply(key, v); err != nil {
				t.Fatal(err)
			}
		}
	}

	g := &goldenRun{s: s, c: c, h: fnv.New64a()}
	chooser, err := wl.NewChooser()
	if err != nil {
		t.Fatal(err)
	}
	value := make([]byte, 64)
	coords := c.NodeIDs()
	for i := 0; i < goldenThreads; i++ {
		opts := client.Options{
			ID:           ring.NodeID(fmt.Sprintf("golden-%d", i)),
			Coordinators: append(append([]ring.NodeID(nil), coords[i%len(coords):]...), coords[:i%len(coords)]...),
			Policy:       policy,
			Timeout:      5 * time.Second,
			ShadowEvery:  5,
		}
		if faulted {
			opts.Timeout = 400 * time.Millisecond
			opts.MaxAttempts = 3
			opts.Hedge = 6 * time.Millisecond
		}
		drv, err := client.New(opts, s, c.Bus)
		if err != nil {
			t.Fatal(err)
		}
		c.Bus.Register(opts.ID, s, drv)
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		var next func()
		next = func() {
			if g.done >= goldenOps {
				return
			}
			idx := g.issued
			g.issued++
			key := ycsb.Key(chooser.Next(rng))
			if rng.Float64() < wl.ReadProportion {
				drv.Read(key, func(r client.ReadResult) {
					g.done++
					g.fold(idx, uint64(s.Now().UnixNano()), uint64(r.Achieved), uint64(r.Ts), errClass(r.Err))
					next()
				})
				return
			}
			drv.Write(key, value, func(w client.WriteResult) {
				g.done++
				g.fold(idx, uint64(s.Now().UnixNano()), 0, uint64(w.Ts), errClass(w.Err))
				next()
			})
		}
		s.Post(next)
	}
	if faulted {
		victim := []string{string(coords[3])}
		c.Faults.Run(faults.Plan{
			{After: 500 * time.Millisecond, Update: faults.Update{Down: victim}},
			{After: 900 * time.Millisecond, Update: faults.Update{Up: victim}},
		})
	}
	for g.done < goldenOps {
		if !s.Step() {
			t.Fatalf("simulation went idle at %d of %d operations", g.done, goldenOps)
		}
	}
	// Let the in-flight tail finish and the first hint replay (10 s after
	// node start) run, so the closing counters cover whole operations and
	// the replayed hints, then fold them.
	s.RunFor(10 * time.Second)
	delivered, dropped := c.Bus.Stats()
	g.fold(s.Events(), delivered, dropped, uint64(s.Now().UnixNano()))
	fmt.Fprintf(g.h, "%+v", c.AggregateMetrics())
	return g.h.Sum64()
}

func TestGoldenTrajectory(t *testing.T) {
	t.Parallel()
	// Recorded at the parent of the substrate change (commit 24c4ed1).
	want := map[bool][]uint64{
		false: {0xe36c6ffff24f4847, 0x2b99d5b1a241bebe, 0x868507c6b8a6b59a},
		true:  {0xc44db4a33d0b7bdf, 0x1e6248336764c281, 0xdf0b14b6cff0548f},
	}
	for _, faulted := range []bool{false, true} {
		for i, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("faulted=%v/seed=%d", faulted, seed), func(t *testing.T) {
				if got := goldenDigest(t, seed, faulted); got != want[faulted][i] {
					t.Fatalf("trajectory digest %#x, want %#x: the simulation's virtual history changed", got, want[faulted][i])
				}
			})
		}
	}
}
