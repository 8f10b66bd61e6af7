package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/faults"
	"harmony/internal/repair"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/wire"
)

// TestMassChurnRFMinusOneReplicas crashes RF-1 of a key's replicas at once —
// the worst survivable failure — and pins the degraded-mode contract: quorum
// operations on the key fail fast with ErrUnavailable (no hangs), CL=ONE
// keeps both reading and writing through the lone survivor, and after the
// victims return, recovery-triggered anti-entropy re-converges every replica
// onto the value written during the outage. Runs under -race in CI like the
// rest of the package.
func TestMassChurnRFMinusOneReplicas(t *testing.T) {
	spec := DefaultSpec()
	spec.HintedHandoff = true
	spec.Repair = repair.Options{
		Enabled:     true,
		Interval:    200 * time.Millisecond,
		Concurrency: 4,
	}
	s := sim.New(23)
	c, err := BuildSim(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	key := []byte("mass-churn")
	reps := ring.ReplicasForKey(c.Ring, c.Strategy, key)
	if len(reps) != spec.RF {
		t.Fatalf("replica set size = %d, want RF %d", len(reps), spec.RF)
	}
	survivor, victims := reps[0], reps[1:]

	// The client coordinates at the surviving replica: CL=ONE stays local.
	// The mutable policy lets each write pick its level explicitly.
	pol := &writeLevelPolicy{write: wire.Quorum}
	drv, err := client.New(client.Options{
		ID:           "cl",
		Coordinators: []ring.NodeID{survivor},
		Policy:       pol,
		Timeout:      2 * time.Second,
	}, s, c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	c.Bus.Register("cl", s, drv)

	write := func(value string, level wire.ConsistencyLevel) client.WriteResult {
		t.Helper()
		pol.write = level
		var res client.WriteResult
		done := false
		drv.Write(key, []byte(value), func(r client.WriteResult) { res = r; done = true })
		s.RunFor(3 * time.Second)
		if !done {
			t.Fatalf("write %q at %v never completed", value, level)
		}
		return res
	}
	read := func(level wire.ConsistencyLevel) client.ReadResult {
		t.Helper()
		var res client.ReadResult
		done := false
		drv.ReadAt(key, level, func(r client.ReadResult) { res = r; done = true })
		s.RunFor(3 * time.Second)
		if !done {
			t.Fatalf("read at %v never completed", level)
		}
		return res
	}

	if res := write("v1", wire.Quorum); res.Err != nil {
		t.Fatalf("healthy quorum write: %v", res.Err)
	}

	// Crash all victims in the same instant.
	c.Faults.Apply(faults.Update{Down: names(victims...)})

	if res := read(wire.Quorum); !errors.Is(res.Err, client.ErrUnavailable) {
		t.Fatalf("quorum read with %d/%d replicas down: err = %v, want ErrUnavailable", len(victims), spec.RF, res.Err)
	}
	if res := read(wire.One); res.Err != nil || string(res.Value) != "v1" {
		t.Fatalf("CL=ONE read through survivor: %+v", res)
	}
	// A refused quorum write may still partially apply at the coordinator —
	// standard Dynamo semantics: the error means "quorum not reached", not
	// "nothing happened" — so the pin here is only the refusal itself.
	if res := write("v-lost", wire.Quorum); !errors.Is(res.Err, client.ErrUnavailable) {
		t.Fatalf("quorum write with %d/%d replicas down: err = %v, want ErrUnavailable", len(victims), spec.RF, res.Err)
	}
	outage := write("v2", wire.One)
	if outage.Err != nil {
		t.Fatalf("CL=ONE write through survivor: %v", outage.Err)
	}

	// Recovery: the survivor's anti-entropy streams v2 to every victim.
	c.Faults.Apply(faults.Update{Up: names(victims...)})
	s.RunFor(10 * time.Second)

	if res := write("v3", wire.All); res.Err != nil {
		t.Fatalf("post-recovery CL=ALL write: %v", res.Err)
	}
	for _, v := range victims {
		row, ok := c.Node(v).Engine().Get(key)
		if !ok {
			t.Fatalf("victim %s holds nothing post-recovery", v)
		}
		if string(row.Data) != "v3" {
			t.Fatalf("victim %s holds %q, want v3", v, row.Data)
		}
	}
	if agg := c.AggregateMetrics(); agg.RepairRows == 0 {
		t.Fatal("recovery streamed no repair rows")
	}
}

// writeLevelPolicy reads at ONE and writes at whatever level the test sets.
type writeLevelPolicy struct{ write wire.ConsistencyLevel }

func (p *writeLevelPolicy) LevelsFor([]byte) (read, write wire.ConsistencyLevel) {
	return wire.One, p.write
}

// TestMassChurnQuorumFailsFast pins the latency of refusal: with RF-1
// replicas down, a quorum operation must resolve (with an error) well before
// the client's overall deadline — the coordinator knows the replica set
// cannot assemble a quorum and says so immediately instead of waiting out
// the timeout.
func TestMassChurnQuorumFailsFast(t *testing.T) {
	spec := DefaultSpec()
	s := sim.New(29)
	c, err := BuildSim(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	key := []byte("fail-fast")
	reps := ring.ReplicasForKey(c.Ring, c.Strategy, key)
	drv, err := client.New(client.Options{
		ID:           "cl",
		Coordinators: []ring.NodeID{reps[0]},
		Policy:       client.Fixed{Write: wire.Quorum},
		Timeout:      10 * time.Second,
	}, s, c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	c.Bus.Register("cl", s, drv)

	c.Faults.Apply(faults.Update{Down: names(reps[1:]...)})
	start := s.Now()
	var res client.ReadResult
	var took time.Duration
	done := false
	drv.ReadAt(key, wire.Quorum, func(r client.ReadResult) {
		res, took, done = r, s.Now().Sub(start), true
	})
	s.RunFor(12 * time.Second)
	if !done {
		t.Fatal("quorum read never completed")
	}
	if !errors.Is(res.Err, client.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", res.Err)
	}
	if took > 2*time.Second {
		t.Fatalf("refusal took %v — waited out the deadline instead of failing fast", took)
	}
	if fmt.Sprint(res.Err) == "" {
		t.Fatal("empty error string")
	}
}
