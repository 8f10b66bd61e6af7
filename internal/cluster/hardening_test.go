package cluster

import (
	"errors"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/faults"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/wire"
)

// TestTsHintReplayCollapses drives the full idempotent-retry loop through
// the fault plane: the first coordinator's ack to the client is dropped,
// the client retries the write — same TsHint, next coordinator — and the
// replayed mutation LWW-collapses into the already-applied one. The client
// sees success and a strong read returns exactly the stamped version.
func TestTsHintReplayCollapses(t *testing.T) {
	s := sim.New(42)
	c, err := BuildSim(s, DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	reps := ring.ReplicasForKey(c.Ring, c.Strategy, []byte("idem"))
	drv, err := client.New(client.Options{
		ID:           "cl",
		Coordinators: []ring.NodeID{reps[0], reps[1]},
		Policy:       client.Fixed{Write: wire.Quorum},
		Timeout:      2 * time.Second,
		MaxAttempts:  2, AttemptTimeout: 300 * time.Millisecond,
		RetryBackoff: time.Millisecond, RetryBackoffMax: 4 * time.Millisecond,
	}, s, c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	c.Bus.Register("cl", s, drv)

	// Drop the first coordinator's responses to the client: the write
	// applies but its ack is lost, forcing a replay.
	c.Faults.Apply(faults.Update{Set: []faults.RuleUpdate{{From: string(reps[0]), To: "cl", Rule: faults.Rule{Drop: 1}}}})

	var res client.WriteResult
	done := false
	drv.Write([]byte("idem"), []byte("v1"), func(r client.WriteResult) { res = r; done = true })
	s.RunFor(5 * time.Second)
	if !done || res.Err != nil {
		t.Fatalf("write done=%v res=%+v", done, res)
	}
	if drv.Retries() != 1 {
		t.Fatalf("retries = %d, want 1", drv.Retries())
	}
	if st := c.Faults.Snapshot().Stats; st.Dropped == 0 {
		t.Fatalf("plane dropped nothing: %+v", st)
	}

	c.Faults.Apply(faults.Update{Clear: true})
	var got client.ReadResult
	done = false
	drv.ReadAt([]byte("idem"), wire.All, func(r client.ReadResult) { got = r; done = true })
	s.RunFor(5 * time.Second)
	if !done || got.Err != nil || !got.Found || string(got.Value) != "v1" {
		t.Fatalf("strong read = %+v done=%v", got, done)
	}
	if got.Ts != res.Ts {
		t.Fatalf("replayed write forked versions: read ts=%d write ts=%d", got.Ts, res.Ts)
	}
}

// TestOverloadSheddingAtMaxInFlight pins the coordinator's in-flight bound:
// a burst beyond MaxInFlight is shed fail-fast with wire.ErrOverloaded
// (client.ErrOverloaded on the client), counted in Metrics.Overloaded, while
// work inside the bound still succeeds.
func TestOverloadSheddingAtMaxInFlight(t *testing.T) {
	spec := DefaultSpec()
	spec.MaxInFlight = 1
	s := sim.New(7)
	c, err := BuildSim(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	reps := ring.ReplicasForKey(c.Ring, c.Strategy, []byte("hot"))
	drv, err := client.New(client.Options{
		ID: "cl", Coordinators: []ring.NodeID{reps[0]}, Timeout: 2 * time.Second,
	}, s, c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	c.Bus.Register("cl", s, drv)

	var seed client.WriteResult
	seeded := false
	drv.Write([]byte("hot"), []byte("v"), func(r client.WriteResult) { seed = r; seeded = true })
	s.RunFor(time.Second)
	if !seeded || seed.Err != nil {
		t.Fatalf("seed write = %+v", seed)
	}

	const burst = 8
	var ok, shed int
	for i := 0; i < burst; i++ {
		drv.ReadAt([]byte("hot"), wire.Quorum, func(r client.ReadResult) {
			switch {
			case r.Err == nil:
				ok++
			case errors.Is(r.Err, client.ErrOverloaded):
				shed++
			default:
				t.Errorf("unexpected error: %v", r.Err)
			}
		})
	}
	s.RunFor(5 * time.Second)
	if ok == 0 {
		t.Fatal("no read inside the bound succeeded")
	}
	if shed == 0 {
		t.Fatal("burst beyond MaxInFlight was not shed")
	}
	if m := c.AggregateMetrics(); m.Overloaded != uint64(shed) {
		t.Fatalf("Metrics.Overloaded = %d, want %d", m.Overloaded, shed)
	}
}

// TestDeadlineClampsCoordinatorTimeout pins server-side deadline handling:
// a request carrying a small DeadlineMs must be abandoned at the deadline,
// not at the coordinator's (much longer) configured timeout.
func TestDeadlineClampsCoordinatorTimeout(t *testing.T) {
	spec := DefaultSpec()
	spec.ReadTimeout = 10 * time.Second // configured timeout is enormous
	s := sim.New(9)
	c, err := BuildSim(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	reps := ring.ReplicasForKey(c.Ring, c.Strategy, []byte("dk"))
	coord := reps[0]
	// Cut the coordinator off from every other replica: a QUORUM read can
	// only end by timing out.
	c.Faults.Apply(isolate(coord))

	drv, err := client.New(client.Options{
		ID: "cl", Coordinators: []ring.NodeID{coord}, Timeout: 50 * time.Millisecond,
	}, s, c.Bus)
	if err != nil {
		t.Fatal(err)
	}
	c.Bus.Register("cl", s, drv)

	var res client.ReadResult
	done := false
	drv.ReadAt([]byte("dk"), wire.Quorum, func(r client.ReadResult) { res = r; done = true })
	s.RunFor(500 * time.Millisecond)
	if !done || !errors.Is(res.Err, client.ErrTimeout) {
		t.Fatalf("read done=%v err=%v, want fast ErrTimeout", done, res.Err)
	}
	// The coordinator must have abandoned the op at the client's deadline,
	// ~50ms in, far before its own 10s timeout — observable as a counted
	// read timeout well within the 500ms we simulated.
	if m := c.AggregateMetrics(); m.ReadTimeouts == 0 {
		t.Fatalf("coordinator still holds the expired op: %+v", m)
	}
}
