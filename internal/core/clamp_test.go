package core

import (
	"testing"
	"time"

	"harmony/internal/obs"
	"harmony/internal/wire"
)

// demandingObs builds an observation whose arrival process pushes the
// estimator well past any small tolerance (hot reads against frequent
// writes with a fat propagation time), so the controller demands a strong
// level; Members/AliveMembers then exercise the availability clamp.
func demandingObs(members, alive int) Observation {
	return Observation{
		At:            time.Unix(2000, 0),
		ReadRate:      500,
		WriteInterval: 0.01, // 100 writes/s
		Latency:       50 * time.Millisecond,
		Window:        time.Second,
		Members:       members,
		AliveMembers:  alive,
	}
}

func TestControllerClampsToReachableReplicas(t *testing.T) {
	ctl := NewController(ControllerConfig{
		Policy: Policy{ToleratedStaleRate: 0.01},
		N:      3,
	})
	// Full membership: the demanding workload earns a strong level.
	ctl.Observe(demandingObs(3, 3))
	base := ctl.Last()
	if base.Level.BlockFor(3) < 2 {
		t.Fatalf("demanding workload decided %v, want at least quorum fan-in", base.Level)
	}
	if base.availabilityClamp {
		t.Fatal("clamp set with all members alive")
	}

	// One member convicted: ALL (3 of 3) is unservable, QUORUM (2) is the
	// strongest level two reachable replicas can still serve.
	ctl.Observe(demandingObs(3, 2))
	d := ctl.Last()
	if got := d.Level.BlockFor(3); got > 2 {
		t.Fatalf("with 2 of 3 members alive the level %v blocks for %d", d.Level, got)
	}
	if base.Level.BlockFor(3) > 2 && !d.availabilityClamp {
		t.Fatal("level lowered for liveness without availabilityClamp set")
	}

	// Minority view: only 1 reachable — everything degrades to ONE.
	ctl.Observe(demandingObs(3, 1))
	d = ctl.Last()
	if d.Level != wire.One || !d.availabilityClamp {
		t.Fatalf("with 1 of 3 members alive got %v (clamp=%v), want clamped ONE", d.Level, d.availabilityClamp)
	}

	// Membership recovers: the clamp releases and the demand returns.
	ctl.Observe(demandingObs(3, 3))
	d = ctl.Last()
	if d.availabilityClamp {
		t.Fatal("clamp still set after membership recovered")
	}
	if d.Level != base.Level {
		t.Fatalf("post-recovery level %v, want the unclamped demand %v", d.Level, base.Level)
	}
}

func TestControllerClampSkippedWithoutLivenessSignal(t *testing.T) {
	ctl := NewController(ControllerConfig{
		Policy: Policy{ToleratedStaleRate: 0.01},
		N:      3,
	})
	// AliveMembers zero = no detector wired: the clamp must not trigger
	// even though Members is populated.
	ctl.Observe(demandingObs(3, 0))
	d := ctl.Last()
	if d.availabilityClamp {
		t.Fatal("clamp triggered without a liveness signal")
	}
	if d.Level.BlockFor(3) < 2 {
		t.Fatalf("demanding workload decided %v, want at least quorum fan-in", d.Level)
	}
}

func TestControllerClampWinsOverDivergenceHold(t *testing.T) {
	ctl := NewController(ControllerConfig{
		Policy: Policy{ToleratedStaleRate: 0.10},
		N:      3,
	})
	// Divergence alone forces a quorum hold; with only one member
	// reachable a quorum cannot complete, so availability must win.
	o := demandingObs(3, 1)
	o.ReadRate, o.WriteInterval, o.Latency = 50, 1.0, 10*time.Microsecond
	o.Divergence = 2.0
	ctl.Observe(o)
	d := ctl.Last()
	if !d.divergenceHold {
		t.Fatalf("divergence 2.0 did not trip the hold (estimate %.3f)", d.Estimate)
	}
	if d.Level != wire.One || !d.availabilityClamp {
		t.Fatalf("hold with 1 reachable replica decided %v (clamp=%v), want clamped ONE", d.Level, d.availabilityClamp)
	}
}

func TestControllerClampTracesTransitions(t *testing.T) {
	tr := obs.NewTrace(64)
	ctl := NewController(ControllerConfig{
		Policy: Policy{ToleratedStaleRate: 0.01},
		N:      3,
		Trace:  tr,
	})
	ctl.Observe(demandingObs(3, 3))
	ctl.Observe(demandingObs(3, 1))
	ctl.Observe(demandingObs(3, 3))
	var clamp, release int
	for _, e := range tr.Events() {
		if e.Kind == obs.EventAvailabilityClamp {
			if e.To == wire.One.String() {
				clamp++
			} else {
				release++
			}
		}
	}
	if clamp != 1 || release != 1 {
		t.Fatalf("clamp/release events = %d/%d, want 1/1", clamp, release)
	}
}

func TestStrongestServable(t *testing.T) {
	cases := []struct {
		rf, reachable int
		want          wire.ConsistencyLevel
	}{
		{3, 3, wire.All},
		{3, 2, wire.Quorum},
		{3, 1, wire.One},
		{5, 4, wire.Quorum}, // no named level blocks for exactly 4 of 5
		{5, 3, wire.Quorum},
		{5, 2, wire.Two},
		{5, 1, wire.One},
	}
	for _, c := range cases {
		if got := strongestServable(c.rf, c.reachable); got != c.want {
			t.Errorf("strongestServable(%d, %d) = %v, want %v", c.rf, c.reachable, got, c.want)
		}
	}
	for _, c := range cases {
		if got := strongestServable(c.rf, c.reachable); got.BlockFor(c.rf) > c.reachable {
			t.Errorf("strongestServable(%d, %d) = %v blocks for %d > reachable", c.rf, c.reachable, got, got.BlockFor(c.rf))
		}
	}
}
