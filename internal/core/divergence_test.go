package core

import (
	"testing"
	"time"

	"harmony/internal/wire"
)

// obsWith builds an observation whose propagation model alone is benign
// (tiny Tp, modest rates), so any tightening must come from divergence.
func obsWith(div float64, groups []GroupRates) Observation {
	return Observation{
		At:            time.Unix(1000, 0),
		ReadRate:      50,
		WriteInterval: 1.0, // one write/s: propagation staleness ~ 0
		Latency:       10 * time.Microsecond,
		Divergence:    div,
		Window:        time.Second,
		Groups:        groups,
	}
}

func TestControllerTightensOnDivergenceAndRelaxesAfter(t *testing.T) {
	ctl := NewController(ControllerConfig{
		Policy: Policy{ToleratedStaleRate: 0.10},
		N:      5,
	})
	ctl.Observe(obsWith(0, nil))
	if got := ctl.Last().Level; got != wire.One {
		t.Fatalf("benign conditions chose %v, want ONE", got)
	}
	// A recovering replica: repair heals seconds of divergence per second.
	ctl.Observe(obsWith(2.0, nil))
	d := ctl.Last()
	if d.Level == wire.One {
		t.Fatalf("divergence 2.0 left the level at ONE (estimate %.3f)", d.Estimate)
	}
	if d.Xn < 3 {
		t.Fatalf("divergence breach tightened to Xn=%d, want at least quorum (3 of 5)", d.Xn)
	}
	if d.Estimate <= 0.5 {
		t.Fatalf("estimate %.3f does not reflect saturating divergence", d.Estimate)
	}
	// Repair converged: the gauge returns to zero and the level relaxes.
	ctl.Observe(obsWith(0, nil))
	if got := ctl.Last().Level; got != wire.One {
		t.Fatalf("level stuck at %v after divergence converged", got)
	}
}

func TestControllerDivergenceTightensOnlyAffectedGroups(t *testing.T) {
	ctl := NewController(ControllerConfig{
		Policy:          Policy{ToleratedStaleRate: 0.10},
		N:               5,
		Groups:          2,
		GroupTolerances: []float64{0.10, 0.40},
	})
	// Group 0 diverging, group 1 converged.
	groups := []GroupRates{
		{ReadRate: 40, WriteInterval: 1.0, Divergence: 3.0},
		{ReadRate: 40, WriteInterval: 1.0, Divergence: 0},
	}
	ctl.Observe(obsWith(1.5, groups))
	if g0 := ctl.GroupLast(0); g0.Level == wire.One {
		t.Fatalf("diverging group stayed at ONE (estimate %.3f)", g0.Estimate)
	}
	if g1 := ctl.GroupLast(1); g1.Level != wire.One {
		t.Fatalf("converged group tightened to %v", g1.Level)
	}
}

// TestControllerDivergenceWithoutRates pins the outage-window edge case: a
// round with no measured traffic (invalid model) but active repair must
// still tighten rather than default to eventual consistency.
func TestControllerDivergenceWithoutRates(t *testing.T) {
	ctl := NewController(ControllerConfig{Policy: Policy{ToleratedStaleRate: 0.10}, N: 5})
	obs := obsWith(2.0, nil)
	obs.ReadRate = 0
	obs.WriteInterval = 0
	ctl.Observe(obs)
	d := ctl.Last()
	if d.Level == wire.One || d.Xn < 3 {
		t.Fatalf("invalid model with divergence gave %v/Xn=%d, want >= quorum", d.Level, d.Xn)
	}
}
