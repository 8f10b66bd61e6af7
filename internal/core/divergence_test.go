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

func TestControllerDivergenceSensitivityDisable(t *testing.T) {
	ctl := NewController(ControllerConfig{
		Policy:                Policy{ToleratedStaleRate: 0.10},
		N:                     5,
		DivergenceSensitivity: -1,
	})
	ctl.Observe(obsWith(10, nil))
	if got := ctl.Last().Level; got != wire.One {
		t.Fatalf("disabled divergence coupling still tightened to %v", got)
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

// TestAdaptiveWriteLevelsTradeReadForWrite pins the R+W>N rewrite: a model
// demanding reads beyond quorum moves writes to QUORUM and caps reads at
// QUORUM; with the feature off the same model reads near ALL at write-ONE.
func TestAdaptiveWriteLevelsTradeReadForWrite(t *testing.T) {
	demanding := Observation{
		At:            time.Unix(2000, 0),
		ReadRate:      100,
		WriteInterval: 0.01, // write-heavy
		Latency:       5 * time.Millisecond,
		Window:        time.Second,
	}
	base := ControllerConfig{Policy: Policy{ToleratedStaleRate: 0.01}, N: 5}

	off := NewController(base)
	off.Observe(demanding)
	if d := off.Last(); d.Xn <= 3 || d.WriteLevel != wire.One {
		t.Fatalf("baseline: Xn=%d write=%v, want Xn>quorum at write-ONE", d.Xn, d.WriteLevel)
	}

	cfg := base
	cfg.AdaptiveWriteLevels = true
	on := NewController(cfg)
	on.Observe(demanding)
	d := on.Last()
	if d.Xn != 3 || d.Level != wire.Quorum {
		t.Fatalf("adaptive: reads at Xn=%d/%v, want quorum", d.Xn, d.Level)
	}
	if d.WriteLevel != wire.Quorum {
		t.Fatalf("adaptive: writes at %v, want QUORUM", d.WriteLevel)
	}
	if _, w := on.LevelsFor(nil); w != wire.Quorum {
		t.Fatalf("LevelsFor write level = %v, want QUORUM", w)
	}
	// A benign regime keeps writes at ONE even with the feature on.
	on.Observe(obsWith(0, nil))
	if _, got := on.LevelsFor(nil); got != wire.One {
		t.Fatalf("benign regime writes at %v, want ONE", got)
	}
}

// TestWriteLevelForFollowsGroups exercises the per-key write side of the
// multi-model controller.
func TestWriteLevelForFollowsGroups(t *testing.T) {
	groupFn := func(key []byte) int {
		if len(key) > 0 && key[0] == 'h' {
			return 0
		}
		return 1
	}
	ctl := NewController(ControllerConfig{
		Policy:              Policy{ToleratedStaleRate: 0.5},
		N:                   5,
		Groups:              2,
		GroupFn:             groupFn,
		GroupTolerances:     []float64{0.01, 0.6},
		AdaptiveWriteLevels: true,
	})
	obs := Observation{
		At:            time.Unix(3000, 0),
		ReadRate:      100,
		WriteInterval: 0.01,
		Latency:       5 * time.Millisecond,
		Window:        time.Second,
		Groups: []GroupRates{
			{ReadRate: 100, WriteInterval: 0.01}, // hot: demands > quorum
			{ReadRate: 100, WriteInterval: 10},   // cold: benign
		},
	}
	ctl.Observe(obs)
	if _, got := ctl.LevelsFor([]byte("hot")); got != wire.Quorum {
		t.Fatalf("hot group writes at %v, want QUORUM", got)
	}
	if _, got := ctl.LevelsFor([]byte("cold")); got != wire.One {
		t.Fatalf("cold group writes at %v, want ONE", got)
	}
	if got, _ := ctl.LevelsFor([]byte("hot")); got != wire.Quorum {
		t.Fatalf("hot group reads at %v, want QUORUM (capped by quorum writes)", got)
	}
}
