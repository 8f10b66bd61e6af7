package bench

import (
	"testing"
)

// TestRegroupLearnedBeatsStaticAfterMigration pins the acceptance criterion
// of the grouping subsystem: once the hotspot migrates, learned regrouping
// must out-throughput the build-time-pinned groups while keeping every
// learned group inside its staleness tolerance, and it must re-tighten the
// migrated hot keys to the hot target the static grouping abandons.
func TestRegroupLearnedBeatsStaticAfterMigration(t *testing.T) {
	t.Parallel()
	spec := DefaultRegroupSpec()
	res, err := Regroup(spec, Options{OpsPerPoint: 8000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	if res.Learned.Phase2.ThroughputOps <= res.Static.Phase2.ThroughputOps {
		t.Fatalf("post-migration learned throughput %.0f did not beat static %.0f",
			res.Learned.Phase2.ThroughputOps, res.Static.Phase2.ThroughputOps)
	}
	if len(res.Learned.Phase2.Groups) != 2 {
		t.Fatalf("learned groups = %+v", res.Learned.Phase2.Groups)
	}
	for _, g := range res.Learned.Phase2.Groups {
		if !g.WithinTolerance {
			t.Fatalf("learned %s group staleness %.3f exceeds tolerance %.2f after re-adaptation",
				g.Name, g.StaleFraction, g.Tolerance)
		}
		if g.ShadowSamples == 0 {
			t.Fatalf("learned %s group never probed", g.Name)
		}
	}
	// The loop actually ran: epochs were applied, and the migration was
	// re-learned within a measurable lag.
	if res.Learned.Epochs == 0 {
		t.Fatal("learned run applied no epochs")
	}
	if res.Learned.RegroupLagMs <= 0 {
		t.Fatalf("regroup lag = %.0fms, want positive", res.Learned.RegroupLagMs)
	}
	// The differentiation that matters after the migration: learned guards
	// the new hot keys at the tight target and keeps escalating their
	// group; the pinned grouping leaves them on the loose target.
	if res.Learned.HotProtectedTo != regroupHotTolerance {
		t.Fatalf("learned hot data protected to %.2f, want %.2f",
			res.Learned.HotProtectedTo, regroupHotTolerance)
	}
	if res.Static.HotProtectedTo != regroupColdTolerance {
		t.Fatalf("static hot data protected to %.2f, want the loose %.2f",
			res.Static.HotProtectedTo, regroupColdTolerance)
	}
	if res.Learned.Phase2.Groups[0].FinalLevel == "ONE" {
		t.Fatalf("learned tight group never escalated after migration: %+v",
			res.Learned.Phase2.Groups[0])
	}
	if res.Learned.Phase2.Errors > res.Learned.Phase2.Operations/50 ||
		res.Static.Phase2.Errors > res.Static.Phase2.Operations/50 {
		t.Fatalf("excessive errors: learned %d, static %d",
			res.Learned.Phase2.Errors, res.Static.Phase2.Errors)
	}
}

func TestRegroupValidation(t *testing.T) {
	spec := DefaultRegroupSpec()
	spec.migrateTo = spec.HotKeys / 2 // overlaps the initial hot range
	if _, err := Regroup(spec, Options{}); err == nil {
		t.Fatal("overlapping migration accepted")
	}
	spec = DefaultRegroupSpec()
	spec.HotKeys = spec.TotalKeys
	if _, err := Regroup(spec, Options{}); err == nil {
		t.Fatal("degenerate key split accepted")
	}
}

// TestAdaptationLagMeasured runs the drifting scenario through the lag
// experiment: the regime change must be detected and timed.
func TestAdaptationLagMeasured(t *testing.T) {
	t.Parallel()
	res, err := AdaptationLag(Drifting(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	if !res.Stable {
		t.Fatal("controller produced too few post-change decisions to judge")
	}
	if res.LagMs < 0 {
		t.Fatalf("lag = %.0fms", res.LagMs)
	}
	if res.Decisions == 0 {
		t.Fatal("no decisions recorded")
	}
	if res.RegimeChangeAtMs <= 0 || res.RegimeStableByMs <= res.RegimeChangeAtMs {
		t.Fatalf("regime anchors = %v/%v", res.RegimeChangeAtMs, res.RegimeStableByMs)
	}
	// A static scenario has no regime change to time.
	if _, err := AdaptationLag(Grid5000(), Options{}); err == nil {
		t.Fatal("lag measured on a scenario without a regime change")
	}
}
