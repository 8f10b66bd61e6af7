package bench

import (
	"sync"
	"testing"
	"time"

	"harmony/internal/sim"
)

// TestChurnRepairBoundsPostRecoveryStaleness is the acceptance regression
// for the anti-entropy subsystem: on an identical failure schedule (node
// down, hints capped and lost, node back), the repair-enabled cluster
// returns every key group within its staleness tolerance in bounded time
// and beats hints-only on post-recovery staleness, while hints-only keeps
// serving divergent data that only sampled read repair slowly drains.
func TestChurnRepairBoundsPostRecoveryStaleness(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("churn schedule needs its full virtual timeline")
	}
	// The full default spec — the exact configuration the CI churn
	// experiment publishes — so the pinned numbers and the artifact agree.
	res, err := Churn(DefaultChurnSpec(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Format())

	// Repair: every group returns within tolerance in a bounded window.
	const boundMs = 3000
	for _, g := range res.Repair.Groups {
		if g.RecoveredWithinMs < 0 || g.RecoveredWithinMs > boundMs {
			t.Errorf("repair: group %s recovered in %.0fms, want within [0, %d]", g.Name, g.RecoveredWithinMs, boundMs)
		}
		if g.PostFraction > g.Tolerance {
			t.Errorf("repair: group %s post-recovery stale fraction %.3f exceeds tolerance %.2f",
				g.Name, g.PostFraction, g.Tolerance)
		}
	}

	// The schedule must actually lose mutations — otherwise hints healed
	// everything and the comparison proves nothing.
	if res.Repair.HintsDropped < 500 || res.HintsOnly.HintsDropped < 500 {
		t.Fatalf("failure schedule dropped too few hints (repair=%d hints-only=%d): no divergence injected",
			res.Repair.HintsDropped, res.HintsOnly.HintsDropped)
	}
	// Anti-entropy did the healing; hints-only had nothing to heal with.
	if res.Repair.RowsHealed < 200 {
		t.Errorf("repair healed only %d rows; sessions did not catch the dropped-hint divergence", res.Repair.RowsHealed)
	}
	if res.HintsOnly.RowsHealed != 0 {
		t.Errorf("hints-only run reports %d repair-healed rows; fixture is not hints-only", res.HintsOnly.RowsHealed)
	}

	// The headline: repair beats hints-only on post-recovery staleness for
	// the divergence-exposed cold group, with real staleness to beat.
	rc, hc := res.Repair.Groups[1], res.HintsOnly.Groups[1]
	if hc.PostStale < 20 {
		t.Errorf("hints-only cold group saw only %d stale reads; scenario lost its divergence signal", hc.PostStale)
	}
	if floor := 5 * maxU64(1, rc.PostStale); hc.PostStale < floor {
		t.Errorf("repair did not clearly beat hints-only on cold staleness: repair=%d hints-only=%d (want >= %d)",
			rc.PostStale, hc.PostStale, floor)
	}
	// Bounded versus unbounded: by the tail of the watch repair has fully
	// converged while hints-only is still serving stale data.
	if rc.TailFraction > 0.001 {
		t.Errorf("repair cold tail stale fraction %.4f, want ~0 (converged)", rc.TailFraction)
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// TestAssembleGroups pins the window assembly's rules on hand-built
// windows (100ms each, recovery 250ms after the first one starts, two
// within-tolerance windows declare recovery).
func TestAssembleGroups(t *testing.T) {
	const windowLen = 100 * time.Millisecond
	// win builds one window: the same samples and stale count for both groups.
	win := func(samples, stale uint64) ChurnWindow {
		frac := 0.0
		if samples > 0 {
			frac = float64(stale) / float64(samples)
		}
		return ChurnWindow{
			Samples:  []uint64{samples, samples},
			Stale:    []uint64{stale, stale},
			Fraction: []float64{frac, frac},
		}
	}
	assemble := func(ws ...ChurnWindow) ChurnGroup {
		return assembleGroups(ws, 250*time.Millisecond, windowLen, 2, []float64{0.1, 0.1}, [2]string{"ONE", "ONE"})[0]
	}
	stale, clean, thin := win(20, 10), win(20, 0), win(9, 9)

	// Windows 0-2 start before the recovery instant; the horizon begins at
	// window 3 (+50ms). A stale window before it does not count.
	g := assemble(stale, stale, stale, clean, clean)
	if g.RecoveredWithinMs != 50 || g.PostSamples != 40 || g.PostStale != 0 {
		t.Fatalf("recovery at the horizon's first window: %+v", g)
	}
	// Recovery dates from the start of the streak, not its end.
	if g := assemble(stale, stale, stale, stale, clean, clean); g.RecoveredWithinMs != 150 {
		t.Fatalf("streak from window 4: recovered %.0fms, want 150", g.RecoveredWithinMs)
	}
	// A thin window (under 10 samples) is neutral: it keeps the streak
	// alive even when all of it is stale, though it still sets the worst.
	if g := assemble(stale, stale, stale, clean, thin, stale, clean, thin); g.RecoveredWithinMs != 350 || g.WorstWindow != 1 {
		t.Fatalf("thin windows: %+v, want recovery at 350ms and worst window 1", g)
	}
	// A later breach voids an earlier recovery call.
	if g := assemble(stale, stale, stale, clean, clean, stale, clean); g.RecoveredWithinMs != -1 {
		t.Fatalf("breach after recovery: recovered %.0fms, want -1", g.RecoveredWithinMs)
	}
	// Recovery is never dated before the recovery instant: with the
	// instant on a window boundary, a streak from there recovers at 0.
	ws := []ChurnWindow{stale, stale, clean, clean}
	if g := assembleGroups(ws, 2*windowLen, windowLen, 2, []float64{0.1, 0.1}, [2]string{}); g[0].RecoveredWithinMs != 0 {
		t.Fatalf("streak from the recovery instant: recovered %.0fms, want 0", g[0].RecoveredWithinMs)
	}
	// The tail is the last quarter of the post-recovery horizon: 8 windows
	// after it, the last 2 of which are stale.
	g = assemble(stale, stale, stale, clean, clean, clean, clean, clean, clean, stale, stale)
	if g.TailFraction != 0.5 || g.PostFraction != 20.0/160 {
		t.Fatalf("tail %.3f post %.3f, want 0.500 and 0.125", g.TailFraction, g.PostFraction)
	}
	// Offsets are relative to the recovery instant.
	ws = []ChurnWindow{stale, clean, clean}
	assembleGroups(ws, 250*time.Millisecond, windowLen, 2, []float64{0.1, 0.1}, [2]string{})
	if ws[0].OffsetMs != -250 || ws[2].OffsetMs != -50 {
		t.Fatalf("window offsets %.0f..%.0f, want -250..-50", ws[0].OffsetMs, ws[2].OffsetMs)
	}
}

// TestWindowSamplerOnRealRuntime: on the live backend the sampler ticks on
// a real-time runtime while the counters move under other goroutines and
// the schedule reads the windows from its own. Each window is the delta
// between two consistent reads of the counters, so none is torn and no
// count lands in two windows.
func TestWindowSamplerOnRealRuntime(t *testing.T) {
	rt := sim.NewRealRuntime()
	defer rt.Stop()
	var mu sync.Mutex
	var samples, stale [2]uint64
	counts := func() ([2]uint64, [2]uint64) {
		mu.Lock()
		defer mu.Unlock()
		return samples, stale
	}
	w := sampleWindows(rt, 2*time.Millisecond, counts)
	deadline := time.Now().Add(40 * time.Millisecond)
	for time.Now().Before(deadline) {
		mu.Lock()
		samples[0]++
		samples[1] += 2
		stale[1]++
		mu.Unlock()
		time.Sleep(100 * time.Microsecond)
	}
	windows := w.finish()
	if len(windows) < 3 {
		t.Fatalf("only %d windows in 40ms of 2ms windows", len(windows))
	}
	var got [2]uint64
	for _, win := range windows {
		got[0] += win.Samples[0]
		got[1] += win.Samples[1]
		if win.Stale[1]*2 != win.Samples[1] || win.Fraction[0] != 0 {
			t.Fatalf("window %+v does not match the counters' ratio", win)
		}
	}
	final, _ := counts()
	if got[0] > final[0] || got[1] > final[1] {
		t.Fatalf("windows hold %v samples, more than the %v counted", got, final)
	}
}
