package bench

import "testing"

// TestLiveTallyProbeCountsSurviveReset: staleness windows and the scraper
// take deltas of the probe counters, so a reset (a partition's cut opens a
// new measured interval) must not make them go backwards — a negative
// delta wraps to ~2^64 samples.
func TestLiveTallyProbeCountsSurviveReset(t *testing.T) {
	var tally liveTally
	tally.read(0, 0, nil, true, true)
	tally.read(1, 0, nil, true, false)
	tally.write(1, nil)
	samples, stale := tally.probes()
	tally.reset()
	afterSamples, afterStale := tally.probes()
	for g := 0; g < 2; g++ {
		if afterSamples[g] < samples[g] || afterStale[g] < stale[g] {
			t.Fatalf("group %d probe counts went from %d/%d to %d/%d across reset",
				g, stale[g], samples[g], afterStale[g], afterSamples[g])
		}
	}
	// The measured interval itself does restart.
	if s := tally.snapshot(); s.ops != 0 || s.samples != [2]uint64{} {
		t.Fatalf("snapshot after reset = %+v, want an empty interval", s)
	}
}
