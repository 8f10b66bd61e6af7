package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestSimExperimentsRepeatPerSeed runs two simulated experiments twice each
// in one process and requires byte-identical JSON: a seeded simulation owes
// the same result every time. It covers the three ways a run used to pick
// up outside entropy — a randomly seeded hash in client.Session (the
// hotcold session arm), hint replay in map order (the partition's
// heal), and controller trace events stamped with the host clock.
func TestSimExperimentsRepeatPerSeed(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs two simulated experiments twice")
	}
	runs := map[string]func() (any, error){
		"partition": func() (any, error) { return Partition(reducedPartitionSpec(), Options{Seed: 11}) },
		"hotcold-session": func() (any, error) {
			opts := Options{Seed: 3, OpsPerPoint: 4000}.withDefaults()
			return runHotCold(DefaultHotColdSpec(), opts, hotColdSession)
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			var out [2][]byte
			for i := range out {
				res, err := run()
				if err != nil {
					t.Fatal(err)
				}
				if out[i], err = json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(out[0], out[1]) {
				i := 0
				for i < len(out[0]) && i < len(out[1]) && out[0][i] == out[1][i] {
					i++
				}
				from := max(i-80, 0)
				t.Fatalf("two runs at one seed differ at byte %d:\n%s\n%s",
					i, out[0][from:min(i+80, len(out[0]))], out[1][from:min(i+80, len(out[1]))])
			}
		})
	}
}
