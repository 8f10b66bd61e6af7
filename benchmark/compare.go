package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict compares one end-to-end metric between two runs a and b. The
// change is signed so that positive is worse. A metric whose own quartile
// spread (the windows inside a run) exceeds its bound on either side cannot
// resolve a difference of the bound's size and says so.
func verdict(m metricDef, a, b summary) (change float64, v string) {
	if a.Value == 0 {
		return 0, "unresolved"
	}
	change = (b.Value - a.Value) / a.Value
	if m.Better == "higher" {
		change = -change
	}
	spread := func(s summary) float64 { return ratio(s.Q3-s.Q1, s.Value) }
	switch {
	case spread(a) > m.Bound || spread(b) > m.Bound:
		v = "unresolved"
	case change > m.Bound:
		v = "worse"
	case change < -m.Bound:
		v = "better"
	default:
		v = "same"
	}
	return change, v
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// latencies are shown beside the end-to-end metrics, against the same 0.25,
// because they are what a user feels; they do not set the exit code, because
// on the reference box they do not repeat well enough to (see spec.go).
var latencies = []metricDef{
	{"read_p50_us", "us", "lower", 0.25}, {"read_p99_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25}, {"write_p99_us", "us", "lower", 0.25},
}

// compareFiles prints one row per workload × end-to-end metric (and latency)
// and returns the exit code: 1 if any gated row is worse, 2 if a file cannot
// be read.
func compareFiles(pathA, pathB string, w io.Writer) int {
	a, err := readResultFile(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResultFile(pathB); err == nil {
			return compareResults(a, b, w)
		}
	}
	logf("%v", err)
	return 2
}

func compareResults(a, b *resultFile, w io.Writer) (code int) {
	if a.Env.NProc != b.Env.NProc || a.Env.DataFS != b.Env.DataFS || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "note: the runs differ in environment or length (nproc %d/%d, data fs %s/%s, seconds %v/%v)\n",
			a.Env.NProc, b.Env.NProc, a.Env.DataFS, b.Env.DataFS, a.Seconds, b.Seconds)
	}
	fmt.Fprintf(w, "%-22s %-14s %12s %24s %12s %24s %8s %6s  %s\n",
		"workload", "metric", "a", "a [q1, q3]", "b", "b [q1, q3]", "change", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		row := func(m metricDef, sa, sb summary, gated bool) {
			change, v := verdict(m, sa, sb)
			if v == "worse" && gated {
				code = 1
			}
			if !gated {
				v += " (not gated)"
			}
			fmt.Fprintf(w, "%-22s %-14s %12.2f %24s %12.2f %24s %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, sa.Value, fmt.Sprintf("[%.2f, %.2f]", sa.Q1, sa.Q3),
				sb.Value, fmt.Sprintf("[%.2f, %.2f]", sb.Q1, sb.Q3), change*100, m.Bound*100, v)
		}
		for _, m := range endToEnd {
			row(m, ra.EndToEnd[m.Name], rb.EndToEnd[m.Name], true)
		}
		for _, m := range latencies {
			sa, sb := ra.PerLayer[m.Name], rb.PerLayer[m.Name]
			if sa.Value == 0 && sb.Value == 0 {
				continue // untraced live runs have no paced phase to read latency from
			}
			row(m, sa, sb, false)
		}
	}
	return code
}
