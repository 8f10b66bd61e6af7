// Command bench-micro runs the tracked micro-benchmark suite
// (internal/bench/micro) outside the go-test harness and records the
// results as JSON, so CI can upload each run as an artifact and print a
// benchstat-style delta against the previous baseline.
//
// Usage:
//
//	bench-micro -json out/micro.json                 # record a baseline
//	bench-micro -json out/micro.json -prev old.json  # record + print deltas
//	bench-micro -bench Engine -benchtime 2s          # subset, longer runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"

	"harmony/internal/bench/micro"
)

// Result is one benchmark's recorded outcome.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	// AppendsPerRound is set by the durable-write benchmarks that report how
	// many appends shared one fsync round.
	AppendsPerRound float64 `json:"appends_per_round,omitempty"`
}

// File is the JSON document bench-micro reads and writes.
type File struct {
	RecordedAt string   `json:"recorded_at"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Maxprocs   int      `json:"gomaxprocs"`
	Results    []Result `json:"results"`
}

var suite = []struct {
	name string
	fn   func(*testing.B)
}{
	{"engine/apply-8g", micro.EngineApply},
	{"engine/apply-8g-observed", micro.EngineApplyObserved},
	{"engine/get-8g", micro.EngineGet},
	{"engine/get-8g-observed", micro.EngineGetObserved},
	{"engine/scan", micro.EngineScan},
	{"persist/apply-8g", micro.PersistApply},
	{"persist/apply-8g-observed", micro.PersistApplyObserved},
	{"storage/persist-apply-pipelined/1-log", micro.PersistApplyPipelined(1)},
	{"storage/persist-apply-pipelined/4-log", micro.PersistApplyPipelined(4)},
	{"storage/persist-apply-pipelined/16-log", micro.PersistApplyPipelined(16)},
	{"persist/get-8g", micro.PersistGet},
	{"persist/recover", micro.PersistRecover},
	{"wire/encode", micro.WireEncode},
	{"wire/decode", micro.WireDecode},
	{"wire/decode-shared", micro.WireDecodeShared},
	{"wire/size", micro.WireSize},
	{"transport/serial-rpc", micro.TransportSerialRPC},
	{"transport/pipelined-rpc", micro.TransportPipelinedRPC},
	{"transport/batched-tput", micro.TransportBatchedThroughput},
	{"merkle/write-path", micro.MerkleWritePath},
	{"merkle/invalidate-rebuild", micro.MerkleInvalidateRebuild},
	{"ring/replicas-for-key", micro.RingReplicasForKey},
	{"simnet/fabric-send", micro.FabricSend},
	{"sim/timer-churn", micro.SimTimerChurn},
	{"cluster/ops", micro.ClusterOps},
}

func main() {
	// Register the testing package's flags (test.benchtime below); without
	// this, testing.Benchmark runs with zeroed configuration outside a test
	// binary.
	testing.Init()
	jsonPath := flag.String("json", "", "write results to this JSON file")
	prevPath := flag.String("prev", "", "previous micro.json to diff against")
	pattern := flag.String("bench", ".", "regexp selecting benchmarks to run")
	benchtime := flag.Duration("benchtime", time.Second, "target run time per benchmark")
	flag.Parse()

	re, err := regexp.Compile(*pattern)
	if err != nil {
		fatalf("bad -bench pattern: %v", err)
	}
	// The heavyweight knobs testing.Benchmark respects are package-level
	// test flags; set the target time directly.
	if err := flag.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
		fatalf("set benchtime: %v", err)
	}

	out := File{
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Maxprocs:   runtime.GOMAXPROCS(0),
	}
	for _, b := range suite {
		if !re.MatchString(b.name) {
			continue
		}
		r := testing.Benchmark(b.fn)
		if r.N == 0 {
			fatalf("%s: benchmark failed (0 iterations)", b.name)
		}
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		// Benchmarks whose cost scales with an internal operation count
		// rather than b.N (cluster/ops) report the true per-op wall cost as
		// a custom metric; prefer it.
		if wall, ok := r.Extra["wall_ns/op"]; ok && wall > 0 {
			ns = wall
		}
		res := Result{
			Name:            b.name,
			Iterations:      r.N,
			NsPerOp:         ns,
			AllocsPerOp:     r.AllocsPerOp(),
			BytesPerOp:      r.AllocedBytesPerOp(),
			OpsPerSec:       1e9 / ns,
			AppendsPerRound: r.Extra["appends/round"],
		}
		out.Results = append(out.Results, res)
		fmt.Printf("%-28s %12.1f ns/op %10d B/op %8d allocs/op %14.0f ops/s",
			res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.OpsPerSec)
		if res.AppendsPerRound > 0 {
			fmt.Printf(" %8.2f appends/round", res.AppendsPerRound)
		}
		fmt.Println()
	}
	if len(out.Results) == 0 {
		fatalf("no benchmarks matched %q", *pattern)
	}

	if *prevPath != "" {
		printDelta(*prevPath, out)
	}
	if *jsonPath != "" {
		if dir := filepath.Dir(*jsonPath); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatalf("mkdir %s: %v", dir, err)
			}
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatalf("marshal: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fatalf("write %s: %v", *jsonPath, err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *jsonPath, len(out.Results))
	}
}

// printDelta prints a benchstat-style old/new comparison for benchmarks
// present in both files. A missing or unreadable previous baseline is not
// an error — first runs have nothing to diff.
func printDelta(prevPath string, cur File) {
	data, err := os.ReadFile(prevPath)
	if err != nil {
		fmt.Printf("no previous baseline (%v); skipping delta\n", err)
		return
	}
	var prev File
	if err := json.Unmarshal(data, &prev); err != nil {
		fmt.Printf("previous baseline unreadable (%v); skipping delta\n", err)
		return
	}
	old := make(map[string]Result, len(prev.Results))
	for _, r := range prev.Results {
		old[r.Name] = r
	}
	names := make([]string, 0, len(cur.Results))
	for _, r := range cur.Results {
		if _, ok := old[r.Name]; ok {
			names = append(names, r.Name)
		}
	}
	if len(names) == 0 {
		fmt.Println("previous baseline shares no benchmarks; skipping delta")
		return
	}
	sort.Strings(names)
	curBy := make(map[string]Result, len(cur.Results))
	for _, r := range cur.Results {
		curBy[r.Name] = r
	}
	fmt.Printf("\ndelta vs %s (recorded %s):\n", prevPath, prev.RecordedAt)
	fmt.Printf("%-28s %14s %14s %8s\n", "name", "old ns/op", "new ns/op", "delta")
	for _, name := range names {
		o, n := old[name], curBy[name]
		pct := (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		fmt.Printf("%-28s %14.1f %14.1f %+7.1f%%\n", name, o.NsPerOp, n.NsPerOp, pct)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench-micro: "+format+"\n", args...)
	os.Exit(1)
}
