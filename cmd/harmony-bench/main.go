// Command harmony-bench regenerates the figures of the paper's evaluation
// against the simulated cluster. Each experiment prints an aligned table
// (one row per x value, one column per curve) mirroring the corresponding
// plot, and optionally writes long-form CSV.
//
// Usage:
//
//	harmony-bench -experiment all
//	harmony-bench -experiment fig5 -scenario grid5000 -ops 100000
//	harmony-bench -experiment fig4a -csv out/
//	harmony-bench -experiment hotcold -json out/hotcold.json
//	harmony-bench -experiment regroup -json out/regroup.json
//	harmony-bench -experiment fig5 -arrival 8000   # open-loop Poisson load
//	harmony-bench -backend live -experiment hotcold -procs 5 -json out/live.json
//
// Experiments: fig4a fig4b fig5 fig6 headline hotcold regroup lag churn
// partition all. fig5 and fig6 derive from the same measurement grid;
// requesting either runs the grid for the selected scenario(s). hotcold
// compares the per-group multi-model controller against the global
// controller on a hot/cold key split; regroup compares learned online
// regrouping against build-time-pinned groups under a migrating hotspot;
// lag measures time-from-regime-change-to-stable-level on the drifting
// scenario; partition splits the cluster majority/minority under load and
// enforces the availability/fail-fast/re-convergence contract (nonzero exit
// on violation); -json writes results (plus any figures) as
// machine-readable JSON for CI artifacts.
//
// -backend live replaces the simulated cluster with a spawned cluster of
// real server processes (re-executions of this binary dispatching into
// internal/server) driven over real TCP; the hotcold, churn and partition
// experiments then measure the deployed stack — kernel sockets, kill -9
// failure injection, faults POSTed to each member's admin endpoint,
// dual-read staleness probes — instead of the model.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"harmony/internal/bench"
	"harmony/internal/server"
)

func main() {
	// A process carrying the child marker IS a cluster member: dispatch
	// into the server before touching bench flags.
	if os.Getenv(bench.LiveChildEnv) == "1" {
		os.Exit(server.Main(os.Args[1:]))
	}
	var (
		experiment = flag.String("experiment", "all", "fig4a|fig4b|fig5|fig6|headline|hotcold|regroup|lag|churn|partition|all")
		scenario   = flag.String("scenario", "both", "a scenario name (grid5000, ec2, wan-heavytail, degraded, congested-bimodal, drifting), 'both' paper testbeds, or 'all'")
		ops        = flag.Int64("ops", 30000, "operations per measurement point")
		seed       = flag.Int64("seed", 1, "root random seed")
		threads    = flag.String("threads", "", "comma-separated thread sweep override, e.g. 1,15,40,70,90,100")
		arrival    = flag.Float64("arrival", 0, "open-loop Poisson arrival rate (ops/s); 0 keeps the paper's closed loop")
		csvDir     = flag.String("csv", "", "directory to write per-figure CSV files")
		jsonPath   = flag.String("json", "", "file to write machine-readable JSON results")
		quiet      = flag.Bool("quiet", false, "suppress progress lines")

		backend     = flag.String("backend", "sim", "sim|live: simulated cluster or spawned server processes")
		procs       = flag.Int("procs", 0, "live: cluster size (0 = experiment default)")
		liveMeasure = flag.Duration("live-measure", 0, "live hotcold: measured duration override")
		liveOutage  = flag.Duration("live-outage", 0, "live churn/partition: outage (cut) duration override")
		livePost    = flag.Duration("live-postwatch", 0, "live churn/partition: post-recovery watch override")
		liveKeys    = flag.Int64("live-keys", 0, "live: total keyspace override (hot range scales with it)")
		liveLogs    = flag.String("live-logs", "", "live: directory for member process logs (default: temp)")
	)
	flag.Parse()

	if *ops <= 0 {
		fatalf("bad -ops %d: need a positive operation budget", *ops)
	}
	opts := bench.Options{OpsPerPoint: *ops, Seed: *seed, ArrivalRate: *arrival}
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
	}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			var t int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &t); err != nil || t <= 0 {
				fatalf("bad -threads entry %q", part)
			}
			opts.Threads = append(opts.Threads, t)
		}
	}

	switch *backend {
	case "sim":
	case "live":
		runLiveBackend(*experiment, opts, *jsonPath, liveOverrides{
			procs: *procs, measure: *liveMeasure, outage: *liveOutage,
			postWatch: *livePost, totalKeys: *liveKeys, logDir: *liveLogs,
		})
		return
	default:
		fatalf("unknown backend %q (have sim, live)", *backend)
	}

	scenarios := selectScenarios(*scenario)
	start := time.Now()
	var figures []bench.Figure
	var hotcolds []bench.HotColdResult
	var regroups []bench.RegroupResult
	var lags []bench.LagResult
	var churns []bench.ChurnResult
	var partitions []bench.PartitionResult
	var violations []string

	runGridFigures := func() {
		ids := map[string][2]string{
			"grid5000": {"fig5a", "fig5c"},
			"ec2":      {"fig5b", "fig5d"},
		}
		staleIDs := map[string]string{"grid5000": "fig6a", "ec2": "fig6b"}
		for _, sc := range scenarios {
			g, err := bench.RunGrid(sc, bench.StandardPolicies(sc), opts)
			if err != nil {
				fatalf("grid %s: %v", sc.Name, err)
			}
			pair := ids[sc.Name]
			if wants(*experiment, "fig5") {
				figures = append(figures, g.LatencyFigure(pair[0]), g.ThroughputFigure(pair[1]))
			}
			if wants(*experiment, "fig6") {
				figures = append(figures, g.StalenessFigure(staleIDs[sc.Name]))
			}
		}
	}

	switch {
	case wants(*experiment, "fig4a"):
	case wants(*experiment, "fig4b"):
	case wants(*experiment, "fig5"), wants(*experiment, "fig6"),
		wants(*experiment, "headline"), wants(*experiment, "hotcold"),
		wants(*experiment, "regroup"), wants(*experiment, "lag"),
		wants(*experiment, "churn"), wants(*experiment, "partition"):
	default:
		fatalf("unknown experiment %q", *experiment)
	}

	if wants(*experiment, "fig4a") {
		fig, err := bench.Fig4a(opts)
		if err != nil {
			fatalf("fig4a: %v", err)
		}
		figures = append(figures, fig)
	}
	if wants(*experiment, "fig4b") {
		fig, err := bench.Fig4b(opts)
		if err != nil {
			fatalf("fig4b: %v", err)
		}
		figures = append(figures, fig)
	}
	if wants(*experiment, "fig5") || wants(*experiment, "fig6") {
		runGridFigures()
	}
	if wants(*experiment, "headline") {
		for _, sc := range scenarios {
			sum, err := bench.Headline(sc, opts)
			if err != nil {
				fatalf("headline %s: %v", sc.Name, err)
			}
			fmt.Println(sum.Format())
		}
	}
	if wants(*experiment, "hotcold") {
		for _, sc := range scenarios {
			spec := bench.DefaultHotColdSpec()
			spec.Scenario = sc
			spec.ArrivalRate = *arrival
			res, err := bench.HotCold(spec, opts)
			if err != nil {
				fatalf("hotcold %s: %v", sc.Name, err)
			}
			fmt.Println(res.Format())
			hotcolds = append(hotcolds, res)
		}
	}

	if wants(*experiment, "regroup") {
		// The migrating-hotspot comparison runs on its default scenario:
		// group learning is scenario-independent machinery, and one testbed
		// keeps the experiment affordable in CI.
		spec := bench.DefaultRegroupSpec()
		res, err := bench.Regroup(spec, opts)
		if err != nil {
			fatalf("regroup: %v", err)
		}
		fmt.Println(res.Format())
		regroups = append(regroups, res)
	}
	if wants(*experiment, "lag") {
		res, err := bench.AdaptationLag(bench.Drifting(), opts)
		if err != nil {
			fatalf("lag: %v", err)
		}
		fmt.Println(res.Format())
		lags = append(lags, res)
	}
	if wants(*experiment, "churn") {
		// The failure/churn comparison runs on its purpose-built small
		// cluster (6 nodes, RF=5): anti-entropy's payoff is independent of
		// the WAN profiles, and one schedule keeps it affordable in CI.
		res, err := bench.Churn(bench.DefaultChurnSpec(), opts)
		if err != nil {
			fatalf("churn: %v", err)
		}
		fmt.Println(res.Format())
		churns = append(churns, res)
	}
	if wants(*experiment, "partition") {
		// The partition experiment runs on its purpose-built small cluster
		// and checks its own availability/fail-fast/re-convergence contract;
		// violations fail the invocation after results are written.
		res, err := bench.Partition(bench.DefaultPartitionSpec(), opts)
		if err != nil {
			fatalf("partition: %v", err)
		}
		fmt.Println(res.Format())
		partitions = append(partitions, res)
		violations = append(violations, bench.CheckPartition(res)...)
	}

	if *jsonPath != "" {
		writeJSON(*jsonPath, figures, hotcolds, regroups, lags, churns, partitions)
	}

	for _, f := range figures {
		fmt.Println(f.Format())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatalf("csv dir: %v", err)
			}
			path := filepath.Join(*csvDir, f.ID+".csv")
			if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
				fatalf("write %s: %v", path, err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
	failOnViolations(violations)
}

// failOnViolations exits nonzero when a checked experiment's contract was
// violated — after results and artifacts are already written, so the failed
// run is still inspectable.
func failOnViolations(violations []string) {
	if len(violations) == 0 {
		return
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "harmony-bench: partition contract: "+v)
	}
	os.Exit(1)
}

// liveOverrides carries the CLI knobs that shrink (or grow) the live
// experiment defaults — CI smoke runs a 3-process cluster for seconds.
type liveOverrides struct {
	procs     int
	measure   time.Duration
	outage    time.Duration
	postWatch time.Duration
	totalKeys int64
	logDir    string
}

// runLiveBackend executes the live-cluster experiments and writes their own
// JSON document (the out/live.json CI artifact).
func runLiveBackend(experiment string, opts bench.Options, jsonPath string, ov liveOverrides) {
	if !wants(experiment, "hotcold") && !wants(experiment, "churn") && !wants(experiment, "partition") {
		fatalf("backend live supports -experiment hotcold, churn, partition, or all (got %q)", experiment)
	}
	start := time.Now()
	var hots []bench.LiveHotColdResult
	var churns []bench.LiveChurnResult
	var partitions []bench.PartitionResult
	var violations []string
	if wants(experiment, "hotcold") {
		spec := bench.DefaultLiveHotColdSpec()
		if ov.procs > 0 {
			spec.Procs = ov.procs
			spec.RF = min(spec.RF, ov.procs)
		}
		if ov.measure > 0 {
			spec.Measure = ov.measure
		}
		if ov.totalKeys > 0 {
			spec.TotalKeys = ov.totalKeys
			spec.HotKeys = max(ov.totalKeys/20, 1)
		}
		spec.LogDir = ov.logDir
		res, err := bench.LiveHotCold(spec, opts)
		if err != nil {
			fatalf("live hotcold: %v", err)
		}
		fmt.Println(res.Format())
		hots = append(hots, res)
	}
	if wants(experiment, "churn") {
		spec := bench.DefaultLiveChurnSpec()
		if ov.procs > 0 {
			spec.Procs = ov.procs
			spec.RF = min(spec.RF, ov.procs)
		}
		if ov.outage > 0 {
			spec.Outage = ov.outage
		}
		if ov.postWatch > 0 {
			spec.PostWatch = ov.postWatch
		}
		if ov.totalKeys > 0 {
			spec.TotalKeys = ov.totalKeys
			spec.HotKeys = max(ov.totalKeys/15, 1)
		}
		spec.LogDir = ov.logDir
		res, err := bench.LiveChurn(spec, opts)
		if err != nil {
			fatalf("live churn: %v", err)
		}
		fmt.Println(res.Format())
		churns = append(churns, res)
	}
	if wants(experiment, "partition") {
		spec := bench.DefaultLivePartitionSpec()
		if ov.procs > 0 {
			spec.Procs = ov.procs
			// Keep a strict majority: the small side is at most half minus one.
			spec.MinorityNodes = max((ov.procs-1)/2, 1)
		}
		if ov.outage > 0 {
			spec.Cut = ov.outage
		}
		if ov.postWatch > 0 {
			spec.PostWatch = ov.postWatch
		}
		if ov.totalKeys > 0 {
			spec.TotalKeys = ov.totalKeys
			spec.HotKeys = max(ov.totalKeys/15, 1)
		}
		spec.LogDir = ov.logDir
		res, err := bench.LivePartition(spec, opts)
		if err != nil {
			fatalf("live partition: %v", err)
		}
		fmt.Println(res.Format())
		partitions = append(partitions, res)
		violations = append(violations, bench.CheckPartition(res)...)
	}
	if jsonPath != "" {
		doc := struct {
			LiveHotCold   []bench.LiveHotColdResult `json:"live_hotcold,omitempty"`
			LiveChurn     []bench.LiveChurnResult   `json:"live_churn,omitempty"`
			LivePartition []bench.PartitionResult   `json:"live_partition,omitempty"`
		}{LiveHotCold: hots, LiveChurn: churns, LivePartition: partitions}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatalf("marshal live json: %v", err)
		}
		if dir := filepath.Dir(jsonPath); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatalf("json dir: %v", err)
			}
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			fatalf("write %s: %v", jsonPath, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
	failOnViolations(violations)
}

// writeJSON persists every result of the invocation as one machine-readable
// document (the CI artifact format).
func writeJSON(path string, figures []bench.Figure, hotcolds []bench.HotColdResult,
	regroups []bench.RegroupResult, lags []bench.LagResult, churns []bench.ChurnResult,
	partitions []bench.PartitionResult) {
	doc := struct {
		Figures   []bench.Figure          `json:"figures,omitempty"`
		HotCold   []bench.HotColdResult   `json:"hotcold,omitempty"`
		Regroup   []bench.RegroupResult   `json:"regroup,omitempty"`
		Lag       []bench.LagResult       `json:"lag,omitempty"`
		Churn     []bench.ChurnResult     `json:"churn,omitempty"`
		Partition []bench.PartitionResult `json:"partition,omitempty"`
	}{Figures: figures, HotCold: hotcolds, Regroup: regroups, Lag: lags, Churn: churns,
		Partition: partitions}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("marshal json: %v", err)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatalf("json dir: %v", err)
		}
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatalf("write %s: %v", path, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func selectScenarios(name string) []bench.Scenario {
	all := bench.Scenarios()
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	switch name {
	case "both":
		return []bench.Scenario{bench.Grid5000(), bench.EC2()}
	case "all":
		out := make([]bench.Scenario, 0, len(all))
		for _, n := range names {
			out = append(out, all[n])
		}
		return out
	}
	if sc, ok := all[name]; ok {
		return []bench.Scenario{sc}
	}
	fatalf("unknown scenario %q (have %s, both, all)", name, strings.Join(names, ", "))
	return nil
}

func wants(experiment, which string) bool {
	return experiment == which || experiment == "all"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "harmony-bench: "+format+"\n", args...)
	os.Exit(1)
}
