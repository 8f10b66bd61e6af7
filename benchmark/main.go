// Command benchmark is the repository's one end-to-end benchmark: four named
// workloads, three end-to-end metrics with regression bounds, and a per-layer
// table measured from outside the program. See README.md beside this file.
//
//	bash benchmark/run.sh --workload live-read-quorum --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --out out/benchmark.json
//	bash benchmark/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"

	"harmony/internal/bench"
	"harmony/internal/server"
)

// runConfig is one invocation's settings, shared by every workload it runs.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // scratch for member data and logs, inside the checkout
	outDir   string // where trace files go

	mu      sync.Mutex
	cleanup []func()
}

// onExit registers fn to run on every exit path, including signals.
func (rc *runConfig) onExit(fn func()) {
	rc.mu.Lock()
	rc.cleanup = append(rc.cleanup, fn)
	rc.mu.Unlock()
}

func (rc *runConfig) runCleanup() {
	rc.mu.Lock()
	fns := rc.cleanup
	rc.cleanup = nil
	rc.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// result is one workload's outcome.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]summary `json:"per_layer"`

	mismatches, regressions int64
}

func newResult() *result {
	return &result{EndToEnd: map[string]summary{}, PerLayer: map[string]summary{}}
}

func (r *result) e2e(name string, s summary)   { r.EndToEnd[name] = s }
func (r *result) layer(name string, s summary) { r.PerLayer[name] = s }

// require records a failed correctness check; the command exits nonzero.
func (r *result) require(ok bool, format string, args ...any) {
	if !ok {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// finish applies the checks every workload shares and fills in units and
// the metrics the workload had nothing to say about.
func (r *result) finish() {
	r.layer("error_frac", scalar(ratio(float64(r.Failed), float64(r.Attempted))))
	r.layer("check.key_mismatches", scalar(float64(r.mismatches)))
	r.layer("check.quorum_regressions", scalar(float64(r.regressions)))
	r.require(r.Attempted > 0, "no operations attempted")
	r.require(r.Failed == 0, "%d of %d operations failed or never completed", r.Failed, r.Attempted)
	r.require(r.mismatches == 0, "%d reads did not decode to the key they asked for", r.mismatches)
	r.require(r.regressions == 0, "%d linearizable reads returned a version older than one already acknowledged", r.regressions)
	for _, m := range endToEnd {
		s, ok := r.EndToEnd[m.Name]
		r.require(ok && s.Value > 0, "end-to-end metric %s was not measured", m.Name)
		s.Unit = m.Unit
		r.EndToEnd[m.Name] = s
	}
	for _, m := range perLayer {
		s := r.PerLayer[m.Name] // zero when it does not apply to this workload
		s.Unit = m.Unit
		r.PerLayer[m.Name] = s
	}
	r.Correct = len(r.Failures) == 0
}

// contractLine is the one JSON object the driver reads from the last line.
func (r *result) contractLine(trace bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := r.EndToEnd
	if trace {
		src = r.PerLayer
	}
	metrics := make(map[string]mv, len(src))
	for name, s := range src {
		metrics[name] = mv{s.Value, s.Unit}
	}
	b, _ := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	return string(b)
}

func (r *result) print(name string) {
	fmt.Printf("== %s ==\n", name)
	for _, set := range []struct {
		defs []metricDef
		vals map[string]summary
	}{{endToEnd, r.EndToEnd}, {perLayer, r.PerLayer}} {
		for _, m := range set.defs {
			s := set.vals[m.Name]
			if s.Windows > 1 {
				fmt.Printf("%-34s %14.4f %-6s [q1 %.4f q3 %.4f, %d windows, %d samples]\n", m.Name, s.Value, m.Unit, s.Q1, s.Q3, s.Windows, s.Samples)
			} else {
				fmt.Printf("%-34s %14.4f %s\n", m.Name, s.Value, m.Unit)
			}
		}
	}
	for _, f := range r.Failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
}

// resultFile is what --out writes and --compare reads.
type resultFile struct {
	Env       environment        `json:"env"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	// A process carrying the child marker is a cluster member: dispatch into
	// the server before touching our own flags, exactly as cmd/harmony-bench
	// does, so the members are byte-identical to cmd/harmony-server.
	if os.Getenv(bench.LiveChildEnv) == "1" {
		os.Exit(server.Main(os.Args[1:]))
	}
	os.Exit(run())
}

func run() (code int) {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 20, "measured seconds per workload (warm-up and closed phase; with --trace 1 a paced phase too)")
		trace    = flag.Int("trace", 0, "1: also run the paced phase, the traced phase and the layer probes, and print the per-layer metrics")
		out      = flag.String("out", "", "write the full result (quartiles, windows, environment) to this file")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			logf("usage: --compare a.json b.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	var todo []*workloadDef
	if *workload == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*workload); w != nil {
		todo = append(todo, w)
	} else {
		logf("unknown workload %q", *workload)
		return 2
	}

	rc := &runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: filepath.Join(".bench_build", "run"), outDir: "out"}
	if err := os.MkdirAll(rc.root, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	if err := refuseIfLeaked(rc.root); err != nil {
		logf("%v", err)
		return 1
	}
	// Every exit path kills the members and removes their dirs: a return, a
	// failed check, a panic (re-raised after cleanup), SIGINT or SIGTERM.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		rc.runCleanup()
		os.Exit(130)
	}()
	defer func() {
		rc.runCleanup()
		if p := recover(); p != nil {
			panic(p)
		}
	}()

	file := resultFile{Env: readEnvironment(rc.root), Seed: *seed, Seconds: *seconds, Workloads: map[string]*result{}}
	var last *result
	for _, w := range todo {
		rc.workload = w.Name
		res, err := w.run(rc)
		rc.runCleanup()
		if err != nil {
			logf("%s: %v", w.Name, err)
			return 1
		}
		res.print(w.Name)
		file.Workloads[w.Name] = res
		if !res.Correct {
			code = 1
		}
		last = res
	}
	if *out != "" {
		b, _ := json.MarshalIndent(file, "", " ")
		err := os.MkdirAll(filepath.Dir(*out), 0o755)
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			logf("%v", err)
			return 1
		}
	}
	fmt.Println(last.contractLine(rc.trace))
	return code
}
