// Command perfbench is the repository benchmark: it starts the real
// privtreed binary on local disk, drives it through the public client
// package with one closed-loop caller, checks every answer, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as
// one JSON object on the last line of standard output.
//
// Run it through run.sh from the repository root, which builds privtreed
// and this command from source first:
//
//	bash perfbench/run.sh --workload query --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// e2eUnits names every end-to-end metric with its unit. BENCHMARK.json
// lists the same names; the smoke self-check compares them. Timings in
// ref_ms, ref_s and 1/ref_s are in reference time (see calib.go);
// setup_s is wall-clock time.
var e2eUnits = map[string]string{
	"setup_s":            "s",
	"success_ratio":      "ratio",
	"node_cpu_ms_per_op": "ref_ms",
	"node_rss_mb":        "MiB",
	"store_kb_per_write": "KiB",
	"op_p50_ms":          "ref_ms",
	"op_p90_ms":          "ref_ms",
	"ops_per_s":          "1/ref_s",
	"op2_p50_ms":         "ref_ms",
	"recover_s":          "ref_s",
	"catchup_s":          "ref_s",
	"rel_error":          "ratio",
}

// bench is one invocation: one workload at one seed.
type bench struct {
	bin     string // privtreed binary
	work    string // this run's scratch directory (data dirs, logs)
	outDir  string // where trace reports and untraced results are kept
	name    string
	seed    uint64
	seconds time.Duration
	traced  bool
	toy     bool // smoke-test sizes
	wrong   bool // perturb one expectation (self-check of the checks)
	// reps is how often each one-shot timing (restart, replica catch-up)
	// repeats in a run, and setupReps how often set-up does; the metric
	// is the median. Workloads with cheap one-shots repeat them more.
	reps, setupReps int
	rssDone         bool // node_rss_mb is taken

	attempted, failed int
	e2e               map[string]float64
	raw               map[string]float64 // wall-clock values of the e2e timings kept in reference time
	ref               *refTask
	layers            map[string]float64
	diag              map[string]any
	sp                *spans // nil when untraced
	t0                time.Time
	stages            map[string]float64 // seconds from start to each stage, a diagnostic
	rep               *report
	nodes             []*node
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: query, release or stream")
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	bin := fs.String("privtreed", "", "path to the privtreed binary")
	work := fs.String("work", ".bench_build/run", "scratch directory for data dirs, logs and reports")
	smoke := fs.Bool("smoke", false, "self-check: run every workload at toy size, traced and untraced, and assert the output")
	toy := fs.Bool("toy", false, "toy input sizes (used by --smoke)")
	wrong := fs.Bool("wrong-expectation", false, "perturb one expected answer; the run must then fail (used by --smoke)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: --privtreed is required")
		return 2
	}
	if *smoke {
		if err := runSmoke(*bin, *work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: smoke:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "perfbench: smoke passed")
		return 0
	}
	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want query, release or stream)\n", *workload)
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	b := &bench{
		bin: *bin, name: *workload, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1, toy: *toy, wrong: *wrong,
		e2e: map[string]float64{}, raw: map[string]float64{}, layers: map[string]float64{}, diag: map[string]any{},
		t0: time.Now(), stages: map[string]float64{},
	}
	abs, err := filepath.Abs(*work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.outDir = abs
	b.work = filepath.Join(abs, fmt.Sprintf("%s-%d-%d", b.name, b.seed, os.Getpid()))
	if b.traced {
		b.sp = newSpans()
		b.rep = &report{}
	}
	st0 := readCPUStat()
	err = b.execute(wl)
	b.diag["steal_share"] = stealShare(st0, readCPUStat())
	for _, n := range b.nodes {
		n.kill()
	}
	if err == nil {
		err = os.RemoveAll(b.work)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.e2e["success_ratio"] = float64(b.attempted-b.failed) / math.Max(1, float64(b.attempted))
	if err := b.writeReports(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return b.printResult()
}

// execute runs the workload under a deadline that keeps the whole
// invocation inside its time limit.
func (b *bench) execute(wl func(context.Context, *bench) error) error {
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), b.seconds+150*time.Second)
	defer cancel()
	// Flush what earlier runs left to write back, so their disk traffic
	// does not land in this run's fsyncs.
	syscall.Sync()
	b.diag["run_order"] = runOrder(b.outDir)
	b.diag["quiet_wait_s"], b.diag["start_steal_share"] = waitForQuietHost(b.outDir)
	b.diag["started_at"] = time.Now().UTC().Format(time.RFC3339)
	var err error
	if b.ref, err = newRefTask(); err != nil {
		return err
	}
	return wl(ctx, b)
}

// A run starts only once the host is quiet: while the steal share of one
// second of busy work on every CPU exceeds stealLimit it waits, at most maxQuietWait per run and
// quietWaitBudget over all runs sharing an output directory, so that a
// neighbour's burst of load falls between runs instead of inside them.
// The steal share decides only when a run starts; it never adjusts a
// measured number.
const (
	stealLimit      = 0.10
	maxQuietWait    = 60 * time.Second
	quietWaitBudget = 150 * time.Second
)

// waitForQuietHost returns the seconds it waited and the steal share of
// the last one-second sample.
func waitForQuietHost(dir string) (float64, float64) {
	path := filepath.Join(dir, "quiet_wait_ms")
	var spentMS int64
	if b, err := os.ReadFile(path); err == nil {
		fmt.Sscanf(string(b), "%d", &spentMS)
	}
	allowed := min(maxQuietWait, quietWaitBudget-time.Duration(spentMS)*time.Millisecond)
	start := time.Now()
	var share float64
	for {
		share = busyStealShare(time.Second)
		if share <= stealLimit || time.Since(start) >= allowed {
			break
		}
	}
	waited := time.Since(start) - time.Second // the first sample is not a wait
	if waited > 0 {
		spentMS += waited.Milliseconds()
		_ = os.WriteFile(path, []byte(fmt.Sprint(spentMS)), 0o644) // bookkeeping for the wait budget only
	}
	return max(0, waited.Seconds()), share
}

// runOrder counts invocations in this output directory, a diagnostic that
// lets a reader line slow runs up with their position in a series.
func runOrder(dir string) int {
	path := filepath.Join(dir, "run_order")
	n := 0
	if b, err := os.ReadFile(path); err == nil {
		fmt.Sscanf(string(b), "%d", &n)
	}
	n++
	_ = os.WriteFile(path, []byte(fmt.Sprint(n)), 0o644) // diagnostic only
	return n
}

// stage opens a stage span in traced runs and notes when the stage began.
func (b *bench) stage(name string) {
	b.sp.begin("stage." + name)
	b.stages[name] = time.Since(b.t0).Seconds()
}

// check records one checked operation; a false ok counts it as failed.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		if b.failed <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
	}
	return ok
}

// start launches a node this run owns; execute's caller kills any left.
func (b *bench) start(dataDir, probe string, extra ...string) (*node, time.Duration, error) {
	n, d, err := startNode(b.bin, dataDir, filepath.Join(b.work, "logs"), probe, extra...)
	if err == nil {
		b.nodes = append(b.nodes, n)
	}
	return n, d, err
}

// stop stops a node this run owns.
func (b *bench) stop(n *node) error {
	for i, m := range b.nodes {
		if m == n {
			b.nodes = append(b.nodes[:i], b.nodes[i+1:]...)
			break
		}
	}
	return n.stop()
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// printResult prints the contract line and returns the exit code: 1 when
// any check failed or a metric is missing.
func (b *bench) printResult() int {
	out := resultJSON{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricJSON{}}
	units, vals := e2eUnits, b.e2e
	if b.traced {
		units, vals = layerUnits(), b.layers
	}
	var missing []string
	for name, unit := range units {
		v, ok := vals[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, name)
			continue
		}
		out.Metrics[name] = metricJSON{Value: v, Unit: unit}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: metrics not measured: %v\n", missing)
	}
	out.Correct = b.failed == 0 && b.attempted > 0 && len(missing) == 0
	b.diag["wall_clock"], b.diag["stage_start_s"] = b.raw, b.stages
	b.diag["run_s"] = time.Since(b.t0).Seconds()
	diag, _ := json.Marshal(b.diag)
	fmt.Fprintf(os.Stderr, "perfbench: diagnostics %s\n", diag)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
