// Command bench is the repository's benchmark: one command that drives
// the simulator and the service from outside, through their public
// APIs, on four workloads, checks every output, and prints every
// end-to-end metric (and, with -trace 1, every per-layer metric) by
// name with its unit. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	bash bench/run.sh -compare BASE.json NEW.json
//
// Without -workload all four workloads run in turn. The last line of
// standard output for each workload is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 1 when
// any output was wrong.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is what every workload is given.
type config struct {
	work    string        // scratch directory: built daemons, daemon state, span files
	seed    int64         // workload seed; the same seed makes the same inputs
	seconds time.Duration // length of the untraced measured run
	trace   bool          // add a traced pass of seconds/4 and report per-layer metrics
	out     io.Writer     // human-readable progress
}

// tracedLen is the traced pass's length.
func (c *config) tracedLen() time.Duration { return c.seconds / 4 }

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 5

type workloadDef struct {
	name string
	run  func(ctx context.Context, cfg *config) (*result, error)
}

// allWorkloads are the benchmark's four traffic shapes, each chosen to
// put the host time in a different layer: the core engine (kernels),
// machine build and memory images (paper-sweep), the service's write and
// read paths (service), and the coordinator (fleet). README.md and
// BENCHMARK.json say why, and what each should move.
var allWorkloads = []workloadDef{
	{"kernels", runKernels},
	{"paper-sweep", runPaperSweep},
	{"service", runService},
	{"fleet", runFleet},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: kernels, paper-sweep, service or fleet (empty = all four)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of each workload's untraced measured run, in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced pass of a quarter of the run and reports per-layer metrics")
	outFile := fs.String("out", "", "append one JSON record per workload run to this file")
	work := fs.String("work", ".bench_build", "scratch directory for built daemons, daemon state and span files")
	compare := fs.String("compare", "", "compare runs: -compare BASE.json NEW.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: bench -compare BASE.json NEW.json")
			return 2
		}
		if err := runCompare(stdout, filepath.Join(root, "BENCHMARK.json"), *compare, fs.Arg(0)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "usage: bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]")
		return 2
	}
	var selected []workloadDef
	for _, w := range allWorkloads {
		if *workload == "" || *workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	workDir := *work
	if !filepath.IsAbs(workDir) {
		workDir = filepath.Join(root, workDir)
	}
	cfg := &config{
		work:    workDir,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		out:     stdout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	for _, w := range selected {
		if w.name == "service" || w.name == "fleet" {
			if err := buildDaemons(root, filepath.Join(workDir, "bin")); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			break
		}
	}

	status := 0
	for _, w := range selected {
		fmt.Fprintf(stdout, "== %s (seed %d, %v measured", w.name, cfg.seed, cfg.seconds)
		if cfg.trace {
			fmt.Fprintf(stdout, " + %v traced", cfg.tracedLen())
		}
		fmt.Fprintf(stdout, ", GOMAXPROCS %d)\n", runtime.GOMAXPROCS(0))
		res, err := w.run(ctx, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		res.layer["bench.fail_frac"] = res.failFrac()
		res.printTable(stdout, cfg.trace)
		if *outFile != "" {
			if err := appendRecord(*outFile, cfg, res); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		line, err := resultLine(res, cfg.trace)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.correct() {
			status = 1
		}
	}
	return status
}

// findRoot locates the repository root: the working directory, or its
// parent when run from inside bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err != nil || !bytes.HasPrefix(mod, []byte("module ximd\n")) {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ximdd")); err != nil {
			continue
		}
		return filepath.Abs(dir)
	}
	return "", errors.New("run from the repository root: no go.mod for module ximd with cmd/ximdd here or in the parent directory")
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the machine-readable last line of a workload's output:
// every end-to-end metric untraced, every per-layer metric traced.
func resultLine(r *result, traced bool) ([]byte, error) {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	metrics := map[string]metricOut{}
	putMetrics(metrics, defs, vals)
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
}

// putMetrics adds the value of each of defs in vals to out, with its
// unit.
func putMetrics(out map[string]metricOut, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		out[d.name] = metricOut{Value: finite(vals[d.name]), Unit: d.unit}
	}
}

// record is one line of an -out file: a workload run with every metric
// it measured, for -compare.
type record struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Traced    bool                 `json:"traced"`
	Go        string               `json:"go"`
	Host      string               `json:"host"`
	UnixMS    int64                `json:"unix_ms"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func appendRecord(path string, cfg *config, r *result) error {
	host, _ := os.Hostname() // best effort: the host label is informational
	rec := record{
		Workload: r.workload, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Traced: cfg.trace,
		Go: runtime.Version(), Host: fmt.Sprintf("%s/%d-cpu", host, runtime.NumCPU()),
		UnixMS: time.Now().UnixMilli(), Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricOut{},
	}
	putMetrics(rec.Metrics, endToEnd, r.e2e)
	if cfg.trace {
		putMetrics(rec.Metrics, perLayer, r.layer)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sinceMS is the time since start in fractional milliseconds.
func sinceMS(start time.Time) float64 { return float64(time.Since(start)) / float64(time.Millisecond) }

// closedLoop runs pass back to back until d has elapsed (at least once)
// or ctx ends, returning each pass's wall time in seconds. The
// benchmark's heap is collected before each pass, outside its timing,
// so an in-process pass is not charged for the previous pass's garbage
// and every pass starts from the same state.
func closedLoop(ctx context.Context, d time.Duration, pass func() error) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return walls, err
		}
		runtime.GC()
		t := time.Now()
		if err := pass(); err != nil {
			return walls, err
		}
		walls = append(walls, time.Since(t).Seconds())
	}
	return walls, nil
}

// medianSetup runs setup setupReps times and returns the median of the
// durations it reports; last tells setup to keep what it built.
func medianSetup(setup func(last bool) (time.Duration, error)) (float64, error) {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		d, err := setup(i == setupReps-1)
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
	}
	return median(ds), nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
