// Command perfbench is the repository's end-to-end benchmark: it drives one
// seeded workload against the congested-clique stack, verifies every output
// outside the timed interval, and prints one JSON result line.
//
//	perfbench --workload dense-pipeline --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics (host latency, throughput,
// simulated cost, memory, set-up time); --trace 1 runs the traced variant
// of the same workload and reports the per-layer metrics instead. The last
// line of standard output is always the result object; a machine stamp line
// precedes it. The process exits 1 when any output fails verification or
// any of the paper's bounds is breached. See NOTES.md for the workloads and
// how each metric is defined.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// n overrides the workload's clique size (0 = the workload's own);
	// minOps overrides its per-class sample floor. Both exist for the smoke
	// test's tiny runs.
	n      int
	minOps int
	// setups is how many times set-up is repeated to report its median.
	setups int
	// corrupt damages the first output before it is verified, to prove the
	// verification gate catches a wrong result.
	corrupt bool
	// spanDir is where the traced run writes its spans.
	spanDir string
}

// bench accumulates one run's metrics, op counts and correctness problems.
type bench struct {
	cfg       config
	m         map[string]float64
	attempted int
	failed    int
	problems  []string
	tr        *tracer
	log       io.Writer
}

// problem records a verification or bound failure; any problem makes the
// run incorrect and its exit status non-zero.
func (b *bench) problem(format string, a ...any) {
	msg := fmt.Sprintf(format, a...)
	if len(b.problems) < 20 {
		fmt.Fprintln(b.log, "perfbench: FAIL:", msg)
	}
	b.problems = append(b.problems, msg)
}

// opFailed counts one failed operation and records why.
func (b *bench) opFailed(format string, a ...any) {
	b.failed++
	b.problem(format, a...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (b *bench) result() resultLine {
	b.m["ok_ratio"] = ratio(float64(b.attempted-b.failed), float64(b.attempted))
	b.m["failed_ratio"] = ratio(float64(b.failed), float64(b.attempted))
	b.m["peak_rss_mib"] = peakRSSMiB()
	defs := endToEnd
	if b.cfg.trace {
		defs = perLayer
	}
	out := resultLine{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: b.m[d.name], Unit: d.unit}
	}
	return out
}

var workloads = map[string]func(*bench) error{
	"dense-pipeline":   runDense,
	"sparse-recurring": runSparse,
	"service-open":     runService,
}

func workloadNames() []string {
	var names []string
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(mainArgs(os.Args[1:], os.Stdout, os.Stderr))
}

func mainArgs(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed interval")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.IntVar(&cfg.n, "n", 0, "clique size override (0 = workload default)")
	fs.IntVar(&cfg.minOps, "min-samples", 0, "per-class latency sample floor (0 = 100)")
	fs.IntVar(&cfg.setups, "setups", 5, "set-up repetitions (median reported)")
	fs.BoolVar(&cfg.corrupt, "corrupt", false, "corrupt the first output before verification")
	fs.StringVar(&cfg.spanDir, "spans", ".bench_build/spans", "directory the traced run writes spans to")
	stability := fs.Int("stability", 0, "run each workload K times with seeds 1..K and print each end-to-end metric's spread")
	saturate := fs.Bool("saturate", false, "measure service-open's closed-loop saturation throughput")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	if cfg.minOps <= 0 {
		cfg.minOps = 100
	}
	if cfg.setups < 1 {
		cfg.setups = 1
	}
	capGOMAXPROCS()
	switch {
	case *stability > 0:
		return runStability(cfg, *stability, stdout, stderr)
	case *saturate:
		return runSaturate(cfg, stdout, stderr)
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	b := &bench{cfg: cfg, m: map[string]float64{}, log: stderr}
	if cfg.trace {
		b.tr = newTracer()
	}
	stamp := machineStamp()
	b.m["bench.calibration_ms"] = stamp.CalibrationMS
	if err := run(b); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if b.tr != nil {
		if err := b.tr.write(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	res := b.result()
	printTable(stderr, cfg, res)
	stampLine, _ := json.Marshal(map[string]any{"machine": stamp, "workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace})
	fmt.Fprintln(stdout, string(stampLine))
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// capGOMAXPROCS keeps GOMAXPROCS at or below the CPU count: Go 1.24 does not
// read the container's CPU quota, and an inflated GOMAXPROCS environment
// setting would only add scheduler noise.
func capGOMAXPROCS() {
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
}

func printTable(w io.Writer, cfg config, res resultLine) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v: correct=%v attempted=%d failed=%d\n",
		cfg.workload, cfg.seed, cfg.trace, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// setupMedian runs build cfg.setups times and keeps the last result; every
// earlier one is released with its closer. It reports the median build time
// in seconds, so a single slow construction does not move setup_s.
func setupMedian[T any](b *bench, build func() (T, error), release func(T)) (T, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < b.cfg.setups; i++ {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i > 0 {
			release(last)
		}
		last = v
	}
	b.m["setup_s"] = median(times)
	return last, nil
}
