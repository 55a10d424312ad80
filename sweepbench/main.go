// Command sweepbench is the repository's end-to-end benchmark. It drives the
// production sweep path from outside, through its public entry points
// (serve.Run, the bishopd HTTP handler over httptest, fleet.Run), checks
// every record it gets back, and prints one JSON result line whose metrics
// are named in BENCHMARK.json at the repository root.
//
//	sweepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it also
// replays the workload's work through the layers' public functions with a
// span around every call and reports the per-layer metrics. run.sh builds
// and runs it from the repository root; every file it writes lives under
// .bench_build/ there.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// defaultSeed is the workload seed whose records are pinned by
// reference.json; any other seed is checked by spot evaluations instead.
const defaultSeed = 1

// buildDir is where run.sh builds the binary and where runs keep their
// scratch files and span dumps, relative to the repository root.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	capacity bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("sweepbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed (trace seed, select subsets and arrival times derive from it)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement time per run")
	fs.IntVar(&o.trace, "trace", 0, "1 adds the traced replay and prints the per-layer metrics")
	fs.BoolVar(&o.capacity, "capacity", false, "measure serve-replay's closed-loop job capacity instead (how the open-loop rate was chosen)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames())
	}
	if o.seconds <= 0 || math.IsInf(o.seconds, 0) || math.IsNaN(o.seconds) {
		return o, fmt.Errorf("--seconds must be positive")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	return o, nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "sweepbench:", err)
		return 2
	}
	scratch, err := os.MkdirTemp(mustMkdir(buildDir), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "sweepbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	e := newEnv(o, scratch)
	if o.capacity {
		jobsPerS, err := measureCapacity(ctx, e)
		if err != nil {
			fmt.Fprintln(stderr, "sweepbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "serve-replay closed-loop capacity: %.2f jobs/s with %d connections (70%% = %.2f jobs/s)\n",
			jobsPerS, e.procs, 0.7*jobsPerS)
		return 0
	}

	res, spans, err := workloads[o.workload](ctx, e)
	if err != nil {
		fmt.Fprintln(stderr, "sweepbench:", err)
		return 1
	}
	if err := checkMetricNames(res.Metrics, o.trace == 1); err != nil {
		fmt.Fprintln(stderr, "sweepbench:", err)
		return 1
	}
	host := e.hostInfo()
	if spans != nil {
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := writeSpans(path, host, spans); err != nil {
			fmt.Fprintln(stderr, "sweepbench:", err)
			return 1
		}
		fmt.Fprintln(stderr, "sweepbench: spans written to", path)
	}
	hostLine, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		fmt.Fprintln(stderr, "sweepbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "sweepbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", hostLine, line)
	if !res.Correct {
		fmt.Fprintf(stderr, "sweepbench: %d of %d operations failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func mustMkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure if it matters
	return dir
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef is one row of the metric table BENCHMARK.json mirrors.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a sweep user sees, measured with tracing off.
var endToEnd = []metricDef{
	{"records_per_s", "1/s", "higher"},
	{"first_record_ms", "ms", "lower"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p90_ms", "ms", "lower"},
	{"cpu_ms_per_record", "ms", "lower"},
	{"alloc_kb_per_record", "kB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's metrics. A layer the workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"workload.trace_gen_ms", "ms", "lower"},
	{"workload.trace_count", "count", "lower"},
	{"tracefile.write_ms", "ms", "lower"},
	{"tracefile.read_ms", "ms", "lower"},
	{"spike.count_us", "us", "lower"},
	{"bundle.tag_ms", "ms", "lower"},
	{"bundle.stratify_ms", "ms", "lower"},
	{"bundle.ecp_prune_ms", "ms", "lower"},
	{"hw.linear_stats_ms", "ms", "lower"},
	{"hw.attn_stats_ms", "ms", "lower"},
	{"accel.simulate_p50_ms", "ms", "lower"},
	{"accel.simulate_p90_ms", "ms", "lower"},
	{"accel.self_ms", "ms", "lower"},
	{"bundle.active_bundle_frac", "frac", "lower"},
	{"bundle.dense_feature_frac", "frac", "lower"},
	{"backend.ptb_p50_us", "us", "lower"},
	{"backend.gpu_p50_us", "us", "lower"},
	{"dse.evaluate_p50_ms", "ms", "lower"},
	{"dse.evaluate_p90_ms", "ms", "lower"},
	{"dse.parallel_eff", "frac", "higher"},
	{"dse.checkpoint_append_p50_us", "us", "lower"},
	{"dse.checkpoint_append_p90_us", "us", "lower"},
	{"dse.checkpoint_bytes", "bytes", "lower"},
	{"dse.checkpoint_out_of_order", "count", "lower"},
	{"serve.cache_save_p50_us", "us", "lower"},
	{"serve.cache_save_p90_us", "us", "lower"},
	{"serve.cache_load_p50_us", "us", "lower"},
	{"serve.cache_load_p90_us", "us", "lower"},
	{"serve.submit_p90_ms", "ms", "lower"},
	{"serve.stream_p90_ms", "ms", "lower"},
	{"serve.cache_hits", "count", "higher"},
	{"serve.cache_misses", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"fleet.releases", "count", "lower"},
	{"fleet.worker_skew", "ratio", "lower"},
	{"fleet.fresh", "count", "higher"},
	{"loadgen.lag_p90_ms", "ms", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"fail_frac", "frac", "lower"},
}

// checkMetricNames fails a run whose metric set drifts from the table, so
// the printed names cannot silently diverge from BENCHMARK.json.
func checkMetricNames(m map[string]metric, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(m) != len(want) {
		return fmt.Errorf("internal: %d metrics emitted, table has %d", len(m), len(want))
	}
	for _, d := range want {
		got, ok := m[d.name]
		if !ok {
			return fmt.Errorf("internal: metric %s not emitted", d.name)
		}
		if got.Unit != d.unit {
			return fmt.Errorf("internal: metric %s has unit %q, table says %q", d.name, got.Unit, d.unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("internal: metric %s is %v", d.name, got.Value)
		}
	}
	return nil
}

// metricSet fills a metric map from name → value using the table's units.
func metricSet(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// workloadNames lists the workloads in name order.
func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
