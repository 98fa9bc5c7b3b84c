// Command bench is CapMaestro's benchmark: one closed-loop harness over
// four named workloads that exercises the control plane, the capacity
// study and the closed-loop simulator through their public functions
// only, and checks every output against an independent reference.
//
//	go -C bench run . -workload deep-steady -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the run measures the end-to-end metrics untraced. With
// -trace 1 it measures half the time untraced and half traced, and
// reports the per-layer metrics from spans the benchmark records around
// its own calls into each layer plus the telemetry the program already
// exports. The last line of standard output is one JSON object; the lines
// before it are a human-readable report. The exit code is non-zero when
// any correctness check fails.
//
// See README.md for the workloads, the metrics and which end-to-end
// metric each per-layer metric is predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload.
// Each workload defines its own step; see README.md.
var endToEnd = []metricDef{
	{"step_p50_ms", "ms"},
	{"work_per_s", "1/s"},
	{"setup_s", "s"},
	{"live_heap_mb", "MiB"},
}

// perLayer are the metrics a traced run reports on every workload. A
// layer the workload never calls reports 0.
var perLayer = []metricDef{
	{"rack.gather_us", "us"},
	{"rack.apply_us", "us"},
	{"rack.set_tree_us", "us"},
	{"rack.busy_ms_per_period", "ms"},
	{"room.gather_ms", "ms"},
	{"room.allocate_ms", "ms"},
	{"room.push_ms", "ms"},
	{"room.phase_coverage", "ratio"},
	{"room.gather_critical_ms", "ms"},
	{"room.push_critical_ms", "ms"},
	{"room.gather_wait_ms", "ms"},
	{"room.push_wait_ms", "ms"},
	{"agg.gather_ms", "ms"},
	{"agg.push_ms", "ms"},
	{"wire.bytes_in_per_period", "bytes"},
	{"wire.bytes_out_per_period", "bytes"},
	{"wire.frames_per_period", "count"},
	{"wire.encode_us", "us"},
	{"wire.delta_hit_ratio", "ratio"},
	{"wire.retries", "count"},
	{"wire.errors", "count"},
	{"mem.allocs_per_period", "count"},
	{"mem.alloc_bytes_per_period", "bytes"},
	{"gc.cycles_per_period", "count"},
	{"gc.cpu_fraction", "ratio"},
	{"dc.build_ms", "ms"},
	{"dc.run_us", "us"},
	{"dc.runs", "count"},
	{"mem.allocs_per_run", "count"},
	{"sim.second_us", "us"},
	{"sim.control_second_us", "us"},
	{"sim.control_periods", "count"},
	{"scenario.probe_us", "us"},
	{"scenario.evaluate_ms", "ms"},
	{"mem.allocs_per_sim_second", "count"},
	{"sim.time_to_safe_s", "s"},
	{"sim.hp_throughput", "ratio"},
	{"sim.lp_throughput", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration // measured time (split in half when tracing)
	trace   bool
	toy     bool   // tiny inputs, for the benchmark's own tests
	spans   string // file the traced run's spans are written to ("" = none)
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	lines             []string // human-readable report
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) logf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// fail records a failed correctness check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.logf("FAIL "+format, args...)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (*outcome, error){
	"deep-steady":      func(c config) (*outcome, error) { return runControlPlane(c, deepSteady) },
	"wide-churn":       func(c config) (*outcome, error) { return runControlPlane(c, wideChurn) },
	"capacity-study":   runCapacity,
	"feed-failure-sim": runFeedFailure,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result turns an outcome into the JSON result line: every metric of the
// mode's list, by name with its unit.
func result(o *outcome, trace bool) (resultJSON, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := resultJSON{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !trace {
			return r, fmt.Errorf("workload did not report %s", d.name)
		}
		r.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return r, nil
}

func main() {
	runtime.GOMAXPROCS(2)
	var (
		name     = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
		spansDir = flag.String("spans-dir", "", "directory the traced run writes its spans to")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: usage: -workload {%s} -seed N -seconds S -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if cfg.trace && *spansDir != "" {
		cfg.spans = filepath.Join(*spansDir, *name+".csv")
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, l := range o.lines {
		fmt.Println(l)
	}
	r, err := result(o, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
